(* Differential tests for the word-parallel kernels: every
   neighbour-space metric must agree bit-for-bit with its scalar
   oracle, at one worker domain and at several.  Floats are compared
   with [=] — the kernels are integer-exact, so "close" is not good
   enough. *)

module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bv.Kernel
module ER = Reliability.Error_rate
module Borders = Reliability.Borders
module Metrics = Rdca_core.Metrics
module Assign = Rdca_core.Assign
module Pool = Parallel.Pool

let check = Alcotest.(check bool)
let check_f tol = Alcotest.(check (float tol))
let jobs_grid = [ 1; 4 ]

(* Random (ni, phases) with 0 <= ni <= 6 — from the input-free
   constant up to crossing the 63-bit word boundary (ni = 6 gives 64
   minterms), small enough for the scalar sweeps to stay fast. *)
let gen_spec =
  QCheck.Gen.(
    int_range 0 6 >>= fun n ->
    list_repeat (1 lsl n) (int_bound 2) >>= fun phases ->
    return (n, phases))

let arb_spec =
  QCheck.make
    ~print:(fun (n, ps) ->
      Printf.sprintf "ni=%d phases=%s" n
        (String.concat "" (List.map string_of_int ps)))
    gen_spec

let spec_of (n, phases) =
  let s = Spec.create ~ni:n ~no:1 ~default:Spec.Off in
  List.iteri
    (fun m p ->
      Spec.set s ~o:0 ~m
        (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
    phases;
  s

let impl_of (n, seed) =
  let size = 1 lsl n in
  let impl = Bv.create size in
  for m = 0 to size - 1 do
    if (seed lsr (m land 30)) land 1 = (m land 1) lor ((m lsr 3) land 1) then
      Bv.set impl m
  done;
  impl

(* Run [f] under every job count of the grid and require each result
   to equal [oracle ()], scalar code run once. *)
let kernel_equals_oracle ~oracle f =
  let reference = oracle () in
  List.for_all (fun j -> Pool.with_jobs j f = reference) jobs_grid

(* Figure 3's DC_List from per-minterm weights: the non-zero-weight DC
   minterms in increasing order, stably sorted by decreasing weight. *)
let dc_ranking_oracle s ~o =
  let listed = ref [] in
  Spec.iter_dc s ~o (fun m ->
      let w = Metrics.weight s ~o ~m in
      if w <> 0 then listed := (m, w) :: !listed);
  List.stable_sort (fun (_, w1) (_, w2) -> compare w2 w1) (List.rev !listed)

(* Ranking assignment from the oracle list: the first [fraction] of
   each output's list takes its per-minterm majority phase. *)
let ranking_oracle ~fraction s =
  let out = Spec.copy s in
  for o = 0 to Spec.no s - 1 do
    let ranked = dc_ranking_oracle s ~o in
    let take =
      int_of_float (Float.round (fraction *. float_of_int (List.length ranked)))
    in
    List.iteri
      (fun i (m, _) ->
        if i < take then
          Spec.assign_dc out ~o ~m (Metrics.majority_phase s ~o ~m = Some true))
      ranked
  done;
  out

let prop_of_table =
  QCheck.Test.make ~name:"kernel of_table = scalar oracle (jobs 1,4)"
    ~count:100
    QCheck.(pair arb_spec (int_bound 0x3fffffff))
    (fun ((n, phases), seed) ->
      let s = spec_of (n, phases) in
      let impl = impl_of (n, seed) in
      kernel_equals_oracle
        ~oracle:(fun () -> ER.of_table_scalar s ~o:0 ~impl)
        (fun () -> ER.of_table s ~o:0 ~impl))

let prop_bounds =
  QCheck.Test.make ~name:"kernel bounds = scalar oracle (jobs 1,4)"
    ~count:100 arb_spec (fun sp ->
      let s = spec_of sp in
      kernel_equals_oracle
        ~oracle:(fun () -> ER.bounds_scalar s ~o:0)
        (fun () -> ER.bounds s ~o:0))

let prop_neighbour_counts_batch =
  QCheck.Test.make
    ~name:"kernel neighbour_counts_batch = per-minterm scalar (jobs 1,4)"
    ~count:100 arb_spec (fun sp ->
      let s = spec_of sp in
      kernel_equals_oracle
        ~oracle:(fun () ->
          let size = Spec.size s in
          let on = Array.make size 0
          and off = Array.make size 0
          and dc = Array.make size 0 in
          for m = 0 to size - 1 do
            let o_, f_, d_ = Spec.neighbour_counts s ~o:0 ~m in
            on.(m) <- o_;
            off.(m) <- f_;
            dc.(m) <- d_
          done;
          (on, off, dc))
        (fun () -> Spec.neighbour_counts_batch s ~o:0))

let prop_complexity_factor =
  QCheck.Test.make
    ~name:"kernel same_phase_pairs & border_counts = scalar (jobs 1,4)"
    ~count:100 arb_spec (fun sp ->
      let s = spec_of sp in
      kernel_equals_oracle
        ~oracle:(fun () ->
          (Borders.same_phase_pairs_scalar s ~o:0,
           Borders.border_counts_scalar s ~o:0))
        (fun () ->
          (Borders.same_phase_pairs s ~o:0, Borders.border_counts s ~o:0)))

let prop_lcf_batch =
  QCheck.Test.make
    ~name:"kernel local_complexity_factors = scalar sweep (jobs 1,4)"
    ~count:100 arb_spec (fun sp ->
      let s = spec_of sp in
      kernel_equals_oracle
        ~oracle:(fun () ->
          Array.init (Spec.size s) (fun m ->
              Borders.local_complexity_factor s ~o:0 ~m))
        (fun () -> Borders.local_complexity_factors s ~o:0))

let prop_ranking_weights =
  QCheck.Test.make
    ~name:"kernel dc_ranking & ranking assignment = scalar (jobs 1,4)"
    ~count:100 arb_spec (fun sp ->
      let s = spec_of sp in
      let ranking_ok =
        kernel_equals_oracle
          ~oracle:(fun () -> dc_ranking_oracle s ~o:0)
          (fun () -> Metrics.dc_ranking s ~o:0)
      in
      let reference = ranking_oracle ~fraction:0.5 s in
      let assign_ok =
        List.for_all
          (fun j ->
            Pool.with_jobs j (fun () ->
                Spec.equal (Assign.ranking ~fraction:0.5 s) reference))
          jobs_grid
      in
      ranking_ok && assign_ok)

(* ------------------------------------------------------------------ *)
(* The cache-blocked neighbour sweep must be bit-identical to
   composing the word-at-a-time kernels it fuses — neighbor /
   neighbor_diff with popcount_and and counter_add_bit — at every
   tile size, operand count and op shape (diff or plain plane,
   with/without cross mask, with/without counter). *)

let sweep_reference ~nj ops =
  let nops = Array.length ops in
  let accs = Array.make nops 0 in
  for j = 0 to nj - 1 do
    Array.iteri
      (fun oi op ->
        let plane =
          if op.K.sw_diff then K.neighbor_diff ~j op.K.sw_src
          else K.neighbor ~j op.K.sw_src
        in
        (match op.K.sw_cross with
        | Some x -> accs.(oi) <- accs.(oi) + K.popcount_and plane x
        | None -> ());
        match op.K.sw_counter with
        | Some c -> K.counter_add_bit c plane
        | None -> ())
      ops
  done;
  accs

let prop_neighbour_sweep =
  QCheck.Test.make
    ~name:"tiled neighbour_sweep = composed neighbor/popcount/counter kernels"
    ~count:150
    QCheck.(
      quad (int_range 1 6) (int_range 1 3) (int_range 1 8) small_int)
    (fun (nj, blocks, tile, seed) ->
      let len = blocks * (1 lsl nj) in
      let rng = Random.State.make [| seed; nj; blocks; tile |] in
      let rand_bv () = Bv.random ~rng len ~density:0.4 in
      let nops = 1 + Random.State.int rng 3 in
      (* One description, two independent instantiations: the sweep
         and the reference both mutate their own counters. *)
      let descr =
        Array.init nops (fun _ ->
            ( Random.State.bool rng,
              rand_bv (),
              (if Random.State.bool rng then Some (rand_bv ()) else None),
              Random.State.bool rng ))
      in
      let op_of (sw_diff, src, cross, with_counter) =
        {
          K.sw_src = src;
          sw_diff;
          sw_counter =
            (if with_counter then Some (K.counter_create ~len ~bits:6)
             else None);
          sw_cross = cross;
        }
      in
      let ops_a = Array.map op_of descr in
      let ops_b = Array.map op_of descr in
      let accs_a = K.neighbour_sweep ~tile ~nj ops_a in
      let accs_b = sweep_reference ~nj ops_b in
      let counters_agree =
        Array.for_all2
          (fun a b ->
            match (a.K.sw_counter, b.K.sw_counter) with
            | Some ca, Some cb -> K.counter_extract ca = K.counter_extract cb
            | None, None -> true
            | _ -> false)
          ops_a ops_b
      in
      accs_a = accs_b && counters_agree)

(* Regression: a spec with no inputs has no error events at all — the
   rate is 0, not 0/0 = NaN.  Kernel and oracle, plus the bounds. *)
let test_no_input_rate_is_zero () =
  let s = Spec.create ~ni:0 ~no:1 ~default:Spec.On in
  let impl = Bv.create 1 in
  Bv.set impl 0;
  let r = ER.of_table s ~o:0 ~impl in
  check "rate is a number" false (Float.is_nan r);
  check_f 1e-9 "rate" 0.0 r;
  let b = ER.bounds s ~o:0 in
  check_f 1e-9 "base" 0.0 b.ER.base;
  check_f 1e-9 "min_dc" 0.0 b.ER.min_dc;
  check_f 1e-9 "max_dc" 0.0 b.ER.max_dc;
  check_f 1e-9 "scalar oracle too" 0.0 (ER.of_table_scalar s ~o:0 ~impl)

(* A 0-input function is constant: its local complexity factor is 1,
   in the batch and per-minterm forms. *)
let test_no_input_lcf () =
  let s = Spec.create ~ni:0 ~no:1 ~default:Spec.Dc in
  check_f 1e-9 "per-minterm" 1.0 (Borders.local_complexity_factor s ~o:0 ~m:0);
  let batch = Borders.local_complexity_factors s ~o:0 in
  Alcotest.(check int) "batch length" 1 (Array.length batch);
  check_f 1e-9 "batch" 1.0 batch.(0)

let suite =
  ( "kernel-diff",
    [
      QCheck_alcotest.to_alcotest prop_of_table;
      QCheck_alcotest.to_alcotest prop_bounds;
      QCheck_alcotest.to_alcotest prop_neighbour_counts_batch;
      QCheck_alcotest.to_alcotest prop_complexity_factor;
      QCheck_alcotest.to_alcotest prop_lcf_batch;
      QCheck_alcotest.to_alcotest prop_ranking_weights;
      QCheck_alcotest.to_alcotest prop_neighbour_sweep;
      Alcotest.test_case "no-input spec: rate 0, not NaN" `Quick
        test_no_input_rate_is_zero;
      Alcotest.test_case "no-input spec: LCf = 1" `Quick test_no_input_lcf;
    ] )
