(* Cross-backend differential tests for the reliability analysis
   dispatch layer: the symbolic (BDD) engine must be bit-identical to
   the exhaustive engines, the sampled engine must be deterministic
   under the seed and honest about its confidence intervals, and the
   estimate plumbing must reproduce the dense estimators from
   BDD-derived counts. *)

module Spec = Pla.Spec
module Bv = Bitvec.Bv
module ER = Reliability.Error_rate
module Borders = Reliability.Borders
module Estimate = Reliability.Estimate
module Analysis = Reliability.Analysis
module Sym = Reliability.Sym

let check = Alcotest.(check bool)
let check_f tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

let exact = function
  | Analysis.Exact x -> x
  | Analysis.Interval _ -> Alcotest.fail "expected an exact value"

(* ------------------------------------------------------------------ *)
(* Generators *)

let spec_of_phases ~ni ~no phases =
  let s = Spec.create ~ni ~no ~default:Spec.Off in
  List.iteri
    (fun i p ->
      let o = i / (1 lsl ni) and m = i mod (1 lsl ni) in
      Spec.set s ~o ~m
        (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
    phases;
  s

let gen_sized_spec =
  QCheck.Gen.(
    2 -- 8 >>= fun ni ->
    1 -- 2 >>= fun no ->
    list_size (return (no * (1 lsl ni))) (int_bound 2) >>= fun phases ->
    return (ni, no, phases))

let arb_spec =
  QCheck.make
    ~print:(fun (ni, no, _) -> Printf.sprintf "spec ni=%d no=%d" ni no)
    gen_sized_spec

(* A random full assignment consistent with the care set: DC minterms
   follow the mask bits. *)
let impl_of_mask s ~o mask =
  let size = Spec.size s in
  let impl = Bv.create size in
  for m = 0 to size - 1 do
    match Spec.get s ~o ~m with
    | Spec.On -> Bv.set impl m
    | Spec.Off -> ()
    | Spec.Dc -> if (mask lsr (m land 60)) land 1 = 1 then Bv.set impl m
  done;
  impl

(* ------------------------------------------------------------------ *)
(* (a) Bdd_exact is bit-identical to the exhaustive kernel and its
   scalar oracle. *)

let ident_against spec =
  let t = Analysis.of_spec spec in
  for o = 0 to Spec.no spec - 1 do
    let be = Analysis.bounds ~backend:Analysis.Exhaustive t ~o in
    let bb = Analysis.bounds ~backend:Analysis.Bdd_exact t ~o in
    let tag f = Printf.sprintf "kernel o=%d %s" o f in
    check_f 0.0 (tag "base") (exact be.Analysis.base) (exact bb.Analysis.base);
    check_f 0.0 (tag "min_dc") (exact be.Analysis.min_dc)
      (exact bb.Analysis.min_dc);
    check_f 0.0 (tag "max_dc") (exact be.Analysis.max_dc)
      (exact bb.Analysis.max_dc);
    let ce = Analysis.borders ~backend:Analysis.Exhaustive t ~o in
    let cb = Analysis.borders ~backend:Analysis.Bdd_exact t ~o in
    check_f 0.0 (tag "b0") (exact ce.Analysis.b0) (exact cb.Analysis.b0);
    check_f 0.0 (tag "b1") (exact ce.Analysis.b1) (exact cb.Analysis.b1);
    check_f 0.0 (tag "bdc") (exact ce.Analysis.bdc) (exact cb.Analysis.bdc);
    let f1e, f0e, fdce = Analysis.signal_probs ~backend:Analysis.Exhaustive t ~o
    and f1b, f0b, fdcb = Analysis.signal_probs ~backend:Analysis.Bdd_exact t ~o in
    check_f 0.0 (tag "f1") (exact f1e) (exact f1b);
    check_f 0.0 (tag "f0") (exact f0e) (exact f0b);
    check_f 0.0 (tag "fdc") (exact fdce) (exact fdcb);
    check_f 0.0 (tag "cf")
      (exact (Analysis.complexity_factor ~backend:Analysis.Exhaustive t ~o))
      (exact (Analysis.complexity_factor ~backend:Analysis.Bdd_exact t ~o))
  done

(* The same quantities straight from the scalar oracles: bounds,
   border counts and C^f by per-minterm neighbour probes. *)
let ident_against_scalar spec =
  let t = Analysis.of_spec spec in
  let pairs = Spec.ni spec * Spec.size spec in
  for o = 0 to Spec.no spec - 1 do
    let tag f = Printf.sprintf "scalar o=%d %s" o f in
    let bs = ER.bounds_scalar spec ~o in
    let bb = Analysis.bounds ~backend:Analysis.Bdd_exact t ~o in
    check_f 0.0 (tag "base") bs.ER.base (exact bb.Analysis.base);
    check_f 0.0 (tag "min_dc") bs.ER.min_dc (exact bb.Analysis.min_dc);
    check_f 0.0 (tag "max_dc") bs.ER.max_dc (exact bb.Analysis.max_dc);
    let cs = Borders.border_counts_scalar spec ~o in
    let cb = Analysis.borders ~backend:Analysis.Bdd_exact t ~o in
    let count c = float_of_int c in
    check_f 0.0 (tag "b0") (count cs.Borders.b0) (exact cb.Analysis.b0);
    check_f 0.0 (tag "b1") (count cs.Borders.b1) (exact cb.Analysis.b1);
    check_f 0.0 (tag "bdc") (count cs.Borders.bdc) (exact cb.Analysis.bdc);
    check_f 0.0 (tag "cf")
      (count (Borders.same_phase_pairs_scalar spec ~o) /. count pairs)
      (exact (Analysis.complexity_factor ~backend:Analysis.Bdd_exact t ~o))
  done

let prop_bdd_bit_identical_kernel =
  QCheck.Test.make ~name:"bdd backend bit-identical to exhaustive kernel"
    ~count:60 arb_spec (fun (ni, no, phases) ->
      ident_against (spec_of_phases ~ni ~no phases);
      true)

let prop_bdd_bit_identical_scalar =
  QCheck.Test.make ~name:"bdd backend bit-identical to scalar oracle"
    ~count:30 arb_spec (fun (ni, no, phases) ->
      ident_against_scalar (spec_of_phases ~ni ~no phases);
      true)

let prop_bdd_rate_bit_identical =
  QCheck.Test.make
    ~name:"bdd implementation rate bit-identical to exhaustive" ~count:60
    QCheck.(pair arb_spec (int_bound max_int))
    (fun ((ni, no, phases), mask) ->
      let s = spec_of_phases ~ni ~no phases in
      let t = Analysis.of_spec s in
      let ok = ref true in
      for o = 0 to no - 1 do
        let impl = impl_of_mask s ~o mask in
        let re = Analysis.rate_of_table ~backend:Analysis.Exhaustive t ~o ~impl
        and rb = Analysis.rate_of_table ~backend:Analysis.Bdd_exact t ~o ~impl in
        if not (Float.equal (exact re) (exact rb)) then ok := false
      done;
      !ok)

(* (d) the Section 5 estimators are reproduced bit-identically through
   BDD-derived counts. *)
let prop_estimates_from_bdd_counts =
  QCheck.Test.make
    ~name:"signal/border estimates reproduced from bdd counts" ~count:60
    arb_spec (fun (ni, no, phases) ->
      let s = spec_of_phases ~ni ~no phases in
      let t = Analysis.of_spec s in
      let ok = ref true in
      for o = 0 to no - 1 do
        let se = Estimate.signal_based s ~o
        and sb = Analysis.signal_interval ~backend:Analysis.Bdd_exact t ~o in
        let be = Estimate.border_based s ~o
        and bb = Analysis.border_interval ~backend:Analysis.Bdd_exact t ~o in
        if
          not
            (Float.equal se.Estimate.lo sb.Estimate.lo
            && Float.equal se.Estimate.hi sb.Estimate.hi
            && Float.equal be.Estimate.lo bb.Estimate.lo
            && Float.equal be.Estimate.hi bb.Estimate.hi)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* (b) empirical Wilson coverage: across fixed seeds, the sampled CI
   contains the exact value at least about the configured confidence.
   Fully deterministic — the seeds are pinned. *)

let coverage_spec () =
  let rng = Random.State.make [| 7 |] in
  Synthetic.Synth_gen.random_spec ~rng ~ni:6 ~no:1 ~f1:0.35 ~f0:0.4

let test_sampled_coverage () =
  let s = coverage_spec () in
  let t = Analysis.of_spec s in
  let exact_b = ER.bounds s ~o:0 in
  let impl = impl_of_mask s ~o:0 0b1010110 in
  let exact_rate = ER.of_table s ~o:0 ~impl in
  let seeds = 40 in
  let hit_base = ref 0 and hit_min = ref 0 and hit_max = ref 0 in
  let hit_rate = ref 0 in
  for seed = 0 to seeds - 1 do
    let params =
      { Analysis.samples = 1_500; seed; confidence = 0.9 }
    in
    let b = Analysis.bounds ~params ~backend:Analysis.Sampled t ~o:0 in
    let contains v x =
      Analysis.value_lo v <= x && x <= Analysis.value_hi v
    in
    if contains b.Analysis.base exact_b.ER.base then incr hit_base;
    if contains b.Analysis.min_dc exact_b.ER.min_dc then incr hit_min;
    if contains b.Analysis.max_dc exact_b.ER.max_dc then incr hit_max;
    let r = Analysis.rate_of_table ~params ~backend:Analysis.Sampled t ~o:0 ~impl in
    if contains r exact_rate then incr hit_rate
  done;
  (* Binomial(40, 0.9) puts ~99% of its mass at or above 32; Wilson
     over-covers on top of that, and the seeds are pinned, so this is
     a deterministic regression check, not a flaky one. *)
  check "base coverage" true (!hit_base >= 32);
  check "min coverage" true (!hit_min >= 32);
  check "max coverage" true (!hit_max >= 32);
  check "rate coverage" true (!hit_rate >= 32)

(* ------------------------------------------------------------------ *)
(* (c) seed determinism across job counts. *)

let test_sampled_jobs_deterministic () =
  let s = coverage_spec () in
  let params = { Analysis.default_params with samples = 10_000; seed = 11 } in
  (* A fresh problem per job count: a shared one would answer the
     second run from its memoised draw. *)
  let run jobs =
    let t = Analysis.of_spec s in
    Parallel.Pool.with_jobs jobs (fun () ->
        ( Analysis.bounds ~params ~backend:Analysis.Sampled t ~o:0,
          Analysis.borders ~params ~backend:Analysis.Sampled t ~o:0 ))
  in
  let b1, c1 = run 1 and b4, c4 = run 4 in
  let same a b =
    Float.equal (Analysis.value_est a) (Analysis.value_est b)
    && Float.equal (Analysis.value_lo a) (Analysis.value_lo b)
    && Float.equal (Analysis.value_hi a) (Analysis.value_hi b)
  in
  check "base" true (same b1.Analysis.base b4.Analysis.base);
  check "min_dc" true (same b1.Analysis.min_dc b4.Analysis.min_dc);
  check "max_dc" true (same b1.Analysis.max_dc b4.Analysis.max_dc);
  check "b0" true (same c1.Analysis.b0 c4.Analysis.b0);
  check "b1" true (same c1.Analysis.b1 c4.Analysis.b1);
  check "bdc" true (same c1.Analysis.bdc c4.Analysis.bdc);
  (* A different seed must actually change the draw. *)
  let params' = { params with seed = 12 } in
  let b' =
    Analysis.bounds ~params:params' ~backend:Analysis.Sampled
      (Analysis.of_spec s) ~o:0
  in
  check "seed matters" false (same b1.Analysis.base b'.Analysis.base)

(* (c') one sampling pass per output: every impl-free query on a shared
   problem, in any order, equals the same query on a fresh problem, and
   another seed or sample count draws again. *)

let test_sampled_memo () =
  let rng = Random.State.make [| 9 |] in
  let s = Synthetic.Synth_gen.random_spec ~rng ~ni:7 ~no:2 ~f1:0.35 ~f0:0.4 in
  let backend = Analysis.Sampled in
  let queries params =
    [
      ( "signal_probs o=0",
        fun t ->
          let f1, f0, fdc = Analysis.signal_probs ~params ~backend t ~o:0 in
          [ f1; f0; fdc ] );
      ( "borders o=1",
        fun t ->
          let c = Analysis.borders ~params ~backend t ~o:1 in
          [ c.Analysis.b0; c.Analysis.b1; c.Analysis.bdc ] );
      ( "complexity_factor o=1",
        fun t -> [ Analysis.complexity_factor ~params ~backend t ~o:1 ] );
      ( "mean_bounds",
        fun t ->
          let b = Analysis.mean_bounds ~params ~backend t in
          [ b.Analysis.base; b.Analysis.min_dc; b.Analysis.max_dc ] );
      ( "bounds o=0",
        fun t ->
          let b = Analysis.bounds ~params ~backend t ~o:0 in
          [ b.Analysis.base; b.Analysis.min_dc; b.Analysis.max_dc ] );
    ]
  in
  let key vs =
    String.concat " "
      (List.map
         (fun v ->
           Printf.sprintf "%h[%h,%h]" (Analysis.value_est v)
             (Analysis.value_lo v) (Analysis.value_hi v))
         vs)
  in
  let on_fresh params =
    List.map
      (fun (name, q) -> (name, key (q (Analysis.of_spec s))))
      (queries params)
  in
  let base = { Analysis.default_params with samples = 6_000; seed = 3 } in
  let expected = on_fresh base in
  let shared = Analysis.of_spec s in
  let check_on expected order =
    List.iter
      (fun (name, q) ->
        Alcotest.(check string)
          name (List.assoc name expected) (key (q shared)))
      order
  in
  let qs = queries base in
  check_on expected qs;
  check_on expected (List.rev qs);
  check_on expected (List.tl qs @ [ List.hd qs ]);
  List.iter
    (fun (what, params) ->
      let expected' = on_fresh params in
      check (what ^ " changes the draw") true (expected' <> expected);
      check_on expected' (queries params);
      check_on expected qs)
    [
      ("seed", { base with seed = 4 });
      ("samples", { base with samples = 5_000 });
    ]

(* ------------------------------------------------------------------ *)
(* Auto policy, degenerate specs, parsing, large n. *)

let test_auto_policy () =
  let dense = Analysis.of_spec (coverage_spec ()) in
  check "small dense -> exhaustive" true
    (Analysis.resolve dense Analysis.Auto = Analysis.Exhaustive);
  let dense16 =
    Analysis.of_spec (Spec.create ~ni:16 ~no:1 ~default:Spec.Off)
  in
  check "dense above threshold -> bdd" true
    (Analysis.resolve dense16 Analysis.Auto = Analysis.Bdd_exact);
  let rng = Random.State.make [| 3 |] in
  let covers ni =
    Analysis.of_cover_sets ~ni
      (Synthetic.Synth_gen.random_cover_sets ~rng ~ni ~no:1 ~on_cubes:4
         ~dc_cubes:2 ~lit_prob:0.5)
  in
  check "cover n=30 -> bdd" true
    (Analysis.resolve (covers 30) Analysis.Auto = Analysis.Bdd_exact);
  check "cover n=55 -> sampled" true
    (Analysis.resolve (covers 55) Analysis.Auto = Analysis.Sampled);
  check "explicit backend unchanged" true
    (Analysis.resolve dense Analysis.Sampled = Analysis.Sampled)

(* Every engine enum has one (name, constructor) table, read by the
   CLI flags, the JSON and the name function: names are unique, each
   constructor is listed exactly once, the name function inverts the
   table and an unknown name is absent. *)
let check_name_table what table ~all ?name () =
  let names = List.map fst table in
  check (what ^ " names unique") true
    (List.length (List.sort_uniq compare names) = List.length names);
  check (what ^ " no extra entries") true
    (List.length table = List.length all);
  List.iter
    (fun b ->
      check (what ^ " constructor listed once") true
        (List.length (List.filter (fun (_, b') -> b' = b) table) = 1))
    all;
  Option.iter
    (fun name ->
      List.iter (fun (n, b) -> check (what ^ " names " ^ n) true (name b = n))
        table)
    name;
  check (what ^ " unknown absent") true
    (List.assoc_opt "quantum" table = None)

let test_backend_names () =
  check_name_table "analysis" Analysis.backends
    ~all:Analysis.[ Exhaustive; Bdd_exact; Sampled; Auto ]
    ~name:Analysis.backend_name ();
  check_name_table "dc" Rdca_dc.Dc.backends
    ~all:Rdca_dc.Dc.[ Auto; Sat_engine; Differential ]
    ~name:Rdca_dc.Dc.backend_name ();
  check_name_table "atpg" Atpg.Engine.backends
    ~all:Atpg.Engine.[ Auto; Sat_engine; Exhaustive; Differential ]
    ~name:Atpg.Engine.backend_name ();
  check_name_table "equiv" Check.Netlist_check.equiv_engines
    ~all:Check.Netlist_check.[ Auto; Exhaustive; Bdd_backed ]
    ();
  check_name_table "mapper" Techmap.Mapper.modes
    ~all:Techmap.Mapper.[ Delay; Area; Power ]
    ~name:Techmap.Mapper.mode_name ();
  check_name_table "collapse" Atpg.Fault.modes
    ~all:Atpg.Fault.[ No_collapse; Equivalence; Dominance ]
    ~name:Atpg.Fault.mode_name ()

let test_estimate_degenerate_n0 () =
  let z = Estimate.signal_from ~n:0 ~f1:0.0 ~f0:0.0 ~fdc:1.0 in
  check_f 0.0 "signal n=0 lo" 0.0 z.Estimate.lo;
  check_f 0.0 "signal n=0 hi" 0.0 z.Estimate.hi;
  let z =
    Estimate.border_from ~n:0 ~f1:0.0 ~f0:0.0 ~fdc:1.0 ~b0:0.0 ~b1:0.0
      ~bdc:0.0
  in
  check_f 0.0 "border n=0 lo" 0.0 z.Estimate.lo;
  check_f 0.0 "border n=0 hi" 0.0 z.Estimate.hi;
  (* Through the spec-level API and the binomial ablation variant. *)
  let s0 = Spec.create ~ni:0 ~no:1 ~default:Spec.Dc in
  List.iter
    (fun (name, iv) ->
      check (name ^ " finite") true
        Float.(is_finite iv.Estimate.lo && is_finite iv.Estimate.hi);
      check_f 0.0 (name ^ " lo") 0.0 iv.Estimate.lo;
      check_f 0.0 (name ^ " hi") 0.0 iv.Estimate.hi)
    [
      ("signal_based", Estimate.signal_based s0 ~o:0);
      ("border_based", Estimate.border_based s0 ~o:0);
      ("binomial", Estimate.binomial_border_based s0 ~o:0);
    ]

let test_estimate_all_dc_clamped () =
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Dc in
  List.iter
    (fun (name, iv) ->
      check (name ^ " finite") true
        Float.(is_finite iv.Estimate.lo && is_finite iv.Estimate.hi);
      check (name ^ " in range") true
        (0.0 <= iv.Estimate.lo
        && iv.Estimate.lo <= iv.Estimate.hi
        && iv.Estimate.hi <= 1.0))
    [
      ("signal_based", Estimate.signal_based s ~o:0);
      ("border_based", Estimate.border_based s ~o:0);
      ("binomial", Estimate.binomial_border_based s ~o:0);
    ];
  (* The exact bounds of the all-DC spec are attained at the constant
     assignments: zero errors. *)
  let t = Analysis.of_spec s in
  let b = Analysis.bounds ~backend:Analysis.Bdd_exact t ~o:0 in
  check_f 0.0 "all-dc exact min" 0.0 (exact b.Analysis.min_dc);
  check_f 0.0 "all-dc exact base" 0.0 (exact b.Analysis.base)

let test_n0_analysis () =
  let s0 = Spec.create ~ni:0 ~no:1 ~default:Spec.On in
  let t = Analysis.of_spec s0 in
  List.iter
    (fun backend ->
      let b = Analysis.bounds ~backend t ~o:0 in
      check_f 0.0 "n0 base" 0.0 (exact b.Analysis.base);
      check_f 0.0 "n0 max" 0.0 (exact b.Analysis.max_dc);
      let f1, f0, fdc = Analysis.signal_probs ~backend t ~o:0 in
      check_f 0.0 "n0 f1" 1.0 (Analysis.value_est f1);
      check_f 0.0 "n0 f0" 0.0 (Analysis.value_est f0);
      check_f 0.0 "n0 fdc" 0.0 (Analysis.value_est fdc);
      check_f 0.0 "n0 cf" 1.0
        (Analysis.value_est (Analysis.complexity_factor ~backend t ~o:0)))
    [ Analysis.Exhaustive; Analysis.Bdd_exact; Analysis.Sampled ]

let fd_text =
  ".i 3\n.o 2\n.type fd\n010 1-\n1-- 01\n-11 -0\n.e\n"

let test_cover_parse_matches_dense () =
  let dense = (Pla.parse_string fd_text).Pla.spec in
  let cf = Pla.parse_string_covers fd_text in
  check_int "ni" 3 cf.Pla.cf_ni;
  check_int "no" 2 (List.length cf.Pla.cf_outputs);
  let man = Bdd.make_man ~nvars:3 in
  List.iteri
    (fun o cs ->
      let sets = Sym.of_cover_sets man cs in
      check "sets partition" true (Sym.validate man sets = None);
      for m = 0 to 7 do
        let sym_phase =
          if Bdd.eval_minterm man sets.Sym.on m then Spec.On
          else if Bdd.eval_minterm man sets.Sym.off m then Spec.Off
          else Spec.Dc
        in
        check
          (Printf.sprintf "o=%d m=%d" o m)
          true
          (sym_phase = Spec.get dense ~o ~m)
      done)
    cf.Pla.cf_outputs

let fr_text = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n"

let test_cover_parse_fr () =
  let dense = (Pla.parse_string fr_text).Pla.spec in
  let cf = Pla.parse_string_covers fr_text in
  let man = Bdd.make_man ~nvars:2 in
  let sets = Sym.of_cover_sets man (List.hd cf.Pla.cf_outputs) in
  for m = 0 to 3 do
    let sym_phase =
      if Bdd.eval_minterm man sets.Sym.on m then Spec.On
      else if Bdd.eval_minterm man sets.Sym.off m then Spec.Off
      else Spec.Dc
    in
    check (Printf.sprintf "fr m=%d" m) true (sym_phase = Spec.get dense ~o:0 ~m)
  done

let test_cover_parse_wide_and_limits () =
  (* A 24-input file is beyond the dense parser but fine here. *)
  let rng = Random.State.make [| 5 |] in
  let sets =
    Synthetic.Synth_gen.random_cover_sets ~rng ~ni:24 ~no:2 ~on_cubes:5
      ~dc_cubes:3 ~lit_prob:0.5
  in
  let pairs =
    List.map
      (function
        | Pla.Fd_sets { on; dc } -> (on, dc)
        | Pla.Fr_sets _ -> Alcotest.fail "generator emits fd sets")
      sets
  in
  let text = Pla.to_string_covers ~ni:24 pairs in
  (match Pla.parse_string_res text with
  | Ok _ -> Alcotest.fail "dense parser must reject .i 24"
  | Error msg -> check "dense refuses" true (msg <> ""));
  let cf = Pla.parse_string_covers text in
  check_int "wide ni" 24 cf.Pla.cf_ni;
  (* And beyond the cube limit both refuse. *)
  (match Pla.parse_string_covers_res ".i 62\n.o 1\n.e\n" with
  | Ok _ -> Alcotest.fail "cover parser must reject .i 62"
  | Error msg -> check "cube limit" true (msg <> ""))

let test_large_n_symbolic () =
  let rng = Random.State.make [| 9 |] in
  let ni = 26 in
  let sets =
    Synthetic.Synth_gen.random_cover_sets ~rng ~ni ~no:1 ~on_cubes:6
      ~dc_cubes:4 ~lit_prob:0.55
  in
  let t = Analysis.of_cover_sets ~ni sets in
  check "no dense table" true (Analysis.dense_spec t = None);
  let b = Analysis.bounds ~backend:Analysis.Bdd_exact t ~o:0 in
  let base = exact b.Analysis.base
  and mn = exact b.Analysis.min_dc
  and mx = exact b.Analysis.max_dc in
  check "finite" true Float.(is_finite base && is_finite mn && is_finite mx);
  check "ordered" true (0.0 <= mn && mn <= mx && mx <= 1.0);
  (* An implementation consistent with the care set lands inside the
     exact assignment bounds. *)
  let on_cover =
    match List.hd sets with
    | Pla.Fd_sets { on; _ } -> on
    | Pla.Fr_sets _ -> assert false
  in
  let r =
    exact (Analysis.rate_of_cover ~backend:Analysis.Bdd_exact t ~o:0 ~impl:on_cover)
  in
  check "impl rate within bounds" true
    (base +. mn -. 1e-12 <= r && r <= base +. mx +. 1e-12);
  (* The sampled backend agrees within its interval. *)
  let params = { Analysis.default_params with samples = 20_000; seed = 4 } in
  let sb = Analysis.bounds ~params ~backend:Analysis.Sampled t ~o:0 in
  check "sampled base CI brackets exact" true
    (Analysis.value_lo sb.Analysis.base <= base
    && base <= Analysis.value_hi sb.Analysis.base)

let test_load_problem () =
  let rng = Random.State.make [| 13 |] in
  let sets =
    Synthetic.Synth_gen.random_cover_sets ~rng ~ni:24 ~no:1 ~on_cubes:4
      ~dc_cubes:2 ~lit_prob:0.5
  in
  let pairs =
    List.map
      (function Pla.Fd_sets { on; dc } -> (on, dc) | _ -> assert false)
      sets
  in
  let path = Filename.temp_file "rdca_wide" ".pla" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Pla.to_string_covers ~ni:24 pairs);
      close_out oc;
      match Rdca_flow.Flow.load_problem path with
      | Error e -> Alcotest.fail (Rdca_flow.Flow.error_to_string e)
      | Ok t ->
          check_int "ni" 24 (Analysis.ni t);
          check "cover level" true (Analysis.dense_spec t = None));
  (* Suite benchmarks still load densely. *)
  match Rdca_flow.Flow.load_problem "bench" with
  | Error e -> Alcotest.fail (Rdca_flow.Flow.error_to_string e)
  | Ok t -> check "dense" true (Analysis.dense_spec t <> None)

let test_flow_measured_error_backends () =
  let s = coverage_spec () in
  let full, _ = Rdca_flow.Flow.implement s in
  let e = Rdca_flow.Flow.measured_error ~original:s full in
  let b =
    Rdca_flow.Flow.measured_error ~analysis:Analysis.Bdd_exact ~original:s full
  in
  check_f 0.0 "flow bdd == exhaustive" e b

let test_mean_bounds_across_backends () =
  let rng = Random.State.make [| 21 |] in
  let s = Synthetic.Synth_gen.random_spec ~rng ~ni:5 ~no:3 ~f1:0.3 ~f0:0.4 in
  let t = Analysis.of_spec s in
  let me = Analysis.mean_bounds ~backend:Analysis.Exhaustive t in
  let mb = Analysis.mean_bounds ~backend:Analysis.Bdd_exact t in
  check_f 0.0 "mean base" (exact me.Analysis.base) (exact mb.Analysis.base);
  check_f 0.0 "mean min" (exact me.Analysis.min_dc) (exact mb.Analysis.min_dc);
  check_f 0.0 "mean max" (exact me.Analysis.max_dc) (exact mb.Analysis.max_dc);
  let eb = ER.mean_bounds s in
  check_f 0.0 "matches Error_rate.mean_bounds" eb.ER.base
    (exact mb.Analysis.base);
  (* Sampled mean: Bonferroni-adjusted interval still brackets. *)
  let params = { Analysis.default_params with samples = 8_000; seed = 2 } in
  let ms = Analysis.mean_bounds ~params ~backend:Analysis.Sampled t in
  check "sampled mean brackets exact" true
    (Analysis.value_lo ms.Analysis.base <= eb.ER.base
    && eb.ER.base <= Analysis.value_hi ms.Analysis.base)

let test_satcount_boundary () =
  (* Constant one over w variables has 2^w satisfying assignments:
     2^61 still fits an int, 2^62 must refuse and point at the float
     variant. *)
  let man61 = Bdd.make_man ~nvars:61 in
  check "2^61 exact" true (Bdd.satcount man61 (Bdd.one man61) = 1 lsl 61);
  check_f 0.0 "2^61 float" (2.0 ** 61.0)
    (Bdd.satcount_float man61 (Bdd.one man61));
  let man62 = Bdd.make_man ~nvars:62 in
  (match Bdd.satcount man62 (Bdd.one man62) with
  | _ -> Alcotest.fail "2^62 must raise"
  | exception Invalid_argument msg ->
      let contains_sub hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      check "message mentions satcount_float" true
        (contains_sub msg "satcount_float"));
  check_f 0.0 "2^62 float still exact" (2.0 ** 62.0)
    (Bdd.satcount_float man62 (Bdd.one man62));
  (* Zero stays zero at any width. *)
  check_int "zero" 0 (Bdd.satcount man62 (Bdd.zero man62))

let test_value_accessors () =
  let e = Analysis.Exact 0.25 in
  check_f 0.0 "exact est" 0.25 (Analysis.value_est e);
  check_f 0.0 "exact lo" 0.25 (Analysis.value_lo e);
  check_f 0.0 "exact hi" 0.25 (Analysis.value_hi e);
  let i = Analysis.Interval { est = 0.5; lo = 0.4; hi = 0.6 } in
  check_f 0.0 "interval est" 0.5 (Analysis.value_est i);
  check_f 0.0 "interval lo" 0.4 (Analysis.value_lo i);
  check_f 0.0 "interval hi" 0.6 (Analysis.value_hi i);
  let b =
    { Analysis.base = Analysis.Exact 0.5; min_dc = e; max_dc = i }
  in
  check_f 1e-12 "min_rate" 0.75 (Analysis.value_est (Analysis.min_rate b));
  check_f 1e-12 "max_rate" 1.0 (Analysis.value_est (Analysis.max_rate b));
  check "pp exact" true
    (String.length (Format.asprintf "%a" Analysis.pp_value e) > 0);
  check "pp interval" true
    (String.length (Format.asprintf "%a" Analysis.pp_value i) > 0)

let test_auto_boundaries () =
  let dense ni = Analysis.of_spec (Spec.create ~ni ~no:1 ~default:Spec.Off) in
  let cubes ni =
    let empty = Twolevel.Cover.make ~n:ni [] in
    Analysis.of_cover_sets ~ni [ Pla.Fd_sets { on = empty; dc = empty } ]
  in
  let auto t = Analysis.resolve t Analysis.Auto in
  check "dense 14 -> exhaustive" true (auto (dense 14) = Analysis.Exhaustive);
  check "dense 15 -> bdd" true (auto (dense 15) = Analysis.Bdd_exact);
  check "cube-level 40 -> bdd" true (auto (cubes 40) = Analysis.Bdd_exact);
  check "cube-level 41 -> sampled" true (auto (cubes 41) = Analysis.Sampled)

let test_mean_intervals_across_backends () =
  let rng = Random.State.make [| 31 |] in
  let s = Synthetic.Synth_gen.random_spec ~rng ~ni:5 ~no:3 ~f1:0.3 ~f0:0.4 in
  let t = Analysis.of_spec s in
  let pairs name a b =
    check_f 0.0 (name ^ " lo") a.Estimate.lo b.Estimate.lo;
    check_f 0.0 (name ^ " hi") a.Estimate.hi b.Estimate.hi
  in
  pairs "mean signal exh==bdd"
    (Analysis.mean_signal_interval ~backend:Analysis.Exhaustive t)
    (Analysis.mean_signal_interval ~backend:Analysis.Bdd_exact t);
  pairs "mean border exh==bdd"
    (Analysis.mean_border_interval ~backend:Analysis.Exhaustive t)
    (Analysis.mean_border_interval ~backend:Analysis.Bdd_exact t);
  pairs "mean signal == Estimate"
    (Estimate.mean_signal_based s)
    (Analysis.mean_signal_interval ~backend:Analysis.Bdd_exact t);
  pairs "mean border == Estimate"
    (Estimate.mean_border_based s)
    (Analysis.mean_border_interval ~backend:Analysis.Bdd_exact t)

let test_sampled_cf_and_signals () =
  let s = coverage_spec () in
  let t = Analysis.of_spec s in
  let params = { Analysis.default_params with samples = 20_000; seed = 17 } in
  let cf_exact =
    Analysis.value_est
      (Analysis.complexity_factor ~backend:Analysis.Exhaustive t ~o:0)
  in
  let cf_s = Analysis.complexity_factor ~params ~backend:Analysis.Sampled t ~o:0 in
  check "sampled cf CI brackets exact" true
    (Analysis.value_lo cf_s <= cf_exact && cf_exact <= Analysis.value_hi cf_s);
  let f1e, f0e, fdce = Analysis.signal_probs ~backend:Analysis.Exhaustive t ~o:0 in
  let f1s, f0s, fdcs = Analysis.signal_probs ~params ~backend:Analysis.Sampled t ~o:0 in
  List.iter2
    (fun (name, ex) sv ->
      check (name ^ " CI brackets exact") true
        (Analysis.value_lo sv <= exact ex && exact ex <= Analysis.value_hi sv))
    [ ("f1", f1e); ("f0", f0e); ("fdc", fdce) ]
    [ f1s; f0s; fdcs ]

let test_rate_of_cover_matches_table () =
  let s = coverage_spec () in
  let t = Analysis.of_spec s in
  let impl = impl_of_mask s ~o:0 0b110101 in
  (* The same implementation given as a minterm cover. *)
  let cubes = ref [] in
  for m = Spec.size s - 1 downto 0 do
    if Bv.get impl m then
      cubes :=
        Twolevel.Cube.make ~n:(Spec.ni s)
          (List.init (Spec.ni s) (fun j ->
               if (m lsr j) land 1 = 1 then Twolevel.Cube.One
               else Twolevel.Cube.Zero))
        :: !cubes
  done;
  let cover = Twolevel.Cover.make ~n:(Spec.ni s) !cubes in
  let rt = Analysis.rate_of_table ~backend:Analysis.Bdd_exact t ~o:0 ~impl in
  let rc = Analysis.rate_of_cover ~backend:Analysis.Bdd_exact t ~o:0 ~impl:cover in
  check_f 0.0 "cover == table rate" (exact rt) (exact rc);
  check_f 0.0 "== exhaustive" (ER.of_table s ~o:0 ~impl) (exact rc)

let test_cover_parse_names () =
  let text =
    ".i 2\n.o 1\n.ilb alpha beta\n.ob out\n.type fd\n11 1\n0- -\n.e\n"
  in
  let cf = Pla.parse_string_covers text in
  check "input names" true (cf.Pla.cf_input_names = [| "alpha"; "beta" |]);
  check "output names" true (cf.Pla.cf_output_names = [| "out" |]);
  check "type" true (cf.Pla.cf_ty = Pla.Fd)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "sampled Wilson coverage (pinned seeds)" `Quick
        test_sampled_coverage;
      Alcotest.test_case "sampled deterministic across job counts" `Quick
        test_sampled_jobs_deterministic;
      Alcotest.test_case "sampled queries share one draw per output" `Quick
        test_sampled_memo;
      Alcotest.test_case "auto backend policy" `Quick test_auto_policy;
      Alcotest.test_case "backend names round-trip" `Quick test_backend_names;
      Alcotest.test_case "estimate degenerate n=0" `Quick
        test_estimate_degenerate_n0;
      Alcotest.test_case "estimate all-DC clamped" `Quick
        test_estimate_all_dc_clamped;
      Alcotest.test_case "n=0 analysis across backends" `Quick test_n0_analysis;
      Alcotest.test_case "cover parse matches dense (fd)" `Quick
        test_cover_parse_matches_dense;
      Alcotest.test_case "cover parse matches dense (fr)" `Quick
        test_cover_parse_fr;
      Alcotest.test_case "cover parse wide files and limits" `Quick
        test_cover_parse_wide_and_limits;
      Alcotest.test_case "symbolic analysis at n=26" `Quick
        test_large_n_symbolic;
      Alcotest.test_case "load_problem picks representation" `Quick
        test_load_problem;
      Alcotest.test_case "flow measured_error backends agree" `Quick
        test_flow_measured_error_backends;
      Alcotest.test_case "mean bounds across backends" `Quick
        test_mean_bounds_across_backends;
      Alcotest.test_case "satcount integer-overflow boundary" `Quick
        test_satcount_boundary;
      Alcotest.test_case "value accessors and rate composition" `Quick
        test_value_accessors;
      Alcotest.test_case "auto policy switches at its thresholds" `Quick
        test_auto_boundaries;
      Alcotest.test_case "mean estimate intervals across backends" `Quick
        test_mean_intervals_across_backends;
      Alcotest.test_case "sampled cf and signal CIs bracket exact" `Quick
        test_sampled_cf_and_signals;
      Alcotest.test_case "rate_of_cover matches rate_of_table" `Quick
        test_rate_of_cover_matches_table;
      Alcotest.test_case "cover parser keeps names and type" `Quick
        test_cover_parse_names;
      QCheck_alcotest.to_alcotest prop_bdd_bit_identical_kernel;
      QCheck_alcotest.to_alcotest prop_bdd_bit_identical_scalar;
      QCheck_alcotest.to_alcotest prop_bdd_rate_bit_identical;
      QCheck_alcotest.to_alcotest prop_estimates_from_bdd_counts;
    ] )
