module Spec = Pla.Spec
module Bv = Bitvec.Bv

type backend = Exhaustive | Bdd_exact | Sampled | Auto

let backends =
  [
    ("auto", Auto);
    ("exhaustive", Exhaustive);
    ("bdd", Bdd_exact);
    ("sample", Sampled);
  ]

let backend_name b = fst (List.find (fun (_, b') -> b' = b) backends)

type params = { samples : int; seed : int; confidence : float }

let default_params = { samples = 100_000; seed = 42; confidence = 0.95 }

type value = Exact of float | Interval of { est : float; lo : float; hi : float }

let value_est = function Exact x -> x | Interval { est; _ } -> est
let value_lo = function Exact x -> x | Interval { lo; _ } -> lo
let value_hi = function Exact x -> x | Interval { hi; _ } -> hi

let pp_value ppf = function
  | Exact x -> Format.fprintf ppf "%.9g" x
  | Interval { est; lo; hi } ->
      Format.fprintf ppf "%.9g [%.9g, %.9g]" est lo hi

(* Success counts of one sampling pass (see the sampled engine). *)
type tally = {
  mutable t_on : int;
  mutable t_off : int;
  mutable t_dc : int;
  mutable t_base : int;
  mutable t_min : int;
  mutable t_max : int;
  mutable t_b0 : int;
  mutable t_b1 : int;
  mutable t_bdc : int;
  mutable t_same : int;
  mutable t_rate : int;
}

type t = {
  ni : int;
  no : int;
  dense : Spec.t option;
  sym : (Bdd.man * Sym.sets array) Lazy.t;
  (* Per-output memos; filled from sequential entry points only (the
     parallel regions below never touch them). *)
  stats_memo : Sym.stats option array;
  minmax_memo : (float * float) option array;
  tally_memo : (int * int * tally) option array;
      (* the impl-free sampled tally, keyed by (samples, seed) *)
}

let ni t = t.ni
let no t = t.no
let dense_spec t = t.dense

let of_spec spec =
  let ni = Spec.ni spec and no = Spec.no spec in
  {
    ni;
    no;
    dense = Some spec;
    sym =
      lazy
        (let man = Bdd.make_man ~nvars:ni in
         (man, Array.init no (fun o -> Sym.of_spec man spec ~o)));
    stats_memo = Array.make no None;
    minmax_memo = Array.make no None;
    tally_memo = Array.make no None;
  }

let of_cover_sets ~ni outputs =
  if outputs = [] then invalid_arg "Analysis.of_cover_sets: no outputs";
  let arity c = Twolevel.Cover.n c in
  List.iteri
    (fun o cs ->
      let ok =
        match cs with
        | Pla.Fd_sets { on; dc } -> arity on = ni && arity dc = ni
        | Pla.Fr_sets { on; off } -> arity on = ni && arity off = ni
      in
      if not ok then
        invalid_arg
          (Printf.sprintf "Analysis.of_cover_sets: output %d arity mismatch" o))
    outputs;
  let arr = Array.of_list outputs in
  {
    ni;
    no = Array.length arr;
    dense = None;
    sym =
      lazy
        (let man = Bdd.make_man ~nvars:ni in
         (man, Array.map (Sym.of_cover_sets man) arr));
    stats_memo = Array.make (Array.length arr) None;
    minmax_memo = Array.make (Array.length arr) None;
    tally_memo = Array.make (Array.length arr) None;
  }

let check_output t o =
  if o < 0 || o >= t.no then invalid_arg "Analysis: output out of range"

let resolve t = function
  | Auto ->
      if t.dense <> None && t.ni <= 14 then Exhaustive
      else if t.ni <= 40 then Bdd_exact
      else Sampled
  | b -> b

let dense_exn t =
  match t.dense with
  | Some s -> s
  | None ->
      invalid_arg
        "Analysis: exhaustive backend needs a dense specification (ni <= 20)"

let events_float ~n = float_of_int n *. (2.0 ** float_of_int n)

(* ------------------------------------------------------------------ *)
(* Symbolic engine: everything comes out of the memoised Sym sweep.  *)

let sym_stats t o =
  match t.stats_memo.(o) with
  | Some st -> st
  | None ->
      let man, sets = Lazy.force t.sym in
      let st = Sym.stats man sets.(o) in
      t.stats_memo.(o) <- Some st;
      st

let sym_minmax t o =
  match t.minmax_memo.(o) with
  | Some mm -> mm
  | None ->
      let man, sets = Lazy.force t.sym in
      let mm = Sym.min_max_dc man sets.(o) in
      t.minmax_memo.(o) <- Some mm;
      mm

(* ------------------------------------------------------------------ *)
(* Sampled engine.

   One event is a uniform (minterm m, input j) draw from the
   n * 2^n space; every quantity of interest is the success
   probability of a Bernoulli indicator of that draw:

   - base error: m and its j-neighbour are opposite care phases;
   - min_dc (resp. max_dc): m is DC and the j-neighbour carries the
     minority (resp. majority) care phase among all n neighbours —
     ties go to on, making the success count exactly min(on, off)
     (resp. max) per DC minterm;
   - borders b0/b1/bdc: m is in the phase set, the j-neighbour is not;
   - complexity factor: the two share a phase;
   - implementation rate: m is a care minterm and the implementation
     differs across the flip.

   Draws are grouped into fixed-size chunks, each with its own RNG
   seeded by (seed, output, chunk index), mapped through the pool and
   folded in chunk order — the trace is a function of the seed alone,
   never of the job count.  Without an implementation the tally is a
   function of (samples, seed) alone, not of the confidence, so each
   output draws once and every impl-free quantity reads that pass. *)

let tally_zero () =
  {
    t_on = 0;
    t_off = 0;
    t_dc = 0;
    t_base = 0;
    t_min = 0;
    t_max = 0;
    t_b0 = 0;
    t_b1 = 0;
    t_bdc = 0;
    t_same = 0;
    t_rate = 0;
  }

let tally_merge a b =
  a.t_on <- a.t_on + b.t_on;
  a.t_off <- a.t_off + b.t_off;
  a.t_dc <- a.t_dc + b.t_dc;
  a.t_base <- a.t_base + b.t_base;
  a.t_min <- a.t_min + b.t_min;
  a.t_max <- a.t_max + b.t_max;
  a.t_b0 <- a.t_b0 + b.t_b0;
  a.t_b1 <- a.t_b1 + b.t_b1;
  a.t_bdc <- a.t_bdc + b.t_bdc;
  a.t_same <- a.t_same + b.t_same;
  a.t_rate <- a.t_rate + b.t_rate

let sample_chunk = 4096

(* Uniform n-bit minterm from 30-bit [Random.State.bits] words. *)
let rand_minterm rng ~n =
  let rec go acc got =
    if got >= n then acc land ((1 lsl n) - 1)
    else go ((acc lsl 30) lor Random.State.bits rng) (got + 30)
  in
  go 0 0

let phase_fn t ~o =
  match t.dense with
  | Some spec -> fun m -> Spec.get spec ~o ~m
  | None ->
      let man, sets = Lazy.force t.sym in
      let s = sets.(o) in
      fun m ->
        if Bdd.eval_minterm man s.Sym.on m then Spec.On
        else if Bdd.eval_minterm man s.Sym.off m then Spec.Off
        else Spec.Dc

let draw ~params ?impl t ~o =
  let n = t.ni in
  if params.samples <= 0 then invalid_arg "Analysis: samples must be positive";
  let phase = phase_fn t ~o (* forces the lazy before the parallel map *) in
  let run_chunk c =
    let rng = Random.State.make [| params.seed; o; c |] in
    let first = c * sample_chunk in
    let todo = min sample_chunk (params.samples - first) in
    let t' = tally_zero () in
    for _ = 1 to todo do
      let m = rand_minterm rng ~n in
      let j = Random.State.int rng n in
      let p = phase m in
      let pj = phase (m lxor (1 lsl j)) in
      (match p with
      | Spec.On -> t'.t_on <- t'.t_on + 1
      | Spec.Off -> t'.t_off <- t'.t_off + 1
      | Spec.Dc -> t'.t_dc <- t'.t_dc + 1);
      if p = pj then t'.t_same <- t'.t_same + 1
      else begin
        match p with
        | Spec.Off -> t'.t_b0 <- t'.t_b0 + 1
        | Spec.On -> t'.t_b1 <- t'.t_b1 + 1
        | Spec.Dc -> t'.t_bdc <- t'.t_bdc + 1
      end;
      (match (p, pj) with
      | Spec.On, Spec.Off | Spec.Off, Spec.On -> t'.t_base <- t'.t_base + 1
      | _ -> ());
      (if p = Spec.Dc && pj <> Spec.Dc then begin
         (* Neighbour phase census decides minority/majority. *)
         let on_c = ref 0 and off_c = ref 0 in
         for k = 0 to n - 1 do
           match phase (m lxor (1 lsl k)) with
           | Spec.On -> incr on_c
           | Spec.Off -> incr off_c
           | Spec.Dc -> ()
         done;
         let minority = if !on_c <= !off_c then Spec.On else Spec.Off in
         let majority = if !on_c >= !off_c then Spec.On else Spec.Off in
         if pj = minority then t'.t_min <- t'.t_min + 1;
         if pj = majority then t'.t_max <- t'.t_max + 1
       end);
      match impl with
      | Some f -> if p <> Spec.Dc && f m <> f (m lxor (1 lsl j)) then
            t'.t_rate <- t'.t_rate + 1
      | None -> ()
    done;
    t'
  in
  let nchunks = (params.samples + sample_chunk - 1) / sample_chunk in
  let tallies = Parallel.Pool.init nchunks run_chunk in
  let acc = tally_zero () in
  Array.iter (tally_merge acc) tallies;
  acc

let sample ~params t ~o =
  match t.tally_memo.(o) with
  | Some (samples, seed, s) when samples = params.samples && seed = params.seed
    ->
      s
  | _ ->
      let s = draw ~params t ~o in
      t.tally_memo.(o) <- Some (params.samples, params.seed, s);
      s

let wilson_value ~params ~successes =
  let lo, hi =
    Stats.wilson_interval ~confidence:params.confidence ~trials:params.samples
      ~successes
  in
  Interval
    { est = float_of_int successes /. float_of_int params.samples; lo; hi }

let scale_value k = function
  | Exact x -> Exact (x *. k)
  | Interval { est; lo; hi } ->
      Interval { est = est *. k; lo = lo *. k; hi = hi *. k }

(* ------------------------------------------------------------------ *)
(* Dispatch. *)

type bounds = { base : value; min_dc : value; max_dc : value }

let add_values a b =
  match (a, b) with
  | Exact x, Exact y -> Exact (x +. y)
  | _ ->
      Interval
        {
          est = value_est a +. value_est b;
          lo = value_lo a +. value_lo b;
          hi = value_hi a +. value_hi b;
        }

let min_rate b = add_values b.base b.min_dc
let max_rate b = add_values b.base b.max_dc

let zero_bounds = { base = Exact 0.0; min_dc = Exact 0.0; max_dc = Exact 0.0 }

type border_counts = { b0 : value; b1 : value; bdc : value }

let bounds ?(params = default_params) ~backend t ~o =
  check_output t o;
  if t.ni = 0 then zero_bounds
  else
    match resolve t backend with
    | Auto -> assert false
    | Exhaustive ->
        let b = Error_rate.bounds (dense_exn t) ~o in
        {
          base = Exact b.Error_rate.base;
          min_dc = Exact b.Error_rate.min_dc;
          max_dc = Exact b.Error_rate.max_dc;
        }
    | Bdd_exact ->
        let st = sym_stats t o in
        let mn, mx = sym_minmax t o in
        let ev = events_float ~n:t.ni in
        {
          base = Exact st.Sym.base_rate;
          min_dc = Exact (mn /. ev);
          max_dc = Exact (mx /. ev);
        }
    | Sampled ->
        let s = sample ~params t ~o in
        {
          base = wilson_value ~params ~successes:s.t_base;
          min_dc = wilson_value ~params ~successes:s.t_min;
          max_dc = wilson_value ~params ~successes:s.t_max;
        }

let borders ?(params = default_params) ~backend t ~o =
  check_output t o;
  if t.ni = 0 then { b0 = Exact 0.0; b1 = Exact 0.0; bdc = Exact 0.0 }
  else
    match resolve t backend with
    | Auto -> assert false
    | Exhaustive ->
        let c = Borders.border_counts (dense_exn t) ~o in
        {
          b0 = Exact (float_of_int c.Borders.b0);
          b1 = Exact (float_of_int c.Borders.b1);
          bdc = Exact (float_of_int c.Borders.bdc);
        }
    | Bdd_exact ->
        let st = sym_stats t o in
        { b0 = Exact st.Sym.b0; b1 = Exact st.Sym.b1; bdc = Exact st.Sym.bdc }
    | Sampled ->
        let s = sample ~params t ~o in
        let scale = events_float ~n:t.ni in
        {
          b0 = scale_value scale (wilson_value ~params ~successes:s.t_b0);
          b1 = scale_value scale (wilson_value ~params ~successes:s.t_b1);
          bdc = scale_value scale (wilson_value ~params ~successes:s.t_bdc);
        }

let signal_probs ?(params = default_params) ~backend t ~o =
  check_output t o;
  match resolve t backend with
  | Auto -> assert false
  | Exhaustive ->
      let f1, f0, fdc = Spec.signal_probs (dense_exn t) ~o in
      (Exact f1, Exact f0, Exact fdc)
  | Bdd_exact ->
      let st = sym_stats t o in
      (Exact st.Sym.f1, Exact st.Sym.f0, Exact st.Sym.fdc)
  | Sampled ->
      if t.ni = 0 then begin
        (* A single minterm: read its phase directly. *)
        let p = phase_fn t ~o 0 in
        let v ph = Exact (if p = ph then 1.0 else 0.0) in
        (v Spec.On, v Spec.Off, v Spec.Dc)
      end
      else begin
        let s = sample ~params t ~o in
        ( wilson_value ~params ~successes:s.t_on,
          wilson_value ~params ~successes:s.t_off,
          wilson_value ~params ~successes:s.t_dc )
      end

let complexity_factor ?(params = default_params) ~backend t ~o =
  check_output t o;
  if t.ni = 0 then Exact 1.0
  else
    match resolve t backend with
    | Auto -> assert false
    | Exhaustive -> Exact (Borders.complexity_factor (dense_exn t) ~o)
    | Bdd_exact -> Exact (sym_stats t o).Sym.cf
    | Sampled ->
        let s = sample ~params t ~o in
        wilson_value ~params ~successes:s.t_same

(* ------------------------------------------------------------------ *)
(* Implementation error rates. *)

let check_table t impl =
  if t.ni > 20 then
    invalid_arg "Analysis.rate_of_table: ni > 20 has no dense tables";
  if Bv.length impl <> 1 lsl t.ni then
    invalid_arg "Analysis.rate_of_table: length"

(* Flipped-input miter: sum over j of |care /\ (impl xor flip_j impl)|. *)
let symbolic_rate t ~o ~impl_bdd =
  let man, sets = Lazy.force t.sym in
  let s = sets.(o) in
  let care = Bdd.bor man s.Sym.on s.Sym.off in
  let count = ref 0.0 in
  for j = 0 to t.ni - 1 do
    let miter = Bdd.bxor man impl_bdd (Bdd.flip_var man impl_bdd j) in
    count := !count +. Bdd.satcount_float man (Bdd.band man care miter)
  done;
  Exact (!count /. events_float ~n:t.ni)

let rate_of_table ?(params = default_params) ~backend t ~o ~impl =
  check_output t o;
  check_table t impl;
  if t.ni = 0 then Exact 0.0
  else
    match resolve t backend with
    | Auto -> assert false
    | Exhaustive -> Exact (Error_rate.of_table (dense_exn t) ~o ~impl)
    | Bdd_exact ->
        let man, _ = Lazy.force t.sym in
        symbolic_rate t ~o ~impl_bdd:(Bdd.of_bv man impl)
    | Sampled ->
        let s = draw ~params ~impl:(Bv.get impl) t ~o in
        wilson_value ~params ~successes:s.t_rate

let rate_of_cover ?(params = default_params) ~backend t ~o ~impl =
  check_output t o;
  if Twolevel.Cover.n impl <> t.ni then
    invalid_arg "Analysis.rate_of_cover: arity mismatch";
  if t.ni = 0 then Exact 0.0
  else
    match resolve t backend with
    | Auto -> assert false
    | Exhaustive ->
        Exact
          (Error_rate.of_table (dense_exn t) ~o
             ~impl:(Twolevel.Cover.to_bv impl))
    | Bdd_exact ->
        let man, _ = Lazy.force t.sym in
        symbolic_rate t ~o ~impl_bdd:(Bdd.of_cover man impl)
    | Sampled ->
        let s = draw ~params ~impl:(Twolevel.Cover.eval impl) t ~o in
        wilson_value ~params ~successes:s.t_rate

(* ------------------------------------------------------------------ *)
(* Means across outputs.

   Exact values fold in output order, matching the sequential
   summation of [Error_rate.mean_bounds] bit for bit.  Sampled means
   Bonferroni-adjust the per-output confidence to 1 - (1-c)/no, so
   the averaged interval still holds at level c (each of the [no]
   intervals misses with probability at most (1-c)/no). *)

let mean_values vs =
  let k = float_of_int (Array.length vs) in
  let all_exact =
    Array.for_all (function Exact _ -> true | Interval _ -> false) vs
  in
  let sum f = Array.fold_left (fun a v -> a +. f v) 0.0 vs in
  if all_exact then Exact (sum value_est /. k)
  else
    Interval
      {
        est = sum value_est /. k;
        lo = sum value_lo /. k;
        hi = sum value_hi /. k;
      }

let bonferroni ~params t =
  { params with confidence = 1.0 -. ((1.0 -. params.confidence) /. float_of_int t.no) }

let per_output_params ~params ~backend t =
  match resolve t backend with
  | Sampled -> bonferroni ~params t
  | _ -> params

let mean_bounds ?(params = default_params) ~backend t =
  let params' = per_output_params ~params ~backend t in
  let per = Array.init t.no (fun o -> bounds ~params:params' ~backend t ~o) in
  {
    base = mean_values (Array.map (fun b -> b.base) per);
    min_dc = mean_values (Array.map (fun b -> b.min_dc) per);
    max_dc = mean_values (Array.map (fun b -> b.max_dc) per);
  }

let rate_of_tables ?(params = default_params) ~backend t ~impl =
  if Array.length impl <> t.no then
    invalid_arg "Analysis.rate_of_tables: output count";
  let params' = per_output_params ~params ~backend t in
  mean_values
    (Array.init t.no (fun o ->
         rate_of_table ~params:params' ~backend t ~o ~impl:impl.(o)))

(* ------------------------------------------------------------------ *)
(* Analytical estimates fed from a backend. *)

let estimate_inputs ~params ~backend t ~o =
  let f1, f0, fdc = signal_probs ~params ~backend t ~o in
  let { b0; b1; bdc } = borders ~params ~backend t ~o in
  ( value_est f1,
    value_est f0,
    value_est fdc,
    value_est b0,
    value_est b1,
    value_est bdc )

let signal_interval ?(params = default_params) ~backend t ~o =
  let f1, f0, fdc, _, _, _ = estimate_inputs ~params ~backend t ~o in
  Estimate.signal_from ~n:t.ni ~f1 ~f0 ~fdc

let border_interval ?(params = default_params) ~backend t ~o =
  let f1, f0, fdc, b0, b1, bdc = estimate_inputs ~params ~backend t ~o in
  Estimate.border_from ~n:t.ni ~f1 ~f0 ~fdc ~b0 ~b1 ~bdc

let mean_interval per_output t =
  let lo = ref 0.0 and hi = ref 0.0 in
  for o = 0 to t.no - 1 do
    let iv = per_output ~o in
    lo := !lo +. iv.Estimate.lo;
    hi := !hi +. iv.Estimate.hi
  done;
  let k = float_of_int t.no in
  { Estimate.lo = !lo /. k; hi = !hi /. k }

let mean_signal_interval ?(params = default_params) ~backend t =
  mean_interval (fun ~o -> signal_interval ~params ~backend t ~o) t

let mean_border_interval ?(params = default_params) ~backend t =
  mean_interval (fun ~o -> border_interval ~params ~backend t ~o) t
