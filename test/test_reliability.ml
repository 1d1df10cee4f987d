(* Tests for error rates, complexity factors, borders, and the
   analytical estimates — including regression checks against numbers
   derivable from the paper. *)

module Spec = Pla.Spec
module Bv = Bitvec.Bv
module ER = Reliability.Error_rate
module Borders = Reliability.Borders
module Stats = Reliability.Stats
module Estimate = Reliability.Estimate

let check = Alcotest.(check bool)
let check_f tol = Alcotest.(check (float tol))

(* The running 2-input example: m0=On, m1=Off, m2=Dc, m3=On. *)
let small_spec () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:0 ~m:3 Spec.On;
  s

let test_bounds_small () =
  let s = small_spec () in
  let b = ER.bounds s ~o:0 in
  check_f 1e-9 "base" 0.5 b.ER.base;
  check_f 1e-9 "min_dc" 0.0 b.ER.min_dc;
  check_f 1e-9 "max_dc" 0.25 b.ER.max_dc;
  check_f 1e-9 "min rate" 0.5 (ER.min_rate b);
  check_f 1e-9 "max rate" 0.75 (ER.max_rate b)

let test_of_table_small () =
  let s = small_spec () in
  (* assign the DC to 1: reaches the minimum *)
  let impl = Bv.of_list 4 [ 0; 2; 3 ] in
  check_f 1e-9 "dc=1 rate" 0.5 (ER.of_table s ~o:0 ~impl);
  (* assign the DC to 0: reaches the maximum *)
  let impl = Bv.of_list 4 [ 0; 3 ] in
  check_f 1e-9 "dc=0 rate" 0.75 (ER.of_table s ~o:0 ~impl)

let test_of_spec_assigned () =
  let s = small_spec () in
  Spec.assign_dc s ~o:0 ~m:2 true;
  check_f 1e-9 "assigned" 0.5 (ER.of_spec_assigned s ~o:0)

let test_constant_function_zero_rate () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.On in
  check_f 1e-9 "no errors" 0.0 (ER.min_rate (ER.bounds s ~o:0));
  let impl = Bv.create 8 in
  Bv.fill impl true;
  check_f 1e-9 "impl rate" 0.0 (ER.of_table s ~o:0 ~impl)

let test_parity_worst_case () =
  (* Fully specified parity: every input error propagates. *)
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  for m = 0 to 15 do
    if Bitvec.Minterm.popcount m mod 2 = 1 then Spec.set s ~o:0 ~m Spec.On
  done;
  let b = ER.bounds s ~o:0 in
  check_f 1e-9 "parity base" 1.0 b.ER.base;
  check_f 1e-9 "parity cf" 0.0 (Borders.complexity_factor s ~o:0)

let test_complexity_factor_extremes () =
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.On in
  check_f 1e-9 "constant cf = 1" 1.0 (Borders.complexity_factor s ~o:0);
  check_f 1e-9 "constant E[cf] = 1" 1.0
    (Borders.expected_complexity_factor s ~o:0)

let test_expected_cf_formula () =
  let s = small_spec () in
  (* f1 = 1/2, f0 = 1/4, fdc = 1/4 -> E = .25 + .0625 + .0625 = .375 *)
  check_f 1e-9 "expected cf" 0.375 (Borders.expected_complexity_factor s ~o:0)

let test_border_invariant () =
  let s = small_spec () in
  let { Borders.b0; b1; bdc } = Borders.border_counts s ~o:0 in
  let total = float_of_int (2 * 4) in
  check_f 1e-9 "1 - cf = borders/total"
    (1.0 -. Borders.complexity_factor s ~o:0)
    (float_of_int (b0 + b1 + bdc) /. total)

let test_local_cf_constant () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  check_f 1e-9 "constant local cf" 1.0
    (Borders.local_complexity_factor s ~o:0 ~m:0)

let test_stats_erf () =
  check_f 1e-6 "erf 0" 0.0 (Stats.erf 0.0);
  check_f 1e-4 "erf 1" 0.8427 (Stats.erf 1.0);
  check_f 1e-4 "erf -1" (-0.8427) (Stats.erf (-1.0));
  check_f 1e-6 "erf inf" 1.0 (Stats.erf 10.0)

let test_stats_folded () =
  (* E|X| for standard normal = sqrt(2/pi) ~ .7979 *)
  check_f 1e-4 "standard folded" 0.7979
    (Stats.folded_normal_mean ~mu:0.0 ~sigma:1.0);
  (* With huge mean, E|X| ~ mu. *)
  check_f 1e-3 "large mu" 100.0 (Stats.folded_normal_mean ~mu:100.0 ~sigma:1.0);
  check_f 1e-9 "sigma 0" 3.0 (Stats.folded_normal_mean ~mu:(-3.0) ~sigma:0.0)

let test_stats_poisson () =
  check_f 1e-9 "P(0;0)" 1.0 (Stats.poisson_pmf ~lambda:0.0 0);
  check_f 1e-6 "P(0;1)" (exp (-1.0)) (Stats.poisson_pmf ~lambda:1.0 0);
  check_f 1e-6 "P(2;3)" (4.5 *. exp (-3.0)) (Stats.poisson_pmf ~lambda:3.0 2);
  (* pmf sums to ~1 *)
  let s = ref 0.0 in
  for k = 0 to 60 do
    s := !s +. Stats.poisson_pmf ~lambda:5.0 k
  done;
  check_f 1e-9 "sums to 1" 1.0 !s

(* Regression against the paper: a 12-input function with the random1
   signal profile (f1 = f0 ~ .157, fdc ~ .686) must give the
   signal-based interval ~ [.347, .436] reported in Table 3. *)
let test_signal_estimate_random1_profile () =
  let s = Spec.create ~ni:12 ~no:1 ~default:Spec.Dc in
  (* deterministically scatter 643 on and 643 off minterms *)
  let rng = Random.State.make [| 7 |] in
  let assigned = ref 0 in
  while !assigned < 643 do
    let m = Random.State.int rng 4096 in
    if Spec.get s ~o:0 ~m = Spec.Dc then begin
      Spec.set s ~o:0 ~m Spec.On;
      incr assigned
    end
  done;
  assigned := 0;
  while !assigned < 643 do
    let m = Random.State.int rng 4096 in
    if Spec.get s ~o:0 ~m = Spec.Dc then begin
      Spec.set s ~o:0 ~m Spec.Off;
      incr assigned
    end
  done;
  let iv = Estimate.signal_based s ~o:0 in
  check_f 0.01 "lo ~ .347" 0.347 iv.Estimate.lo;
  check_f 0.01 "hi ~ .436" 0.436 iv.Estimate.hi;
  (* For a function this random, the border-based estimate should also
     bracket the exact bounds (the paper's observation). *)
  let exact = ER.bounds s ~o:0 in
  let biv = Estimate.border_based s ~o:0 in
  check "border lo below exact min" true
    (biv.Estimate.lo <= ER.min_rate exact +. 0.02);
  check "border hi above exact max" true
    (biv.Estimate.hi >= ER.max_rate exact -. 0.02)

let test_estimates_no_dc () =
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  for m = 0 to 7 do
    Spec.set s ~o:0 ~m Spec.On
  done;
  let iv = Estimate.signal_based s ~o:0 in
  check_f 1e-9 "lo = hi without dc" iv.Estimate.lo iv.Estimate.hi;
  let biv = Estimate.border_based s ~o:0 in
  check_f 1e-9 "border lo = hi" biv.Estimate.lo biv.Estimate.hi

(* Random specs: ordering and consistency invariants. *)

let gen_phases n =
  QCheck.Gen.(list_repeat (1 lsl n) (int_bound 2))

let spec_of_phases n phases =
  let s = Spec.create ~ni:n ~no:1 ~default:Spec.Off in
  List.iteri
    (fun m p ->
      Spec.set s ~o:0 ~m
        (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
    phases;
  s

let arb_phases n = QCheck.make (gen_phases n)

let prop_bounds_ordered =
  QCheck.Test.make ~name:"min_dc <= max_dc always" ~count:200 (arb_phases 5)
    (fun phases ->
      let s = spec_of_phases 5 phases in
      let b = ER.bounds s ~o:0 in
      b.ER.min_dc <= b.ER.max_dc +. 1e-12)

let prop_assignment_within_bounds =
  QCheck.Test.make ~name:"any DC assignment lands within exact bounds"
    ~count:200
    QCheck.(pair (arb_phases 4) (int_bound 0xffff))
    (fun (phases, mask) ->
      let s = spec_of_phases 4 phases in
      let b = ER.bounds s ~o:0 in
      (* assign DCs by mask bits *)
      let impl = Bv.create 16 in
      for m = 0 to 15 do
        (match Spec.get s ~o:0 ~m with
        | Spec.On -> Bv.set impl m
        | Spec.Off -> ()
        | Spec.Dc -> if mask land (1 lsl m) <> 0 then Bv.set impl m)
      done;
      let r = ER.of_table s ~o:0 ~impl in
      r >= ER.min_rate b -. 1e-12 && r <= ER.max_rate b +. 1e-12)

let prop_estimate_intervals_ordered =
  QCheck.Test.make ~name:"estimate intervals are ordered" ~count:200
    (arb_phases 5) (fun phases ->
      let s = spec_of_phases 5 phases in
      let a = Estimate.signal_based s ~o:0 in
      let b = Estimate.border_based s ~o:0 in
      let c = Estimate.binomial_border_based s ~o:0 in
      a.Estimate.lo <= a.Estimate.hi +. 1e-9
      && b.Estimate.lo <= b.Estimate.hi +. 1e-9
      && c.Estimate.lo <= c.Estimate.hi +. 1e-9)

let prop_cf_border_invariant =
  QCheck.Test.make ~name:"complexity factor + border fraction = 1"
    ~count:200 (arb_phases 5) (fun phases ->
      let s = spec_of_phases 5 phases in
      let { Borders.b0; b1; bdc } = Borders.border_counts s ~o:0 in
      let total = float_of_int (5 * 32) in
      abs_float
        (1.0
        -. Borders.complexity_factor s ~o:0
        -. (float_of_int (b0 + b1 + bdc) /. total))
      < 1e-9)

let prop_lcf_range =
  QCheck.Test.make ~name:"local complexity factor lies in [0,1]" ~count:100
    QCheck.(pair (arb_phases 4) (int_bound 15))
    (fun (phases, m) ->
      let s = spec_of_phases 4 phases in
      let lcf = Borders.local_complexity_factor s ~o:0 ~m in
      lcf >= 0.0 && lcf <= 1.0)

let test_fault_sim_converges () =
  (* A mapped-free sanity check: simulate a simple netlist and compare
     Monte-Carlo with the exact rate. *)
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  for m = 0 to 15 do
    if m land 3 = 3 then Spec.set s ~o:0 ~m Spec.On
  done;
  let nl = Netlist.create ~ni:4 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  Netlist.set_outputs nl [| a |];
  let exact = ER.of_netlist s nl in
  let rng = Random.State.make [| 99 |] in
  let mc = Reliability.Fault_sim.run ~rng ~trials:20000 s nl in
  check "mc close to exact" true
    (abs_float (mc.Reliability.Fault_sim.rate -. exact) < 0.02)

let suite =
  ( "reliability",
    [
      Alcotest.test_case "exact bounds on small example" `Quick
        test_bounds_small;
      Alcotest.test_case "error rate of assignments" `Quick test_of_table_small;
      Alcotest.test_case "of_spec_assigned" `Quick test_of_spec_assigned;
      Alcotest.test_case "constant function has zero rate" `Quick
        test_constant_function_zero_rate;
      Alcotest.test_case "parity is worst case" `Quick test_parity_worst_case;
      Alcotest.test_case "complexity factor extremes" `Quick
        test_complexity_factor_extremes;
      Alcotest.test_case "expected cf formula" `Quick test_expected_cf_formula;
      Alcotest.test_case "border invariant" `Quick test_border_invariant;
      Alcotest.test_case "local cf of constant" `Quick test_local_cf_constant;
      Alcotest.test_case "erf" `Quick test_stats_erf;
      Alcotest.test_case "folded normal mean" `Quick test_stats_folded;
      Alcotest.test_case "poisson pmf" `Quick test_stats_poisson;
      Alcotest.test_case "signal estimate matches paper's random1 profile"
        `Quick test_signal_estimate_random1_profile;
      Alcotest.test_case "estimates without dc collapse" `Quick
        test_estimates_no_dc;
      Alcotest.test_case "fault sim converges" `Quick test_fault_sim_converges;
      QCheck_alcotest.to_alcotest prop_bounds_ordered;
      QCheck_alcotest.to_alcotest prop_assignment_within_bounds;
      QCheck_alcotest.to_alcotest prop_estimate_intervals_ordered;
      QCheck_alcotest.to_alcotest prop_cf_border_invariant;
      QCheck_alcotest.to_alcotest prop_lcf_range;
    ] )

(* Symbolic (BDD) analysis agrees with the dense path and scales past
   the dense limit. *)

module Sym = Reliability.Sym

let test_sym_matches_dense () =
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let s = Spec.create ~ni:6 ~no:1 ~default:Spec.Off in
    for m = 0 to 63 do
      Spec.set s ~o:0 ~m
        (match Random.State.int rng 3 with
        | 0 -> Spec.Off
        | 1 -> Spec.On
        | _ -> Spec.Dc)
    done;
    let man = Bdd.make_man ~nvars:6 in
    let sets = Sym.of_spec man s ~o:0 in
    (match Sym.validate man sets with
    | None -> ()
    | Some msg -> Alcotest.fail msg);
    let st = Sym.stats man sets in
    let f1, f0, fdc = Spec.signal_probs s ~o:0 in
    check_f 1e-9 "f1" f1 st.Sym.f1;
    check_f 1e-9 "f0" f0 st.Sym.f0;
    check_f 1e-9 "fdc" fdc st.Sym.fdc;
    let { Borders.b0; b1; bdc } = Borders.border_counts s ~o:0 in
    check_f 1e-9 "b0" (float_of_int b0) st.Sym.b0;
    check_f 1e-9 "b1" (float_of_int b1) st.Sym.b1;
    check_f 1e-9 "bdc" (float_of_int bdc) st.Sym.bdc;
    check_f 1e-9 "cf" (Borders.complexity_factor s ~o:0) st.Sym.cf;
    let b = ER.bounds s ~o:0 in
    check_f 1e-9 "base rate" b.ER.base st.Sym.base_rate;
    let si = Sym.signal_interval man sets in
    let si' = Estimate.signal_based s ~o:0 in
    check_f 1e-9 "signal lo" si'.Estimate.lo si.Estimate.lo;
    check_f 1e-9 "signal hi" si'.Estimate.hi si.Estimate.hi;
    let bi = Sym.border_interval man sets in
    let bi' = Estimate.border_based s ~o:0 in
    check_f 1e-9 "border lo" bi'.Estimate.lo bi.Estimate.lo;
    check_f 1e-9 "border hi" bi'.Estimate.hi bi.Estimate.hi
  done

let test_sym_large_n () =
  (* 30 inputs: far beyond the dense path.  A sparse cube function. *)
  let n = 30 in
  let man = Bdd.make_man ~nvars:n in
  let cube s = Twolevel.Cube.of_string s in
  let on =
    Twolevel.Cover.make ~n
      [ cube ("11" ^ String.make (n - 2) '-') ]
  in
  let dc =
    Twolevel.Cover.make ~n
      [ cube ("00" ^ String.make (n - 2) '-') ]
  in
  let sets = Sym.of_covers man ~on ~dc in
  check "valid partition" true (Sym.validate man sets = None);
  let st = Sym.stats man sets in
  check_f 1e-9 "f1 quarter" 0.25 st.Sym.f1;
  check_f 1e-9 "fdc quarter" 0.25 st.Sym.fdc;
  check_f 1e-9 "f0 half" 0.5 st.Sym.f0;
  (* on-set borders: the 11 quadrant touches 01 and 10 on two inputs:
     2 * 2^(n-2) ordered pairs *)
  check_f 1e-3 "b1" (2.0 *. (2.0 ** float_of_int (n - 2))) st.Sym.b1;
  let iv = Sym.border_interval man sets in
  check "interval ordered" true (iv.Estimate.lo <= iv.Estimate.hi)

let test_sym_overlap_detected () =
  let man = Bdd.make_man ~nvars:3 in
  let x = Bdd.var man 0 in
  let sets = { Sym.on = x; off = x; dc = Bdd.bnot man x } in
  check "overlap flagged" true (Sym.validate man sets <> None)

let sym_cases =
  [
    Alcotest.test_case "symbolic stats match dense" `Quick
      test_sym_matches_dense;
    Alcotest.test_case "symbolic estimates at n=30" `Quick test_sym_large_n;
    Alcotest.test_case "symbolic validate detects overlap" `Quick
      test_sym_overlap_detected;
  ]

let suite = (fst suite, snd suite @ sym_cases)

(* Multi-bit error model. *)

let test_kbit_matches_single () =
  let s = small_spec () in
  let impl = Bv.of_list 4 [ 0; 2; 3 ] in
  check_f 1e-9 "k=1 equals of_table" (ER.of_table s ~o:0 ~impl)
    (ER.of_table_kbit s ~o:0 ~impl ~k:1)

let test_kbit_parity_always_one () =
  (* Parity propagates every odd-weight error. *)
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  let impl = Bv.create 16 in
  for m = 0 to 15 do
    if Bitvec.Minterm.popcount m mod 2 = 1 then begin
      Spec.set s ~o:0 ~m Spec.On;
      Bv.set impl m
    end
  done;
  check_f 1e-9 "k=1 all propagate" 1.0 (ER.of_table_kbit s ~o:0 ~impl ~k:1);
  check_f 1e-9 "k=3 all propagate" 1.0 (ER.of_table_kbit s ~o:0 ~impl ~k:3);
  (* even-weight errors are all masked by parity *)
  check_f 1e-9 "k=2 none propagate" 0.0 (ER.of_table_kbit s ~o:0 ~impl ~k:2)

let test_kbit_validation () =
  let s = small_spec () in
  let impl = Bv.create 4 in
  Alcotest.check_raises "k=0" (Invalid_argument "Error_rate.of_table_kbit: bad k")
    (fun () -> ignore (ER.of_table_kbit s ~o:0 ~impl ~k:0));
  Alcotest.check_raises "k>n" (Invalid_argument "Error_rate.of_table_kbit: bad k")
    (fun () -> ignore (ER.of_table_kbit s ~o:0 ~impl ~k:3))

let kbit_cases =
  [
    Alcotest.test_case "kbit: k=1 equals single-bit" `Quick
      test_kbit_matches_single;
    Alcotest.test_case "kbit: parity extremes" `Quick
      test_kbit_parity_always_one;
    Alcotest.test_case "kbit: validation" `Quick test_kbit_validation;
  ]

let suite = (fst suite, snd suite @ kbit_cases)

(* Confidence-interval helpers backing the fault campaigns. *)

let test_normal_quantile () =
  check_f 1e-4 "median" 0.0 (Stats.normal_quantile 0.5);
  check_f 1e-3 "97.5%" 1.95996 (Stats.normal_quantile 0.975);
  check_f 1e-3 "2.5%" (-1.95996) (Stats.normal_quantile 0.025);
  check_f 1e-3 "99.5%" 2.57583 (Stats.normal_quantile 0.995);
  (* quantile inverts the cdf *)
  check_f 1e-4 "roundtrip" 0.8
    (Stats.normal_cdf ~mu:0.0 ~sigma:1.0 (Stats.normal_quantile 0.8))

let test_wilson_interval () =
  (* Textbook value: 5/10 at 95% is (0.2366, 0.7634). *)
  let lo, hi = Stats.wilson_interval ~confidence:0.95 ~trials:10 ~successes:5 in
  check_f 1e-3 "5/10 lo" 0.2366 lo;
  check_f 1e-3 "5/10 hi" 0.7634 hi;
  (* Behaves sensibly at the extremes: nonzero width, clamped. *)
  let lo, hi = Stats.wilson_interval ~confidence:0.95 ~trials:50 ~successes:0 in
  check_f 1e-9 "0/50 lo" 0.0 lo;
  check "0/50 hi positive" true (hi > 0.0 && hi < 0.1);
  let lo, hi =
    Stats.wilson_interval ~confidence:0.95 ~trials:50 ~successes:50
  in
  check_f 1e-9 "50/50 hi" 1.0 hi;
  check "50/50 lo below one" true (lo < 1.0 && lo > 0.9);
  (* Higher confidence widens the interval. *)
  let l95, h95 =
    Stats.wilson_interval ~confidence:0.95 ~trials:100 ~successes:20
  in
  let l99, h99 =
    Stats.wilson_interval ~confidence:0.99 ~trials:100 ~successes:20
  in
  check "99% wider" true (l99 < l95 && h99 > h95)

let test_wilson_validation () =
  let expect label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  expect "trials = 0" (fun () ->
      Stats.wilson_interval ~confidence:0.95 ~trials:0 ~successes:0);
  expect "successes > trials" (fun () ->
      Stats.wilson_interval ~confidence:0.95 ~trials:5 ~successes:6);
  expect "negative successes" (fun () ->
      Stats.wilson_interval ~confidence:0.95 ~trials:5 ~successes:(-1));
  expect "confidence = 1" (fun () ->
      Stats.wilson_interval ~confidence:1.0 ~trials:5 ~successes:2)

(* Fault_sim convergence on real synthesized benchmarks: for a mapped
   netlist of a fully specified implementation, the Monte-Carlo
   input-error rate must converge to the analytic
   {!Error_rate.of_netlist} for a fixed seed. *)

module Flow = Rdca_flow.Flow

let test_fault_sim_suite_benchmarks () =
  List.iter
    (fun name ->
      let spec =
        match Flow.load_spec name with
        | Ok s -> s
        | Error e -> Alcotest.failf "load %s: %s" name (Flow.error_to_string e)
      in
      let r =
        Flow.synthesize ~mode:Techmap.Mapper.Area ~strategy:Flow.Conventional
          spec
      in
      let exact = ER.of_netlist spec r.Flow.netlist in
      let rng = Random.State.make [| 2026 |] in
      let mc =
        Reliability.Fault_sim.run ~rng ~trials:20000 spec r.Flow.netlist
      in
      check
        (Printf.sprintf "%s: mc %.4f ~ exact %.4f" name
           mc.Reliability.Fault_sim.rate exact)
        true
        (abs_float (mc.Reliability.Fault_sim.rate -. exact) < 0.02))
    [ "bench"; "fout" ]

let test_fault_sim_validation () =
  let nl = Netlist.create ~ni:4 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  Netlist.set_outputs nl [| a |];
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.On in
  let expect label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  expect "trials = 0" (fun () ->
      Reliability.Fault_sim.run ~rng:(Random.State.make [| 1 |]) ~trials:0 s nl);
  expect "trials < 0" (fun () ->
      Reliability.Fault_sim.run
        ~rng:(Random.State.make [| 1 |])
        ~trials:(-3) s nl);
  let wide = Spec.create ~ni:5 ~no:1 ~default:Spec.On in
  expect "arity mismatch" (fun () ->
      Reliability.Fault_sim.run
        ~rng:(Random.State.make [| 1 |])
        ~trials:10 wide nl)

(* The per-trial scalar loop the word-parallel [Fault_sim.run]
   replaced: draw [m], then the input [j] to flip, and compare two
   scalar evaluations at the care vectors of [m]. *)
let scalar_fault_sim ~rng ~trials spec nl =
  let no = Spec.no spec in
  let propagated = ref 0 in
  for _ = 1 to trials do
    let m = Random.State.int rng (Spec.size spec) in
    let j = Random.State.int rng (Spec.ni spec) in
    let outs = Netlist.eval_minterm nl m in
    let outs' = Netlist.eval_minterm nl (m lxor (1 lsl j)) in
    for o = 0 to no - 1 do
      if Spec.get spec ~o ~m <> Spec.Dc && outs.(o) <> outs'.(o) then
        incr propagated
    done
  done;
  {
    Reliability.Fault_sim.trials;
    propagated = !propagated;
    rate = float_of_int !propagated /. float_of_int (trials * no);
  }

let prop_fault_sim_matches_scalar =
  QCheck.Test.make ~name:"word-parallel fault sim equals the scalar loop"
    ~count:200
    QCheck.(pair int Test_inject.trials_arb)
    (fun (seed, trials) ->
      let spec, nl = Test_inject.random_case (Random.State.make [| seed |]) in
      let rng_w = Random.State.make [| seed; 1 |] in
      let rng_s = Random.State.make [| seed; 1 |] in
      Reliability.Fault_sim.run ~rng:rng_w ~trials spec nl
      = scalar_fault_sim ~rng:rng_s ~trials spec nl
      && Random.State.bits rng_w = Random.State.bits rng_s)

let campaign_support_cases =
  [
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    Alcotest.test_case "wilson interval" `Quick test_wilson_interval;
    Alcotest.test_case "wilson validation" `Quick test_wilson_validation;
    Alcotest.test_case "fault sim converges on suite benchmarks" `Quick
      test_fault_sim_suite_benchmarks;
    Alcotest.test_case "fault sim validation" `Quick test_fault_sim_validation;
    QCheck_alcotest.to_alcotest prop_fault_sim_matches_scalar;
  ]

let suite = (fst suite, snd suite @ campaign_support_cases)

(* Aggregate (multi-output) bounds: the mean of any full DC assignment
   must land inside the mean exact bounds, and those bounds must be
   ordered — the invariants the parallelised [of_tables] and
   [mean_bounds] aggregations rely on. *)

let spec2_of_phases p0 p1 =
  let s = Spec.create ~ni:4 ~no:2 ~default:Spec.Off in
  let fill o phases =
    List.iteri
      (fun m p ->
        Spec.set s ~o ~m
          (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
      phases
  in
  fill 0 p0;
  fill 1 p1;
  s

let prop_mean_min_le_max =
  QCheck.Test.make ~name:"mean bounds: min_rate <= max_rate" ~count:200
    QCheck.(pair (arb_phases 4) (arb_phases 4))
    (fun (p0, p1) ->
      let s = spec2_of_phases p0 p1 in
      let b = ER.mean_bounds s in
      ER.min_rate b <= ER.max_rate b +. 1e-12)

let prop_mean_bounds_contain_of_tables =
  QCheck.Test.make
    ~name:"any multi-output assignment lands within mean bounds" ~count:200
    QCheck.(pair (pair (arb_phases 4) (arb_phases 4)) (pair (int_bound 0xffff) (int_bound 0xffff)))
    (fun ((p0, p1), (mask0, mask1)) ->
      let s = spec2_of_phases p0 p1 in
      let impl_of o mask =
        let impl = Bv.create 16 in
        for m = 0 to 15 do
          match Spec.get s ~o ~m with
          | Spec.On -> Bv.set impl m
          | Spec.Off -> ()
          | Spec.Dc -> if mask land (1 lsl m) <> 0 then Bv.set impl m
        done;
        impl
      in
      let tables = [| impl_of 0 mask0; impl_of 1 mask1 |] in
      let r = ER.of_tables s tables in
      let b = ER.mean_bounds s in
      r >= ER.min_rate b -. 1e-12 && r <= ER.max_rate b +. 1e-12)

let aggregate_bound_cases =
  [
    QCheck_alcotest.to_alcotest prop_mean_min_le_max;
    QCheck_alcotest.to_alcotest prop_mean_bounds_contain_of_tables;
  ]

let suite = (fst suite, snd suite @ aggregate_bound_cases)
