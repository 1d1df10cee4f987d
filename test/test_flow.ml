(* Tests for the end-to-end flow and the experiment drivers. *)

module Spec = Pla.Spec
module Flow = Rdca_flow.Flow
module E = Rdca_flow.Experiments
module ER = Reliability.Error_rate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_spec () =
  (* deterministic 6-input 3-output spec with a healthy DC space *)
  let rng = Random.State.make [| 77 |] in
  let p =
    Synthetic.Synth_gen.default_params ~ni:6 ~dc_frac:0.6 ~target_cf:(Some 0.6)
  in
  Synthetic.Synth_gen.spec ~rng ~no:3 p

let test_strategy_names () =
  Alcotest.(check string) "conv" "conventional"
    (Flow.strategy_name Flow.Conventional);
  Alcotest.(check string) "rank" "ranking(0.50)"
    (Flow.strategy_name (Flow.Ranking 0.5));
  Alcotest.(check string) "lcf" "lcf(0.60)" (Flow.strategy_name (Flow.Lcf 0.6));
  Alcotest.(check string) "complete" "complete"
    (Flow.strategy_name Flow.Complete)

let test_verified_synthesize_all_strategies () =
  let spec = small_spec () in
  List.iter
    (fun strategy ->
      List.iter
        (fun mode ->
          let r = Flow.verified_synthesize ~mode ~strategy spec in
          check
            (Printf.sprintf "%s/%s error in bounds"
               (Flow.strategy_name strategy)
               (Techmap.Mapper.mode_name mode))
            true
            (r.Flow.error_rate >= 0.0 && r.Flow.error_rate <= 1.0);
          check "positive area" true (r.Flow.report.Techmap.Report.area > 0.0))
        [ Techmap.Mapper.Delay; Techmap.Mapper.Area; Techmap.Mapper.Power ])
    [ Flow.Conventional; Flow.Ranking 0.5; Flow.Lcf 0.55; Flow.Complete ]

let test_error_within_exact_bounds () =
  let spec = small_spec () in
  let b = ER.mean_bounds spec in
  List.iter
    (fun strategy ->
      let r =
        Flow.synthesize ~mode:Techmap.Mapper.Delay ~strategy spec
      in
      check
        (Flow.strategy_name strategy ^ " within bounds")
        true
        (r.Flow.error_rate >= ER.min_rate b -. 1e-9
        && r.Flow.error_rate <= ER.max_rate b +. 1e-9))
    [ Flow.Conventional; Flow.Ranking 1.0; Flow.Complete ]

let test_complete_not_worse_than_conventional () =
  let spec = small_spec () in
  let conv = Flow.synthesize ~mode:Techmap.Mapper.Delay
      ~strategy:Flow.Conventional spec
  in
  let comp =
    Flow.synthesize ~mode:Techmap.Mapper.Delay ~strategy:Flow.Complete spec
  in
  check "complete error <= conventional" true
    (comp.Flow.error_rate <= conv.Flow.error_rate +. 1e-9)

let test_assigned_fraction_ordering () =
  let spec = small_spec () in
  let frac s =
    (Flow.synthesize ~mode:Techmap.Mapper.Delay ~strategy:s spec)
      .Flow.assigned_fraction
  in
  check "conventional assigns none" true (frac Flow.Conventional = 0.0);
  check "ranking monotone" true (frac (Flow.Ranking 0.3) <= frac (Flow.Ranking 1.0));
  check "complete assigns most" true (frac Flow.Complete >= frac (Flow.Ranking 0.5))

let test_table1_rows () =
  let rows = E.table1 () in
  check_int "twelve rows" 12 (List.length rows);
  List.iter
    (fun r ->
      check (r.E.t1_name ^ " cf close to paper") true
        (abs_float (r.E.t1_cf -. r.E.t1_paper_cf) < 0.05);
      check (r.E.t1_name ^ " dc% close to paper") true
        (abs_float
           (r.E.t1_dc_pct
           -. (Synthetic.Suite.find r.E.t1_name).Synthetic.Suite.dc_percent)
        < 2.5))
    rows

let test_fig2_trend () =
  let rows = E.fig2 ~targets:[ 0.3; 0.6; 0.9 ] ~per_target:2 ~seed:5 () in
  check_int "points" 6 (List.length rows);
  let mean target =
    let sel = List.filter (fun p -> p.E.f2_target = target) rows in
    List.fold_left (fun acc p -> acc + p.E.f2_sop) 0 sel
    / List.length sel
  in
  (* SOP size decreases as complexity factor grows (the Figure 2 law). *)
  check "sop(0.3) > sop(0.6)" true (mean 0.3 > mean 0.6);
  check "sop(0.6) > sop(0.9)" true (mean 0.6 > mean 0.9)

let test_sweep_and_figures () =
  let rows =
    E.sweep ~fractions:[| 0.0; 1.0 |] ~names:[ "bench"; "fout" ] ()
  in
  check_int "two benchmarks" 2 (List.length rows);
  let fig4 = E.fig4_of_sweep rows in
  List.iter
    (fun (_, norms) ->
      Alcotest.(check (float 1e-9)) "normalised base" 1.0 norms.(0);
      check "error improves at full assignment" true (norms.(1) <= 1.0))
    fig4;
  let fig5 = E.fig5_of_sweep rows in
  check_int "two modes x two fractions" 4 (List.length fig5);
  List.iter
    (fun s ->
      let amin, _, _ = s.E.f5_min and amax, _, _ = s.E.f5_max in
      check "min <= max" true (amin <= amax +. 1e-9))
    fig5

let test_table2_high_cf_defers () =
  (* On the very high-Cf benchmarks the LCf rule must defer almost
     entirely (the t4/random3 behaviour of the paper's Table 2). *)
  let rows = E.table2 ~names:[ "t4" ] () in
  match rows with
  | [ r ] ->
      check "t4 area unchanged" true (abs_float r.E.t2_lcf_area < 1.0);
      check "t4 error unchanged" true (abs_float r.E.t2_lcf_er < 1.0)
  | _ -> Alcotest.fail "expected one row"

let test_table3_row () =
  let rows = E.table3 ~names:[ "bench" ] () in
  match rows with
  | [ r ] ->
      let xl, xh = r.E.t3_exact in
      let sl, sh = r.E.t3_signal in
      let bl, bh = r.E.t3_border in
      check "exact ordered" true (xl <= xh);
      check "signal ordered" true (sl <= sh);
      check "border ordered" true (bl <= bh);
      (* the paper's headline observations *)
      check "signal-based overshoots" true (sl > xl);
      check "border lo brackets" true (bl <= xl +. 0.02);
      check "conv rate within exact bounds" true
        (r.E.t3_conv_rate >= xl -. 1e-9 && r.E.t3_conv_rate <= xh +. 1e-9);
      check "gates positive" true (r.E.t3_gates > 0)
  | _ -> Alcotest.fail "expected one row"

let test_ablation_threshold_monotone () =
  let rows =
    E.ablation_threshold ~thresholds:[ 0.3; 0.8 ] ~name:"bench" ()
  in
  match rows with
  | [ (_, _, er_low); (_, _, er_high) ] ->
      check "higher threshold, at least as much ER improvement" true
        (er_high >= er_low -. 1.0)
  | _ -> Alcotest.fail "expected two rows"

let test_nodal_rows () =
  let rows = E.nodal_decomposition ~names:[ "bench" ] () in
  match rows with
  | [ (_, before, after) ] ->
      check "rates in range" true
        (before >= 0.0 && before <= 1.0 && after >= 0.0 && after <= 1.0)
  | _ -> Alcotest.fail "expected one row"

let suite =
  ( "flow",
    [
      Alcotest.test_case "strategy names" `Quick test_strategy_names;
      Alcotest.test_case "verified synthesis, all strategies x modes" `Quick
        test_verified_synthesize_all_strategies;
      Alcotest.test_case "error within exact bounds" `Quick
        test_error_within_exact_bounds;
      Alcotest.test_case "complete not worse than conventional" `Quick
        test_complete_not_worse_than_conventional;
      Alcotest.test_case "assigned fraction ordering" `Quick
        test_assigned_fraction_ordering;
      Alcotest.test_case "table1 rows match paper" `Slow test_table1_rows;
      Alcotest.test_case "fig2 monotone trend" `Slow test_fig2_trend;
      Alcotest.test_case "sweep and figure derivations" `Slow
        test_sweep_and_figures;
      Alcotest.test_case "table2: high-cf benchmarks defer" `Slow
        test_table2_high_cf_defers;
      Alcotest.test_case "table3 row invariants" `Slow test_table3_row;
      Alcotest.test_case "threshold ablation monotone" `Slow
        test_ablation_threshold_monotone;
      Alcotest.test_case "nodal decomposition rows" `Slow test_nodal_rows;
    ] )

(* Shared-cube (multi-output espresso) flow path. *)

let test_shared_flow_valid () =
  let spec = small_spec () in
  let b = ER.mean_bounds spec in
  List.iter
    (fun strategy ->
      let r =
        Flow.synthesize_shared ~mode:Techmap.Mapper.Area ~strategy spec
      in
      check
        (Flow.strategy_name strategy ^ " shared error within bounds")
        true
        (r.Flow.error_rate >= ER.min_rate b -. 1e-9
        && r.Flow.error_rate <= ER.max_rate b +. 1e-9))
    [ Flow.Conventional; Flow.Lcf 0.55 ]

let test_shared_netlist_matches_spec () =
  let spec = small_spec () in
  let full, mcubes = Flow.implement_shared (Pla.Spec.copy spec) in
  check "fully specified" true (Pla.Spec.dc_fraction full = 0.0);
  (* implementation agrees with the assigned spec everywhere *)
  let ok = ref true in
  for o = 0 to Pla.Spec.no spec - 1 do
    for m = 0 to Pla.Spec.size spec - 1 do
      if
        Espresso.Multi.eval ~n:(Pla.Spec.ni spec) mcubes ~o ~m
        <> Pla.Spec.output_value full ~o ~m
      then ok := false
    done
  done;
  check "mcubes = assigned spec" true !ok

let test_shared_fewer_cubes () =
  (* Joint minimisation should never need more product terms than the
     sum of per-output covers on a benchmark with correlated outputs. *)
  let spec = Synthetic.Suite.load_by_name "bench" in
  let _, singles = Flow.implement (Pla.Spec.copy spec) in
  let single_total =
    List.fold_left (fun acc c -> acc + Twolevel.Cover.size c) 0 singles
  in
  let _, mcubes = Flow.implement_shared (Pla.Spec.copy spec) in
  check "sharing helps or matches" true
    (List.length mcubes <= single_total)

let shared_cases =
  [
    Alcotest.test_case "shared flow within bounds" `Slow test_shared_flow_valid;
    Alcotest.test_case "shared implementation matches spec" `Quick
      test_shared_netlist_matches_spec;
    Alcotest.test_case "sharing reduces cube total" `Slow
      test_shared_fewer_cubes;
  ]

let suite = (fst suite, snd suite @ shared_cases)

(* Hardened failure paths: structured errors, the espresso budget with
   unminimized-cover fallback, and the netlist carried in the result. *)

let test_load_spec_suite () =
  match Flow.load_spec "bench" with
  | Ok s -> check_int "bench is 6-input" 6 (Pla.Spec.ni s)
  | Error e -> Alcotest.failf "unexpected error: %s" (Flow.error_to_string e)

let test_load_spec_file () =
  let path = Filename.temp_file "rdca_test" ".pla" in
  let oc = open_out path in
  output_string oc ".i 2\n.o 1\n11 1\n.e\n";
  close_out oc;
  let r = Flow.load_spec path in
  Sys.remove path;
  match r with
  | Ok s -> check_int "parsed from file" 2 (Pla.Spec.ni s)
  | Error e -> Alcotest.failf "unexpected error: %s" (Flow.error_to_string e)

let test_load_spec_unknown_benchmark () =
  match Flow.load_spec "rando" with
  | Error (Flow.Unknown_benchmark { name; suggestions }) ->
      Alcotest.(check string) "name echoed" "rando" name;
      check "suggests the random* benchmarks" true
        (List.mem "random1" suggestions)
  | Error e -> Alcotest.failf "wrong error: %s" (Flow.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Unknown_benchmark"

let test_load_spec_missing_file () =
  match Flow.load_spec "/nonexistent/dir/x.pla" with
  | Error (Flow.Io_error _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Flow.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Io_error"

let test_load_spec_parse_error () =
  let path = Filename.temp_file "rdca_test" ".pla" in
  let oc = open_out path in
  output_string oc ".i x\n.o 1\n.e\n";
  close_out oc;
  let r = Flow.load_spec path in
  Sys.remove path;
  match r with
  | Error (Flow.Parse_error { path = p; _ }) ->
      check "path reported" true (p <> "")
  | Error e -> Alcotest.failf "wrong error: %s" (Flow.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Parse_error"

(* A zero cube budget forces the unminimized fallback on every output;
   the run must still verify against the spec and report the
   degradations. *)
let test_budget_degrades_gracefully () =
  let spec = small_spec () in
  let budget = { Flow.max_cubes = Some 0; max_seconds = None } in
  let r =
    Flow.verified_synthesize ~budget ~mode:Techmap.Mapper.Area
      ~strategy:Flow.Conventional spec
  in
  check_int "every output degraded" (Pla.Spec.no spec)
    (List.length r.Flow.degradations);
  List.iter
    (fun d ->
      check "printable" true (String.length (Flow.degradation_to_string d) > 0))
    r.Flow.degradations;
  let b = ER.mean_bounds spec in
  check "error still within exact bounds" true
    (r.Flow.error_rate >= ER.min_rate b -. 1e-9
    && r.Flow.error_rate <= ER.max_rate b +. 1e-9);
  (* unminimized covers inflate the cube count vs the minimized run *)
  let minimized =
    Flow.synthesize ~mode:Techmap.Mapper.Area ~strategy:Flow.Conventional spec
  in
  check "no degradations without budget" true
    (minimized.Flow.degradations = []);
  check "fallback uses more cubes" true
    (r.Flow.sop_cubes >= minimized.Flow.sop_cubes)

(* The netlist in the result record is the one that was measured: its
   input-error rate recomputed from scratch matches [error_rate]. *)
let test_result_netlist_consistent () =
  let spec = small_spec () in
  let r =
    Flow.synthesize ~mode:Techmap.Mapper.Delay ~strategy:(Flow.Ranking 0.5) spec
  in
  Alcotest.(check (float 1e-9))
    "of_netlist agrees" r.Flow.error_rate
    (ER.of_netlist spec r.Flow.netlist)

let test_synthesize_result_ok () =
  let spec = small_spec () in
  match
    Flow.synthesize_result ~mode:Techmap.Mapper.Area
      ~strategy:Flow.Conventional spec
  with
  | Ok r -> check "area positive" true (r.Flow.report.Techmap.Report.area > 0.0)
  | Error e -> Alcotest.failf "unexpected error: %s" (Flow.error_to_string e)

let hardening_cases =
  [
    Alcotest.test_case "load_spec: suite benchmark" `Quick test_load_spec_suite;
    Alcotest.test_case "load_spec: .pla file" `Quick test_load_spec_file;
    Alcotest.test_case "load_spec: unknown benchmark suggests" `Quick
      test_load_spec_unknown_benchmark;
    Alcotest.test_case "load_spec: missing file" `Quick
      test_load_spec_missing_file;
    Alcotest.test_case "load_spec: parse error" `Quick
      test_load_spec_parse_error;
    Alcotest.test_case "budget degrades gracefully" `Quick
      test_budget_degrades_gracefully;
    Alcotest.test_case "result netlist consistent" `Quick
      test_result_netlist_consistent;
    Alcotest.test_case "synthesize_result ok" `Quick test_synthesize_result_ok;
  ]

let suite = (fst suite, snd suite @ hardening_cases)
