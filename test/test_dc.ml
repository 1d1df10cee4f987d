(* Tests for the windowed network don't-care analysis (lib/dc):
   hand-built windows with known SDC/ODC masks, Auto-vs-SAT engine
   agreement on both sides of the exhaustive-simulation cutoff,
   conservativeness against the exhaustive Decompose oracle, and
   function preservation of the optimize sweep. *)

module Dc = Rdca_dc.Dc
module Window = Rdca_dc.Window
module Gate = Netlist.Gate
module Spec = Pla.Spec
module Decompose = Rdca_core.Decompose

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let deep_config depth backend =
  { Dc.default_config with Dc.depth; backend }

(* Every engine, with Auto and Differential also at cutoff 0, where
   every window with a leaf takes the random-simulation + SAT path. *)
let engine_configs =
  List.concat_map
    (fun backend ->
      let c = deep_config 2 backend in
      if backend = Dc.Sat_engine then [ ("sat", c) ]
      else
        [
          (Dc.backend_name backend, c);
          (Dc.backend_name backend ^ "/0", { c with Dc.auto_cutoff = 0 });
        ])
    [ Dc.Sat_engine; Dc.Auto; Dc.Differential ]

(* x OR (x AND y): absorption — when x=1 the AND is masked. *)
let absorption () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl Gate.And [| 0; 1 |] in
  let o = Netlist.add nl Gate.Or [| 0; a |] in
  Netlist.set_outputs nl [| o |];
  (nl, a, o)

let test_absorption_odc () =
  let nl, a, _ = absorption () in
  List.iter
    (fun (name, config) ->
      let sdc, odc = Dc.masks_of nl ~config a in
      (* Fanins of the AND are (x, y): patterns 1 (x=1,y=0) and
         3 (x=1,y=1) have x=1, so the OR output is 1 either way. *)
      check_int (name ^ " absorption sdc") 0 sdc;
      check_int (name ^ " absorption odc") 0b1010 odc)
    engine_configs

(* AND(x, NOT x): the two agreeing fanin patterns are unreachable. *)
let test_inverter_sdc () =
  let nl = Netlist.create ~ni:1 in
  let n = Netlist.add nl Gate.Not [| 0 |] in
  let a = Netlist.add nl Gate.And [| 0; n |] in
  Netlist.set_outputs nl [| a |];
  List.iter
    (fun (name, config) ->
      let sdc, odc = Dc.masks_of nl ~config a in
      (* patterns (x, n): 0b00 and 0b11 contradict n = !x *)
      check_int (name ^ " sdc") 0b1001 sdc;
      check_int (name ^ " odc") 0 odc)
    engine_configs

let test_dead_gate_all_odc () =
  (* AND-with-0 downstream masks the node entirely. *)
  let nl = Netlist.create ~ni:2 in
  let dead = Netlist.add nl Gate.And [| 0; 1 |] in
  let zero = Netlist.add nl (Gate.Const false) [||] in
  let gated = Netlist.add nl Gate.And [| dead; zero |] in
  Netlist.set_outputs nl [| gated |];
  List.iter
    (fun (name, config) ->
      let sdc, odc = Dc.masks_of nl ~config dead in
      check_int (name ^ " dead sdc") 0 sdc;
      check_int (name ^ " dead odc") 0b1111 odc)
    engine_configs

let test_observable_node_no_dc () =
  (* A lone XOR driving the output: everything reachable, everything
     observable. *)
  let nl = Netlist.create ~ni:2 in
  let x = Netlist.add nl Gate.Xor [| 0; 1 |] in
  Netlist.set_outputs nl [| x |];
  List.iter
    (fun (name, config) ->
      let sdc, odc = Dc.masks_of nl ~config x in
      check_int (name ^ " xor sdc") 0 sdc;
      check_int (name ^ " xor odc") 0 odc)
    engine_configs

let test_window_shape () =
  let nl, a, o = absorption () in
  let fanouts = Window.fanouts nl in
  let w = Window.extract nl ~fanouts ~depth:2 a in
  check_int "center" a w.Window.center;
  check "leaves are the two inputs" true (w.Window.leaves = [| 0; 1 |]);
  check "members" true (w.Window.members = [| a; o |]);
  check "tfo" true (w.Window.tfo = [| a; o |]);
  check "roots" true (w.Window.roots = [| o |]);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "no window for inputs" true
    (raises (fun () -> Window.extract nl ~fanouts ~depth:2 0));
  check "depth >= 1" true
    (raises (fun () -> Window.extract nl ~fanouts ~depth:0 a))

let test_analyze_report () =
  let nl, _, _ = absorption () in
  let report = Dc.analyze ~config:(deep_config 2 Dc.Differential) nl in
  check_int "analyzed" 2 report.Dc.analyzed;
  check_int "skipped" 0 report.Dc.skipped;
  (* The AND has two ODC patterns (x=1 masks it downstream); the OR
     has one SDC pattern (its fanins x=0, x&y=1 contradict). *)
  check_int "nodes with dc" 2 report.Dc.nodes_with_dc;
  check_int "odc patterns" 2 report.Dc.odc_patterns;
  check_int "sdc patterns" 1 report.Dc.sdc_patterns;
  check_int "disagreements" 0 report.Dc.disagreements;
  List.iter
    (fun r -> check "differential agree flag" true (r.Dc.agree = Some true))
    report.Dc.nodes

let test_analyze_parallel_identical () =
  let nl, _, _ = absorption () in
  let run jobs =
    Parallel.Pool.with_jobs jobs (fun () ->
        Dc.analyze ~config:(deep_config 2 Dc.Differential) nl)
  in
  check "jobs 1 = jobs 4" true (run 1 = run 4)

let test_optimize_absorption () =
  let nl, a, _ = absorption () in
  let before = Netlist.output_tables nl in
  let r = Dc.optimize ~config:(deep_config 2 Dc.Auto) nl in
  check "input untouched" true
    (Array.for_all2 Bitvec.Bv.equal before (Netlist.output_tables nl));
  check "io preserved" true
    (Array.for_all2 Bitvec.Bv.equal before
       (Netlist.output_tables r.Dc.netlist));
  check "and node rewritten" true (List.mem a r.Dc.rewritten);
  check_int "odc seen during sweep" 2 r.Dc.opt_report.Dc.odc_patterns

let test_json_shape () =
  let nl, _, _ = absorption () in
  let r = Dc.optimize ~config:(deep_config 2 Dc.Differential) nl in
  let s = Rdca_json.Jsonout.to_string (Dc.opt_result_to_json r) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> check (key ^ " in json") true (contains ("\"" ^ key ^ "\"")))
    [
      "rewritten_nodes"; "analysis"; "odc_mask"; "backends_agree";
      "sat_queries"; "sim_decided";
    ]

(* Random mapped netlists, via the same pipeline the flow uses. *)
let random_netlist phases =
  let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
  List.iteri
    (fun m p ->
      Spec.set s ~o:0 ~m
        (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
    phases;
  let _, covers = Rdca_flow.Flow.implement s in
  let aig = Aig.of_covers ~ni:5 covers in
  let lib = Techmap.Stdcell.default_library () in
  (s, Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib aig)

let phases_arb = QCheck.(list_of_size (QCheck.Gen.return 32) (int_bound 2))

let prop_engines_agree =
  QCheck.Test.make ~name:"auto and sat masks identical on every window"
    ~count:60
    QCheck.(pair phases_arb (QCheck.int_range 1 3))
    (fun (phases, depth) ->
      let _, nl = random_netlist phases in
      List.for_all
        (fun auto_cutoff ->
          let report =
            Dc.analyze
              ~config:{ (deep_config depth Dc.Differential) with Dc.auto_cutoff }
              nl
          in
          report.Dc.disagreements = 0
          && List.for_all (fun r -> r.Dc.agree = Some true) report.Dc.nodes)
        [ 0; 12 ])

let prop_window_dc_conservative =
  QCheck.Test.make
    ~name:"windowed DCs within the exhaustive Decompose masks" ~count:40
    QCheck.(pair phases_arb (QCheck.int_range 1 3))
    (fun (phases, depth) ->
      let _, nl = random_netlist phases in
      let reachable = Decompose.local_patterns nl in
      let report = Dc.analyze ~config:(deep_config depth Dc.Auto) nl in
      List.for_all
        (fun r ->
          let full = (1 lsl (1 lsl r.Dc.arity)) - 1 in
          let observable = Decompose.observability_mask nl ~node:r.Dc.node in
          (* SDC only where globally unreachable; any DC only where
             globally unobservable. *)
          r.Dc.sdc land reachable.(r.Dc.node) = 0
          && (r.Dc.sdc lor r.Dc.odc) land observable land full = 0)
        report.Dc.nodes)

let prop_optimize_preserves_functions =
  QCheck.Test.make ~name:"optimize preserves every output function"
    ~count:40
    QCheck.(pair phases_arb (QCheck.int_range 1 3))
    (fun (phases, depth) ->
      let _, nl = random_netlist phases in
      let before = Netlist.output_tables nl in
      List.for_all
        (fun strategy ->
          let r =
            Dc.optimize ~config:(deep_config depth Dc.Differential) ~strategy
              nl
          in
          Array.for_all2 Bitvec.Bv.equal before
            (Netlist.output_tables r.Dc.netlist))
        [ Dc.Complete; Dc.Ranking 0.5; Dc.Lcf 0.55 ])

let prop_optimize_care_equivalence =
  QCheck.Test.make
    ~name:"optimized netlist stays care-set equivalent to the spec"
    ~count:40 phases_arb
    (fun phases ->
      let spec, nl = random_netlist phases in
      let clean diags =
        not
          (List.exists
             (fun d -> d.Check.Diag.severity = Check.Diag.Error)
             diags)
      in
      let r = Dc.optimize ~config:(deep_config 2 Dc.Auto) nl in
      clean (Check.Netlist_check.equiv_spec ~spec nl)
      && clean (Check.Netlist_check.equiv_spec ~spec r.Dc.netlist))

let prop_zero_dc_is_identity =
  QCheck.Test.make ~name:"a zero-DC sweep rewrites nothing" ~count:40
    phases_arb
    (fun phases ->
      let _, nl = random_netlist phases in
      let r = Dc.optimize ~config:(deep_config 2 Dc.Auto) nl in
      let rp = r.Dc.opt_report in
      (* No recovered flexibility -> identity; and in general a node is
         only rewritten when it had DC patterns. *)
      (rp.Dc.sdc_patterns + rp.Dc.odc_patterns > 0 || r.Dc.rewritten = [])
      &&
      let dc_nodes =
        List.filter_map
          (fun nr ->
            if nr.Dc.sdc lor nr.Dc.odc <> 0 then Some nr.Dc.node else None)
          rp.Dc.nodes
      in
      List.for_all (fun v -> List.mem v dc_nodes) r.Dc.rewritten)

let prop_optimize_fixpoint =
  QCheck.Test.make
    ~name:"optimize converges: a fixpoint sweep changes no gate" ~count:20
    phases_arb
    (fun phases ->
      let _, nl = random_netlist phases in
      let config = deep_config 2 Dc.Auto in
      (* Iterate to a fixpoint (bounded); each step preserves the
         output functions, so so does the limit. *)
      let before = Netlist.output_tables nl in
      let rec go nl steps =
        if steps = 0 then nl
        else
          let r = Dc.optimize ~config nl in
          if r.Dc.rewritten = [] then r.Dc.netlist
          else go r.Dc.netlist (steps - 1)
      in
      let fixed = go nl 8 in
      let r = Dc.optimize ~config fixed in
      r.Dc.rewritten = []
      && Array.for_all2 Bitvec.Bv.equal before (Netlist.output_tables fixed))

(* fout's depth-2 windows reach 25 leaves, past the cutoff, so Auto's
   random simulation, CNF and model expansion all run at the default;
   p3's stay at 11 or fewer, so both also run at cutoff 0. *)
let test_auto_matches_sat_on_suite () =
  List.iter
    (fun name ->
      let spec = Synthetic.Suite.load_by_name name in
      let nl =
        (Rdca_flow.Flow.synthesize ~mode:Techmap.Mapper.Area
           ~strategy:Rdca_flow.Flow.Conventional spec)
          .Rdca_flow.Flow.netlist
      in
      let analyze config = (Dc.analyze ~config nl).Dc.nodes in
      let masks config =
        List.map (fun r -> (r.Dc.node, r.Dc.sdc, r.Dc.odc)) (analyze config)
      in
      let sat = masks (deep_config 2 Dc.Sat_engine) in
      List.iter
        (fun auto_cutoff ->
          check
            (Printf.sprintf "%s auto/%d = sat" name auto_cutoff)
            true
            (masks { (deep_config 2 Dc.Auto) with Dc.auto_cutoff } = sat))
        [ 0; 12 ];
      if name = "fout" then
        check "fout has windows over the cutoff" true
          (List.exists
             (fun r -> r.Dc.n_leaves > Dc.default_config.Dc.auto_cutoff)
             (analyze (deep_config 2 Dc.Auto))))
    [ "fout"; "p3" ]

let sat_counters () =
  List.map
    (fun c -> Prof.value (Prof.counter c))
    [ "sat.conflicts"; "sat.decisions"; "sat.propagations"; "sat.restarts" ]

(* A lone XOR is observable at every pattern, so the random words
   decide it and no solver runs; the inverter's SDCs need proofs. *)
let test_observed_window_skips_solver () =
  let xor = Netlist.create ~ni:2 in
  let x = Netlist.add xor Gate.Xor [| 0; 1 |] in
  Netlist.set_outputs xor [| x |];
  let config = { (deep_config 2 Dc.Auto) with Dc.auto_cutoff = 0 } in
  let before = sat_counters () in
  let r = Dc.analyze ~config xor in
  check "no sat.* work" true (sat_counters () = before);
  check_int "sim decided" 1 r.Dc.sim_decided;
  check_int "report queries" 0 r.Dc.sat_queries;
  check "node queries" true
    (List.for_all (fun (n : Dc.node_report) -> n.Dc.sat_queries = 0) r.Dc.nodes);
  let inv = Netlist.create ~ni:1 in
  let n = Netlist.add inv Gate.Not [| 0 |] in
  let a = Netlist.add inv Gate.And [| 0; n |] in
  Netlist.set_outputs inv [| a |];
  let before = sat_counters () in
  let r = Dc.analyze ~config inv in
  check "sdc proofs ran the solver" true (sat_counters () <> before);
  check "sdc proofs counted" true (r.Dc.sat_queries > 0);
  let sat = Dc.analyze ~config:(deep_config 2 Dc.Sat_engine) inv in
  (* Two patterns per fanin pair; the SDCs take one query each. *)
  check_int "sat engine queries" 10 sat.Dc.sat_queries;
  check_int "sat engine decides nothing by simulation" 0 sat.Dc.sim_decided

(* NOT(const 1): a window without leaves.  Pattern 0 of the constant
   fanin is unreachable; pattern 1 is observed. *)
let test_zero_leaf_window () =
  let nl = Netlist.create ~ni:0 in
  let c = Netlist.add nl (Gate.Const true) [||] in
  let v = Netlist.add nl Gate.Not [| c |] in
  Netlist.set_outputs nl [| v |];
  let fanouts = Window.fanouts nl in
  check_int "no leaves" 0
    (Array.length (Window.extract nl ~fanouts ~depth:2 v).Window.leaves);
  List.iter
    (fun (name, config) ->
      let sdc, odc = Dc.masks_of nl ~config v in
      check_int (name ^ " sdc") 0b01 sdc;
      check_int (name ^ " odc") 0 odc)
    (* cutoff -1 sends the window past the exhaustive path *)
    (("auto/-1", { (deep_config 2 Dc.Auto) with Dc.auto_cutoff = -1 })
    :: engine_configs)

let suite =
  ( "dc",
    [
      Alcotest.test_case "absorption odc" `Quick test_absorption_odc;
      Alcotest.test_case "inverter sdc" `Quick test_inverter_sdc;
      Alcotest.test_case "dead gate all odc" `Quick test_dead_gate_all_odc;
      Alcotest.test_case "observable node no dc" `Quick
        test_observable_node_no_dc;
      Alcotest.test_case "window shape" `Quick test_window_shape;
      Alcotest.test_case "analyze report" `Quick test_analyze_report;
      Alcotest.test_case "parallel identical" `Quick
        test_analyze_parallel_identical;
      Alcotest.test_case "optimize absorption" `Quick
        test_optimize_absorption;
      Alcotest.test_case "json shape" `Quick test_json_shape;
      Alcotest.test_case "auto matches sat on fout and p3" `Quick
        test_auto_matches_sat_on_suite;
      Alcotest.test_case "observed window skips the solver" `Quick
        test_observed_window_skips_solver;
      Alcotest.test_case "zero-leaf window" `Quick test_zero_leaf_window;
      QCheck_alcotest.to_alcotest prop_engines_agree;
      QCheck_alcotest.to_alcotest prop_window_dc_conservative;
      QCheck_alcotest.to_alcotest prop_optimize_preserves_functions;
      QCheck_alcotest.to_alcotest prop_optimize_care_equivalence;
      QCheck_alcotest.to_alcotest prop_zero_dc_is_identity;
      QCheck_alcotest.to_alcotest prop_optimize_fixpoint;
    ] )
