(* SAT-based stuck-at testability (lib/atpg): collapsing counts on
   hand-built gates, untestable-fault detection across every backend,
   checked redundancy removal, admissibility diagnostics, and
   SAT-vs-exhaustive verdict agreement on random mapped netlists. *)

module Fault = Atpg.Fault
module Engine = Atpg.Engine
module Redundancy = Atpg.Redundancy
module Diag = Check.Diag
module Spec = Pla.Spec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config backend = { Engine.default_config with Engine.backend }

let all_backends = [ Engine.Sat_engine; Engine.Exhaustive; Engine.Differential ]

(* Single 2-input AND driving the output: six faults (stem and two
   branches, both polarities); equivalence merges the three s-a-0s;
   dominance tags the stem s-a-1 as implied by a branch s-a-1. *)
let test_collapse_and () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  Netlist.set_outputs nl [| a |];
  check_int "universe" 6 (Array.length (Fault.universe nl));
  let none = Fault.collapse ~mode:Fault.No_collapse nl in
  check_int "no-collapse classes" 6 (Array.length none.Fault.classes);
  check_int "total" 6 none.Fault.total;
  let eq = Fault.collapse ~mode:Fault.Equivalence nl in
  check_int "equivalence classes" 4 (Array.length eq.Fault.classes);
  let sa0 =
    Array.to_list eq.Fault.classes
    |> List.find (fun c -> List.length c.Fault.members = 3)
  in
  check "s-a-0 class rep is the stem" true
    (sa0.Fault.rep = { Fault.node = a; pin = Fault.Stem; stuck = false });
  let dom = Fault.collapse ~mode:Fault.Dominance nl in
  check_int "same partition under dominance" 4 (Array.length dom.Fault.classes);
  let implied =
    Array.to_list dom.Fault.classes
    |> List.filter (fun c -> c.Fault.implied_by <> None)
  in
  check_int "one dominated class (stem s-a-1)" 1 (List.length implied)

(* z = x OR (x AND y): absorption makes the AND redundant, so its
   stem s-a-0 (and the whole collapsed class around it) is untestable;
   every other fault has a test. *)
let absorption () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  let o = Netlist.add nl Netlist.Gate.Or [| 0; a |] in
  Netlist.set_outputs nl [| o |];
  (nl, a, o)

let test_untestable_absorption () =
  let nl, a, _ = absorption () in
  List.iter
    (fun backend ->
      let name s = Engine.backend_name backend ^ " " ^ s in
      let r = Engine.analyze ~config:(config backend) nl in
      check_int (name "total faults") 12 r.Engine.total_faults;
      (* two redundancies: the whole AND s-a-0 class (z = x OR 0 = x)
         and the AND's y-pin s-a-1 (AND computes x, z = x OR x = x) *)
      let u = Engine.untestable_classes r in
      check_int (name "untestable classes") 2 (List.length u);
      let c =
        List.find
          (fun c ->
            c.Engine.rep
            = { Fault.node = a; pin = Fault.Stem; stuck = false })
          u
      in
      (* stem s-a-0 = both AND branches s-a-0 = the OR's absorbed
         branch s-a-0 (fanout-free stem/branch merge) *)
      check_int (name "class size") 4 c.Engine.class_size;
      check (name "no witness") true (c.Engine.witness = None);
      check (name "y-pin s-a-1 untestable") true
        (List.exists
           (fun c ->
             c.Engine.rep
             = { Fault.node = a; pin = Fault.Branch 1; stuck = true })
           u);
      check (name "coverage") true
        (abs_float (r.Engine.coverage -. (7.0 /. 12.0)) < 1e-12);
      check_int (name "no disagreements") 0 r.Engine.disagreements;
      List.iter
        (fun fr ->
          check (name "testable classes carry witnesses") true
            (fr.Engine.verdict = Engine.Untestable || fr.Engine.witness <> None))
        r.Engine.results)
    all_backends

(* Witnesses actually distinguish good from faulty: check via the
   engine's own differential mode plus a direct re-simulation of the
   stem faults it reports testable. *)
let test_witness_detects () =
  let nl, _, _ = absorption () in
  let r = Engine.analyze ~config:(config Engine.Exhaustive) nl in
  List.iter
    (fun fr ->
      match (fr.Engine.rep.Fault.pin, fr.Engine.witness) with
      | Fault.Stem, Some m ->
          let f = fr.Engine.rep in
          let good = Netlist.eval_minterm nl m in
          let bad =
            Netlist.eval_minterm_with_override nl
              ~override:(fun n v ->
                if n = f.Fault.node then f.Fault.stuck else v)
              m
          in
          check "witness separates good from faulty" true (good <> bad)
      | _ -> ())
    r.Engine.results

(* Differential compares SAT with exhaustive simulation, so a netlist
   past the exhaustive engine's 20 inputs is refused exactly as a
   forced Exhaustive is. *)
let test_differential_refuses_wide () =
  let nl = Netlist.create ~ni:21 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 20 |] in
  Netlist.set_outputs nl [| a |];
  let refusal backend =
    match Engine.analyze ~config:(config backend) nl with
    | _ -> None
    | exception Invalid_argument msg -> Some msg
  in
  let exhaustive = refusal Engine.Exhaustive in
  check "exhaustive refuses" true (exhaustive <> None);
  check "differential refuses the same way" true
    (refusal Engine.Differential = exhaustive)

let test_remove_absorption () =
  let nl, _, _ = absorption () in
  let r = Redundancy.remove nl in
  check "removed a redundancy" true (r.Redundancy.removed <> []);
  check_int "fixpoint is fully testable" 0
    r.Redundancy.final_report.Engine.untestable;
  check "netlist shrank" true
    (r.Redundancy.gates_after < r.Redundancy.gates_before);
  for m = 0 to 3 do
    check "function preserved" true
      (Netlist.eval_minterm nl m = Netlist.eval_minterm r.Redundancy.netlist m)
  done

(* A constant-driven output is inadmissible: no stuck-at defect on it
   can ever be observed, which the Diag layer must flag as an error. *)
let test_inadmissible_const_output () =
  let nl = Netlist.create ~ni:1 in
  let c = Netlist.add nl (Netlist.Gate.Const true) [||] in
  let b = Netlist.add nl Netlist.Gate.Buf [| c |] in
  Netlist.set_outputs nl [| b |];
  let r = Engine.analyze nl in
  let diags = Atpg.Testability_check.diagnostics nl r in
  check "report has errors" true (Diag.has_errors diags);
  check "inadmissible-output error" true
    (List.exists
       (fun d ->
         d.Diag.code = "inadmissible-output" && d.Diag.severity = Diag.Error)
       diags);
  check "untestable warnings present" true
    (List.exists (fun d -> d.Diag.code = "untestable-fault") diags)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_shape () =
  let nl, _, _ = absorption () in
  let r = Engine.analyze ~config:(config Engine.Differential) nl in
  let s = Rdca_json.Jsonout.to_string (Engine.report_to_json r) in
  List.iter
    (fun key -> check ("json has " ^ key) true (contains s ("\"" ^ key ^ "\"")))
    [ "backend"; "collapse"; "coverage"; "collapse_ratio"; "faults" ];
  let sc = Atpg.Scoap.compute nl in
  let sj = Rdca_json.Jsonout.to_string (Atpg.Scoap.summary_to_json sc) in
  check "scoap json has mean_co" true (contains sj "mean_co")

(* The acceptance scenario: synthesize examples/pla/parity_dc.pla
   (embedded verbatim), graft an absorbed AND onto an output, and let
   the checked removal find it, strip it, and prove care-set
   equivalence against the original spec. *)
let parity_dc_pla =
  ".i 3\n.o 2\n.type fd\n000 00\n001 10\n010 10\n011 00\n100 10\n101 00\n\
   110 -1\n111 -1\n.e\n"

let test_remove_injected_redundancy () =
  let spec = (Pla.parse_string parity_dc_pla).Pla.spec in
  let res =
    Rdca_flow.Flow.synthesize ~mode:Techmap.Mapper.Area
      ~strategy:Rdca_flow.Flow.Conventional spec
  in
  let nl = res.Rdca_flow.Flow.netlist in
  let clean = Engine.analyze nl in
  check_int "mapped netlist starts irredundant" 0 clean.Engine.untestable;
  let outs = Array.copy (Netlist.outputs nl) in
  let o = outs.(0) in
  let a = Netlist.add nl Netlist.Gate.And [| o; 0 |] in
  let o' = Netlist.add nl Netlist.Gate.Or [| o; a |] in
  outs.(0) <- o';
  Netlist.set_outputs nl outs;
  let faulty = Engine.analyze nl in
  check "graft detected as untestable" true (faulty.Engine.untestable > 0);
  match Rdca_flow.Flow.remove_redundant_checked ~spec nl with
  | Error e -> Alcotest.fail (Rdca_flow.Flow.error_to_string e)
  | Ok (r, diags) ->
      check "graft removed" true (r.Redundancy.removed <> []);
      check "netlist shrank" true
        (r.Redundancy.gates_after < r.Redundancy.gates_before);
      check_int "fixpoint fully testable" 0
        r.Redundancy.final_report.Engine.untestable;
      check "care-set equivalence confirmed" true (not (Diag.has_errors diags))

(* Random mapped netlists, the same generator the dc suite uses. *)
let random_netlist phases =
  let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
  List.iteri
    (fun m p ->
      Spec.set s ~o:0 ~m
        (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
    phases;
  let _, covers = Rdca_core.Assign.conventional s in
  let aig = Aig.of_covers ~ni:5 covers in
  let lib = Techmap.Stdcell.default_library () in
  (s, Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib aig)

let phases_arb = QCheck.(list_of_size (QCheck.Gen.return 32) (int_bound 2))

let prop_sat_matches_exhaustive =
  QCheck.Test.make
    ~name:"sat and exhaustive untestability verdicts bit-identical" ~count:40
    QCheck.(pair phases_arb (QCheck.oneofl Fault.[ Equivalence; Dominance ]))
    (fun (phases, mode) ->
      let _, nl = random_netlist phases in
      let run backend =
        Engine.analyze
          ~config:{ (config backend) with Engine.collapse = mode }
          nl
      in
      let sat = run Engine.Sat_engine and exh = run Engine.Exhaustive in
      List.length sat.Engine.results = List.length exh.Engine.results
      && List.for_all2
           (fun (a : Engine.fault_result) (b : Engine.fault_result) ->
             Fault.compare a.Engine.rep b.Engine.rep = 0
             && a.Engine.verdict = b.Engine.verdict)
           sat.Engine.results exh.Engine.results)

let prop_removal_preserves_care_set =
  QCheck.Test.make
    ~name:"redundancy removal preserves the care set at any job count"
    ~count:20 phases_arb
    (fun phases ->
      let s, nl = random_netlist phases in
      let run jobs =
        Parallel.Pool.with_jobs jobs (fun () -> Redundancy.remove nl)
      in
      let r1 = run 1 and r4 = run 4 in
      r1.Redundancy.removed = r4.Redundancy.removed
      && r1.Redundancy.final_report.Engine.results
         = r4.Redundancy.final_report.Engine.results
      && not
           (Diag.has_errors
              (Check.Netlist_check.equiv_spec ~spec:s r1.Redundancy.netlist)))

let suite =
  ( "atpg",
    [
      Alcotest.test_case "collapse counts on AND" `Quick test_collapse_and;
      Alcotest.test_case "untestable absorption" `Quick
        test_untestable_absorption;
      Alcotest.test_case "witness detects" `Quick test_witness_detects;
      Alcotest.test_case "differential refuses 21 inputs" `Quick
        test_differential_refuses_wide;
      Alcotest.test_case "remove absorption" `Quick test_remove_absorption;
      Alcotest.test_case "inadmissible const output" `Quick
        test_inadmissible_const_output;
      Alcotest.test_case "json shape" `Quick test_json_shape;
      Alcotest.test_case "remove injected redundancy" `Quick
        test_remove_injected_redundancy;
      QCheck_alcotest.to_alcotest prop_sat_matches_exhaustive;
      QCheck_alcotest.to_alcotest prop_removal_preserves_care_set;
    ] )
