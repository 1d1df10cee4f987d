(* Tests for the paper's DC-assignment algorithms (Figures 3 and 7),
   conventional assignment, and the nodal-decomposition extension. *)

module Spec = Pla.Spec
module Cover = Twolevel.Cover
module Metrics = Rdca_core.Metrics
module Assign = Rdca_core.Assign
module Decompose = Rdca_core.Decompose
module ER = Reliability.Error_rate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let phase = Alcotest.testable
    (fun ppf -> function
      | Spec.On -> Format.pp_print_string ppf "On"
      | Spec.Off -> Format.pp_print_string ppf "Off"
      | Spec.Dc -> Format.pp_print_string ppf "Dc")
    ( = )

(* A 4-input instance of the paper's motivating example (Figure 1):
   x1 = minterm 0 with two on-, one off-, one DC-neighbour;
   x2 = minterm 8 with two off-, one on-, one DC-neighbour;
   x3 = minterm 5 with two on- and two off-neighbours. *)
let motivating () =
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.On) [ 1; 2; 12; 7 ];
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.Dc) [ 0; 8; 5 ];
  s

let test_motivating_weights () =
  let s = motivating () in
  check_int "w(x1)" 1 (Metrics.weight s ~o:0 ~m:0);
  check_int "w(x2)" 1 (Metrics.weight s ~o:0 ~m:8);
  check_int "w(x3)" 0 (Metrics.weight s ~o:0 ~m:5);
  Alcotest.(check (option bool)) "x1 -> on" (Some true)
    (Metrics.majority_phase s ~o:0 ~m:0);
  Alcotest.(check (option bool)) "x2 -> off" (Some false)
    (Metrics.majority_phase s ~o:0 ~m:8);
  Alcotest.(check (option bool)) "x3 tie" None
    (Metrics.majority_phase s ~o:0 ~m:5)

let test_motivating_ranking () =
  let s = motivating () in
  let r = Assign.ranking ~fraction:1.0 s in
  Alcotest.check phase "x1 assigned on" Spec.On (Spec.get r ~o:0 ~m:0);
  Alcotest.check phase "x2 assigned off" Spec.Off (Spec.get r ~o:0 ~m:8);
  Alcotest.check phase "x3 left dc" Spec.Dc (Spec.get r ~o:0 ~m:5);
  (* original untouched *)
  Alcotest.check phase "input not mutated" Spec.Dc (Spec.get s ~o:0 ~m:0)

let test_ranking_fraction_zero () =
  let s = motivating () in
  let r = Assign.ranking ~fraction:0.0 s in
  check "nothing assigned" true (Spec.equal s r)

let test_ranking_fraction_partial () =
  (* With two rankable DCs, fraction 0.5 assigns exactly one (the
     highest weight; ties broken by minterm index). *)
  let s = motivating () in
  let r = Assign.ranking ~fraction:0.5 s in
  let assigned =
    List.length
      (List.filter
         (fun m -> Spec.get r ~o:0 ~m <> Spec.Dc)
         [ 0; 8; 5 ])
  in
  check_int "one of three" 1 assigned;
  Alcotest.check phase "lowest minterm wins tie" Spec.On (Spec.get r ~o:0 ~m:0)

let test_dc_ranking_order () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  (* m=0: three on-neighbours -> w 3.  m=7: one on neighbour of its
     three -> w 1 (nbrs 6,5,3 all off => w=3 off-majority). *)
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.On) [ 1; 2; 4 ];
  Spec.set s ~o:0 ~m:0 Spec.Dc;
  Spec.set s ~o:0 ~m:7 Spec.Dc;
  match Metrics.dc_ranking s ~o:0 with
  | [ (m1, w1); (m2, w2) ] ->
      check_int "first minterm" 0 m1;
      check_int "first weight" 3 w1;
      check_int "second minterm" 7 m2;
      check_int "second weight" 3 w2
  | l -> Alcotest.failf "expected 2 ranked DCs, got %d" (List.length l)

let test_by_complexity_thresholds () =
  let s = motivating () in
  let none = Assign.by_complexity ~threshold:0.0 s in
  check "threshold 0 assigns nothing" true (Spec.equal s none);
  let all = Assign.by_complexity ~threshold:1.01 s in
  check "threshold > 1 assigns everything" true (Spec.dc_fraction all = 0.0)

let test_by_complexity_tie_to_zero () =
  let s = motivating () in
  let r = Assign.by_complexity ~threshold:1.01 s in
  (* x3 is a tie: Figure 7's else-branch sends it to 0. *)
  Alcotest.check phase "tie to off" Spec.Off (Spec.get r ~o:0 ~m:5)

let test_conventional_fully_specified () =
  let s = motivating () in
  let r, covers = Rdca_flow.Flow.implement s in
  check "fully specified" true (Spec.dc_fraction r = 0.0);
  check_int "one cover" 1 (List.length covers);
  (* conventional preserves care phases *)
  for m = 0 to 15 do
    match Spec.get s ~o:0 ~m with
    | Spec.Dc -> ()
    | p -> Alcotest.check phase (Printf.sprintf "care m=%d" m) p (Spec.get r ~o:0 ~m)
  done;
  (* the cover agrees with the assigned spec *)
  let cover = List.hd covers in
  for m = 0 to 15 do
    check
      (Printf.sprintf "cover m=%d" m)
      (Spec.output_value r ~o:0 ~m)
      (Cover.eval cover m)
  done

let test_assigned_dc_fraction () =
  let s = motivating () in
  let r = Assign.ranking ~fraction:1.0 s in
  Alcotest.(check (float 1e-9)) "2 of 3" (2.0 /. 3.0)
    (Assign.assigned_dc_fraction ~before:s ~after:r)

let test_matching_budget () =
  let s = motivating () in
  let lcf = Assign.by_complexity ~threshold:0.6 s in
  let matched = Assign.ranking_matching_budget ~reference:lcf s in
  let count spec =
    let c = ref 0 in
    Spec.iter_dc s ~o:0 (fun m ->
        if Spec.get spec ~o:0 ~m <> Spec.Dc then incr c);
    !c
  in
  (* budgets agree up to ties/zero-weight exclusions *)
  check "budget within 1" true (abs (count lcf - count matched) <= 1)

(* Statistical test: on random incompletely specified functions, fully
   reliability-driven assignment (then conventional for leftovers)
   should on average beat pure conventional assignment on error rate. *)
let test_reliability_beats_conventional_on_average () =
  let rng = Random.State.make [| 11 |] in
  let total_conv = ref 0.0 and total_rel = ref 0.0 in
  let runs = 25 in
  for _ = 1 to runs do
    let s = Synthetic.Synth_gen.random_spec ~rng ~ni:6 ~no:1 ~f1:0.2 ~f0:0.2 in
    let conv, _ = Rdca_flow.Flow.implement s in
    let rel, _ = Rdca_flow.Flow.implement (Assign.complete s) in
    total_conv := !total_conv +. ER.of_spec_assigned conv ~o:0;
    total_rel := !total_rel +. ER.of_spec_assigned rel ~o:0
  done;
  check "reliability-driven lower error on average" true
    (!total_rel < !total_conv)

let test_complete_reaches_min_bound () =
  (* With every non-tied DC at its majority phase and ties resolved
     arbitrarily afterwards, the final error rate equals the exact
     minimum bound when there are no DC-DC adjacencies... in general it
     is close; here use a spec with isolated DCs where it is exact. *)
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.On) [ 3; 5 ];
  Spec.set s ~o:0 ~m:7 Spec.Dc;
  (* nbrs of 7: 6(off) 5(on) 3(on) -> majority on *)
  let b = ER.bounds s ~o:0 in
  let r, _ = Rdca_flow.Flow.implement (Assign.complete s) in
  (* The error rate must be computed against the ORIGINAL spec's care
     set: assigned DCs are care in the implementation but still cannot
     originate errors. *)
  let impl = Bitvec.Bv.create 8 in
  for m = 0 to 7 do
    if Spec.output_value r ~o:0 ~m then Bitvec.Bv.set impl m
  done;
  Alcotest.(check (float 1e-9))
    "reaches min" (ER.min_rate b)
    (ER.of_table s ~o:0 ~impl)

(* Decompose tests *)

let sample_mapped () =
  let lib = Techmap.Stdcell.default_library () in
  let c =
    Cover.make ~n:4
      (List.map Twolevel.Cube.of_string [ "11--"; "--11"; "1-0-" ])
  in
  let aig = Aig.of_covers ~ni:4 [ c ] in
  Techmap.Mapper.map ~mode:Techmap.Mapper.Delay ~lib aig

let test_local_patterns_inverter_pair () =
  (* AND(x, NOT x): the AND can never see pattern 11 or 00. *)
  let nl = Netlist.create ~ni:1 in
  let inv = Netlist.add nl Netlist.Gate.Not [| 0 |] in
  let a = Netlist.add nl Netlist.Gate.And [| 0; inv |] in
  Netlist.set_outputs nl [| a |];
  let masks = Decompose.local_patterns nl in
  (* patterns: bit0 = x, bit1 = not x; reachable: 01 (x=1) and 10 (x=0) *)
  check_int "and sees only 01 and 10" 0b0110 masks.(a)

let test_reassign_preserves_io () =
  let nl = sample_mapped () in
  let nl' = Decompose.reassign ~threshold:0.65 nl in
  for m = 0 to 15 do
    check
      (Printf.sprintf "io m=%d" m)
      ((Netlist.eval_minterm nl m).(0))
      ((Netlist.eval_minterm nl' m).(0))
  done

let test_internal_error_rate_range () =
  let nl = sample_mapped () in
  let r = Decompose.internal_error_rate nl in
  check "rate in [0,1]" true (r >= 0.0 && r <= 1.0);
  check "some propagation" true (r > 0.0)

let test_reassign_not_worse_internal () =
  let nl = sample_mapped () in
  let before = Decompose.internal_error_rate nl in
  let after =
    Decompose.internal_error_rate (Decompose.reassign ~threshold:0.65 nl)
  in
  (* Local DC reassignment targets masking; allow equality and tiny
     regressions from interaction effects. *)
  check "internal rate not much worse" true (after <= before +. 0.05)

let prop_ranking_assigns_subset =
  QCheck.Test.make ~name:"ranking at f1 assigns a superset of f0.5"
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.return 32) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let half = Assign.ranking ~fraction:0.5 s in
      let full = Assign.ranking ~fraction:1.0 s in
      let ok = ref true in
      for m = 0 to 31 do
        match (Spec.get half ~o:0 ~m, Spec.get full ~o:0 ~m) with
        | Spec.Dc, _ -> ()
        | p, q -> if p <> q then ok := false
      done;
      !ok)

let prop_assignments_preserve_care =
  QCheck.Test.make ~name:"assignment never touches care minterms" ~count:60
    QCheck.(pair (list_of_size (QCheck.Gen.return 32) (int_bound 2)) (float_range 0.0 1.0))
    (fun (phases, threshold) ->
      let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let variants =
        [
          Assign.ranking ~fraction:0.7 s;
          Assign.by_complexity ~threshold s;
          fst (Rdca_flow.Flow.implement s);
        ]
      in
      List.for_all
        (fun v ->
          let ok = ref true in
          for m = 0 to 31 do
            match Spec.get s ~o:0 ~m with
            | Spec.Dc -> ()
            | p -> if Spec.get v ~o:0 ~m <> p then ok := false
          done;
          !ok)
        variants)

let suite =
  ( "core",
    [
      Alcotest.test_case "motivating example weights" `Quick
        test_motivating_weights;
      Alcotest.test_case "motivating example ranking" `Quick
        test_motivating_ranking;
      Alcotest.test_case "ranking fraction 0" `Quick test_ranking_fraction_zero;
      Alcotest.test_case "ranking partial fraction" `Quick
        test_ranking_fraction_partial;
      Alcotest.test_case "dc ranking order" `Quick test_dc_ranking_order;
      Alcotest.test_case "by_complexity thresholds" `Quick
        test_by_complexity_thresholds;
      Alcotest.test_case "by_complexity tie to zero" `Quick
        test_by_complexity_tie_to_zero;
      Alcotest.test_case "conventional fully specifies" `Quick
        test_conventional_fully_specified;
      Alcotest.test_case "assigned dc fraction" `Quick
        test_assigned_dc_fraction;
      Alcotest.test_case "matching budget" `Quick test_matching_budget;
      Alcotest.test_case "reliability beats conventional on average" `Quick
        test_reliability_beats_conventional_on_average;
      Alcotest.test_case "complete reaches min bound (isolated dc)" `Quick
        test_complete_reaches_min_bound;
      Alcotest.test_case "local patterns of inverter pair" `Quick
        test_local_patterns_inverter_pair;
      Alcotest.test_case "reassign preserves io" `Quick
        test_reassign_preserves_io;
      Alcotest.test_case "internal error rate range" `Quick
        test_internal_error_rate_range;
      Alcotest.test_case "reassign not worse internally" `Quick
        test_reassign_not_worse_internal;
      QCheck_alcotest.to_alcotest prop_ranking_assigns_subset;
      QCheck_alcotest.to_alcotest prop_assignments_preserve_care;
    ] )

(* ODC-based reassignment. *)

let test_odc_preserves_io () =
  let nl = sample_mapped () in
  let nl' = Decompose.reassign_odc ~threshold:0.65 nl in
  for m = 0 to 15 do
    check
      (Printf.sprintf "odc io m=%d" m)
      true
      (Netlist.eval_minterm nl m = Netlist.eval_minterm nl' m)
  done

let test_odc_input_untouched () =
  let nl = sample_mapped () in
  let before = Netlist.output_tables nl in
  ignore (Decompose.reassign_odc ~threshold:0.65 nl);
  let after = Netlist.output_tables nl in
  check "input netlist unchanged" true
    (Array.for_all2 Bitvec.Bv.equal before after)

let test_odc_superset_of_sdc () =
  (* Every unreachable pattern is unobservable, so ODC flexibility is
     a superset of satisfiability flexibility. *)
  let nl = sample_mapped () in
  let masks = Decompose.local_patterns nl in
  Netlist.iter_nodes nl (fun id g _ ->
      match g with
      | Netlist.Gate.Cell c when c.Netlist.Gate.arity <= 4 ->
          let obs = Decompose.observability_mask nl ~node:id in
          let full = (1 lsl (1 lsl c.Netlist.Gate.arity)) - 1 in
          (* observable ⊆ reachable *)
          check "observable within reachable" true
            (obs land lnot masks.(id) land full = 0)
      | _ -> ())

let test_odc_dead_gate_fully_free () =
  (* A cell whose output is masked by AND-with-0 downstream is never
     observable: every pattern is assignable. *)
  let lib = Techmap.Stdcell.default_library () in
  let and2 = Techmap.Stdcell.to_gate (Techmap.Stdcell.find lib "AND2") in
  let nl = Netlist.create ~ni:2 in
  let dead = Netlist.add nl and2 [| 0; 1 |] in
  let zero = Netlist.add nl (Netlist.Gate.Const false) [||] in
  let gated = Netlist.add nl and2 [| dead; zero |] in
  Netlist.set_outputs nl [| gated |];
  check_int "dead gate unobservable" 0
    (Decompose.observability_mask nl ~node:dead)

let prop_odc_io_equivalence =
  QCheck.Test.make ~name:"odc reassignment always preserves io" ~count:40
    QCheck.(list_of_size (QCheck.Gen.return 32) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let full, covers = Rdca_flow.Flow.implement s in
      ignore full;
      let aig = Aig.of_covers ~ni:5 covers in
      let lib = Techmap.Stdcell.default_library () in
      let nl = Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib aig in
      let nl' = Decompose.reassign_odc ~threshold:0.65 nl in
      let ok = ref true in
      for m = 0 to 31 do
        if Netlist.eval_minterm nl m <> Netlist.eval_minterm nl' m then
          ok := false
      done;
      !ok)

let odc_cases =
  [
    Alcotest.test_case "odc preserves io" `Quick test_odc_preserves_io;
    Alcotest.test_case "odc leaves input untouched" `Quick
      test_odc_input_untouched;
    Alcotest.test_case "observable within reachable" `Quick
      test_odc_superset_of_sdc;
    Alcotest.test_case "dead gate fully free" `Quick
      test_odc_dead_gate_fully_free;
    QCheck_alcotest.to_alcotest prop_odc_io_equivalence;
  ]

let suite = (fst suite, snd suite @ odc_cases)

(* Threshold monotonicity of the LC^f rule. *)

let prop_by_complexity_monotone =
  QCheck.Test.make ~name:"lower threshold assigns a subset" ~count:60
    QCheck.(list_of_size (QCheck.Gen.return 32) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:5 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let low = Assign.by_complexity ~threshold:0.4 s in
      let high = Assign.by_complexity ~threshold:0.8 s in
      let ok = ref true in
      for m = 0 to 31 do
        match (Spec.get low ~o:0 ~m, Spec.get high ~o:0 ~m) with
        | Spec.Dc, _ -> ()
        | p, q -> if p <> q then ok := false
      done;
      !ok)

let mono_cases = [ QCheck_alcotest.to_alcotest prop_by_complexity_monotone ]

let suite = (fst suite, snd suite @ mono_cases)
