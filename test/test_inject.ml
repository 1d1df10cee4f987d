(* Gate-level fault injection: exact rates on hand-checked examples,
   agreement between the scalar and word-parallel evaluators,
   Monte-Carlo convergence, and argument validation. *)

module Spec = Pla.Spec
module Bv = Bitvec.Bv
module Inject = Reliability.Inject

let check = Alcotest.(check bool)
let check_f tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)

(* The running example: a 2-input AND gate.  Node ids: inputs 0 and 1,
   the gate is node 2. *)
let and_netlist () =
  let nl = Netlist.create ~ni:2 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  Netlist.set_outputs nl [| a |];
  (nl, a)

let and_spec () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  s

let test_sites () =
  let nl, a = and_netlist () in
  check "sites are the internal gates" true (Inject.sites nl = [ a ]);
  (* constants are not injectable sites *)
  let nl2 = Netlist.create ~ni:1 in
  let c = Netlist.add nl2 (Netlist.Gate.Const true) [||] in
  let b = Netlist.add nl2 Netlist.Gate.And [| 0; c |] in
  Netlist.set_outputs nl2 [| b |];
  check "consts excluded" true (Inject.sites nl2 = [ b ])

let test_apply () =
  check "sa0" true (Inject.apply Inject.Stuck_at_0 true = false);
  check "sa1" true (Inject.apply Inject.Stuck_at_1 false = true);
  check "transient flips" true (Inject.apply Inject.Transient false = true);
  check "transient flips back" true (Inject.apply Inject.Transient true = false)

(* Hand-checked exact rates on the fully specified AND.  The correct
   output is 1 only at m=3; faults at the gate output change the
   output at 1 (sa0), 3 (sa1) and 4 (transient) of the 4 minterms. *)
let test_exact_rates_and () =
  let nl, a = and_netlist () in
  let s = and_spec () in
  check_f 1e-9 "sa0 = 1/4" 0.25
    (Inject.exact_rate s nl { Inject.node = a; kind = Inject.Stuck_at_0 });
  check_f 1e-9 "sa1 = 3/4" 0.75
    (Inject.exact_rate s nl { Inject.node = a; kind = Inject.Stuck_at_1 });
  check_f 1e-9 "transient = 1" 1.0
    (Inject.exact_rate s nl { Inject.node = a; kind = Inject.Transient });
  (* A transient on input 0 propagates through the AND iff input 1 is
     high: minterms 2 and 3, rate 1/2. *)
  check_f 1e-9 "transient at input" 0.5
    (Inject.exact_rate s nl { Inject.node = 0; kind = Inject.Transient })

(* Don't-care minterms never count as propagation events. *)
let test_dc_masking () =
  let nl, a = and_netlist () in
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.Dc;
  (* sa0 only differs at m=3, which is a DC: rate 0 *)
  check_f 1e-9 "sa0 fully masked" 0.0
    (Inject.exact_rate s nl { Inject.node = a; kind = Inject.Stuck_at_0 });
  (* transient differs everywhere; only the 3 care minterms count *)
  check_f 1e-9 "transient on care set" 0.75
    (Inject.exact_rate s nl { Inject.node = a; kind = Inject.Transient })

(* The word-parallel faulty tables must agree with the scalar
   minterm evaluator on every (kind, minterm) pair of a multi-level
   netlist. *)
let test_tables_match_scalar () =
  let nl = Netlist.create ~ni:3 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  let x = Netlist.add nl Netlist.Gate.Xor [| a; 2 |] in
  let n = Netlist.add nl Netlist.Gate.Not [| a |] in
  Netlist.set_outputs nl [| x; n |];
  List.iter
    (fun node ->
      List.iter
        (fun kind ->
          let fault = { Inject.node; kind } in
          let tables = Inject.faulty_tables nl fault in
          for m = 0 to 7 do
            let outs = Inject.eval_minterm nl fault m in
            Array.iteri
              (fun o table ->
                check
                  (Printf.sprintf "node %d %s m=%d o=%d" node
                     (Inject.kind_name kind) m o)
                  true
                  (Bv.get table m = outs.(o)))
              tables
          done)
        Inject.all_kinds)
    (Inject.sites nl)

let test_mc_converges_to_exact () =
  let nl, a = and_netlist () in
  let s = and_spec () in
  List.iter
    (fun kind ->
      let fault = { Inject.node = a; kind } in
      let exact = Inject.exact_rate s nl fault in
      let rng = Random.State.make [| 7 |] in
      let mc = Inject.run ~rng ~trials:20000 s nl fault in
      check_int "trials recorded" 20000 mc.Inject.trials;
      check_f 1e-9 "rate = propagated / events"
        (float_of_int mc.Inject.propagated /. 20000.0)
        mc.Inject.rate;
      check (Inject.kind_name kind) true
        (abs_float (mc.Inject.rate -. exact) < 0.02))
    Inject.all_kinds

let test_mc_deterministic () =
  let nl, a = and_netlist () in
  let s = and_spec () in
  let fault = { Inject.node = a; kind = Inject.Stuck_at_1 } in
  let run () =
    Inject.run ~rng:(Random.State.make [| 42; a; 1 |]) ~trials:500 s nl fault
  in
  check "same seed, same result" true (run () = run ())

let expect_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_validation () =
  let nl, a = and_netlist () in
  let s = and_spec () in
  let fault = { Inject.node = a; kind = Inject.Stuck_at_0 } in
  let rng () = Random.State.make [| 1 |] in
  expect_invalid "trials = 0" (fun () ->
      Inject.run ~rng:(rng ()) ~trials:0 s nl fault);
  expect_invalid "trials < 0" (fun () ->
      Inject.run ~rng:(rng ()) ~trials:(-5) s nl fault);
  let wide = Spec.create ~ni:3 ~no:1 ~default:Spec.On in
  expect_invalid "input mismatch" (fun () ->
      Inject.run ~rng:(rng ()) ~trials:10 wide nl fault);
  expect_invalid "exact input mismatch" (fun () ->
      Inject.exact_rate wide nl fault);
  expect_invalid "bad node id" (fun () ->
      Inject.exact_rate s nl { Inject.node = 99; kind = Inject.Stuck_at_0 });
  expect_invalid "negative node id" (fun () ->
      Inject.eval_minterm nl { Inject.node = -1; kind = Inject.Transient } 0)

let prop_kind_names_roundtrip =
  QCheck.Test.make ~name:"kind names round-trip" ~count:30
    (QCheck.oneofl Inject.all_kinds)
    (fun k -> Inject.kind_of_name (Inject.kind_name k) = Some k)

let suite =
  ( "inject",
    [
      Alcotest.test_case "sites" `Quick test_sites;
      Alcotest.test_case "apply" `Quick test_apply;
      Alcotest.test_case "exact rates on AND" `Quick test_exact_rates_and;
      Alcotest.test_case "dc masking" `Quick test_dc_masking;
      Alcotest.test_case "tables match scalar eval" `Quick
        test_tables_match_scalar;
      Alcotest.test_case "monte-carlo converges" `Quick
        test_mc_converges_to_exact;
      Alcotest.test_case "monte-carlo deterministic" `Quick
        test_mc_deterministic;
      Alcotest.test_case "validation" `Quick test_validation;
      QCheck_alcotest.to_alcotest prop_kind_names_roundtrip;
    ] )
