(* Interrupt hooks: registration, one run per simulated signal, and
   deregistration. *)

module Interrupt = Resilient.Interrupt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_interrupt_hooks () =
  let hits = ref 0 in
  let unhook = Interrupt.on_interrupt (fun () -> incr hits) in
  Interrupt.simulate ();
  check_int "hook ran" 1 !hits;
  check "triggered resets after simulate" false (Interrupt.triggered ());
  unhook ();
  Interrupt.simulate ();
  check_int "deregistered hook does not run again" 1 !hits

let suite =
  ( "resilient",
    [ Alcotest.test_case "interrupt: hooks" `Quick test_interrupt_hooks ] )
