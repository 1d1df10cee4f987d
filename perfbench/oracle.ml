(* Output checks shared by the workloads.  They simulate netlists with
   the gate-level simulator and read specs cell by cell, so they share
   no code with the synthesis, don't-care or equivalence engines whose
   output they judge. *)

module Spec = Pla.Spec

(* [care_mismatch spec nl] is [None] when every output of [nl] agrees
   with [spec] on every care minterm. *)
let care_mismatch spec nl =
  if Netlist.ni nl <> Spec.ni spec || Netlist.no nl <> Spec.no spec then
    Some
      (Printf.sprintf "netlist is %dx%d, spec is %dx%d" (Netlist.ni nl)
         (Netlist.no nl) (Spec.ni spec) (Spec.no spec))
  else
    let tables = Netlist.output_tables nl in
    let bad = ref None in
    Array.iteri
      (fun o table ->
        if !bad = None then
          for m = 0 to Spec.size spec - 1 do
            if !bad = None then
              match Spec.get spec ~o ~m with
              | Spec.Dc -> ()
              | Spec.On ->
                  if not (Bitvec.Bv.get table m) then
                    bad := Some (Printf.sprintf "output %d minterm %d: 0, spec 1" o m)
              | Spec.Off ->
                  if Bitvec.Bv.get table m then
                    bad := Some (Printf.sprintf "output %d minterm %d: 1, spec 0" o m)
          done)
      tables;
    !bad

(* [same_function a b] — both netlists compute the same function on
   every minterm (redundancy removal must preserve DC behaviour too). *)
let same_function a b =
  let ta = Netlist.output_tables a and tb = Netlist.output_tables b in
  Array.length ta = Array.length tb && Array.for_all2 Bitvec.Bv.equal ta tb

let first_failure checks = List.find_map (fun c -> c ()) checks
