module Diag = Check.Diag
module Gate = Netlist.Gate

let untestable_warnings report =
  List.filter_map
    (fun (r : Engine.fault_result) ->
      if r.Engine.verdict = Engine.Untestable then
        let f = r.Engine.rep in
        Some
          (Diag.warn ~code:"untestable-fault" ~loc:(Diag.Node f.Fault.node)
             "%s admits no test (%d collapsed fault%s); the line is redundant"
             (Fault.to_string f) r.Engine.class_size
             (if r.Engine.class_size = 1 then "" else "s"))
      else None)
    report.Engine.results

(* An output whose stem stuck-at-v fault is untestable computes the
   constant v: no defect on it is ever observable, so the circuit is
   inadmissible under the stuck-at model. *)
let inadmissible_errors nl report =
  let tbl = Engine.verdict_table report in
  let stem_untestable node stuck =
    match Hashtbl.find_opt tbl { Fault.node; pin = Fault.Stem; stuck } with
    | Some r -> r.Engine.verdict = Engine.Untestable
    | None -> false
  in
  let errs = ref [] in
  Array.iteri
    (fun oi o ->
      let const_err v =
        errs :=
          Diag.error ~code:"inadmissible-output" ~loc:(Diag.Output oi)
            "output computes the constant %d (stuck-at-%d is untestable): \
             inadmissible under stuck-at defects"
            (if v then 1 else 0)
            (if v then 1 else 0)
          :: !errs
      in
      match Netlist.gate nl o with
      | Gate.Const b -> const_err b
      | Gate.Input _ -> ()
      | _ ->
          if stem_untestable o false then const_err false
          else if stem_untestable o true then const_err true)
    (Netlist.outputs nl);
  List.rev !errs

let diagnostics nl report =
  let warnings = Diag.cap ~limit:20 (untestable_warnings report) in
  let errors = inadmissible_errors nl report in
  let mismatch =
    if report.Engine.disagreements > 0 then
      [
        Diag.error ~code:"atpg-backend-mismatch" ~loc:Diag.Global
          "SAT and exhaustive backends disagree on %d fault class(es)"
          report.Engine.disagreements;
      ]
    else []
  in
  let summary =
    Diag.info ~code:"fault-coverage" ~loc:Diag.Global
      "fault coverage %.1f%% (%d/%d faults testable), %d class(es) from %d \
       fault(s) (%.2fx collapse)"
      (100.0 *. report.Engine.coverage)
      report.Engine.testable report.Engine.total_faults report.Engine.classes
      report.Engine.total_faults report.Engine.collapse_ratio
  in
  mismatch @ errors @ warnings @ [ summary ]
