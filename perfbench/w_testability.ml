(* testability: Flow.remove_redundant_checked, what `rdca testability
   --remove-redundant` runs after synthesis, on three kinds of netlist:
   cube-structured specs of 13-16 inputs (Auto sends them to SAT, one
   fresh miter solver per fault class), Table 1 specs of at most 12
   inputs (Auto sends them to exhaustive simulation), and mapped
   arithmetic circuits, which carry real redundancy. *)

module Spec = Pla.Spec
module Flow = Rdca_flow.Flow
module Engine = Atpg.Engine
module Fault = Atpg.Fault
module Redundancy = Atpg.Redundancy

(* (inputs, outputs, on-cubes, fresh specs) of the SAT-side specs: four
   DC cubes per output, every cube fixing a variable with probability
   0.55.  One output gives 25-60 gates, two give 40-110, so the
   per-class SAT cost is seen across sizes. *)
let sat_shapes =
  [
    (13, 1, 6, 3); (14, 1, 6, 3); (15, 1, 6, 3); (16, 1, 6, 3);
    (14, 1, 8, 3); (16, 1, 8, 3); (14, 2, 6, 2); (16, 2, 6, 2);
  ]

(* Table 1 rows with at most 12 inputs and small netlists, with how
   many fresh specs each contributes (test4, ex1010 and the 12-input
   randoms take seconds per op under exhaustive ATPG).  fout holds the
   median and exam the 90th percentile, each inside its own stratum. *)
let small_rows =
  [ ("bench", 2); ("exp", 2); ("p1", 2); ("p3", 2); ("fout", 40); ("t4", 2); ("exam", 8) ]

let circuits =
  Synthetic.Circuits.
    [
      ("alu3", alu ~bits:3);
      ("alu4", alu ~bits:4);
      ("alu5", alu ~bits:5);
      ("mul3", multiplier ~bits:3);
      ("mul4", multiplier ~bits:4);
      ("add4", adder ~bits:4);
      ("add6", adder ~bits:6);
      ("cmp4", comparator ~bits:4);
      ("cmp6", comparator ~bits:6);
    ]

type result = {
  netlist : Netlist.t;
  removed : Fault.t list;
  passes : int;
  final : Engine.report;
}

let verdicts (r : Engine.report) =
  List.map (fun (f : Engine.fault_result) -> (f.Engine.rep, f.Engine.verdict)) r.Engine.results

let outcome ~spec ~input ~layer r =
  let summary () =
    let area = (Techmap.Report.of_netlist r.netlist).Techmap.Report.area in
    let error = Reliability.Error_rate.of_netlist spec r.netlist in
    {
      Op.areas = [ area ];
      error_rates = [ error ];
      work =
        [
          ("removed", List.length r.removed);
          ("passes", r.passes);
          ("classes", r.final.Engine.classes);
        ];
      key =
        Printf.sprintf "%s %s removed=%s passes=%d classes=%d" (Op.float_key area)
          (Op.float_key error)
          (String.concat "," (List.map Fault.to_string r.removed))
          r.passes r.final.Engine.classes;
    }
  in
  let check () =
    if not (Oracle.same_function input r.netlist) then
      Some "redundancy removal changed the function"
    else
      match Oracle.care_mismatch spec r.netlist with
      | Some m -> Some ("netlist off the care set: " ^ m)
      | None ->
          (* Every SAT verdict of the fixpoint analysis against the
             exhaustive simulator; at or below the cutoff Auto already
             ran the simulator itself. *)
          if Netlist.ni r.netlist <= Engine.default_config.Engine.auto_cutoff then None
          else
            let exhaustive =
              Engine.analyze
                ~config:{ Engine.default_config with Engine.backend = Engine.Exhaustive }
                r.netlist
            in
            if verdicts exhaustive <> verdicts r.final then
              Some "final SAT verdicts differ from the exhaustive backend"
            else None
  in
  { Op.summary; check; layer }

let run ~spec nl =
  match Flow.remove_redundant_checked ~spec nl with
  | Error e -> Op.failed (Flow.error_to_string e)
  | Ok (rem, _) ->
      outcome ~spec ~input:nl ~layer:[]
        {
          netlist = rem.Redundancy.netlist;
          removed = rem.Redundancy.removed;
          passes = rem.Redundancy.iterations;
          final = rem.Redundancy.final_report;
        }

(* A removal that pins a branch to the constant already driving it
   rewrites nothing; Redundancy.remove skips those. *)
let is_noop nl (f : Fault.t) =
  match f.Fault.pin with
  | Fault.Stem -> false
  | Fault.Branch j -> (
      match Netlist.gate nl (Netlist.fanins nl f.Fault.node).(j) with
      | Netlist.Gate.Const b -> b = f.Fault.stuck
      | _ -> false)

(* Redundancy.remove's analyse-and-apply loop as public calls.
   Engine.analyze collapses the fault universe itself, so the atpg.*
   spans include a second collapse. *)
let replay tr ~spec nl =
  let span name f = Spans.span tr name f in
  let config = Engine.default_config in
  let max_iterations = 64 in
  let current = ref (Netlist.copy nl) in
  let removed = ref [] and passes = ref 0 in
  let faults = ref 0 and classes = ref 0 and sat_classes = ref 0 in
  let rec loop () =
    incr passes;
    let collapsed =
      span "fault.collapse" (fun () -> Fault.collapse ~mode:config.Engine.collapse !current)
    in
    faults := !faults + collapsed.Fault.total;
    classes := !classes + Array.length collapsed.Fault.classes;
    let sat_side = Netlist.ni !current > config.Engine.auto_cutoff in
    let report =
      span (if sat_side then "atpg.sat" else "atpg.exhaustive") (fun () ->
          Engine.analyze ~config !current)
    in
    if sat_side then sat_classes := !sat_classes + report.Engine.classes;
    let pick =
      List.find_map
        (fun (r : Engine.fault_result) ->
          if r.Engine.verdict = Engine.Untestable then
            List.find_opt (fun f -> not (is_noop !current f)) r.Engine.members
          else None)
        report.Engine.results
    in
    match pick with
    | Some f when !passes < max_iterations ->
        current := span "redundancy" (fun () -> Redundancy.apply !current f);
        removed := f :: !removed;
        loop ()
    | _ -> report
  in
  let final = loop () in
  let diags =
    span "check.equiv" (fun () -> Check.Netlist_check.equiv_spec ~spec !current)
  in
  let layer =
    [
      ("fault.faults", float_of_int !faults);
      ("fault.classes", float_of_int !classes);
      ("atpg.sat_classes", float_of_int !sat_classes);
      ("redundancy.passes", float_of_int !passes);
      ("redundancy.removed", float_of_int (List.length !removed));
    ]
  in
  if Check.Diag.has_errors diags then Op.failed "equivalence gate refused the removal"
  else
    outcome ~spec ~input:nl ~layer
      { netlist = !current; removed = List.rev !removed; passes = !passes; final }

let setup ~seed =
  let sat =
    List.concat
      (List.mapi
         (fun si (ni, no, on_cubes, count) ->
           List.init count (fun j ->
               let rng = Gen.rng ~seed ~index:(2000 + (si * 100) + j) in
               let spec = Gen.cube_spec ~rng ~ni ~no ~on_cubes ~dc_cubes:4 ~lit_prob:0.55 in
               (Printf.sprintf "cube%dx%d/%d#%d" ni no on_cubes j, spec, Gen.synth_area spec)))
         sat_shapes)
  in
  let small =
    List.concat
      (List.mapi
         (fun ri (name, count) ->
           List.init count (fun j ->
               let rng = Gen.rng ~seed ~index:(3000 + (ri * 100) + j) in
               let spec = Gen.table1_spec ~rng (Synthetic.Suite.find name) in
               (Printf.sprintf "%s#%d" name j, spec, Gen.synth_area spec)))
         small_rows)
  in
  let lib = Techmap.Stdcell.default_library () in
  let circ =
    List.map
      (fun (name, aig) ->
        let nl = Techmap.Mapper.map ~mode:Techmap.Mapper.Area ~lib aig in
        (name, Gen.spec_of_netlist nl, nl))
      circuits
  in
  let bases = Array.of_list (sat @ small @ circ) in
  {
    Op.labels = Array.map (fun (l, _, _) -> l) bases;
    inputs_digest = Gen.digest (Array.map (fun (_, s, n) -> (s, n)) bases);
    prepare_round =
      (fun () ->
        Array.map
          (fun (_, spec, nl) ->
            let spec = Spec.copy spec and nl = Netlist.copy nl in
            { Op.run = (fun () -> run ~spec nl); replay = (fun tr -> replay tr ~spec nl) })
          bases);
    warmup = [ 0; List.length sat; List.length sat + List.length small ];
  }
