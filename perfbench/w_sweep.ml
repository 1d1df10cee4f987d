(* sweep: Experiments.sweep_cell_of_spec over fresh Table 1 specs, each
   walking the default ranking fractions in order — the paper's
   Figures 4 and 5 experiment, one cell per op. *)

module Spec = Pla.Spec
module Flow = Rdca_flow.Flow
module Experiments = Rdca_flow.Experiments
module Report = Techmap.Report
module Mapper = Techmap.Mapper

let report_key (r : Report.t) =
  Printf.sprintf "%s/%s/%s/%d/%d" (Op.float_key r.Report.area)
    (Op.float_key r.Report.delay) (Op.float_key r.Report.power) r.Report.gates
    r.Report.depth

let cell_key error delay power =
  String.concat " " [ Op.float_key error; report_key delay; report_key power ]

let summary error (delay : Report.t) (power : Report.t) =
  {
    Op.areas = [ delay.Report.area; power.Report.area ];
    error_rates = [ error ];
    work = [ ("gates", delay.Report.gates + power.Report.gates) ];
    key = cell_key error delay power;
  }

let c_hits = Prof.counter "cut.memo_hits"
let c_misses = Prof.counter "cut.memo_misses"

(* The cell as the public layer calls sweep_cell_of_spec makes.  The
   mapper enumerates cuts through the same memo, so the explicit
   enumeration here leaves the mapper a memo hit and [techmap] is timed
   without cut enumeration; hits and lookups are counted on the
   explicit call only, which sees what the mapper's own call sees in
   the untraced cell. *)
let replay tr spec fraction =
  let span name f = Spans.span tr name f in
  let lib = Techmap.Stdcell.default_library () in
  let partial =
    span "assign" (fun () -> Flow.apply_strategy (Flow.Ranking fraction) spec)
  in
  let full, covers = span "espresso" (fun () -> Flow.implement partial) in
  let error =
    span "error_rate" (fun () -> Flow.measured_error ~original:spec full)
  in
  let hits = ref 0 and lookups = ref 0 and nodes = ref 0 in
  let build mode =
    let aig = span "aig.build" (fun () -> Aig.of_covers ~ni:(Spec.ni spec) covers) in
    let aig = span "aig.balance" (fun () -> Aig.Opt.balance aig) in
    nodes := !nodes + Aig.num_ands aig;
    let h0 = Prof.value c_hits and m0 = Prof.value c_misses in
    ignore (span "cut" (fun () -> Aig.Cut.enumerate_memo aig ~k:4 ~max_cuts:8));
    let dh = Prof.value c_hits - h0 and dm = Prof.value c_misses - m0 in
    hits := !hits + dh;
    lookups := !lookups + dh + dm;
    let nl = span "techmap" (fun () -> Mapper.map ~mode ~lib aig) in
    let report = span "report" (fun () -> Report.of_netlist nl) in
    (nl, report)
  in
  let delay_nl, delay = build Mapper.Delay in
  let power_nl, power = build Mapper.Power in
  let cubes = List.fold_left (fun n c -> n + Twolevel.Cover.size c) 0 covers in
  let check () =
    Oracle.first_failure
      (List.map
         (fun nl () ->
           match Oracle.care_mismatch spec nl with
           | Some m -> Some ("netlist off the care set: " ^ m)
           | None ->
               (* Both netlists implement [full]; simulating one must
                  give the error rate the cell measured on tables. *)
               let rate = Reliability.Error_rate.of_netlist spec nl in
               if Float.abs (rate -. error) > 1e-12 then
                 Some (Printf.sprintf "error rate %.17g, simulated %.17g" error rate)
               else None)
         [ delay_nl; power_nl ])
  in
  {
    Op.summary = (fun () -> summary error delay power);
    check;
    layer =
      [
        ("espresso.cubes", float_of_int cubes);
        ("aig.nodes", float_of_int !nodes);
        ("cut.hits", float_of_int !hits);
        ("cut.lookups", float_of_int !lookups);
        ("techmap.gates", float_of_int (delay.Report.gates + power.Report.gates));
      ];
  }

let run spec fraction =
  let cell = Experiments.sweep_cell_of_spec spec fraction in
  let key = cell_key cell.Experiments.sw_error cell.sw_delay_mode cell.sw_power_mode in
  {
    Op.summary =
      (fun () -> summary cell.Experiments.sw_error cell.sw_delay_mode cell.sw_power_mode);
    (* The cell returns reports only: rebuild its netlists through the
       replay, insist the reports agree, then check those netlists. *)
    check =
      (fun () ->
        let again = replay (Spans.null ()) spec fraction in
        let k = (again.Op.summary ()).Op.key in
        if k <> key then Some (Printf.sprintf "replay %s, cell %s" k key)
        else again.Op.check ());
    layer = [];
  }

(* Fresh specs per Table 1 row; each walks every default fraction.
   Seven test4 specs (cells of 20-35 ms) put the median cell well
   inside that stratum, and a second random2 spec puts the 90th
   percentile inside the random1/random2 one (0.4-1 s).  With one spec
   per row the median fell between the t4 and exam cells and the p90
   on the lower edge of the heavy cells, and both jumped between runs. *)
let specs_of_row = function "test4" -> 7 | "random2" -> 2 | _ -> 1

let setup ~seed =
  let specs =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ri (e : Synthetic.Suite.entry) ->
              List.init (specs_of_row e.Synthetic.Suite.name) (fun j ->
                  let rng = Gen.rng ~seed ~index:((ri * 100) + j) in
                  (e.Synthetic.Suite.name, Gen.table1_spec ~rng e)))
            Synthetic.Suite.entries))
  in
  let fractions = Experiments.default_fractions in
  let nfr = Array.length fractions in
  let labels =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun si (name, _) ->
              Array.map (fun f -> Printf.sprintf "%s#%d@%.1f" name si f) fractions)
            specs))
  in
  let prepare_round () =
    Array.concat
      (Array.to_list
         (Array.map
            (fun (_, base) ->
              (* One fresh spec per row spec, warmed as
                 Experiments.sweep warms before fanning out. *)
              let spec = Spec.copy base in
              Spec.warm_cache spec;
              Array.map
                (fun f ->
                  { Op.run = (fun () -> run spec f); replay = (fun tr -> replay tr spec f) })
                fractions)
            specs))
  in
  {
    Op.labels;
    inputs_digest = Gen.digest (Array.map snd specs);
    prepare_round;
    (* One cell of every row spec. *)
    warmup = List.init (Array.length specs) (fun si -> si * nfr);
  }
