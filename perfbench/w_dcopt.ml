(* dcopt: Flow.optimize_checked with the `rdca optimize` defaults (Auto
   window engine, depth 2, complete strategy, care-set equivalence gate)
   on conventionally synthesized netlists. *)

module Spec = Pla.Spec
module Flow = Rdca_flow.Flow
module Dc = Rdca_dc.Dc
module Window = Rdca_dc.Window
module Gate = Netlist.Gate

(* Table 1 rows up to ex1010/random3 size, with how many fresh specs
   each contributes.  random1 and random2 (3.5-4.9k gates, several
   seconds per op) stay out so that a run holds enough ops for a p90.
   The counts put the median inside the exam stratum (40-60 ms) and the
   90th percentile inside the test4/random3 one (140-190 ms), never on
   a boundary between two strata, where it would jump between them. *)
let rows =
  [
    ("bench", 3); ("t4", 3); ("exp", 3); ("p3", 3); ("p1", 3); ("fout", 4);
    ("exam", 20); ("test4", 5); ("random3", 5); ("ex1010", 3);
  ]

type result = {
  netlist : Netlist.t;
  rewritten : int list;
  analyzed : int;
  patterns : int;
}

let popcount = Bitvec.Minterm.popcount

let outcome ~spec ~input ~layer r =
  let summary () =
    let area = (Techmap.Report.of_netlist r.netlist).Techmap.Report.area in
    let error = Reliability.Error_rate.of_netlist spec r.netlist in
    {
      Op.areas = [ area ];
      error_rates = [ error ];
      work =
        [
          ("analyzed", r.analyzed);
          ("dc_patterns", r.patterns);
          ("rewritten", List.length r.rewritten);
        ];
      key =
        Printf.sprintf "%s %s rw=%s n=%d p=%d" (Op.float_key area)
          (Op.float_key error)
          (String.concat "," (List.map string_of_int r.rewritten))
          r.analyzed r.patterns;
    }
  in
  let check () =
    match Oracle.care_mismatch spec r.netlist with
    | Some m -> Some ("optimized netlist off the care set: " ^ m)
    | None ->
        if Oracle.care_mismatch spec input <> None then
          Some "input netlist off the care set"
        else None
  in
  { Op.summary; check; layer }

let run ~spec nl =
  match Flow.optimize_checked ~spec nl with
  | Error e -> Op.failed (Flow.error_to_string e)
  | Ok (opt, _) ->
      let rep = opt.Dc.opt_report in
      outcome ~spec ~input:nl ~layer:[]
        {
          netlist = opt.Dc.netlist;
          rewritten = opt.Dc.rewritten;
          analyzed = rep.Dc.analyzed;
          patterns = rep.Dc.sdc_patterns + rep.Dc.odc_patterns;
        }

(* Dc.optimize's node sweep, as public calls: window extraction, the
   per-window masks (routed to BDD or SAT exactly as Auto routes them),
   the node's re-assignment, then the equivalence gate.  Dc.masks_of
   recomputes the fanout table and the window itself before solving, so
   the dc.* spans carry that repeated work too. *)
let is_candidate nl v =
  v >= Netlist.ni nl
  && (match Netlist.gate nl v with Gate.Input _ | Gate.Const _ -> false | _ -> true)
  && Array.length (Netlist.fanins nl v) >= 1

let eval_tt g ~arity =
  Logic.Truth.of_fun arity (fun m ->
      Gate.eval g (Array.init arity (fun i -> m land (1 lsl i) <> 0)))

(* The node's function as a 1-output spec whose DC set is the recovered
   mask, completely re-assigned; unassigned DCs keep the current value. *)
let rewrite g ~arity ~dc =
  let current = eval_tt g ~arity in
  let spec = Spec.create ~ni:arity ~no:1 ~default:Spec.Off in
  for m = 0 to (1 lsl arity) - 1 do
    Spec.set spec ~o:0 ~m
      (if dc land (1 lsl m) <> 0 then Spec.Dc
       else if Logic.Truth.eval current m then Spec.On
       else Spec.Off)
  done;
  let assigned = Rdca_core.Assign.complete spec in
  let tt =
    Logic.Truth.of_fun arity (fun m ->
        match Spec.get assigned ~o:0 ~m with
        | Spec.On -> true
        | Spec.Off -> false
        | Spec.Dc -> Logic.Truth.eval current m)
  in
  if tt = current then None
  else
    Some
      (match g with
      | Gate.Cell c -> Gate.Cell { c with Gate.tt }
      | _ ->
          Gate.Cell
            {
              Gate.cell_name = "dc-" ^ String.lowercase_ascii (Gate.name g);
              tt;
              arity;
              area = 1.0;
              delay = 1.0;
              input_cap = 1.0;
            })

let replay tr ~spec nl =
  let span name f = Spans.span tr name f in
  let config = Dc.default_config in
  let out = Netlist.copy nl in
  let fanouts = span "window" (fun () -> Window.fanouts out) in
  let rewritten = ref [] and analyzed = ref 0 and patterns = ref 0 in
  let leaves = ref 0 and bdd = ref 0 and sat = ref 0 in
  Netlist.iter_nodes out (fun v _ _ ->
      if is_candidate out v then begin
        let arity = Array.length (Netlist.fanins out v) in
        if arity <= config.Dc.max_arity then begin
          let w =
            span "window" (fun () ->
                Window.extract out ~fanouts ~depth:config.Dc.depth v)
          in
          let nleaves = Array.length w.Window.leaves in
          leaves := !leaves + nleaves;
          let engine =
            if nleaves <= config.Dc.auto_cutoff then (incr bdd; "dc.bdd")
            else (incr sat; "dc.sat")
          in
          let sdc, odc = span engine (fun () -> Dc.masks_of out ~config v) in
          incr analyzed;
          patterns := !patterns + popcount sdc + popcount odc;
          let dc = sdc lor odc in
          if dc <> 0 then
            match
              span "assign" (fun () -> rewrite (Netlist.gate out v) ~arity ~dc)
            with
            | Some cell ->
                Netlist.replace_gate out v cell;
                rewritten := v :: !rewritten
            | None -> ()
        end
      end);
  let diags =
    span "check.equiv" (fun () -> Check.Netlist_check.equiv_spec ~spec out)
  in
  let layer =
    [
      ("window.count", float_of_int !analyzed);
      ("window.leaves", float_of_int !leaves);
      ("dc.bdd_windows", float_of_int !bdd);
      ("dc.sat_windows", float_of_int !sat);
      ("dc.patterns", float_of_int !patterns);
      ("dc.rewritten", float_of_int (List.length !rewritten));
    ]
  in
  if Check.Diag.has_errors diags then Op.failed "equivalence gate refused the rewrite"
  else
    outcome ~spec ~input:nl ~layer
      {
        netlist = out;
        rewritten = List.rev !rewritten;
        analyzed = !analyzed;
        patterns = !patterns;
      }

let setup ~seed =
  let bases =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ri (name, count) ->
              List.init count (fun j ->
                  let rng = Gen.rng ~seed ~index:(1000 + (ri * 100) + j) in
                  let spec = Gen.table1_spec ~rng (Synthetic.Suite.find name) in
                  (Printf.sprintf "%s#%d" name j, spec, Gen.synth_area spec)))
            rows))
  in
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
    (* The first spec of every row. *)
    warmup =
      List.rev
        (snd
           (List.fold_left
              (fun (at, acc) (_, count) -> (at + count, at :: acc))
              (0, []) rows));
  }
