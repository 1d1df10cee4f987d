module Spec = Pla.Spec
module Assign = Rdca_core.Assign
module ER = Reliability.Error_rate

type strategy =
  | Conventional
  | Ranking of float
  | Lcf of float
  | Complete

let strategy_name = function
  | Conventional -> "conventional"
  | Ranking f -> Printf.sprintf "ranking(%.2f)" f
  | Lcf t -> Printf.sprintf "lcf(%.2f)" t
  | Complete -> "complete"

type budget = { max_cubes : int option; max_seconds : float option }

let no_budget = { max_cubes = None; max_seconds = None }

type degradation = Espresso_skipped of { output : int; cubes : int }

let degradation_to_string = function
  | Espresso_skipped { output; cubes } ->
      Printf.sprintf
        "output %d: espresso skipped (budget exceeded), unminimized cover of \
         %d cubes used"
        output cubes

type result = {
  error_rate : float;
  report : Techmap.Report.t;
  sop_cubes : int;
  assigned_fraction : float;
  netlist : Netlist.t;
  covers : Twolevel.Cover.t list;
  degradations : degradation list;
}

type error =
  | Io_error of { path : string; message : string }
  | Parse_error of { path : string; message : string }
  | Unknown_benchmark of { name : string; suggestions : string list }
  | Synthesis_failure of string
  | Check_failed of { subject : string; diags : Check.Diag.t list }

let error_to_string = function
  | Io_error { path; message } -> Printf.sprintf "%s: %s" path message
  | Parse_error { path; message } ->
      Printf.sprintf "%s: parse error: %s" path message
  | Unknown_benchmark { name; suggestions } ->
      let hint =
        match suggestions with
        | [] -> ""
        | s -> Printf.sprintf " (did you mean %s?)" (String.concat ", " s)
      in
      Printf.sprintf "%s: not a file nor a suite benchmark name%s" name hint
  | Synthesis_failure message -> Printf.sprintf "synthesis failed: %s" message
  | Check_failed { subject; diags } ->
      let errs = Check.Diag.count Check.Diag.Error diags in
      Printf.sprintf "%s: static checks failed with %d error(s), e.g. %s"
        subject errs
        (match List.find_opt (fun d -> d.Check.Diag.severity = Check.Diag.Error) diags with
        | Some d -> Format.asprintf "%a" Check.Diag.pp d
        | None -> "(none)")

type source = { spec : Pla.Spec.t; pla : Pla.t option; origin : string }

let load_source name =
  if Sys.file_exists name && not (Sys.is_directory name) then
    match Pla.parse_file_res name with
    | Ok pla -> (
        (* An overlapping on/off assertion is unrepresentable in the
           dense spec (the parser resolved it last-write-wins), so the
           only honest outcome is refusal. *)
        match Check.Spec_lint.overlap_errors pla with
        | [] -> Ok { spec = pla.Pla.spec; pla = Some pla; origin = name }
        | diags -> Error (Check_failed { subject = name; diags }))
    | Error message -> Error (Parse_error { path = name; message })
  else if String.contains name '/' || Filename.check_suffix name ".pla" then
    Error (Io_error { path = name; message = "no such file" })
  else
    match Synthetic.Suite.find_opt name with
    | Some entry ->
        Ok { spec = Synthetic.Suite.load entry; pla = None; origin = name }
    | None ->
        Error
          (Unknown_benchmark
             { name; suggestions = Synthetic.Suite.suggestions name })

let load_spec name = Stdlib.Result.map (fun s -> s.spec) (load_source name)

(* The scalable loader: dense while the table fits (ni <= 20), so the
   full backend matrix stays available, cover-level beyond — then the
   symbolic and sampled engines are the only options and the dense
   lints do not apply. *)
let load_problem name =
  let dense () = Stdlib.Result.map Reliability.Analysis.of_spec (load_spec name) in
  if Sys.file_exists name && not (Sys.is_directory name) then
    match Pla.parse_file_covers_res name with
    | Error message -> Error (Parse_error { path = name; message })
    | Ok cf ->
        if cf.Pla.cf_ni <= 20 then dense ()
        else
          Ok
            (Reliability.Analysis.of_cover_sets ~ni:cf.Pla.cf_ni
               cf.Pla.cf_outputs)
  else dense ()

let lint_source src =
  match src.pla with
  | Some pla -> Check.Spec_lint.lint_pla pla
  | None -> Check.Spec_lint.lint src.spec

let apply_strategy strategy spec =
  match strategy with
  | Conventional -> Spec.copy spec
  | Ranking fraction -> Assign.ranking ~fraction spec
  | Lcf threshold -> Assign.by_complexity ~threshold spec
  | Complete -> Assign.complete spec

let implement spec = Assign.conventional spec

(* [implement] under a cube/time budget: an output whose raw on-cover
   already exceeds [max_cubes], or that comes up after [max_seconds]
   of minimisation time has been spent, keeps its unminimized
   minterm-level on-cover (every DC assigned off) and the degradation
   is reported instead of raised. *)
let implement_budgeted ~budget spec =
  let ni = Spec.ni spec in
  let no = Spec.no spec in
  let t0 = Unix.gettimeofday () in
  let minimise o =
    let raw = Spec.on_cover spec ~o in
    let over_cubes =
      match budget.max_cubes with
      | Some c -> Twolevel.Cover.size raw > c
      | None -> false
    in
    let over_time =
      match budget.max_seconds with
      | Some s -> Unix.gettimeofday () -. t0 > s
      | None -> false
    in
    if over_cubes || over_time then (raw, true)
    else
      let on = Spec.on_bv spec ~o and dc = Spec.dc_bv spec ~o in
      (Espresso.Dense.minimize ~n:ni ~on ~dc, false)
  in
  (* Outputs minimise independently, so espresso runs as a parallel
     map — except under a wall-clock budget, where the sequential scan
     is kept so "outputs reached after the deadline" stays a
     deterministic, order-defined notion. *)
  let cells =
    match budget.max_seconds with
    | None -> Array.to_list (Parallel.Pool.init ~chunk:1 no minimise)
    | Some _ -> List.init no minimise
  in
  (* DC assignment mutates the spec copy; done sequentially in output
     order. *)
  let out = Spec.copy spec in
  let degradations = ref [] in
  let covers =
    List.mapi
      (fun o (cover, degraded) ->
        if degraded then
          degradations :=
            Espresso_skipped { output = o; cubes = Twolevel.Cover.size cover }
            :: !degradations;
        Spec.iter_dc spec ~o (fun m ->
            Spec.assign_dc out ~o ~m (Twolevel.Cover.eval cover m));
        cover)
      cells
  in
  (out, covers, List.rev !degradations)

let measured_error ?(analysis = Reliability.Analysis.Exhaustive)
    ?analysis_params ~original assigned =
  let no = Spec.no original in
  let exhaustive () =
    let rates =
      Parallel.Pool.init no (fun o ->
          let impl = ER.impl_table assigned ~o in
          ER.of_table original ~o ~impl)
    in
    Array.fold_left ( +. ) 0.0 rates /. float_of_int no
  in
  let problem = Reliability.Analysis.of_spec original in
  match Reliability.Analysis.resolve problem analysis with
  | Reliability.Analysis.Exhaustive | Reliability.Analysis.Auto ->
      (* The historical dense path, kept verbatim (and bit-identical). *)
      exhaustive ()
  | backend ->
      let impl = Parallel.Pool.init no (fun o -> ER.impl_table assigned ~o) in
      Reliability.Analysis.value_est
        (Reliability.Analysis.rate_of_tables ?params:analysis_params ~backend
           problem ~impl)

let build ?lib ?(factored = false) ~mode spec_assigned covers =
  let lib =
    match lib with Some l -> l | None -> Techmap.Stdcell.default_library ()
  in
  let ni = Spec.ni spec_assigned in
  let aig =
    if factored then
      Aig.of_factored ~ni (List.map Twolevel.Factor.factor covers)
    else Aig.of_covers ~ni covers
  in
  let aig = Aig.Opt.balance aig in
  Techmap.Mapper.map ~mode ~lib aig

let synthesize_common ?lib ?factored ?(budget = no_budget) ?analysis
    ?analysis_params ~mode ~strategy ~verify spec =
  let partial = apply_strategy strategy spec in
  let assigned_fraction =
    Assign.assigned_dc_fraction ~before:spec ~after:partial
  in
  let full, covers, degradations = implement_budgeted ~budget partial in
  let error_rate =
    measured_error ?analysis ?analysis_params ~original:spec full
  in
  let nl = build ?lib ?factored ~mode full covers in
  if verify then begin
    let tables = Netlist.output_tables nl in
    Array.iteri
      (fun o table ->
        for m = 0 to Spec.size spec - 1 do
          if Bitvec.Bv.get table m <> Spec.output_value full ~o ~m then
            failwith
              (Printf.sprintf
                 "Flow: mapped netlist differs from spec at output %d minterm %d"
                 o m)
        done)
      tables
  end;
  let report = Techmap.Report.of_netlist nl in
  let sop_cubes =
    List.fold_left (fun acc c -> acc + Twolevel.Cover.size c) 0 covers
  in
  {
    error_rate;
    report;
    sop_cubes;
    assigned_fraction;
    netlist = nl;
    covers;
    degradations;
  }

let synthesize ?lib ?factored ?budget ?analysis ?analysis_params ~mode
    ~strategy spec =
  synthesize_common ?lib ?factored ?budget ?analysis ?analysis_params ~mode
    ~strategy ~verify:false spec

let verified_synthesize ?lib ?factored ?budget ?analysis ?analysis_params ~mode
    ~strategy spec =
  synthesize_common ?lib ?factored ?budget ?analysis ?analysis_params ~mode
    ~strategy ~verify:true spec

let synthesize_result ?lib ?factored ?budget ?analysis ?analysis_params ~mode
    ~strategy spec =
  match
    synthesize ?lib ?factored ?budget ?analysis ?analysis_params ~mode
      ~strategy spec
  with
  | r -> Ok r
  | exception Invalid_argument msg -> Error (Synthesis_failure msg)
  | exception Failure msg -> Error (Synthesis_failure msg)

(* The gate every checked netlist rewrite passes: library exceptions
   become [Synthesis_failure], a [Differential] disagreement between
   [engines] refuses under [code], and the rewritten netlist must
   still realise [spec] on its care set. *)
let checked_rewrite ~subject ~code ~engines ~units ?equiv ~spec rewrite =
  match rewrite () with
  | exception Invalid_argument msg -> Error (Synthesis_failure msg)
  | exception Failure msg -> Error (Synthesis_failure msg)
  | result, netlist, disagreements ->
      let refuse diags = Error (Check_failed { subject; diags }) in
      if disagreements > 0 then
        refuse
          [
            Check.Diag.error ~code ~loc:Check.Diag.Global
              "%s disagree on %d %s" engines disagreements units;
          ]
      else
        let diags = Check.Netlist_check.equiv_spec ?engine:equiv ~spec netlist in
        if Check.Diag.has_errors diags then refuse diags else Ok (result, diags)

let optimize_checked ?config ?dc_strategy ?equiv ~spec nl =
  let module Dc = Rdca_dc.Dc in
  checked_rewrite ~subject:"dc-optimize" ~code:"dc-backend-mismatch"
    ~engines:"Auto and SAT don't-care engines" ~units:"window(s)" ?equiv ~spec
    (fun () ->
      let opt = Dc.optimize ?config ?strategy:dc_strategy nl in
      (opt, opt.Dc.netlist, opt.Dc.opt_report.Dc.disagreements))

let remove_redundant_checked ?config ?max_iterations ?equiv ~spec nl =
  let module R = Atpg.Redundancy in
  checked_rewrite ~subject:"redundancy-removal" ~code:"atpg-backend-mismatch"
    ~engines:"SAT and reference testability backends"
    ~units:"fault class(es)" ?equiv ~spec (fun () ->
      let rem = R.remove ?config ?max_iterations nl in
      (rem, rem.R.netlist, rem.R.final_report.Atpg.Engine.disagreements))

let implement_shared spec =
  let ni = Spec.ni spec and no = Spec.no spec in
  let ons = Parallel.Pool.init no (fun o -> Spec.on_bv spec ~o) in
  let dcs = Parallel.Pool.init no (fun o -> Spec.dc_bv spec ~o) in
  let mcubes = Espresso.Multi.minimize ~n:ni ~ons ~dcs in
  let out = Spec.copy spec in
  for o = 0 to no - 1 do
    Spec.iter_dc spec ~o (fun m ->
        Spec.assign_dc out ~o ~m (Espresso.Multi.eval ~n:ni mcubes ~o ~m))
  done;
  (out, mcubes)

let aig_of_mcubes ~ni ~no mcubes =
  let aig = Aig.create ~ni in
  let cube_lits =
    List.map
      (fun mc ->
        let lits = ref [] in
        for j = ni - 1 downto 0 do
          match Twolevel.Cube.get mc.Espresso.Multi.input j with
          | Twolevel.Cube.Zero -> lits := Aig.lnot (Aig.input aig j) :: !lits
          | Twolevel.Cube.One -> lits := Aig.input aig j :: !lits
          | Twolevel.Cube.Free -> ()
        done;
        let rec combine = function
          | [] -> Aig.const1
          | [ l ] -> l
          | lits ->
              let rec pair = function
                | [] -> []
                | [ x ] -> [ x ]
                | x :: y :: rest -> Aig.land_ aig x y :: pair rest
              in
              combine (pair lits)
        in
        (combine !lits, mc.Espresso.Multi.outputs))
      mcubes
  in
  let outs =
    Array.init no (fun o ->
        let terms =
          List.filter_map
            (fun (l, omask) ->
              if omask land (1 lsl o) <> 0 then Some l else None)
            cube_lits
        in
        let rec combine = function
          | [] -> Aig.const0
          | [ l ] -> l
          | lits ->
              let rec pair = function
                | [] -> []
                | [ x ] -> [ x ]
                | x :: y :: rest -> Aig.lor_ aig x y :: pair rest
              in
              combine (pair lits)
        in
        combine terms)
  in
  Aig.set_outputs aig outs;
  aig

let synthesize_shared ?lib ?analysis ~mode ~strategy spec =
  let lib =
    match lib with Some l -> l | None -> Techmap.Stdcell.default_library ()
  in
  let partial = apply_strategy strategy spec in
  let assigned_fraction =
    Assign.assigned_dc_fraction ~before:spec ~after:partial
  in
  let full, mcubes = implement_shared partial in
  let error_rate = measured_error ?analysis ~original:spec full in
  let aig = aig_of_mcubes ~ni:(Spec.ni spec) ~no:(Spec.no spec) mcubes in
  let aig = Aig.Opt.balance aig in
  let nl = Techmap.Mapper.map ~mode ~lib aig in
  let report = Techmap.Report.of_netlist nl in
  (* Per-output view of the shared cube list, for the cover checker. *)
  let covers =
    List.init (Spec.no spec) (fun o ->
        Twolevel.Cover.make ~n:(Spec.ni spec)
          (List.filter_map
             (fun mc ->
               if mc.Espresso.Multi.outputs land (1 lsl o) <> 0 then
                 Some mc.Espresso.Multi.input
               else None)
             mcubes))
  in
  {
    error_rate;
    report;
    sop_cubes = List.length mcubes;
    assigned_fraction;
    netlist = nl;
    covers;
    degradations = [];
  }
