(* rdca — command-line driver for reliability-driven DC assignment.

   Subcommands:
     stats      function statistics (Table-1 style) + reliability bounds
     assign     apply a DC assignment strategy to a .pla, write .pla
     synth      full flow: assignment, espresso, AIG, techmap; print report
     faultsim   gate-level fault-injection campaign vs input-error rates
     campaign   supervised multi-process fault campaign (checkpoint/resume)
     gen        generate a synthetic benchmark (.pla)
     estimate   analytical min-max reliability estimates vs exact bounds
     check      static lints + cover/netlist audits (text or JSON report)
     optimize   windowed ODC/SDC recovery + checked node rewriting
     testability SAT-based stuck-at testability + checked redundancy removal
     suite      list the built-in Table 1 benchmark suite
     worker     serve supervised tasks over stdin/stdout (internal) *)

open Cmdliner
module Flow = Rdca_flow.Flow
module Distrib = Rdca_flow.Distrib
module Sup = Resilient.Supervisor
module Interrupt = Resilient.Interrupt
module Campaign = Reliability.Campaign

(* Every refusal is one "rdca:" line on stderr and exit code 1 — no
   backtraces on bad input. *)
let refuse msg =
  Fmt.epr "rdca: %s@." msg;
  1

(* Resolve SPEC and run [f], refusing every structured failure. *)
let with_spec input f =
  match Flow.load_spec input with
  | Ok spec -> f spec
  | Error e -> refuse (Flow.error_to_string e)

let jobs_arg =
  let doc =
    "Worker domains for parallel sections (overrides $(b,RDCA_JOBS); default: \
     the machine's recommended domain count)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Validate and install --jobs before running [k]. *)
let with_jobs_opt jobs k =
  match jobs with
  | Some n when n < 1 -> refuse "--jobs must be at least 1"
  | _ ->
      Option.iter Parallel.Pool.set_default_jobs jobs;
      k ()

let input_arg =
  let doc =
    "Input function: a .pla file path, or the name of a built-in suite \
     benchmark (see $(b,rdca suite))."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)

let output_arg =
  let doc = "Output .pla path (defaults to stdout)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* Synthesize SPEC and run [f] on the result, refusing a structured
   synthesis failure. *)
let with_synthesis ?analysis ~mode ~strategy spec f =
  match Flow.synthesize_result ?analysis ~mode ~strategy spec with
  | Ok r -> f r
  | Error e -> refuse (Flow.error_to_string e)

let json_arg what =
  let doc = Printf.sprintf "Write %s as JSON to $(docv)." what in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let emit_spec out spec =
  match out with
  | None -> print_string (Pla.to_string spec)
  | Some path -> Pla.write_file path spec

let emit_text out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc

(* ------------------------------------------------------------------ *)
(* Backend-dispatched reliability analysis: stats and estimate take
   the full engine/sampling argument set; the synthesis-based commands
   take the engine alone (their --seed belongs to the campaign). *)

module Analysis = Reliability.Analysis

let analysis_backend_arg =
  let doc =
    "Error-rate analysis engine: $(b,auto) picks from the input count, \
     $(b,exhaustive) enumerates the dense table, $(b,bdd) is exact via \
     symbolic satcounts (no 2^n enumeration), $(b,sample) is seeded \
     Monte-Carlo with Wilson confidence intervals."
  in
  Arg.(
    value
    & opt (enum Analysis.backends) Analysis.Auto
    & info [ "analysis" ] ~docv:"ENGINE" ~doc)

let analysis_args =
  let samples =
    let doc = "Monte-Carlo draws per analysed output (sample engine)." in
    Arg.(
      value
      & opt int Analysis.default_params.Analysis.samples
      & info [ "samples" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Sampling seed (sample engine)." in
    Arg.(
      value
      & opt int Analysis.default_params.Analysis.seed
      & info [ "seed" ] ~docv:"S" ~doc)
  in
  let confidence =
    let doc = "Wilson interval confidence (sample engine)." in
    Arg.(
      value
      & opt float Analysis.default_params.Analysis.confidence
      & info [ "confidence" ] ~docv:"C" ~doc)
  in
  let combine backend samples seed confidence =
    (backend, { Analysis.samples; seed; confidence })
  in
  Term.(const combine $ analysis_backend_arg $ samples $ seed $ confidence)

(* Validate the analysis flags, resolve SPEC into an analysis problem
   (dense when it fits, cube-level up to 61 inputs otherwise) and run
   [f].  Every refusal is one "rdca:" line and exit 1, before any
   output. *)
let with_analysis input (backend, params) jobs f =
  with_jobs_opt jobs @@ fun () ->
  if params.Analysis.samples <= 0 then refuse "--samples must be positive"
  else if
    not (params.Analysis.confidence > 0.0 && params.Analysis.confidence < 1.0)
  then refuse "--confidence must be strictly between 0 and 1"
  else
    match Flow.load_problem input with
    | Error e -> refuse (Flow.error_to_string e)
    | Ok t when backend = Analysis.Exhaustive && Analysis.dense_spec t = None
      ->
        refuse
          (Printf.sprintf
             "%s: --analysis exhaustive needs a dense specification; this \
              one has %d inputs and is cube-level"
             input (Analysis.ni t))
    | Ok t -> f t

let stats_cmd =
  let run input ((backend, params) as analysis) jobs =
    with_analysis input analysis jobs @@ fun t ->
    let module A = Analysis in
    let resolved = A.resolve t backend in
    Fmt.pr "inputs:   %d@." (A.ni t);
    Fmt.pr "outputs:  %d@." (A.no t);
    Fmt.pr "analysis: %s%s@."
      (A.backend_name resolved)
      (if backend = A.Auto then " (auto)" else "");
    let no = A.no t in
    let fdc_sum = ref 0.0 and ecf_sum = ref 0.0 and cf_sum = ref 0.0 in
    let rows =
      List.init no (fun o ->
          let f1, f0, fdc = A.signal_probs ~params ~backend t ~o in
          let cf = A.complexity_factor ~params ~backend t ~o in
          let e1 = A.value_est f1
          and e0 = A.value_est f0
          and edc = A.value_est fdc in
          fdc_sum := !fdc_sum +. edc;
          ecf_sum := !ecf_sum +. (e1 *. e1) +. (e0 *. e0) +. (edc *. edc);
          cf_sum := !cf_sum +. A.value_est cf;
          (o, e1, e0, edc, A.value_est cf))
    in
    Fmt.pr "%%DC:      %.1f@." (100.0 *. !fdc_sum /. float_of_int no);
    Fmt.pr "E[C^f]:   %.3f@." (!ecf_sum /. float_of_int no);
    Fmt.pr "C^f:      %.3f@." (!cf_sum /. float_of_int no);
    let b = A.mean_bounds ~params ~backend t in
    Fmt.pr "error-rate bounds: base=%a  min=%a  max=%a@." A.pp_value
      b.A.base A.pp_value (A.min_rate b) A.pp_value (A.max_rate b);
    List.iter
      (fun (o, f1, f0, fdc, cf) ->
        Fmt.pr "  y%d: f1=%.3f f0=%.3f fdc=%.3f C^f=%.3f@." o f1 f0 fdc cf)
      rows;
    0
  in
  let doc = "Print function statistics and reliability bounds" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ input_arg $ analysis_args $ jobs_arg)

let strategy_args =
  let method_ =
    let doc = "Assignment method: ranking | lcf | complete | conventional." in
    Arg.(
      value
      & opt (enum
               [ ("ranking", `Ranking); ("lcf", `Lcf); ("complete", `Complete);
                 ("conventional", `Conventional) ])
          `Ranking
      & info [ "m"; "method" ] ~docv:"METHOD" ~doc)
  in
  let fraction =
    let doc = "Fraction of ranked DCs to assign (ranking method)." in
    Arg.(value & opt float 1.0 & info [ "f"; "fraction" ] ~docv:"F" ~doc)
  in
  let threshold =
    let doc = "Local-complexity-factor threshold (lcf method)." in
    Arg.(value & opt float 0.55 & info [ "t"; "threshold" ] ~docv:"T" ~doc)
  in
  let combine m f t =
    match m with
    | `Ranking -> Rdca_flow.Flow.Ranking f
    | `Lcf -> Rdca_flow.Flow.Lcf t
    | `Complete -> Rdca_flow.Flow.Complete
    | `Conventional -> Rdca_flow.Flow.Conventional
  in
  Term.(const combine $ method_ $ fraction $ threshold)

let assign_cmd =
  let run input out strategy finish =
    with_spec input @@ fun spec ->
    let partial = Flow.apply_strategy strategy spec in
    let result = if finish then fst (Flow.implement partial) else partial in
    emit_spec out result;
    0
  in
  let finish =
    let doc =
      "Also assign the remaining DCs conventionally (espresso), producing a \
       fully specified function."
    in
    Arg.(value & flag & info [ "finish" ] ~doc)
  in
  let doc = "Apply a reliability-driven DC assignment and write the .pla" in
  Cmd.v (Cmd.info "assign" ~doc)
    Term.(const run $ input_arg $ output_arg $ strategy_args $ finish)

let mode_arg =
  let doc =
    "Optimisation mode, " ^ Arg.doc_alts_enum Techmap.Mapper.modes ^ "."
  in
  Arg.(
    value
    & opt (enum Techmap.Mapper.modes) Techmap.Mapper.Delay
    & info [ "mode" ] ~docv:"MODE" ~doc)

let cube_budget_arg =
  let doc =
    "Espresso cube budget: outputs whose raw cover exceeds $(docv) cubes \
     keep the unminimized cover (graceful degradation)."
  in
  Arg.(
    value & opt (some int) None & info [ "cube-budget" ] ~docv:"N" ~doc)

let espresso_seconds_arg =
  let doc =
    "Espresso wall-clock budget in seconds; outputs reached after it keep \
     the unminimized cover."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "espresso-seconds" ] ~docv:"SECS" ~doc)

let report_degradations r =
  List.iter
    (fun d -> Fmt.pr "degraded:        %s@." (Flow.degradation_to_string d))
    r.Flow.degradations

let synth_cmd =
  let run input strategy mode verify factored shared blif_out verilog_out
      max_cubes max_seconds analysis jobs =
    with_jobs_opt jobs @@ fun () ->
    (* The shared-cube path neither factors, verifies nor budgets
       espresso: refuse those flags rather than drop them. *)
    let unsupported =
      List.find_opt snd
        [
          ("--factored", factored);
          ("--verify", verify);
          ("--cube-budget", max_cubes <> None);
          ("--espresso-seconds", max_seconds <> None);
        ]
    in
    match unsupported with
    | Some (flag, _) when shared ->
        refuse ("--shared cannot be combined with " ^ flag)
    | _ ->
    with_spec input @@ fun spec ->
    let budget = { Flow.max_cubes; max_seconds } in
    let result =
      try
        Ok
          (if shared then Flow.synthesize_shared ~analysis ~mode ~strategy spec
           else if verify then
             Flow.verified_synthesize ~analysis ~factored ~budget ~mode
               ~strategy spec
           else Flow.synthesize ~analysis ~factored ~budget ~mode ~strategy spec)
      with
      | Invalid_argument msg | Failure msg ->
          Error (Flow.Synthesis_failure msg)
    in
    match result with
    | Error e -> refuse (Flow.error_to_string e)
    | Ok r ->
        Fmt.pr "strategy:        %s@." (Flow.strategy_name strategy);
        Fmt.pr "mode:            %s%s%s@."
          (Techmap.Mapper.mode_name mode)
          (if factored then " +factored" else "")
          (if shared then " +shared" else "");
        Fmt.pr "assigned DCs:    %.1f%%@." (100.0 *. r.Flow.assigned_fraction);
        Fmt.pr "SOP cubes:       %d@." r.Flow.sop_cubes;
        Fmt.pr "error rate:      %.4f@." r.Flow.error_rate;
        Fmt.pr "report:          %a@." Techmap.Report.pp r.Flow.report;
        report_degradations r;
        (* The mapped netlist rides along in the result record; export
           is a plain write, not a rebuild. *)
        Option.iter
          (fun p -> Netlist_io.Blif.write_netlist p r.Flow.netlist)
          blif_out;
        Option.iter
          (fun p -> Netlist_io.Verilog.write_netlist p r.Flow.netlist)
          verilog_out;
        0
  in
  let verify =
    let doc = "Exhaustively verify the mapped netlist against the spec." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let factored =
    let doc = "Algebraically factor covers before AIG construction." in
    Arg.(value & flag & info [ "factored" ] ~doc)
  in
  let shared =
    let doc = "Use multi-output (shared-cube) espresso." in
    Arg.(value & flag & info [ "shared" ] ~doc)
  in
  let blif_out =
    let doc = "Also write the mapped netlist as BLIF." in
    Arg.(value & opt (some string) None & info [ "blif" ] ~docv:"FILE" ~doc)
  in
  let verilog_out =
    let doc = "Also write the mapped netlist as structural Verilog." in
    Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE" ~doc)
  in
  let doc = "Run the full synthesis flow and print metrics" in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ verify $ factored
      $ shared $ blif_out $ verilog_out $ cube_budget_arg
      $ espresso_seconds_arg $ analysis_backend_arg $ jobs_arg)

(* Shared by faultsim and campaign: campaign flags, their validation
   and the campaign configuration. *)
let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")

let trials_arg =
  let doc = "Monte-Carlo trials per fault site (and per kind)." in
  Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"N" ~doc)

let max_sites_arg =
  let doc = "Evaluate at most $(docv) fault sites (seeded subsample)." in
  Arg.(value & opt (some int) None & info [ "max-sites" ] ~docv:"N" ~doc)

let confidence_arg =
  let doc = "Confidence level for the Wilson intervals." in
  Arg.(value & opt float 0.95 & info [ "confidence" ] ~docv:"C" ~doc)

let campaign_arg_error ~trials ~confidence ~max_sites =
  if trials <= 0 then Some "--trials must be positive"
  else if not (confidence > 0.0 && confidence < 1.0) then
    Some "--confidence must be strictly between 0 and 1"
  else
    match max_sites with
    | Some n when n <= 0 -> Some "--max-sites must be positive"
    | _ -> None

let skip_untestable_arg =
  let doc =
    "Statically analyse testability first ($(b,rdca testability)) and \
     exclude sites whose every swept fault kind is untestable: their \
     faults cannot reach an output, so they contribute exactly zero \
     propagated events and only dilute the site budget."
  in
  Arg.(value & flag & info [ "skip-untestable" ] ~doc)

(* Sites where every configured kind is statically dead: a stuck-at is
   dead when its stem fault is untestable, a transient when both
   polarities are (flipping the node is pinning it to one of them on
   every trial input). *)
let dead_sites_for nl kinds =
  let report = Atpg.Engine.analyze nl in
  let tbl = Atpg.Engine.verdict_table report in
  let untestable node stuck =
    match
      Hashtbl.find_opt tbl { Atpg.Fault.node; pin = Atpg.Fault.Stem; stuck }
    with
    | Some r -> r.Atpg.Engine.verdict = Atpg.Engine.Untestable
    | None -> false
  in
  List.filter
    (fun s ->
      List.for_all
        (function
          | Reliability.Inject.Stuck_at_0 -> untestable s false
          | Reliability.Inject.Stuck_at_1 -> untestable s true
          | Reliability.Inject.Transient ->
              untestable s false && untestable s true)
        kinds)
    (Reliability.Inject.sites nl)

(* The campaign faultsim and campaign run on a synthesized netlist,
   minus the statically dead sites under --skip-untestable. *)
let campaign_config ~seed ~trials ~confidence ~max_sites ~time_budget
    ~skip_untestable nl =
  let config =
    {
      Campaign.default_config with
      Campaign.seed;
      trials_per_site = trials;
      confidence;
      max_sites;
      time_budget;
    }
  in
  if not skip_untestable then config
  else begin
    let dead = dead_sites_for nl config.Campaign.kinds in
    Fmt.pr "skip-untestable: %d statically-dead site(s) excluded@."
      (List.length dead);
    { config with Campaign.dead_sites = dead }
  end

(* The in-process per-strategy comparison; supervised multi-process
   campaigns are rdca campaign's job. *)
let faultsim_cmd =
  let module Fault_sim = Reliability.Fault_sim in
  let module J = Rdca_json.Jsonout in
  let run input strategy mode seed trials max_sites time_budget confidence
      max_cubes max_seconds no_baseline skip_untestable json_out analysis jobs =
    with_jobs_opt jobs @@ fun () ->
    with_spec input @@ fun spec ->
    match campaign_arg_error ~trials ~confidence ~max_sites with
    | Some msg -> refuse msg
    | None ->
    Interrupt.install ();
    let budget = { Flow.max_cubes; max_seconds } in
    let strategies =
      if no_baseline || strategy = Flow.Conventional then [ strategy ]
      else [ Flow.Conventional; strategy ]
    in
    (* Per-strategy campaign JSON documents accumulate here; a signal
       mid-run flushes what exists, marked interrupted. *)
    let docs = ref [] in
    let write_json ~interrupted =
      Option.iter
        (fun path ->
          J.write_file path
            (J.Obj
               [
                 ("schema_version", J.Int 1);
                 ("benchmark", J.String input);
                 ("interrupted", J.Bool interrupted);
                 ( "strategies",
                   J.List
                     (List.rev_map
                        (fun (name, doc) ->
                          J.Obj [ ("strategy", J.String name); ("campaign", doc) ])
                        !docs) );
               ]))
        json_out
    in
    let unhook = Interrupt.on_interrupt (fun () -> write_json ~interrupted:true) in
    Fmt.pr "benchmark:       %s  (%d in, %d out, %.1f%% DC)@." input
      (Pla.Spec.ni spec) (Pla.Spec.no spec)
      (100.0 *. Pla.Spec.dc_fraction spec);
    Fmt.pr "campaign:        seed %d, %d trials/site, %.0f%% confidence%s%s@."
      seed trials (100.0 *. confidence)
      (match max_sites with
      | None -> ""
      | Some n -> Printf.sprintf ", <= %d sites" n)
      (match time_budget with
      | None -> ""
      | Some s -> Printf.sprintf ", %.2fs budget" s);
    let failed = ref false in
    List.iter
      (fun strategy ->
        Fmt.pr "@.=== strategy: %s ===@." (Flow.strategy_name strategy);
        (* Inline rather than [with_synthesis]: one failed strategy
           must not end the run. *)
        match Flow.synthesize_result ~analysis ~budget ~mode ~strategy spec with
        | Error e ->
            failed := true;
            Fmt.epr "rdca: %s@." (Flow.error_to_string e)
        | Ok r -> (
            report_degradations r;
            let nl = r.Flow.netlist in
            Fmt.pr "gates:           %d  (area %.0f, delay %.3f)@."
              (Netlist.gate_count nl) (Netlist.area nl) (Netlist.delay nl);
            let rng = Random.State.make [| seed |] in
            let mc = Fault_sim.run ~rng ~trials spec nl in
            Fmt.pr "input-error:     exact %.4f   monte-carlo %.4f@."
              r.Flow.error_rate mc.Fault_sim.rate;
            let config =
              campaign_config ~seed ~trials ~confidence ~max_sites
                ~time_budget ~skip_untestable nl
            in
            match Campaign.run config spec nl with
            | report ->
                Fmt.pr "%a@." Campaign.pp_report report;
                docs :=
                  ( Flow.strategy_name strategy,
                    Distrib.campaign_report_to_json report ~events:[]
                      ~interrupted:false )
                  :: !docs;
                write_json ~interrupted:false
            | exception Invalid_argument msg ->
                failed := true;
                Fmt.epr "rdca: %s@." msg))
      strategies;
    unhook ();
    if !failed then 1 else 0
  in
  let time_budget =
    let doc =
      "Wall-clock budget for the campaign in seconds; exceeding it yields a \
       partial report instead of an error."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let no_baseline =
    let doc = "Skip the conventional-strategy baseline comparison." in
    Arg.(value & flag & info [ "no-baseline" ] ~doc)
  in
  let doc =
    "Gate-level fault-injection campaign: stuck-at-0/1 and transient faults \
     at every internal node, compared against the paper's input-error rate, \
     per assignment strategy"
  in
  Cmd.v (Cmd.info "faultsim" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ seed_arg $ trials_arg
      $ max_sites_arg $ time_budget $ confidence_arg $ cube_budget_arg
      $ espresso_seconds_arg $ no_baseline $ skip_untestable_arg
      $ json_arg "the campaign reports" $ analysis_backend_arg $ jobs_arg)

(* The supervised campaign subcommand: one strategy, full control over
   the supervisor (workers, deadlines, retries, chaos), shard
   checkpointing and resume.  Exit codes: 0 complete, 3 partial
   (interrupted or permanently failed shards), 1 errors. *)
let campaign_cmd =
  let module J = Rdca_json.Jsonout in
  let run input strategy mode seed trials max_sites confidence skip_untestable
      workers shard_size deadline retries backoff checkpoint resume stop_after
      chaos chaos_seed json_out analysis jobs =
    with_jobs_opt jobs @@ fun () ->
    with_spec input @@ fun spec ->
    let bad_arg =
      match campaign_arg_error ~trials ~confidence ~max_sites with
      | Some m -> Some m
      | None ->
          if shard_size < 1 then Some "--shard-size must be at least 1"
          else if retries < 0 then Some "--retries must be non-negative"
          else if not (chaos >= 0.0 && chaos <= 1.0) then
            Some "--chaos must be between 0 and 1"
          else if chaos > 0.0 && deadline <= 0.0 then
            Some "--chaos needs a positive --deadline (stalled workers are \
                  only recovered by the per-task deadline)"
          else if resume && checkpoint = None then
            Some "--resume needs --checkpoint (nothing to resume from)"
          else None
    in
    match bad_arg with
    | Some msg -> refuse msg
    | None -> (
        Interrupt.install ();
        with_synthesis ~analysis ~mode ~strategy spec @@ fun r ->
        let nl = r.Flow.netlist in
        let config =
          campaign_config ~seed ~trials ~confidence ~max_sites
            ~time_budget:None ~skip_untestable nl
        in
        let sup =
          {
            Sup.default with
            Sup.workers;
            deadline;
            retries;
            backoff;
            chaos =
              (if chaos > 0.0 then
                 Some
                   {
                     Sup.kill_fraction = chaos /. 2.0;
                     stall_fraction = chaos /. 2.0;
                     chaos_seed;
                   }
               else None);
          }
        in
        let opts =
          { Distrib.sup; shard_size; checkpoint; resume; stop_after }
        in
        Fmt.pr "benchmark:       %s  (%d in, %d out)@." input (Pla.Spec.ni spec)
          (Pla.Spec.no spec);
        Fmt.pr "strategy:        %s, %s mode@."
          (Flow.strategy_name strategy)
          (Techmap.Mapper.mode_name mode);
        Fmt.pr
          "supervision:     %d worker(s), shard %d, deadline %.1fs, %d \
           retries%s@."
          workers shard_size deadline retries
          (if chaos > 0.0 then Printf.sprintf ", chaos %.2f" chaos else "");
        match
          Distrib.campaign_run opts ~input ~strategy ~mode config spec nl
        with
        | Error msg -> refuse msg
        | Ok d ->
            List.iter
              (fun e -> Fmt.pr "supervision:     %a@." Resilient.Event.pp e)
              d.Distrib.events;
            Fmt.pr "execution:       %s@."
              (match d.Distrib.exec_mode with
              | Sup.Processes n -> Printf.sprintf "%d worker process(es)" n
              | Sup.Pool n -> Printf.sprintf "in-process pool (%d jobs)" n
              | Sup.Sequential -> "sequential");
            Fmt.pr "%a@." Campaign.pp_report d.Distrib.value;
            Option.iter
              (fun path ->
                J.write_file path
                  (Distrib.campaign_report_to_json d.Distrib.value
                     ~events:d.Distrib.events
                     ~interrupted:d.Distrib.interrupted))
              json_out;
            if d.Distrib.interrupted then 3 else 0)
  in
  let workers =
    let doc =
      "Supervised worker processes; 0 runs the shards in-process on the \
       domain pool."
    in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K" ~doc)
  in
  let shard_size =
    let doc = "Fault sites per shard (the unit of distribution and retry)." in
    Arg.(value & opt int 4 & info [ "shard-size" ] ~docv:"N" ~doc)
  in
  let deadline =
    let doc =
      "Per-shard wall-clock deadline in seconds; 0 disables.  A worker \
       exceeding it is killed and the shard retried."
    in
    Arg.(value & opt float 60.0 & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let retries =
    let doc = "Extra attempts per shard after the first." in
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff =
    let doc =
      "Base retry backoff in seconds (doubled per attempt, with jitter)."
    in
    Arg.(value & opt float 0.25 & info [ "backoff" ] ~docv:"SECS" ~doc)
  in
  let checkpoint =
    let doc =
      "Write a JSON checkpoint of completed site shards to $(docv) after \
       every shard (and on SIGINT/SIGTERM, marked interrupted)."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume =
    let doc =
      "Load the $(b,--checkpoint) file and skip shards it already contains \
       (ignored unless its fingerprint matches this exact run)."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let stop_after =
    let doc =
      "Stop after $(docv) new shards and write an interrupted checkpoint — \
       for exercising $(b,--resume)."
    in
    Arg.(value & opt (some int) None & info [ "stop-after" ] ~docv:"N" ~doc)
  in
  let chaos =
    let doc =
      "Chaos test mode: sabotage this fraction of first shard attempts \
       (half killed mid-task, half stalled past the deadline).  Results \
       must still be bit-identical to an undisturbed run."
    in
    Arg.(value & opt float 0.0 & info [ "chaos" ] ~docv:"F" ~doc)
  in
  let chaos_seed =
    let doc = "Seed for the chaos-injection hash." in
    Arg.(value & opt int 7 & info [ "chaos-seed" ] ~docv:"S" ~doc)
  in
  let doc =
    "Supervised multi-process fault-injection campaign with deadlines, \
     retry/backoff, checkpoint/resume and chaos testing"
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ seed_arg $ trials_arg
      $ max_sites_arg $ confidence_arg $ skip_untestable_arg $ workers
      $ shard_size $ deadline $ retries $ backoff $ checkpoint $ resume
      $ stop_after $ chaos $ chaos_seed
      $ json_arg "the campaign report (with supervision log)"
      $ analysis_backend_arg $ jobs_arg)

(* Worker side of the supervision protocol: a frame loop on
   stdin/stdout executing Distrib.dispatch.  Spawned by the campaign
   supervisor; of no use interactively. *)
let worker_cmd =
  let run () =
    (* Tasks are the unit of parallelism; each worker computes
       sequentially. *)
    Parallel.Pool.set_default_jobs 1;
    Resilient.Worker.serve ~handler:Distrib.dispatch ~input:Unix.stdin
      ~output:Unix.stdout ();
    0
  in
  let doc = "Serve supervised campaign tasks over stdin/stdout (internal)" in
  Cmd.v (Cmd.info "worker" ~doc) Term.(const run $ const ())

let gen_cmd =
  let run ni no dc cf seed on_cubes dc_cubes lit_prob out =
    let rng = Random.State.make [| seed |] in
    if ni > 20 then
      (* Beyond the dense table: generate at the cube level, the input
         format of the symbolic and sampled analysis backends. *)
      if ni > 61 then refuse "--ni must be at most 61"
      else begin
        let sets =
          Synthetic.Synth_gen.random_cover_sets ~rng ~ni ~no ~on_cubes
            ~dc_cubes ~lit_prob
        in
        let pairs =
          List.map
            (function
              | Pla.Fd_sets { on; dc } -> (on, dc)
              | Pla.Fr_sets _ -> assert false)
            sets
        in
        emit_text out (Pla.to_string_covers ~ni pairs);
        0
      end
    else begin
      let params =
        Synthetic.Synth_gen.default_params ~ni ~dc_frac:dc ~target_cf:cf
      in
      let spec = Synthetic.Synth_gen.spec ~rng ~no params in
      emit_spec out spec;
      0
    end
  in
  let ni = Arg.(value & opt int 8 & info [ "ni" ] ~docv:"N" ~doc:"Inputs.") in
  let no = Arg.(value & opt int 4 & info [ "no" ] ~docv:"N" ~doc:"Outputs.") in
  let dc =
    Arg.(
      value
      & opt float 0.6
      & info [ "dc" ] ~docv:"F" ~doc:"DC fraction (dense mode, ni <= 20).")
  in
  let cf =
    Arg.(
      value
      & opt (some float) None
      & info [ "cf" ] ~docv:"C"
          ~doc:"Target complexity factor (dense mode, optional).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")
  in
  let on_cubes =
    Arg.(
      value
      & opt int 6
      & info [ "on-cubes" ] ~docv:"N"
          ~doc:"On-set cubes per output (cube mode, ni > 20).")
  in
  let dc_cubes =
    Arg.(
      value
      & opt int 4
      & info [ "dc-cubes" ] ~docv:"N"
          ~doc:"DC-set cubes per output (cube mode, ni > 20).")
  in
  let lit_prob =
    Arg.(
      value
      & opt float 0.55
      & info [ "lit-prob" ] ~docv:"P"
          ~doc:"Probability a cube fixes each variable (cube mode).")
  in
  let doc =
    "Generate a synthetic benchmark (.pla; cube-level beyond 20 inputs)"
  in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(
      const run $ ni $ no $ dc $ cf $ seed $ on_cubes $ dc_cubes $ lit_prob
      $ output_arg)

let estimate_cmd =
  let run input ((backend, params) as analysis) jobs =
    with_analysis input analysis jobs @@ fun t ->
    let module A = Analysis in
    let module Est = Reliability.Estimate in
    let resolved = A.resolve t backend in
    Fmt.pr "analysis:       %s@." (A.backend_name resolved);
    let b = A.mean_bounds ~params ~backend t in
    Fmt.pr "%s bounds:   [%a, %a]@."
      (match resolved with A.Sampled -> "sampled" | _ -> "exact  ")
      A.pp_value (A.min_rate b) A.pp_value (A.max_rate b);
    let s = A.mean_signal_interval ~params ~backend t in
    let bo = A.mean_border_interval ~params ~backend t in
    Fmt.pr "signal-based:   [%.4f, %.4f]@." s.Est.lo s.Est.hi;
    Fmt.pr "border-based:   [%.4f, %.4f]@." bo.Est.lo bo.Est.hi;
    0
  in
  let doc = "Analytical min-max reliability estimates vs exact bounds" in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(const run $ input_arg $ analysis_args $ jobs_arg)

(* Static checking: spec lints, then (unless --lint-only) a synthesis
   run whose covers and netlist are audited against the *original*
   care set.  Prints a compiler-style report; optionally writes the
   same report as JSON for CI consumption.  Exit 1 iff any
   error-severity diagnostic. *)
let equiv_engine_arg =
  let doc =
    "Care-set equivalence engine: $(b,auto) simulates exhaustively on small \
     specs and builds BDDs beyond; $(b,exhaustive) or $(b,bdd) forces either \
     side."
  in
  Arg.(
    value
    & opt (enum Check.Netlist_check.equiv_engines) Check.Netlist_check.Auto
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let max_diags_arg =
  let doc =
    "Flood-control cap: keep at most $(docv) diagnostics per analyzer (plus \
     one summary line counting the rest), overriding the built-in \
     per-analyzer defaults."
  in
  Arg.(value & opt (some int) None & info [ "max-diags" ] ~docv:"N" ~doc)

(* Validate and install --max-diags before running [k]. *)
let with_max_diags max_diags k =
  match max_diags with
  | Some n when n < 0 -> refuse "--max-diags must be non-negative"
  | _ ->
      Check.Diag.set_max_diags max_diags;
      k ()

let check_cmd =
  let module Diag = Check.Diag in
  let module J = Rdca_json.Jsonout in
  let lint_only_arg =
    let doc = "Stop after the spec lints (no synthesis)." in
    Arg.(value & flag & info [ "lint-only" ] ~doc)
  in
  let emit input json diags =
    let diags = Diag.sort diags in
    Fmt.pr "%a@." Diag.pp_report diags;
    Option.iter
      (fun path ->
        J.write_file path
          (Diag.report_to_json ~meta:[ ("subject", J.String input) ] diags))
      json;
    if Diag.has_errors diags then 1 else 0
  in
  let run input strategy mode engine max_diags lint_only json jobs =
    with_jobs_opt jobs @@ fun () ->
    with_max_diags max_diags @@ fun () ->
    match Flow.load_source input with
    | Error (Flow.Check_failed { diags; _ }) ->
        (* The load itself was refused (on/off overlap): that IS the
           check result, so report it through the normal channel. *)
        emit input json diags
    | Error e -> refuse (Flow.error_to_string e)
    | Ok src ->
        let lint = Flow.lint_source src in
        if lint_only || Diag.has_errors lint then emit input json lint
        else
          let spec = src.Flow.spec in
          with_synthesis ~mode ~strategy spec @@ fun r ->
          emit input json
            (lint
            @ Check.implementation ~equiv:engine ~spec ~covers:r.Flow.covers
                r.Flow.netlist)
  in
  let doc = "Statically check a spec and its synthesized implementation" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ equiv_engine_arg
      $ max_diags_arg $ lint_only_arg $ json_arg "the diagnostic report"
      $ jobs_arg)

(* Post-mapping don't-care recovery: synthesize, sweep the windowed
   ODC/SDC analysis over the mapped netlist (Auto simulates each window
   first and asks the SAT solver only about the patterns left open),
   rewrite node functions on their DC patterns, and prove the rewrite
   preserved the care set.  Exit 1 on any structured failure —
   including an Auto/SAT engine disagreement under --dc-backend
   differential. *)
let optimize_cmd =
  let module Dc = Rdca_dc.Dc in
  let module Diag = Check.Diag in
  let module J = Rdca_json.Jsonout in
  let dc_window_arg =
    let doc = "Window TFI/TFO depth for don't-care extraction." in
    Arg.(
      value
      & opt int Dc.default_config.Dc.depth
      & info [ "dc-window" ] ~docv:"K" ~doc)
  in
  let dc_backend_arg =
    let doc =
      "Window engine, " ^ Arg.doc_alts_enum Dc.backends
      ^ ": $(b,auto) simulates each window and asks the SAT solver only \
         about the fanin patterns simulation leaves open, $(b,sat) asks \
         it about every pattern, $(b,differential) runs both and fails \
         on any mismatch."
    in
    Arg.(
      value
      & opt (enum Dc.backends) Dc.Auto
      & info [ "dc-backend" ] ~docv:"ENGINE" ~doc)
  in
  let dc_strategy_args =
    let method_ =
      let doc = "DC re-assignment method: ranking | lcf | complete." in
      Arg.(
        value
        & opt (enum
                 [ ("ranking", `Ranking); ("lcf", `Lcf);
                   ("complete", `Complete) ])
            `Complete
        & info [ "dc-strategy" ] ~docv:"METHOD" ~doc)
    in
    let fraction =
      let doc = "Fraction of ranked DC patterns to assign (ranking)." in
      Arg.(value & opt float 1.0 & info [ "dc-fraction" ] ~docv:"F" ~doc)
    in
    let threshold =
      let doc = "Local-complexity-factor threshold (lcf)." in
      Arg.(value & opt float 0.55 & info [ "dc-threshold" ] ~docv:"T" ~doc)
    in
    let combine m f t =
      match m with
      | `Ranking -> Dc.Ranking f
      | `Lcf -> Dc.Lcf t
      | `Complete -> Dc.Complete
    in
    Term.(const combine $ method_ $ fraction $ threshold)
  in
  let run input strategy mode depth backend dc_strategy engine json jobs =
    with_jobs_opt jobs @@ fun () ->
    if depth < 1 then refuse "--dc-window must be at least 1"
    else
      with_spec input @@ fun spec ->
      with_synthesis ~mode ~strategy spec @@ fun r ->
      let config = { Dc.default_config with Dc.depth; backend } in
      match
        Flow.optimize_checked ~config ~dc_strategy ~equiv:engine ~spec
          r.Flow.netlist
      with
      | Error (Flow.Check_failed { diags; _ }) ->
          Fmt.pr "%a@." Diag.pp_report diags;
          1
      | Error e -> refuse (Flow.error_to_string e)
      | Ok (opt, equiv_diags) ->
          let rep = opt.Dc.opt_report in
          Fmt.pr "backend:         %s, window depth %d@."
            (Dc.backend_name backend) depth;
          Fmt.pr "dc strategy:     %s@." (Dc.strategy_name dc_strategy);
          Fmt.pr "nodes analyzed:  %d (%d skipped over-arity)@."
            rep.Dc.analyzed rep.Dc.skipped;
          Fmt.pr "nodes with DC:   %d@." rep.Dc.nodes_with_dc;
          Fmt.pr "SDC patterns:    %d@." rep.Dc.sdc_patterns;
          Fmt.pr "ODC patterns:    %d@." rep.Dc.odc_patterns;
          Fmt.pr "decided by simulation: %d of %d window(s), SAT queries: %d@."
            rep.Dc.sim_decided rep.Dc.analyzed rep.Dc.sat_queries;
          if backend = Dc.Differential then
            Fmt.pr "backends agree:  yes (%d window(s))@." rep.Dc.analyzed;
          Fmt.pr "rewritten:       %d node(s)@." (List.length opt.Dc.rewritten);
          Fmt.pr "check:           care-set equivalence OK (%d warning(s))@."
            (Diag.count Diag.Warn equiv_diags);
          Option.iter
            (fun path -> J.write_file path (Dc.opt_result_to_json opt))
            json;
          0
  in
  let doc = "Recover windowed network don't cares and rewrite node functions" in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ dc_window_arg
      $ dc_backend_arg $ dc_strategy_args $ equiv_engine_arg
      $ json_arg "the DC-extraction report" $ jobs_arg)

(* Static stuck-at testability analysis: synthesize, enumerate and
   collapse the fault universe, decide every class with the selected
   backend, report untestable faults / inadmissible outputs / SCOAP
   summaries, and optionally remove the redundant lines behind
   untestable faults under the same care-set equivalence gate as
   optimize.  Exit 1 on any error diagnostic (inadmissible output,
   backend mismatch) or failed removal check. *)
let testability_cmd =
  let module Diag = Check.Diag in
  let module J = Rdca_json.Jsonout in
  let module Engine = Atpg.Engine in
  let backend_arg =
    let doc =
      "Test-generation engine, " ^ Arg.doc_alts_enum Engine.backends
      ^ "; $(b,differential) runs SAT plus exhaustive simulation on every \
         fault and fails on any verdict mismatch (at most 20 inputs)."
    in
    Arg.(
      value
      & opt (enum Engine.backends) Engine.Auto
      & info [ "backend" ] ~docv:"ENGINE" ~doc)
  in
  let collapse_arg =
    let doc =
      "Structural fault collapsing, "
      ^ Arg.doc_alts_enum Atpg.Fault.modes
      ^ "."
    in
    Arg.(
      value
      & opt (enum Atpg.Fault.modes) Atpg.Fault.Equivalence
      & info [ "collapse" ] ~docv:"MODE" ~doc)
  in
  let remove_arg =
    let doc =
      "Remove the redundant line behind each untestable fault \
       (constant-propagation rewrite, one fault per pass, re-analysed to a \
       fixpoint) and prove care-set equivalence of the result."
    in
    Arg.(value & flag & info [ "remove-redundant" ] ~doc)
  in
  let removal_to_json (rem : Atpg.Redundancy.result) =
    J.Obj
      [
        ("removed", J.Int (List.length rem.Atpg.Redundancy.removed));
        ("iterations", J.Int rem.Atpg.Redundancy.iterations);
        ("gates_before", J.Int rem.Atpg.Redundancy.gates_before);
        ("gates_after", J.Int rem.Atpg.Redundancy.gates_after);
        ("final", Engine.report_to_json rem.Atpg.Redundancy.final_report);
      ]
  in
  let run input strategy mode backend collapse remove engine max_diags json
      jobs =
    with_jobs_opt jobs @@ fun () ->
    with_max_diags max_diags @@ fun () ->
    with_spec input @@ fun spec ->
    with_synthesis ~mode ~strategy spec @@ fun r ->
    let nl = r.Flow.netlist in
    let config = { Engine.default_config with Engine.backend; collapse } in
    match Engine.analyze ~config nl with
    | exception Invalid_argument msg -> refuse msg
    | report ->
        let scoap = Atpg.Scoap.compute nl in
        let sc = Atpg.Scoap.summarize scoap in
        let diags = Atpg.Testability_check.diagnostics nl report in
        Fmt.pr "backend:         %s, %s collapsing@."
          (Engine.backend_name backend)
          (Atpg.Fault.mode_name collapse);
        Fmt.pr "faults:          %d in %d class(es) (%.2fx collapse)@."
          report.Engine.total_faults report.Engine.classes
          report.Engine.collapse_ratio;
        Fmt.pr "coverage:        %.1f%%  (%d testable, %d untestable)@."
          (100.0 *. report.Engine.coverage)
          report.Engine.testable report.Engine.untestable;
        if backend = Engine.Differential then
          Fmt.pr "backends agree:  %s (%d class(es))@."
            (if report.Engine.disagreements = 0 then "yes" else "NO")
            report.Engine.classes;
        Fmt.pr
          "scoap:           mean CC0 %.1f, CC1 %.1f, CO %.1f; %d \
           unobservable node(s)@."
          sc.Atpg.Scoap.mean_cc0 sc.Atpg.Scoap.mean_cc1 sc.Atpg.Scoap.mean_co
          sc.Atpg.Scoap.unobservable;
        let removal =
          if not remove then Ok None
          else
            match
              Flow.remove_redundant_checked ~config ~equiv:engine ~spec nl
            with
            | Error (Flow.Check_failed { diags = d; _ }) ->
                Fmt.pr "%a@." Diag.pp_report d;
                Error ()
            | Error e ->
                Fmt.epr "rdca: %s@." (Flow.error_to_string e);
                Error ()
            | Ok (rem, equiv_diags) ->
                Fmt.pr
                  "removed:         %d redundant line(s) in %d pass(es), %d \
                   -> %d gates@."
                  (List.length rem.Atpg.Redundancy.removed)
                  rem.Atpg.Redundancy.iterations
                  rem.Atpg.Redundancy.gates_before
                  rem.Atpg.Redundancy.gates_after;
                Fmt.pr
                  "check:           care-set equivalence OK (%d warning(s))@."
                  (Diag.count Diag.Warn equiv_diags);
                Ok (Some rem)
        in
        Fmt.pr "%a@." Diag.pp_report (Diag.sort diags);
        Option.iter
          (fun path ->
            J.write_file path
              (J.Obj
                 ([
                    ("schema_version", J.Int 1);
                    ("subject", J.String input);
                    ("testability", Engine.report_to_json report);
                    ("scoap", Atpg.Scoap.summary_to_json scoap);
                    ( "diagnostics",
                      Diag.report_to_json
                        ~meta:[ ("subject", J.String input) ]
                        diags );
                  ]
                 @
                 match removal with
                 | Ok (Some rem) -> [ ("removal", removal_to_json rem) ]
                 | _ -> [])))
          json;
        if Result.is_error removal || Diag.has_errors diags then 1 else 0
  in
  let doc =
    "SAT-based stuck-at testability analysis: fault collapsing, \
     untestable-fault detection and checked redundancy removal"
  in
  Cmd.v (Cmd.info "testability" ~doc)
    Term.(
      const run $ input_arg $ strategy_args $ mode_arg $ backend_arg
      $ collapse_arg $ remove_arg $ equiv_engine_arg $ max_diags_arg
      $ json_arg "the testability report" $ jobs_arg)

let suite_cmd =
  let run () =
    List.iter
      (fun e ->
        Fmt.pr "%-8s  %2d in  %2d out  %%DC %.1f  C^f %.3f@."
          e.Synthetic.Suite.name e.Synthetic.Suite.ni e.Synthetic.Suite.no
          e.Synthetic.Suite.dc_percent e.Synthetic.Suite.cf)
      Synthetic.Suite.entries;
    0
  in
  let doc = "List the built-in Table 1 benchmark suite" in
  Cmd.v (Cmd.info "suite" ~doc) Term.(const run $ const ())

let main =
  let doc = "Reliability-driven don't care assignment for logic synthesis" in
  let info = Cmd.info "rdca" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      stats_cmd; assign_cmd; synth_cmd; faultsim_cmd; campaign_cmd; gen_cmd;
      estimate_cmd; check_cmd; optimize_cmd; testability_cmd; suite_cmd;
      worker_cmd;
    ]

let () = exit (Cmd.eval' main)
