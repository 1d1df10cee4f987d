(** The end-to-end synthesis flow of the paper's experiments:

    spec --(reliability-driven partial DC assignment)-->
    spec' --(espresso per output, conventional use of leftover DCs)-->
    covers --(AIG, balance)--> --(technology mapping)--> netlist,

    measured as (input-error rate, area, delay, power).  This is the
    OCaml equivalent of the paper's ".pla -> Design Compiler" pipeline
    with our substrate (see DESIGN.md). *)

(** How the DC space is treated before conventional synthesis. *)
type strategy =
  | Conventional  (** all DCs left to espresso (the 0% baseline) *)
  | Ranking of float  (** Figure 3 with the given fraction *)
  | Lcf of float  (** Figure 7 with the given threshold *)
  | Complete  (** every non-tied DC assigned for reliability *)

val strategy_name : strategy -> string

(** {1 Graceful degradation}

    Espresso on a pathological benchmark can dominate the whole flow;
    a budget caps it.  When exceeded, the flow falls back to the
    unminimized minterm-level cover for the remaining outputs instead
    of dying — and says so in the result record. *)

(** Per-run espresso budget.  [max_cubes] skips minimisation for any
    output whose raw on-cover already exceeds the bound; [max_seconds]
    is a wall-clock cap on total minimisation time (outputs starting
    after it fall back).  [None] means unlimited. *)
type budget = { max_cubes : int option; max_seconds : float option }

(** [no_budget] — both caps disabled; the default. *)
val no_budget : budget

(** A quality degradation the flow accepted instead of failing. *)
type degradation = Espresso_skipped of { output : int; cubes : int }

val degradation_to_string : degradation -> string

(** Result of one synthesis run. *)
type result = {
  error_rate : float;
      (** mean input-error rate of the implementation, measured against
          the {e original} specification's care sets *)
  report : Techmap.Report.t;
  sop_cubes : int;  (** total minimised cover cubes across outputs *)
  assigned_fraction : float;
      (** fraction of the DC space the strategy assigned before
          conventional synthesis *)
  netlist : Netlist.t;
      (** the mapped netlist itself — for export and for gate-level
          fault-injection campaigns *)
  covers : Twolevel.Cover.t list;
      (** the per-output minimised SOP covers the netlist was built
          from (derived from the shared cube list on the
          {!synthesize_shared} path) — what {!Check.Cover_check}
          audits *)
  degradations : degradation list;
      (** empty when the run was full-quality; see {!budget} *)
}

(** {1 Structured errors}

    Library-level failure paths (file I/O, .pla parsing, suite lookup,
    synthesis itself) surface as values of this type through
    {!load_spec} and {!synthesize_result}, so drivers can report
    cleanly instead of crashing with a backtrace. *)

type error =
  | Io_error of { path : string; message : string }
  | Parse_error of { path : string; message : string }
  | Unknown_benchmark of { name : string; suggestions : string list }
      (** [suggestions] — near-miss suite names for diagnostics *)
  | Synthesis_failure of string
  | Check_failed of { subject : string; diags : Check.Diag.t list }
      (** static checks found error-severity diagnostics on [subject]
          (a file path, benchmark name or pipeline stage); the full
          list is carried so drivers can print or emit it as JSON *)

val error_to_string : error -> string

(** [load_spec name] resolves [name] the way the CLI does: an existing
    file parses as .pla; otherwise, a name that does not look like a
    path is looked up in the built-in benchmark suite.  A .pla file
    whose product terms drive some minterm both on and off is refused
    with [Check_failed] (code [on-off-overlap]): the dense spec cannot
    represent the inconsistency, so accepting it would silently
    last-write-wins it away.  All failures are structured [Error]s —
    this function does not raise. *)
val load_spec : string -> (Pla.Spec.t, error) Stdlib.result

(** A loaded specification that remembers where it came from: for .pla
    files the parsed {!Pla.t} is kept so term-level lints
    ({!Check.Spec_lint.lint_pla}) can run; suite benchmarks only have
    the dense spec. *)
type source = { spec : Pla.Spec.t; pla : Pla.t option; origin : string }

(** [load_source name] is {!load_spec} keeping the provenance. *)
val load_source : string -> (source, error) Stdlib.result

(** [load_problem name] resolves [name] into an analysis problem for
    the backend-dispatched reliability engines: files with [.i <= 20]
    (and suite benchmarks) load densely, so every backend including
    [Exhaustive] is available; wider files (up to the cube limit of
    61 inputs) load at the cover level for the symbolic and sampled
    backends.  Failures are structured like {!load_spec}. *)
val load_problem : string -> (Reliability.Analysis.t, error) Stdlib.result

(** [lint_source src] is the spec linter appropriate to the source:
    term-level when the raw .pla is available, dense otherwise. *)
val lint_source : source -> Check.Diag.t list

(** [apply_strategy strategy spec] is the partially assigned spec. *)
val apply_strategy : strategy -> Pla.Spec.t -> Pla.Spec.t

(** [implement spec] finishes any spec with conventional assignment:
    each output is minimised by espresso over its on/DC sets and every
    remaining DC takes the value its minimised cover gives it.  Returns
    the fully specified spec plus the per-output covers; the input is
    not mutated. *)
val implement : Pla.Spec.t -> Pla.Spec.t * Twolevel.Cover.t list

(** [measured_error ?analysis ?analysis_params ~original assigned] is
    the mean implementation error rate of a fully specified [assigned]
    against [original].  [analysis] (default [Exhaustive], which this
    flow always can use since it holds a dense spec) selects the
    {!Reliability.Analysis} backend; sampled backends report the point
    estimate of their confidence interval. *)
val measured_error :
  ?analysis:Reliability.Analysis.backend ->
  ?analysis_params:Reliability.Analysis.params ->
  original:Pla.Spec.t ->
  Pla.Spec.t ->
  float

(** [synthesize ?lib ?factored ?budget ~mode ~strategy spec] runs the
    full pipeline.  [lib] defaults to
    {!Techmap.Stdcell.default_library}; [factored] (default false)
    algebraically factors each minimised cover ({!Twolevel.Factor})
    before AIG construction; [budget] (default {!no_budget}) caps
    espresso with unminimized-cover fallback; [analysis] and
    [analysis_params] select the error-rate backend as in
    {!measured_error}. *)
val synthesize :
  ?lib:Techmap.Stdcell.t list ->
  ?factored:bool ->
  ?budget:budget ->
  ?analysis:Reliability.Analysis.backend ->
  ?analysis_params:Reliability.Analysis.params ->
  mode:Techmap.Mapper.mode ->
  strategy:strategy ->
  Pla.Spec.t ->
  result

(** [verified_synthesize] additionally checks (exhaustively) that the
    mapped netlist realises the assigned spec, raising [Failure]
    otherwise.  Used by tests and the quickstart example. *)
val verified_synthesize :
  ?lib:Techmap.Stdcell.t list ->
  ?factored:bool ->
  ?budget:budget ->
  ?analysis:Reliability.Analysis.backend ->
  ?analysis_params:Reliability.Analysis.params ->
  mode:Techmap.Mapper.mode ->
  strategy:strategy ->
  Pla.Spec.t ->
  result

(** [synthesize_result] is {!synthesize} with library-level exceptions
    ([Invalid_argument], [Failure]) mapped to
    [Error (Synthesis_failure _)]. *)
val synthesize_result :
  ?lib:Techmap.Stdcell.t list ->
  ?factored:bool ->
  ?budget:budget ->
  ?analysis:Reliability.Analysis.backend ->
  ?analysis_params:Reliability.Analysis.params ->
  mode:Techmap.Mapper.mode ->
  strategy:strategy ->
  Pla.Spec.t ->
  (result, error) Stdlib.result

(** {1 Network don't-care optimization}

    Post-mapping ODC/SDC recovery: {!Rdca_dc.Dc.optimize} rewrites node
    functions on their windowed don't cares, gated here by the same
    care-set equivalence proof the synthesis audit uses. *)

(** [optimize_checked ?config ?dc_strategy ?equiv ~spec nl] runs the
    windowed DC optimizer on [nl] and proves the rewritten netlist
    still realises [spec] on its care set
    ({!Check.Netlist_check.equiv_spec} with the given engine).
    Failure paths are structured: a [Differential]
    backend disagreement refuses with [Check_failed] (code
    [dc-backend-mismatch]), as does any care-set mismatch — the
    optimizer's rewrites are function-preserving by construction, so a
    mismatch means an engine bug, never a quality trade-off.  On
    success the equivalence diagnostics (all non-error) ride along. *)
val optimize_checked :
  ?config:Rdca_dc.Dc.config ->
  ?dc_strategy:Rdca_dc.Dc.strategy ->
  ?equiv:Check.Netlist_check.equiv_engine ->
  spec:Pla.Spec.t ->
  Netlist.t ->
  (Rdca_dc.Dc.opt_result * Check.Diag.t list, error) Stdlib.result

(** [remove_redundant_checked ?config ?max_iterations ?equiv ~spec nl]
    runs untestable-fault redundancy removal
    ({!Atpg.Redundancy.remove}) and proves the rewritten netlist still
    realises [spec] on its care set, the same gate as
    {!optimize_checked}: a [Differential] verdict disagreement refuses
    with [Check_failed] (code [atpg-backend-mismatch]), as does any
    care-set mismatch — an untestable fault is an equivalence proof,
    so a mismatch means an engine bug.  On success the equivalence
    diagnostics (all non-error) ride along. *)
val remove_redundant_checked :
  ?config:Atpg.Engine.config ->
  ?max_iterations:int ->
  ?equiv:Check.Netlist_check.equiv_engine ->
  spec:Pla.Spec.t ->
  Netlist.t ->
  (Atpg.Redundancy.result * Check.Diag.t list, error) Stdlib.result

(** {1 Multi-output (shared-cube) variant}

    Uses {!Espresso.Multi} so product terms are shared across outputs
    (the real espresso behaviour on multi-output .pla files), instead
    of minimising each output independently. *)

(** [implement_shared spec] conventionally assigns remaining DCs via
    the joint minimisation and returns the fully specified spec plus
    the shared cube list. *)
val implement_shared : Pla.Spec.t -> Pla.Spec.t * Espresso.Multi.mcube list

(** [synthesize_shared] is {!synthesize} on the shared-cube path,
    without factoring or an espresso budget. *)
val synthesize_shared :
  ?lib:Techmap.Stdcell.t list ->
  ?analysis:Reliability.Analysis.backend ->
  mode:Techmap.Mapper.mode ->
  strategy:strategy ->
  Pla.Spec.t ->
  result
