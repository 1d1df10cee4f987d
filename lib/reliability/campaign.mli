(** Fault-injection campaigns: sweeps of {!Inject} faults over the
    internal nodes of a mapped netlist.

    A campaign visits fault sites in topological order and runs a
    Monte-Carlo trial budget per (site, kind) pair, for every kind of
    {!Inject.all_kinds}.  Each pair gets
    its own RNG deterministically derived from the campaign seed, so
    results are reproducible and independent of how many sites the
    wall-clock budget allowed: cutting a campaign short changes which
    sites are reported, never their rates.  The same RNG splitting
    makes the sweep safe to parallelise: sites are evaluated in
    blocks on the shared {!Parallel.Pool}, and reports are
    bit-identical at every job count.  The report says whether the
    sweep completed.  Each pair's trials run word-parallel
    ({!Inject.run}); {!Inject.exact_rate} is the exhaustive oracle
    the tests hold the sampled rates against. *)

(** Campaign parameters. *)
type config = {
  seed : int;  (** master seed; per-site RNGs derive from it *)
  trials_per_site : int;  (** Monte-Carlo trials per (site, kind) *)
  confidence : float;  (** Wilson interval confidence, e.g. [0.95] *)
  max_sites : int option;
      (** evaluate at most this many sites (deterministic seeded
          subsample); [None] sweeps every site *)
  time_budget : float option;
      (** wall-clock seconds; when exceeded the sweep stops after the
          current block of sites (a single site with one job) and the
          report is marked incomplete.  At least one site is always
          evaluated. *)
  dead_sites : int list;
      (** node ids excluded from site selection before any
          subsampling — statically untestable sites found by
          [Atpg.Engine.dead_sites] ([--skip-untestable]), whose faults cannot
          propagate and would only dilute the sweep.  Recorded in
          {!config_to_json}. *)
}

(** [default_config] — seed 42, 1000 trials, 95% confidence, no site
    cap, no time budget. *)
val default_config : config

(** Result for one (site, kind) pair. *)
type site_result = {
  site : int;  (** netlist node id *)
  gate : string;  (** printable gate name at the site *)
  kind : Inject.kind;
  trials : int;  (** Monte-Carlo trials run *)
  events : int;  (** trials x outputs — the rate denominator *)
  propagated : int;
  rate : float;  (** [propagated / events] *)
  ci : float * float;  (** Wilson interval at [config.confidence] *)
}

(** A (possibly partial) campaign report. *)
type report = {
  config : config;
  results : site_result list;  (** sweep order *)
  sites_total : int;  (** sites selected for the sweep *)
  sites_done : int;
  complete : bool;  (** [false] when the time budget cut the sweep *)
  elapsed : float;  (** wall-clock seconds *)
}

(** Per-kind aggregate over all evaluated sites: trials and
    propagation events pooled, with the Wilson interval of the pooled
    proportion and the worst (highest-rate) site. *)
type pooled = {
  p_kind : Inject.kind;
  p_sites : int;
  p_events : int;
  p_propagated : int;
  p_rate : float;
  p_ci : float * float;
  p_worst : site_result option;
}

(** [run config spec nl] sweeps the campaign.
    @raise Invalid_argument if netlist and spec input counts differ,
    or [trials_per_site <= 0]. *)
val run : config -> Pla.Spec.t -> Netlist.t -> report

(** [pooled report] aggregates per kind, in {!Inject.all_kinds}
    order. *)
val pooled : report -> pooled list

(** [pp_report ppf report] prints the pooled summary table. *)
val pp_report : Format.formatter -> report -> unit

(** {1 JSON} *)

val config_to_json : config -> Rdca_json.Jsonout.t
(** Campaign parameters as JSON. *)

val site_result_to_json : site_result -> Rdca_json.Jsonout.t

val report_to_json : report -> Rdca_json.Jsonout.t
(** The campaign document of [rdca faultsim --json]: config, per-site
    results and pooled per-kind aggregates.  Its ["interrupted"] key
    is always [false]: a report exists only for a finished sweep, and
    the enclosing faultsim document says whether the run was cut. *)
