(** Distribution layer: fault campaigns as supervised multi-process
    runs.

    This is the glue between the domain layers and
    {!Resilient.Supervisor}: it cuts a {!Reliability.Campaign} into
    site shards, encodes each shard as a self-contained JSON task a
    worker process can execute from scratch, and reassembles the worker
    results into the exact report the sequential code would have
    produced — bit-identically, because shard values round-trip
    through {!Rdca_json} exactly and every (site, kind) RNG derives
    from the master seed alone.

    Long campaigns checkpoint completed shards to a JSON file
    ({!Resilient.Checkpoint}); [~resume:true] skips them on restart,
    and a SIGINT/SIGTERM mid-run flushes a final checkpoint marked
    interrupted (via {!Resilient.Interrupt}). *)

module J := Rdca_json.Jsonout

(** {1 Worker side} *)

val dispatch : J.t -> J.t
(** Task dispatcher for worker processes — what [rdca worker] serves.
    Understands [{"kind": "campaign-shard", input, strategy, mode,
    config, sites}]: it re-synthesizes the benchmark (cached per
    process per (input, strategy, mode)) and evaluates the listed
    fault sites, returning the list of encoded site results.  Assumes
    an unbudgeted espresso run, like the in-process campaign path.
    @raise Failure on unknown kinds or malformed payloads (the worker
    loop turns this into an error frame). *)

(** {1 Distributed runs} *)

(** A value computed under supervision, with the run's provenance. *)
type 'a distributed = {
  value : 'a;
  events : Resilient.Event.t list;  (** chronological supervision log *)
  exec_mode : Resilient.Supervisor.mode;  (** what actually ran it *)
  interrupted : bool;
      (** some shards were not computed ([--stop-after], permanent
          task failures); for campaigns the report is also marked
          incomplete *)
}

type campaign_opts = {
  sup : Resilient.Supervisor.config;
  shard_size : int;  (** sites per task (clamped to >= 1) *)
  checkpoint : string option;  (** checkpoint file path *)
  resume : bool;  (** load the checkpoint and skip completed shards *)
  stop_after : int option;
      (** run at most this many {e new} shards, then checkpoint and
          return an interrupted partial report — the resume test's
          lever, and a crude form of budgeted execution *)
}

val campaign_run :
  campaign_opts ->
  input:string ->
  strategy:Flow.strategy ->
  mode:Techmap.Mapper.mode ->
  Reliability.Campaign.config ->
  Pla.Spec.t ->
  Netlist.t ->
  (Reliability.Campaign.report distributed, string) result
(** [campaign_run opts ~input ~strategy ~mode config spec nl] is
    {!Reliability.Campaign.run} as a supervised run over site shards.
    [input]/[strategy]/[mode] describe how [nl] was synthesized from
    [input] so worker processes can rebuild it; the in-process
    degradation path uses the captured [spec]/[nl] directly.  The
    merged report is bit-identical to a sequential
    {!Reliability.Campaign.run} with the same [config] (modulo
    [elapsed]).  [Error] on undecodable shard values or an invalid
    configuration. *)

val campaign_report_to_json :
  Reliability.Campaign.report ->
  events:Resilient.Event.t list ->
  interrupted:bool ->
  J.t
(** The JSON document [rdca campaign --json] writes: config, per-site
    results, pooled per-kind aggregates, supervision events, and the
    interrupted flag. *)
