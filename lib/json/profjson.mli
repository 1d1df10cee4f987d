(** Rendering of profiling snapshots and pool scheduling statistics
    into the schema-v4 [BENCH_results.json] fields that
    [bench/main.exe] writes. *)

val attribution_roots : string list
(** The disjoint top-level spans whose summed time is a section's
    "attributed" wall clock: the four sweep-cell stages
    ([sweep.assign], [sweep.implement], [sweep.error], [sweep.build]).
    Leaf spans ([espresso.minimize], [techmap.map], ...) nest inside
    these and are reported but never double-counted. *)

val profile : wall:float -> Prof.snapshot -> Jsonout.t
(** [profile ~wall d] renders a snapshot diff [d] of one bench leg:
    [attributed_seconds] / [attributed_fraction] (vs the leg's [wall]
    seconds, over {!attribution_roots} only), a [spans] object of
    [{seconds; calls}] per span, and a [counters] object.  At N jobs
    span times accumulate across domains, so the sum of spans — and
    the attributed fraction — can legitimately exceed the wall
    clock there; the ≥90%-attribution contract is stated for the
    single-job leg. *)

val pool_delta :
  before:Parallel.Pool.stats -> after:Parallel.Pool.stats -> Jsonout.t
(** Per-section scheduling record: how many batches were published /
    regions kept sequential / items consumed by cost probes between
    the two readings, plus the (process-lifetime) chunk-size gauges. *)

val pool_totals : Parallel.Pool.stats -> Jsonout.t
(** Process-lifetime scheduling totals for the top-level record,
    including domains spawned and whether the shared pool was ever
    instantiated. *)
