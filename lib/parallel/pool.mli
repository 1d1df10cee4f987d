(** A small work pool over [Domain] / [Mutex] / [Condition] with a
    lock-free dispatch core.

    The pool executes {e chunked} parallel regions: a region is split
    into chunks with a fixed chunk -> index-range mapping, idle worker
    domains (plus the submitting domain) claim chunk indices with an
    atomic counter and run them without any lock, and every result is
    written to the slot of its own index.  Each domain keeps a private
    completion count that is merged into the batch's shared counter
    only when its claims run out, so the pool mutex is taken per
    {e batch} (publish, park/wake, failure recording), never per
    chunk.  Which domain runs which chunk therefore never affects
    {e what} is computed, only {e when} — callers that are pure per
    index get bit-identical results at every job count.  Reductions
    (sums, folds) are deliberately left to the caller so they can be
    done sequentially in index order.

    With [jobs = 1] no domains are spawned and every operation runs
    sequentially in the calling domain, so single-job results are
    identical to the pre-parallel code {e by construction}.  Parallel
    operations invoked from inside a pool task (nested parallelism)
    also run sequentially instead of deadlocking on the shared pool.

    The default job count comes from the [RDCA_JOBS] environment
    variable when set to a positive integer, otherwise from
    [Domain.recommended_domain_count ()]; command-line [--jobs]
    overrides both via {!set_default_jobs}. *)

type t
(** A pool of [jobs - 1] worker domains (the submitting domain is the
    remaining worker).  A pool may only have one parallel region in
    flight at a time; concurrent submitters queue. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains.
    @raise Invalid_argument if [jobs < 1]. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Must not be
    called while a region is in flight. *)

val jobs : t -> int

(** {1 Default (shared) pool} *)

val default_jobs : unit -> int
(** Current default job count: the last {!set_default_jobs} value,
    else [RDCA_JOBS], else [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Override the default job count ([--jobs]).  The shared pool is
    re-created lazily on the next parallel operation.
    @raise Invalid_argument if the argument is [< 1]. *)

val shared : unit -> t
(** The process-wide pool at {!default_jobs} (re-created when the
    default changes; shut down automatically at exit). *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs j f] runs [f] with the default job count set to [j],
    restoring the previous default afterwards (also on exceptions).
    Used by the differential tests and the bench harness to compare
    job counts within one process. *)

val quiesce : unit -> unit
(** Shut down (and join) the shared pool if it exists; it is lazily
    re-created by the next parallel operation. *)

(** {1 Chunked parallel operations}

    All operations take the work from index [0] to [n - 1], cut it
    into chunks of [chunk] consecutive indices and run the chunks on
    [pool] (default {!shared}).  When [chunk] is omitted, the chunk
    size is {e adaptive}: a short probe runs the first items
    sequentially under the wall clock, and the measured per-item cost
    decides the dispatch — regions whose estimated total work is under
    ~100µs finish sequentially without instantiating the pool or
    waking any domain (the tiny-batch fast path), while larger
    regions get chunks sized to roughly 200µs of work each, capped so
    every domain still sees several claims for load balancing.
    Probing runs real items in index order, so per-index results are
    unaffected.  Callers whose items are individually expensive
    (seconds-scale synthesis tasks) pass [~chunk:1] to keep per-item
    dynamic balancing and skip the probe; the chunk -> index mapping
    never affects results either way.  If a task raises, the first
    exception (in completion order) is re-raised in the caller after
    the region drains; remaining unclaimed chunks are cancelled. *)

val for_ : ?pool:t -> ?chunk:int -> int -> (int -> unit) -> unit
(** [for_ n f] runs [f 0 .. f (n-1)].  [f] must only write state
    owned by its own index (e.g. disjoint array segments). *)

val init : ?pool:t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; result order matches input order. *)

val mapi : ?pool:t -> ?chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]. *)

val map_list : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map]; result order matches input order. *)

(** {1 Scheduling statistics}

    Process-wide monotone counters (also published as [pool.*]
    through [Prof]) plus chunk-size gauges, read by the bench
    harness's schema-v4 output and by the tiny-batch unit tests. *)

type stats = {
  batches : int;  (** parallel batches published (domains woken) *)
  tiny_skips : int;
      (** default-chunk regions kept sequential by the cost probe (or
          by the [min_chunk] floor) *)
  sequential : int;  (** regions run sequentially for any reason *)
  probe_items : int;  (** items consumed by adaptive cost probes *)
  domains_spawned : int;  (** worker domains ever spawned *)
  pool_instantiated : bool;  (** the shared pool currently exists *)
  last_chunk : int;  (** chunk size of the last published batch; 0 if none *)
  min_chunk_seen : int;  (** smallest chunk ever published; 0 if none *)
  max_chunk_seen : int;  (** largest chunk ever published; 0 if none *)
}

val stats : unit -> stats
