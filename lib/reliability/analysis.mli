(** Backend dispatch for reliability analysis.

    Every reliability quantity in the pipeline — error rates, min/max
    DC-assignment bounds, border counts, signal probabilities — exists
    in three engines:

    - [Exhaustive]: the dense 2^n sweeps of {!Error_rate} and
      {!Borders} (word-parallel kernel or scalar oracle), available
      while a dense {!Pla.Spec.t} exists (n <= 20);
    - [Bdd_exact]: fully symbolic evaluation over structural BDDs —
      satcounts of flipped-input miters for rates and borders,
      {!Sym.min_max_dc}'s difference-counting network for the exact
      assignment bounds.  Exact (and bit-identical to the dense
      engines where both run) with no 2^n tables, so n of 30 and
      beyond is routine when the covers are structured;
    - [Sampled]: a seeded Monte-Carlo estimator over uniform
      (minterm, flipped input) events.  Every quantity is a Bernoulli
      proportion of the n * 2^n event space, reported as a Wilson
      score interval at the configured confidence.  Sampling is
      chunked deterministically and runs through {!Parallel.Pool}, so
      identical seeds give identical results at any job count.

    [Auto] picks an engine from the input count (see {!resolve}).
    Results are {!value}s: [Exact] from the first two engines,
    [Interval] from the sampler. *)

type backend = Exhaustive | Bdd_exact | Sampled | Auto

(** Every backend once, with its CLI name. *)
val backends : (string * backend) list

val backend_name : backend -> string

type params = {
  samples : int;  (** Monte-Carlo draws per analysed output *)
  seed : int;  (** base seed; each (output, chunk) derives its own *)
  confidence : float;  (** Wilson interval confidence, in (0,1) *)
}

(** 100_000 samples, seed 42, 95% confidence. *)
val default_params : params

(** A computed quantity: exact from the dense or symbolic engines, a
    point estimate with a Wilson confidence interval from the
    sampler. *)
type value = Exact of float | Interval of { est : float; lo : float; hi : float }

val value_est : value -> float

(** Pessimistic ends: [value_lo]/[value_hi] of an [Exact] are the
    value itself. *)
val value_lo : value -> float

val value_hi : value -> float

val pp_value : Format.formatter -> value -> unit

(** A problem instance: an analysable specification.  Dense problems
    carry their table and can use every backend; cover-level problems
    (the n > 20 regime) use the symbolic and sampled engines. *)
type t

val of_spec : Pla.Spec.t -> t

(** [of_cover_sets ~ni outputs] wraps parsed cube-level outputs.
    @raise Invalid_argument on an empty list or arity mismatch. *)
val of_cover_sets : ni:int -> Pla.cover_sets list -> t

val ni : t -> int

val no : t -> int

(** [dense_spec t] is the dense table when the problem has one. *)
val dense_spec : t -> Pla.Spec.t option

(** [resolve t backend] is the engine that will actually run — [Auto]
    resolved against [ni], everything else returned unchanged.  Never
    [Auto].  [Auto] takes [Exhaustive] for dense problems up to 14
    inputs, [Bdd_exact] up to 40 inputs and [Sampled] beyond. *)
val resolve : t -> backend -> backend

(** {1 Quantities}

    All take the backend to use ([Auto] resolves per {!resolve}) and
    raise [Invalid_argument] when [Exhaustive] is requested without a
    dense table or [o] is out of range. *)

(** The {!Error_rate.bounds} triple as {!value}s (all rates under the
    [n * 2^n] normalisation). *)
type bounds = { base : value; min_dc : value; max_dc : value }

val min_rate : bounds -> value

val max_rate : bounds -> value

val bounds : ?params:params -> backend:backend -> t -> o:int -> bounds

(** [mean_bounds] averages across outputs.  Sampled intervals use a
    Bonferroni-adjusted per-output confidence so the averaged interval
    still holds at the configured level. *)
val mean_bounds : ?params:params -> backend:backend -> t -> bounds

(** Ordered border-pair counts (not rates), mirroring
    {!Borders.counts}. *)
type border_counts = { b0 : value; b1 : value; bdc : value }

val borders : ?params:params -> backend:backend -> t -> o:int -> border_counts

(** [(f1, f0, fdc)] — signal probabilities. *)
val signal_probs :
  ?params:params -> backend:backend -> t -> o:int -> value * value * value

(** The complexity factor C^f (same-phase pair fraction). *)
val complexity_factor :
  ?params:params -> backend:backend -> t -> o:int -> value

(** {1 Implementation error rates}

    The rate of a fully specified implementation against this
    problem's care set — {!Error_rate.of_table} generalised. *)

(** [rate_of_table ~backend t ~o ~impl] takes a dense truth table
    (length [2^ni]; dense problems only for [Exhaustive], any problem
    whose [ni] admits a table otherwise). *)
val rate_of_table :
  ?params:params -> backend:backend -> t -> o:int -> impl:Bitvec.Bv.t -> value

(** [rate_of_tables] averages {!rate_of_table} across outputs
    (Bonferroni-adjusted when sampled). *)
val rate_of_tables :
  ?params:params -> backend:backend -> t -> impl:Bitvec.Bv.t array -> value

(** [rate_of_cover ~backend t ~o ~impl] takes the implementation as
    its on-cover (off = complement) — the n > 20 form. *)
val rate_of_cover :
  ?params:params ->
  backend:backend ->
  t ->
  o:int ->
  impl:Twolevel.Cover.t ->
  value

(** {1 Analytical estimates through a backend}

    The Section 5 estimators fed with backend-computed inputs: exact
    counts from the dense or symbolic engines reproduce
    {!Estimate.signal_based}/{!Estimate.border_based} bit-identically;
    the sampler feeds point estimates. *)

val signal_interval :
  ?params:params -> backend:backend -> t -> o:int -> Estimate.interval

val border_interval :
  ?params:params -> backend:backend -> t -> o:int -> Estimate.interval

val mean_signal_interval :
  ?params:params -> backend:backend -> t -> Estimate.interval

val mean_border_interval :
  ?params:params -> backend:backend -> t -> Estimate.interval
