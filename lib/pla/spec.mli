(** Incompletely specified multi-output Boolean functions.

    A [Spec.t] maps every (output, minterm) pair to a phase — [On],
    [Off] or [Dc] — exactly the on-set / off-set / DC-set partition the
    paper's algorithms manipulate.  The representation is dense: per
    output, three packed phase planes (on, off, DC) over the [2^ni]
    minterms, every minterm in exactly one of them — 3 bits per
    minterm.  That is exact and fast for the paper's benchmark sizes
    (n <= 12; supported up to n = 20), and it is the form every
    word-parallel reliability kernel reads ({!phase_planes}).

    Mutation is explicit: {!set} and {!assign_dc} modify in place; use
    {!copy} to preserve an original.  Concurrent reads need no
    protocol; writes must not share a spec with any other domain (two
    domains writing bits of one 63-bit word lose updates). *)

type phase = On | Off | Dc

type t

(** [create ~ni ~no ~default] is a spec with [ni] inputs and [no]
    outputs, every minterm in phase [default].
    @raise Invalid_argument if [ni < 0 || ni > 20 || no <= 0]. *)
val create : ni:int -> no:int -> default:phase -> t

(** [ni t] and [no t] are the input/output counts. *)
val ni : t -> int

val no : t -> int

(** [size t] is [2^ni], the number of minterms per output. *)
val size : t -> int

(** [get t ~o ~m] is the phase of minterm [m] for output [o]. *)
val get : t -> o:int -> m:int -> phase

(** [set t ~o ~m p] updates the phase in place. *)
val set : t -> o:int -> m:int -> phase -> unit

(** [assign_dc t ~o ~m v] turns a DC minterm into [On] (if [v]) or
    [Off].  @raise Invalid_argument if the minterm is not DC. *)
val assign_dc : t -> o:int -> m:int -> bool -> unit

(** [copy t] is an independent copy. *)
val copy : t -> t

(** [equal a b] is structural equality of dimensions and phases. *)
val equal : t -> t -> bool

(** Phase counts for output [o]: popcounts of its phase planes. *)

val count_phase : t -> o:int -> phase -> int

val on_count : t -> o:int -> int

val off_count : t -> o:int -> int

val dc_count : t -> o:int -> int

(** Signal probabilities [f1], [f0], [fdc] for output [o] (fractions of
    the [2^ni] minterm space; they sum to 1). *)
val signal_probs : t -> o:int -> float * float * float

(** [dc_fraction t] is the fraction of (output, minterm) pairs in the
    DC phase — the "%DC" column of the paper's Table 1. *)
val dc_fraction : t -> float

(** [iter_dc t ~o f] applies [f] to every DC minterm of output [o], in
    ascending minterm order. *)
val iter_dc : t -> o:int -> (int -> unit) -> unit

(** Per-output set extraction.  Each call returns a fresh vector the
    caller may mutate freely. *)

val on_bv : t -> o:int -> Bitvec.Bv.t

val off_bv : t -> o:int -> Bitvec.Bv.t

val dc_bv : t -> o:int -> Bitvec.Bv.t

(** [phase_planes t ~o] is the packed [(on, off, dc)] planes of output
    [o] — the spec's own storage, not a copy.  The vectors are
    {e borrowed}: treat them as read-only.  They follow later {!set} /
    {!assign_dc} calls on [t], so a caller that needs a snapshot
    across a mutation copies them ({!on_bv} and friends). *)
val phase_planes : t -> o:int -> Bitvec.Bv.t * Bitvec.Bv.t * Bitvec.Bv.t

(** [warm_cache t] does nothing: the planes are the representation,
    so a spec needs no preparation before a parallel region.  Kept
    only because the benchmark's sweep workload ([perfbench/]) still
    calls it. *)
val warm_cache : t -> unit

(** [on_cover t ~o] ([dc_cover t ~o]) is the minterm-level cover of the
    on-set (DC-set) of output [o]; a starting point for minimisation. *)
val on_cover : t -> o:int -> Twolevel.Cover.t

val dc_cover : t -> o:int -> Twolevel.Cover.t

(** [of_covers ~ni covers] builds a spec from per-output (on, dc) cover
    pairs; everything not covered is [Off].  Overlaps resolve in favour
    of [On] (on-set wins over DC, matching espresso's fd semantics).
    @raise Invalid_argument on arity mismatch or empty list. *)
val of_covers : ni:int -> (Twolevel.Cover.t * Twolevel.Cover.t) list -> t

(** [neighbour_counts t ~o ~m] is the number of 1-Hamming-distance
    neighbours of minterm [m] in the on-set, off-set and DC-set of
    output [o] — the paper's core quantities. *)
val neighbour_counts : t -> o:int -> m:int -> int * int * int

(** [neighbour_counts_batch t ~o] is the per-minterm [(on, off, dc)]
    neighbour counts for the whole [2^ni] space at once, by bit-sliced
    word-parallel counting; {!neighbour_counts} at every minterm is its
    oracle.  With no inputs each array is [[|0|]]. *)
val neighbour_counts_batch : t -> o:int -> int array * int array * int array

(** [output_value t ~o ~m] is the implementation value of a *fully
    specified* output: [On] -> true, [Off] -> false.
    @raise Invalid_argument if the phase is [Dc]. *)
val output_value : t -> o:int -> m:int -> bool

(** [pp] prints a compact per-output phase summary. *)
val pp : Format.formatter -> t -> unit
