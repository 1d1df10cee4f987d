(** Complexity factors and border counts (Sections 2.2, 4, 5).

    All quantities are per output; [mean_*] helpers average across the
    outputs of a multi-output specification.  Pair-counting entry
    points run on the word-parallel {!Bitvec.Bv.Kernel}; each keeps a
    scalar oracle that the differential tests compare against bit for
    bit. *)

(** [complexity_factor spec ~o] is the normalised complexity factor
    C^f: the fraction of ordered 1-Hamming-distance minterm pairs that
    share a phase (on/off/DC). *)
val complexity_factor : Pla.Spec.t -> o:int -> float

val mean_complexity_factor : Pla.Spec.t -> float

(** [expected_complexity_factor spec ~o] is
    E[C^f] = f0^2 + f1^2 + fdc^2. *)
val expected_complexity_factor : Pla.Spec.t -> o:int -> float

val mean_expected_complexity_factor : Pla.Spec.t -> float

(** [local_complexity_factor spec ~o ~m] is LC^f(m): among the n^2
    ordered pairs (x_j, x_k) with x_j a neighbour of [m] and x_k a
    neighbour of x_j, the fraction sharing a phase.  A spec with no
    inputs is constant, hence trivially regular: LC^f = 1. *)
val local_complexity_factor : Pla.Spec.t -> o:int -> m:int -> float

(** [local_complexity_factors spec ~o] is LC^f for the whole [2^ni]
    space at once, by bit-sliced word-parallel counting;
    {!local_complexity_factor} at every minterm is its oracle. *)
val local_complexity_factors : Pla.Spec.t -> o:int -> float array

(** Border counts: ordered pairs (x_i, x_j) at Hamming distance 1 with
    [x_i] in the named set and [x_j] outside it. *)
type counts = { b0 : int; b1 : int; bdc : int }

val border_counts : Pla.Spec.t -> o:int -> counts

(** The scalar reference implementation of {!border_counts} (the
    oracle). *)
val border_counts_scalar : Pla.Spec.t -> o:int -> counts

(** Invariant used in tests: [1 - C^f] equals
    [(b0 + b1 + bdc) / (n * 2^n)]. *)
val same_phase_pairs : Pla.Spec.t -> o:int -> int

(** The scalar reference implementation of {!same_phase_pairs} (the
    oracle). *)
val same_phase_pairs_scalar : Pla.Spec.t -> o:int -> int
