(** Packed, fixed-length bit vectors.

    A [Bv.t] is a mutable vector of [length t] booleans stored 63 per
    [int].  It is the workhorse set representation for on-, off- and
    DC-sets of dense function specifications: index [i] stands for the
    minterm with binary encoding [i]. *)

type t

(** [create n] is a vector of [n] bits, all cleared.
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [length t] is the number of bits in [t]. *)
val length : t -> int

(** [get t i] is bit [i]. @raise Invalid_argument if out of range. *)
val get : t -> int -> bool

(** [set t i] sets bit [i] to one. *)
val set : t -> int -> unit

(** [clear t i] sets bit [i] to zero. *)
val clear : t -> int -> unit

(** [assign t i b] sets bit [i] to [b]. *)
val assign : t -> int -> bool -> unit

(** Unchecked accessors for hot scalar loops: the caller performs a
    single range check at loop entry instead of one per bit.  Reading
    or writing out of range is undefined behaviour. *)

val unsafe_get : t -> int -> bool

val unsafe_set : t -> int -> unit

(** [copy t] is a fresh vector equal to [t]. *)
val copy : t -> t

(** [fill t b] sets every bit of [t] to [b]. *)
val fill : t -> bool -> unit

(** [cardinal t] is the number of set bits. *)
val cardinal : t -> int

(** [is_empty t] is [cardinal t = 0], computed without a full count. *)
val is_empty : t -> bool

(** [equal a b] tests equality of lengths and contents. *)
val equal : t -> t -> bool

(** Bitwise operations; all return fresh vectors.
    @raise Invalid_argument on length mismatch. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val logxor : t -> t -> t
val complement : t -> t

(** In-place variants storing the result in the first argument. *)

val union_in_place : t -> t -> unit
val inter_in_place : t -> t -> unit
val diff_in_place : t -> t -> unit
val logxor_in_place : t -> t -> unit

(** [subset a b] is [true] when every set bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is [true] when [a] and [b] share no set bit. *)
val disjoint : t -> t -> bool

(** [iter_set f t] applies [f] to the index of every set bit, in
    increasing order. *)
val iter_set : (int -> unit) -> t -> unit

(** [fold_set f t init] folds [f] over indices of set bits, increasing. *)
val fold_set : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list t] is the increasing list of set-bit indices. *)
val to_list : t -> int list

(** [of_list n l] is a vector of length [n] with exactly the indices of
    [l] set. @raise Invalid_argument if an index is out of range. *)
val of_list : int -> int list -> t

(** [random ~rng n ~density] is a vector of [n] bits where each bit is
    set independently with probability [density]. *)
val random : rng:Random.State.t -> int -> density:float -> t

(** [pp] prints as a 0/1 string, bit 0 leftmost. *)
val pp : Format.formatter -> t -> unit

(** Word-parallel bit kernels over minterm-indexed vectors.

    A vector of length [2^n] indexed by minterm encoding supports
    1-Hamming-neighbour queries 63 minterms per word operation: the
    permutation [m -> m xor 2^j] decomposes into two funnel shifts by
    [2^j] plus a periodic index mask, and per-minterm neighbour counts
    are kept {e bit-sliced} (one vector per binary digit of the count)
    so n-way counting costs O(n log n) vector passes instead of
    O(n 2^n) scalar probes.

    These kernels are the only engine behind the neighbour-space
    metrics.  Each consumer keeps a scalar reference implementation
    (the [*_scalar] exports and the per-minterm functions) that the
    differential tests compare against bit for bit; no run-time switch
    selects it. *)
module Kernel : sig
  (** Always [true].  Nothing in the library reads it: it remains only
      for the benchmark's provenance line, which prints it, and goes
      with the next change to the benchmark. *)
  val enabled : bool ref

  (** [neighbor ~j t] is [r] with [r.(m) = t.(m lxor 2^j)].
      @raise Invalid_argument unless [length t] is a positive multiple
      of [2^(j+1)]. *)
  val neighbor : j:int -> t -> t

  (** [neighbor_diff ~j t] is [r] with
      [r.(m) = t.(m) <> t.(m lxor 2^j)] — "does flipping input j
      change the value" for every minterm at once. *)
  val neighbor_diff : j:int -> t -> t

  (** Fused popcounts of word-wise combinations, without
      materialising the combined vector. *)

  val popcount_and : t -> t -> int

  val popcount_and3 : t -> t -> t -> int

  val popcount_or : t -> t -> int

  val popcount_xor : t -> t -> int

  (** [popcount_and_masked a b ~mask] is
      [cardinal (inter (inter a b) mask)] — one pass, no allocation. *)
  val popcount_and_masked : t -> t -> mask:t -> int

  (** {1 Bit-sliced per-index counters} *)

  type counter

  (** [counter_create ~len ~bits] is [len] zeroed counters, each able
      to hold values below [2^bits]. *)
  val counter_create : len:int -> bits:int -> counter

  val counter_length : counter -> int

  val counter_bits : counter -> int

  (** [counter_add_bit c plane] adds the 0/1 [plane] to every counter.
      @raise Invalid_argument on length mismatch or overflow. *)
  val counter_add_bit : counter -> t -> unit

  (** [counter_add c src] adds [src] into [c] index-wise.
      @raise Invalid_argument on mismatch or overflow. *)
  val counter_add : counter -> counter -> unit

  (** [counter_neighbor ~j c] is the counter [m -> c.(m lxor 2^j)]. *)
  val counter_neighbor : j:int -> counter -> counter

  (** [counter_get c m] is the count at index [m]. *)
  val counter_get : counter -> int -> int

  (** [counter_extract c] is every count as a flat array. *)
  val counter_extract : counter -> int array

  (** [counter_weighted_sum c ~mask] is the exact integer
      [sum over set bits m of mask of c.(m)]. *)
  val counter_weighted_sum : counter -> mask:t -> int

  (** [counter_abs_diff a b] is [(|a - b|, sign)] index-wise, where
      [sign] has bit [m] set iff [b.(m) > a.(m)].  Widths must match. *)
  val counter_abs_diff : counter -> counter -> counter * t

  (** {1 Cache-blocked neighbour sweep}

      The fused form of the [for j] loops the reliability kernels all
      share: for every flip bit [j < nj] and every operand, compute
      the neighbour plane [N_j(src) = m -> src.(m lxor 2^j)] (or the
      difference plane [D_j(src) = src xor N_j(src)] when [sw_diff])
      and consume it immediately — accumulating
      [popcount (plane land sw_cross)] and/or adding the plane into
      the bit-sliced [sw_counter].  The work is tiled: each block of
      [tile] words of all operand planes is processed across all [j]
      and all operands before advancing, so every plane slice is
      touched while cache-hot and no intermediate 2^n-bit vector is
      allocated.  Results are bit-identical to composing {!neighbor} /
      {!neighbor_diff} with {!popcount_and} / {!counter_add_bit}
      (per word-column the counter additions run in the same
      j-ascending order, so overflow behaviour matches too). *)

  type sweep_op = {
    sw_src : t;  (** plane whose neighbours are taken *)
    sw_diff : bool;  (** consume [D_j(src)] instead of [N_j(src)] *)
    sw_counter : counter option;  (** add each j-plane into this *)
    sw_cross : t option;  (** accumulate [popcount (plane land cross)] *)
  }

  val default_tile : int

  (** [neighbour_sweep ~nj ops] returns the per-op popcount
      accumulators (0 where [sw_cross] is [None]).  All operands must
      share one length, a multiple of [2^nj].
      @raise Invalid_argument on length mismatch or counter
      overflow. *)
  val neighbour_sweep : ?tile:int -> nj:int -> sweep_op array -> int array
end
