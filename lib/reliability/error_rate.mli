(** Input-error rates: the paper's reliability metric.

    An error event is a pair (correct minterm, flipped input).  The
    correct minterm must be a {e care} vector of the specification
    (the motivating example of the paper: errors cannot originate in
    the DC space); the flipped vector may land anywhere.  An event
    propagates to an output when the implementation values differ.
    Rates are normalised by the [n * 2^n] events per output — the
    normalisation under which the paper's analytical formulas
    reproduce its Table 3 numbers. *)

(** Per-output error rate of an implementation table [impl] (the
    dense function actually synthesised) against the care set of
    [spec]'s output [o], by word-parallel {!Bitvec.Bv.Kernel} popcounts.
    A spec with no inputs has rate 0 (no error events), not NaN. *)
val of_table : Pla.Spec.t -> o:int -> impl:Bitvec.Bv.t -> float

(** The scalar reference implementation of {!of_table}: the oracle the
    differential tests compare the kernel against, bit for bit. *)
val of_table_scalar : Pla.Spec.t -> o:int -> impl:Bitvec.Bv.t -> float

(** [of_tables spec tables] is the mean of {!of_table} over outputs.
    @raise Invalid_argument if the table count differs from
    [Spec.no spec]. *)
val of_tables : Pla.Spec.t -> Bitvec.Bv.t array -> float

(** [of_netlist spec nl] simulates the netlist exhaustively and
    applies {!of_tables}. *)
val of_netlist : Pla.Spec.t -> Netlist.t -> float

(** Exact specification-level bounds (Section 5 of the paper), as
    rates.  [base] is fixed by the care sets; [base + min_dc] and
    [base + max_dc] bound the error rate over all DC assignments. *)
type bounds = { base : float; min_dc : float; max_dc : float }

(** [bounds spec ~o] computes the exact per-output bounds by
    word-parallel neighbour enumeration (bit-sliced neighbour
    counters). *)
val bounds : Pla.Spec.t -> o:int -> bounds

(** The scalar reference implementation of {!bounds} (the oracle the
    differential tests compare against). *)
val bounds_scalar : Pla.Spec.t -> o:int -> bounds

(** [mean_bounds spec] averages bounds over outputs. *)
val mean_bounds : Pla.Spec.t -> bounds

(** [min_rate b] and [max_rate b] are [b.base +. b.min_dc] and
    [b.base +. b.max_dc]. *)
val min_rate : bounds -> float

val max_rate : bounds -> float

(** [of_spec_assigned spec] treats a *fully specified* spec as its own
    implementation: the error rate of the function as assigned.
    @raise Invalid_argument if a DC phase remains. *)
val of_spec_assigned : Pla.Spec.t -> o:int -> float

(** [impl_table assigned ~o] extracts the dense implementation table of
    a fully specified spec's output (for use as [~impl] together with
    the {e original} incompletely specified spec).
    @raise Invalid_argument if a DC phase remains in output [o]. *)
val impl_table : Pla.Spec.t -> o:int -> Bitvec.Bv.t

(** {1 Multi-bit error model}

    The paper argues single-bit errors dominate; these entry points
    quantify how assignments tuned for single-bit masking behave under
    [k]-bit input errors (an ablation beyond the paper). *)

(** [of_table_kbit spec ~o ~impl ~k] is the fraction of (care minterm,
    k-element flip set) events that propagate; normalised by
    [C(n,k) * 2^n].  @raise Invalid_argument unless [1 <= k <= n]. *)
val of_table_kbit : Pla.Spec.t -> o:int -> impl:Bitvec.Bv.t -> k:int -> float

(** [of_tables_kbit spec tables ~k] averages over outputs. *)
val of_tables_kbit : Pla.Spec.t -> Bitvec.Bv.t array -> k:int -> float
