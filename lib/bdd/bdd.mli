(** Reduced ordered binary decision diagrams.

    A from-scratch substitute for the CUDD package the paper used to
    maintain and manipulate on-, off- and DC-sets.  Nodes are
    hash-consed into a manager's unique table, so semantic equality of
    functions built in the same manager is physical equality of
    handles ({!equal}).  The variable order is fixed (index order);
    dynamic reordering is not needed at the paper's problem sizes.
    Its users are the symbolic reliability analysis
    ([Analysis.Bdd_exact], [Sym]), the care-set equivalence proof of
    [Netlist_check] and the windowed don't-care extractor [Dc].

    The core is CUDD-shaped and lives in int arrays: nodes are
    (variable, low, high) triples in arrays that double when full;
    the unique table is open-addressed with linear probing and kept
    at most half full; ITE results go to a direct-mapped, lossy
    computed cache that overwrites on collision and grows with the
    node arrays up to a fixed 2{^20} entries.  Nodes are never freed.
    {!satcount_float}, {!flip_var}, {!size} and {!support} memoise
    per node through one epoch-stamped mark array in the manager, so
    no walk allocates a table.

    A manager has one writer at a time: every operation but
    {!eval_minterm} writes to it (nodes, cache entries or walk marks).
    {!eval_minterm} only reads, so any number of domains may call it
    concurrently while nothing writes.

    Handles are only meaningful with the manager that created them;
    mixing managers is not checked. *)

type man
(** A BDD manager: node arrays, unique table, computed cache, walk
    marks, variable count. *)

type t
(** A BDD handle (a function over the manager's variables). *)

(** [make_man ~nvars] creates a manager for variables [0 .. nvars-1].
    @raise Invalid_argument if [nvars < 0]. *)
val make_man : nvars:int -> man

(** [nvars man] is the number of variables. *)
val nvars : man -> int

(** Constants and variables. *)

val zero : man -> t

val one : man -> t

(** [var man i] is the function "variable [i]".
    @raise Invalid_argument if [i] is out of range. *)
val var : man -> int -> t

(** [nvar man i] is the complement of variable [i]. *)
val nvar : man -> int -> t

(** Connectives. *)

val bnot : man -> t -> t

val band : man -> t -> t -> t

val bor : man -> t -> t -> t

val bxor : man -> t -> t -> t

val ite : man -> t -> t -> t -> t

(** [equal a b] — semantic equality (hash-consing makes it O(1)). *)
val equal : t -> t -> bool

val is_zero : man -> t -> bool

val is_one : man -> t -> bool

(** [eval_minterm man f m] evaluates on the minterm encoding [m]
    (bit [i] of [m] = variable [i]).  Read-only: safe to call from
    several domains at once. *)
val eval_minterm : man -> t -> int -> bool

(** [satcount man f] is the number of satisfying assignments over all
    [nvars] variables.
    @raise Invalid_argument when the count reaches [2^62] and can no
    longer be represented as an [int] — wide supports should use
    {!satcount_float} instead. *)
val satcount : man -> t -> int

(** [size man f] is the number of distinct internal nodes of [f]
    (terminals excluded). *)
val size : man -> t -> int

(** [support man f] is the ascending list of variables [f] depends on. *)
val support : man -> t -> int list

(** Conversions. *)

(** [of_cover man cover] builds the BDD of a two-level cover. *)
val of_cover : man -> Twolevel.Cover.t -> t

(** [of_gate man g fanins] builds the output of one netlist gate over
    the BDDs of its fanins (pin order = array order) — the BDD
    counterpart of [Sat.Cnf.gate].  Variadic gates fold left from
    [fanins.(0)]; a [Cell] is the OR of its truth table's minterms.
    @raise Invalid_argument on [Input] gates. *)
val of_gate : man -> Netlist.Gate.t -> t array -> t

(** [of_bv man bv] builds the BDD of a dense characteristic vector
    (length must be [2^nvars]). *)
val of_bv : man -> Bitvec.Bv.t -> t

(** [to_bv man f] densely expands [f] (requires [nvars <= 24]). *)
val to_bv : man -> t -> Bitvec.Bv.t

(** [flip_var man f i] is the function [x -> f (x with variable i
    flipped)] — the symbolic form of the paper's 1-Hamming-distance
    neighbour shift. *)
val flip_var : man -> t -> int -> t

(** [satcount_float man f] is {!satcount} without the integer
    conversion, exact while counts fit the float mantissa (the
    internal computation is float-based either way). *)
val satcount_float : man -> t -> float

(** {1 ISOP — irredundant sum-of-products extraction}

    The Minato-Morreale algorithm: given an incompletely specified
    function as the interval [lower, upper] (lower = on-set,
    upper = on-set ∪ DC-set), produce an irredundant cube cover [c]
    with [lower <= c <= upper], entirely symbolically: a cover for
    functions too wide for the dense espresso (see
    [examples/symbolic_analysis.ml]). *)

(** [isop man ~lower ~upper] is [(cover, cover_bdd)].
    @raise Invalid_argument if [lower] is not contained in [upper]. *)
val isop : man -> lower:t -> upper:t -> Twolevel.Cover.t * t
