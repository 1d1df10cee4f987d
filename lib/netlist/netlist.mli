(** Combinational gate-level netlists.

    Nodes are appended in topological order (every fanin id is smaller
    than the node's id — enforced at construction), which makes
    simulation and timing single linear passes.  The same type holds
    technology-independent netlists (primitive gates) and mapped
    netlists ([Gate.Cell] instances). *)

module Gate = Gate

type t

(** [create ~ni] starts a netlist with [ni] primary inputs, which
    occupy node ids [0 .. ni-1]. *)
val create : ni:int -> t

(** [ni t] is the primary input count; [node_count t] the total number
    of nodes (inputs included). *)
val ni : t -> int

val node_count : t -> int

(** [add t gate fanins] appends a node and returns its id.
    @raise Invalid_argument if a fanin id is out of range (>= the new
    node's id) or the gate/fanin arity mismatch. *)
val add : t -> Gate.t -> int array -> int

(** [set_outputs t ids] declares the primary outputs.
    @raise Invalid_argument on a bad id. *)
val set_outputs : t -> int array -> unit

val outputs : t -> int array

val no : t -> int

(** [copy t] is an independent netlist: further {!add} /
    {!replace_gate} / {!set_outputs} on either side do not affect the
    other.  Node records are immutable, so this is a shallow (cheap)
    copy. *)
val copy : t -> t

(** [gate t id] and [fanins t id] inspect a node. *)
val gate : t -> int -> Gate.t

val fanins : t -> int -> int array

(** [iter_nodes t f] visits non-input nodes in topological order. *)
val iter_nodes : t -> (int -> Gate.t -> int array -> unit) -> unit

(** [eval t inputs] evaluates all outputs on one input vector. *)
val eval : t -> bool array -> bool array

(** [eval_minterm t m] evaluates on the minterm encoding of the
    inputs (bit [i] = input [i]). *)
val eval_minterm : t -> int -> bool array

(** [eval_with_override t ~override inputs] is {!eval} except that
    every node's value — primary inputs included — is passed through
    [override id value] before being stored, so downstream nodes see
    the overridden value.  The identity function reproduces {!eval};
    forcing or flipping one node's value injects a gate-level fault.
    A scalar test oracle for the word-parallel fault passes
    ({!simulate_words} with [~after]); nothing in the libraries calls
    it. *)
val eval_with_override :
  t -> override:(int -> bool -> bool) -> bool array -> bool array

(** [eval_minterm_with_override t ~override m] is
    {!eval_with_override} on the minterm encoding of the inputs (a
    test oracle, like it). *)
val eval_minterm_with_override :
  t -> override:(int -> bool -> bool) -> int -> bool array

(** {1 Word-parallel simulation}

    63 patterns per machine word, one per bit: [words.(id)] holds the
    word of node [id], in an array of at least {!node_count} entries. *)

(** [pack_minterms t ms ~len words] writes the input words: bit [p] of
    [words.(i)] is input [i] of minterm [ms.(p)] for [p < len], and
    the bits from [len] up are 0.  Other entries of [words] are left
    alone. *)
val pack_minterms : t -> int array -> len:int -> int array -> unit

(** [simulate_words t words] fills the word of every non-input node
    from the input words already in [words] (see {!pack_minterms}).
    With [~after:id] it fills only the nodes above [id] — the faulty
    pass: the caller holds the good words of the nodes up to [id] and
    has forced or flipped [words.(id)].  Bits above the patterns in
    use may hold anything; readers mask them off. *)
val simulate_words : ?after:int -> t -> int array -> unit

(** [simulate_all t visit] runs {!simulate_words} over all [2^ni]
    patterns, 63 at a time: [visit ~base ~chunk words] sees every
    node's word over minterms [base .. base + chunk - 1], pattern [p]
    at bit [p].
    @raise Invalid_argument when [ni > 20]. *)
val simulate_all : t -> (base:int -> chunk:int -> int array -> unit) -> unit

(** [output_tables t] simulates all [2^ni] patterns word-parallel and
    returns one characteristic bit-vector per output.
    @raise Invalid_argument when [ni > 20]. *)
val output_tables : t -> Bitvec.Bv.t array

(** [output_tables_with_fault t ~node f] is {!output_tables} with
    [node]'s simulation word [w] replaced by [f w] (63 patterns per
    bit) and the nodes after it re-evaluated: the exhaustive tables of
    a single-node fault.
    @raise Invalid_argument on a bad node id or [ni > 20]. *)
val output_tables_with_fault :
  t -> node:int -> (int -> int) -> Bitvec.Bv.t array

(** [signal_probs t] is the exact probability of each *node* being 1
    under uniform random inputs (exhaustive; [ni <= 20]). *)
val signal_probs : t -> float array

(** Statistics. *)

(** [gate_count t] counts non-input, non-constant nodes. *)
val gate_count : t -> int

(** [area t] sums [Cell] areas; primitive gates count via
    [~primitive_area] (default 1.0 per gate, inputs/consts 0). *)
val area : ?primitive_area:float -> t -> float

(** [depth t] is the maximum logic depth in gate levels. *)
val depth : t -> int

(** [delay t] is the critical-path delay using cell delays
    ([~primitive_delay], default 1.0, for unmapped gates). *)
val delay : ?primitive_delay:float -> t -> float

(** [dynamic_power t] is  sum over nets of
    (switching activity x driven capacitance), with activity
    [2 p (1-p)] from exact signal probabilities and capacitance the
    sum of driven [Cell] pin caps ([~primitive_cap] default 1.0 per
    driven primitive pin).  A technology-independent dynamic power
    proxy in library units. *)
val dynamic_power : ?primitive_cap:float -> t -> float

(** [pp] prints a readable listing. *)
val pp : Format.formatter -> t -> unit

(** [replace_gate t id gate] swaps a node's gate in place; the fanins
    are kept, so the new gate must accept the same arity.
    @raise Invalid_argument on inputs, arity mismatch or bad id. *)
val replace_gate : t -> int -> Gate.t -> unit
