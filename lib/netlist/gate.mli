(** Gate kinds for {!Netlist} nodes.

    Primitive gates carry no physical data; [Cell] instances carry the
    standard-cell attributes the technology mapper chose, so mapped
    and unmapped netlists share one representation. *)

(** Attributes of a standard-cell instance. *)
type cell_info = {
  cell_name : string;
  tt : Logic.Truth.t;  (** function over the fanins, pin order = fanin order *)
  arity : int;
  area : float;  (** square microns (library units) *)
  delay : float;  (** pin-to-output delay, ns *)
  input_cap : float;  (** per-pin input capacitance, fF *)
}

type t =
  | Input of int  (** primary input index *)
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Cell of cell_info

(** [arity g] is the expected fanin count, or [None] when variadic
    ([And]/[Or]/[Nand]/[Nor]/[Xor]/[Xnor] accept >= 2). *)
val arity : t -> int option

(** [eval g inputs] evaluates a gate on boolean fanin values.
    @raise Invalid_argument on arity mismatch. *)
val eval : t -> bool array -> bool

(** [eval_words_at g words fanins] evaluates 63 patterns at once, one
    per bit, reading fanin [i]'s word in place from
    [words.(fanins.(i))].  The fanin count is not checked: it must
    match [arity g], as {!Netlist} ensures for its nodes. *)
val eval_words_at : t -> int array -> int array -> int

(** [name g] is a printable mnemonic. *)
val name : t -> string
