(** Stuck-at fault universe and structural collapsing.

    A single stuck-at fault pins one {e line} of the netlist to a
    constant: either the {e stem} (the output of a gate, as seen by
    every reader) or one {e branch} (a single fanin pin of a single
    gate, leaving the other readers of the same driver healthy).  The
    universe enumerates both polarities on every pin of every gate
    node; primary inputs and constant gates contribute no stem faults
    (a constant's stem fault of the same polarity is the circuit
    itself), but branch pins fed by them are included.

    Structural collapsing shrinks the universe before any test
    generation runs.  {e Equivalence} rules merge faults with
    provably identical faulty functions (e.g. any AND input stuck-at-0
    is indistinguishable from the AND output stuck-at-0);
    {e dominance} rules additionally record one-directional
    implications (any test for an AND branch stuck-at-1 also detects
    the stem stuck-at-1).  Dominance is only sound for {e testable}
    verdicts — an untestable dominated fault says nothing about the
    dominator — so dominated classes carry an [implied_by] hint that
    the engine may use to inherit a witness, falling back to direct
    analysis when the hint does not resolve. *)

(** Which line of the node the fault sits on. *)
type pin = Stem  (** the gate output, affecting every reader *)
         | Branch of int  (** fanin pin [j] of this gate only *)

type t = { node : int; pin : pin; stuck : bool }
(** The fault: [pin] of gate [node] stuck at [stuck]. *)

val compare : t -> t -> int
(** Total order: by node, then stem before branches, then polarity. *)

val pin_to_string : pin -> string

val to_string : t -> string
(** E.g. ["node 7 stem s-a-1"] or ["node 7 pin 2 s-a-0"]. *)

val universe : Netlist.t -> t array
(** All faults of the netlist in canonical (node, pin, polarity)
    order.  Stems of [Input]/[Const] nodes are excluded; branch pins
    are enumerated on every gate node regardless of what drives
    them. *)

(** Collapsing strength. *)
type mode =
  | No_collapse  (** every fault is its own class *)
  | Equivalence  (** merge structurally equivalent faults *)
  | Dominance
      (** [Equivalence] plus [implied_by] dominance hints on stem
          classes *)

(** Every mode once, with its CLI/JSON name. *)
val modes : (string * mode) list

val mode_name : mode -> string

type cls = {
  rep : t;  (** representative (smallest fault in canonical order) *)
  members : t list;  (** every fault of the class, in canonical order *)
  implied_by : int option;
      (** index of a class whose testability implies this one's (with
          the same witness); [None] for independent classes *)
}

type collapsed = { classes : cls array; total : int }
(** [classes] in canonical order of their representatives; [total] is
    the size of the uncollapsed universe. *)

val collapse : ?mode:mode -> Netlist.t -> collapsed
(** Partition {!universe} into collapsing classes.  Default mode is
    [Equivalence]. *)
