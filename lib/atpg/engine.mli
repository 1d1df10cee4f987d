(** SAT-based stuck-at test generation over collapsed fault classes.

    Each class representative gets a good-vs-faulty {e miter}: the
    healthy circuit and a copy with the fault's line pinned to its
    stuck value share the primary inputs, and the miter output ORs the
    XOR of every output pair the fault can reach.  The fault is
    {e testable} iff the miter is satisfiable, and the satisfying
    assignment is a test vector; an UNSAT answer certifies the fault
    {e untestable} — the line is redundant, since the faulty circuit
    computes the same function.

    Backends: [Sat_engine] builds the miter in CNF and asks
    {!Sat.Solver}; [Exhaustive] simulates all [2^ni] patterns
    word-parallel (63 per word) and is exact for [ni <= 20]; [Auto]
    picks [Exhaustive] below the cutoff and [Sat_engine] above;
    [Differential] runs SAT {e and} [Exhaustive] on every class and
    records verdict disagreements, the same audit shape as
    [Dc.analyze].  Classes are analysed through [Parallel.Pool] with
    one fresh solver per fault, so results are bit-identical at every
    job count. *)

type backend = Auto | Sat_engine | Exhaustive | Differential

(** Every backend once, with its CLI/JSON name. *)
val backends : (string * backend) list

val backend_name : backend -> string

type config = {
  backend : backend;
  collapse : Fault.mode;
  auto_cutoff : int;
      (** [Auto] uses [Exhaustive] when [ni <= auto_cutoff] *)
}

val default_config : config
(** [Auto] backend, [Equivalence] collapsing, cutoff 12. *)

type verdict = Testable | Untestable

val verdict_name : verdict -> string

type fault_result = {
  rep : Fault.t;  (** class representative that was analysed *)
  members : Fault.t list;  (** the whole collapsed class *)
  class_size : int;
  verdict : verdict;
  witness : int option;
      (** a detecting input minterm when testable and [ni <= 62] *)
  via_dominance : bool;
      (** verdict inherited from a dominated class, not analysed
          directly *)
  agree : bool option;
      (** [Differential] only: both backends returned this verdict *)
}

type report = {
  ni : int;
  backend : backend;  (** the configured backend *)
  collapse : Fault.mode;
  total_faults : int;  (** uncollapsed universe size *)
  classes : int;
  results : fault_result list;  (** canonical class order *)
  testable : int;  (** faults (not classes) with a test *)
  untestable : int;
  coverage : float;  (** testable / total, 1.0 for an empty universe *)
  collapse_ratio : float;  (** total_faults / classes *)
  disagreements : int;  (** [Differential] verdict mismatches *)
}

val analyze : ?config:config -> Netlist.t -> report
(** Collapse the universe and decide every class.
    @raise Invalid_argument if [Exhaustive] or [Differential] is forced
    with [ni > 20]. *)

val dead_sites : ?config:config -> Netlist.t -> int list -> int list
(** [dead_sites ?config nl sites] is the nodes of [sites], in order,
    whose stem stuck-at-0 and stuck-at-1 faults are both untestable:
    no value forced at the node ever reaches an output.  Each stem
    fault is decided on its own through the backend {!analyze} would
    use, so the verdicts are those {!verdict_table} gives, without
    collapsing or deciding the rest of the universe.  [sites] must be
    gate nodes (not inputs or constants).
    @raise Invalid_argument as {!analyze}. *)

val untestable_classes : report -> fault_result list

val verdict_table : report -> (Fault.t, fault_result) Hashtbl.t
(** Every member fault of every class, mapped to its class result. *)

val fault_result_to_json : fault_result -> Rdca_json.Jsonout.t

val report_to_json : report -> Rdca_json.Jsonout.t
