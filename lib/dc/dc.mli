(** Network don't-care static analysis: windowed SDC/ODC extraction.

    For each internal node [v], the analysis extracts a {!Window}
    around [v], builds the window miter (the fanout side duplicated
    with [v] complemented) and computes, over the [2^arity] local
    fanin patterns of [v]:

    - {e satisfiability don't cares} (SDC): patterns no assignment of
      the window leaves can produce;
    - {e observability don't cares} (ODC): producible patterns at
      which complementing [v] never changes any window root.

    Two exact engines answer the window queries.  [Sat_engine] is a
    CDCL sweep over the miter CNF, two assumption queries per pattern;
    it is the reference.  [Auto] simulates first: a simulated pattern
    that reaches [p] rules out an SDC at [p], and one that also flips
    a root rules out an ODC, so only the patterns simulation leaves
    open go to the solver, and every reported don't care is still an
    UNSAT answer (windows of at most [auto_cutoff] leaves are
    simulated exhaustively and need no solver).  [Differential] runs
    both and flags any disagreement.  Windowing makes both
    conservative: every reported pattern is a true network don't care
    (DESIGN.md §13), unlike {!Rdca_core.Decompose} which needs the
    full [2^ni] simulation.

    {!optimize} feeds the recovered DCs to the paper's assignment
    machinery: each node's local function becomes a 1-output
    {!Pla.Spec} whose DC set is the recovered mask, an {!Rdca_core.Assign}
    strategy re-assigns it, and the node is rewritten in place
    ([Gate.Cell]).  Nodes are processed one at a time against the
    current netlist, so every rewrite is individually
    function-preserving and the sweep composes soundly. *)

(** Engine selection.  [Auto] simulates the window exhaustively when
    it has at most [auto_cutoff] leaves.  Beyond, it simulates random
    words seeded from the centre id (so the result and the solver work
    do not depend on the job count), then asks the SAT solver only
    about the patterns still open, simulating each satisfying model
    with its distance-1 leaf flips before the next query.
    [Sat_engine] answers every pattern with the solver.  [Differential]
    runs both and compares bit-identically. *)
type backend = Auto | Sat_engine | Differential

(** Every backend once, with its CLI/JSON name. *)
val backends : (string * backend) list

val backend_name : backend -> string

type config = {
  depth : int;  (** window TFI/TFO depth (default 2) *)
  backend : backend;  (** default [Auto] *)
  auto_cutoff : int;
      (** [Auto] simulates windows with at most this many leaves
          exhaustively, [2^leaves] patterns (default 12) *)
  max_arity : int;
      (** skip nodes with more fanins (default {!Logic.Truth.max_vars}) *)
}

val default_config : config

(** Per-node analysis result.  [sdc]/[odc] are disjoint bitmasks over
    the [2^arity] local patterns, indexed as in {!Logic.Truth}. *)
type node_report = {
  node : int;
  gate_name : string;
  arity : int;
  n_leaves : int;
  n_members : int;
  n_roots : int;
  sdc : int;
  odc : int;
  agree : bool option;
      (** [Differential] only: did the engines match?  On a mismatch
          the masks are intersected (still flagged as a failure). *)
  sat_queries : int;
      (** solver calls made for this window, over every engine that
          ran; 0 when simulation decided it *)
}

type report = {
  nodes : node_report list;  (** analyzed nodes, ascending id *)
  analyzed : int;
  skipped : int;  (** candidates over [max_arity] *)
  nodes_with_dc : int;
  sdc_patterns : int;  (** total SDC patterns over all nodes *)
  odc_patterns : int;
  disagreements : int;  (** nonzero only under [Differential] *)
  sim_decided : int;  (** nodes whose window needed no solver call *)
  sat_queries : int;  (** solver calls over all nodes *)
}

(** [analyze ?config nl] computes the window don't cares of
    every internal node (windows are independent, so the sweep is
    pool-parallel and bit-identical at any job count). *)
val analyze : ?config:config -> Netlist.t -> report

(** [masks_of nl ~config v] is [(sdc, odc)] for one node — the unit
    the engines are differentially tested on.
    @raise Invalid_argument if [v] is a primary input. *)
val masks_of : Netlist.t -> config:config -> int -> int * int

(** How {!optimize} assigns the recovered DC patterns: the paper's
    Figure 3 ranking, Figure 7 complexity filter, or complete
    assignment (every non-tied DC to its majority phase).  Patterns
    left unassigned keep the node's current value. *)
type strategy = Ranking of float | Lcf of float | Complete

val strategy_name : strategy -> string

type opt_result = {
  netlist : Netlist.t;  (** rewritten copy; the input is not mutated *)
  opt_report : report;  (** the analysis observed during the sweep *)
  rewritten : int list;  (** ids whose truth table actually changed *)
}

(** [optimize ?config ?strategy nl] sweeps the nodes in topological
    order, recomputing each window on the current netlist and
    rewriting the node's function on its DC patterns.  The result
    computes exactly the same primary-output functions as [nl]. *)
val optimize : ?config:config -> ?strategy:strategy -> Netlist.t -> opt_result

(** JSON forms of the reports (for [--json] and the CI artifact). *)

val report_to_json : report -> Rdca_json.Jsonout.t

val opt_result_to_json : opt_result -> Rdca_json.Jsonout.t
