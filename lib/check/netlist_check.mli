(** Structural and functional analysis of gate-level netlists.

    Structural checks run over an explicit fanin {!graph} so they also
    apply to representations that — unlike {!Netlist.t}, which enforces
    topological construction — can actually contain defects:
    combinational cycles (strongly connected components via an
    iterative Tarjan), dangling gates outside every output cone,
    primary inputs driving nothing, and fanout statistics.

    Functional checking proves the netlist agrees with a spec on its
    care set.  Two exact engines: [Exhaustive] simulates all [2^ni]
    patterns word-parallel ({!Netlist.output_tables}) and counts
    care-set mismatches with fused kernel popcounts; [Bdd_backed]
    builds one BDD per output by structural traversal and counts
    mismatches symbolically ([satcount]) — the path that scales past
    dense simulation.  [Auto] picks by input count.  Both engines
    return identical diagnostics (differentially tested). *)

(** A combinational fanin graph: node ids [0 .. node_count-1],
    [inputs] the primary-input ids, [fanins.(id)] the driver ids of
    node [id], [outputs] the primary-output ids.  No topological
    assumption — cycles are representable (and detected). *)
type graph = {
  node_count : int;
  inputs : int array;
  fanins : int array array;
  outputs : int array;
}

val graph_of_netlist : Netlist.t -> graph

(** [structure g] is the structural diagnostics of [g]:
    [combinational-cycle] errors (one per non-trivial SCC or
    self-loop), [dangling-node] warnings for non-input nodes outside
    every output cone, [floating-input] warnings for inputs with no
    fanout, [bad-fanin] errors for out-of-range fanin ids, and one
    [fanout-stats] info. *)
val structure : graph -> Diag.t list

(** [check nl] is [structure (graph_of_netlist nl)]. *)
val check : Netlist.t -> Diag.t list

(** Engine for the care-set equivalence proof. *)
type equiv_engine = Auto | Exhaustive | Bdd_backed

(** Every engine once, with its CLI name. *)
val equiv_engines : (string * equiv_engine) list

(** [equiv_spec ~engine ~spec nl] proves the mapped netlist agrees
    with [spec] on every care minterm of every output:
    [arity-mismatch] errors when input/output counts differ, otherwise
    one [care-set-mismatch] error per disagreeing output (with mismatch
    count and an example minterm).  [Auto] (the default) uses
    [Exhaustive] up to 12 inputs and [Bdd_backed] beyond; either
    engine can be forced. *)
val equiv_spec :
  ?engine:equiv_engine -> spec:Pla.Spec.t -> Netlist.t -> Diag.t list
