(** AIG optimisation passes.

    [balance] is the depth-reduction pass ABC's [balance] performs:
    maximal AND trees are re-associated into delay-balanced trees
    (Huffman combination on node levels).  [cleanup] rebuilds the
    graph keeping only the cones of the outputs.  Both preserve the
    functions computed at the outputs. *)

(** [balance t] is a functionally equivalent AIG with re-associated
    AND trees; its depth never exceeds [depth t] on tree-structured
    logic and usually shrinks. *)
val balance : Aig_core.t -> Aig_core.t

(** [cleanup t] drops AND nodes not reachable from any output. *)
val cleanup : Aig_core.t -> Aig_core.t
