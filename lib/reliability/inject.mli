(** Gate-level fault injection on mapped netlists.

    Where {!Fault_sim} models the paper's reliability metric — a
    single-bit error on a {e primary input} — this module injects
    faults at arbitrary internal nodes of a {!Netlist.t}: permanent
    stuck-at-0/1 defects and transient single-event bit flips.  Event
    counting follows {!Fault_sim}'s conventions: the correct vector
    must be a care vector of the specification's output for the event
    to count, and rates are normalised per (event, output) pair. *)

(** Fault kinds at a node.  [Transient] inverts the node's correct
    value for the duration of one evaluation (a single-event upset);
    the stuck-at kinds force it regardless of the inputs. *)
type kind = Stuck_at_0 | Stuck_at_1 | Transient

(** A fault site: [node] is a netlist node id. *)
type fault = { node : int; kind : kind }

(** [kind_name k] is ["sa0"], ["sa1"] or ["transient"] — the
    canonical serialisation used by campaign JSON records. *)
val kind_name : kind -> string

(** [all_kinds] is [[Stuck_at_0; Stuck_at_1; Transient]]. *)
val all_kinds : kind list

(** [sites nl] is the list of injectable sites: every non-input,
    non-constant node (the internal gates), in topological order. *)
val sites : Netlist.t -> int list

(** [apply k v] is the faulty value of a node whose correct value is
    [v]. *)
val apply : kind -> bool -> bool

(** {1 Test oracles}

    Scalar and exhaustive reference paths for {!run}; nothing in the
    libraries calls them. *)

(** [eval_minterm nl fault m] evaluates the netlist on minterm [m]
    with [fault] active (one scalar pass,
    {!Netlist.eval_minterm_with_override}).
    @raise Invalid_argument on a bad node id. *)
val eval_minterm : Netlist.t -> fault -> int -> bool array

(** [faulty_tables nl fault] is [Netlist.output_tables] under the
    fault (word-parallel exhaustive simulation,
    {!Netlist.output_tables_with_fault}).
    @raise Invalid_argument on a bad node id or [ni > 20]. *)
val faulty_tables : Netlist.t -> fault -> Bitvec.Bv.t array

(** [exact_rate spec nl fault] is the exact propagation rate of the
    fault: the fraction of (care minterm, output) pairs whose value
    changes under the fault, normalised by [2^n] events per output and
    averaged over outputs — the gate-fault analogue of
    {!Error_rate.of_netlist}.
    @raise Invalid_argument if netlist and spec input counts differ or
    the node id is bad. *)
val exact_rate : Pla.Spec.t -> Netlist.t -> fault -> float

(** {1 Monte-Carlo} *)

(** Monte-Carlo result, as in {!Fault_sim}. *)
type result = { trials : int; propagated : int; rate : float }

(** [run ~rng ~trials spec nl fault] samples [trials] uniform random
    minterms, one draw from [rng] per trial; each event counts once
    per output whose correct vector is a care vector and whose value
    changes under the fault ({!Fault_sim.count_propagated}).
    [rate = propagated / (trials * outputs)], converging to
    {!exact_rate}.  Trials run 63 to a machine word: one good pass,
    then the fault site's word is forced or flipped and only the nodes
    after it are evaluated again.  The counts equal those of the
    scalar loop over {!eval_minterm} with the same draws.
    @raise Invalid_argument if netlist and spec input counts differ,
    [trials <= 0], or the node id is bad. *)
val run :
  rng:Random.State.t ->
  trials:int ->
  Pla.Spec.t ->
  Netlist.t ->
  fault ->
  result
