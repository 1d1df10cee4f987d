(** Monte-Carlo single-bit input-error injection on mapped circuits.

    Validates the analytic error-rate computation against actual
    circuit behaviour: a random care vector is applied, a random input
    flipped, the circuit evaluated twice, and the outputs compared.
    With enough trials the estimate converges to
    {!Error_rate.of_netlist}.  Trials run 63 to a machine word
    ({!Netlist.simulate_words}); the counts equal those of one scalar
    evaluation pair per trial with the same draws. *)

type result = {
  trials : int;
  propagated : int;  (** per-output propagation events observed *)
  rate : float;  (** propagated / (trials * outputs) *)
}

(** [run ~rng ~trials spec nl] injects [trials] random error events.
    Each event draws a uniform random minterm and then a uniform
    random input to flip from [rng]; it counts once per output whose
    value changes and whose correct-vector phase is a care phase.
    @raise Invalid_argument if netlist and spec input counts differ
    or [trials <= 0]. *)
val run : rng:Random.State.t -> trials:int -> Pla.Spec.t -> Netlist.t -> result

(** [count_propagated spec nl ms ~len good bad] counts the propagation
    events of one word of trials: the (pattern [p < len], output [o])
    pairs where the output words of [good] and [bad] (node words, as
    filled by {!Netlist.simulate_words}) differ at bit [p] and the
    correct vector [ms.(p)] is a care vector of [o].  Bits from [len]
    up are ignored.  {!Inject.run} counts the same way. *)
val count_propagated :
  Pla.Spec.t ->
  Netlist.t ->
  int array ->
  len:int ->
  int array ->
  int array ->
  int
