(** Testability verdicts as {!Check.Diag} diagnostics.

    Severity contract, extending the [rdca check] catalog:
    - [untestable-fault] ({e warning}, node location): the class
      representative admits no test; the line is redundant logic.
      Flood-controlled through {!Check.Diag.cap} (default 20,
      overridable via [Check.Diag.set_max_diags]).
    - [inadmissible-output] ({e error}, output location): an output
      stem stuck-at fault is untestable — the output function is
      constant, so the circuit cannot be distinguished from a failed
      one and is inadmissible under stuck-at defects (exit 1 in the
      CLI).
    - [atpg-backend-mismatch] ({e error}, global): the
      [Differential] backend saw SAT and exhaustive simulation
      disagree on at least one verdict.
    - [fault-coverage] ({e info}, global): summary line. *)

val diagnostics : Netlist.t -> Engine.report -> Check.Diag.t list
