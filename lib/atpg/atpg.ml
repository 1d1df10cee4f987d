(** Static stuck-at testability analysis: fault universe and
    structural collapsing ({!Fault}), SAT/exhaustive test generation
    ({!Engine}), redundancy removal from untestable faults
    ({!Redundancy}), SCOAP heuristics ({!Scoap}) and diagnostic
    reporting ({!Testability_check}). *)

module Fault = Fault
module Engine = Engine
module Scoap = Scoap
module Redundancy = Redundancy
module Testability_check = Testability_check
