module Diag = Diag
module Spec_lint = Spec_lint
module Cover_check = Cover_check
module Netlist_check = Netlist_check

let implementation ?equiv ~spec ~covers nl =
  Cover_check.check_covers ~spec covers
  @ Netlist_check.check nl
  @ Netlist_check.equiv_spec ?engine:equiv ~spec nl
