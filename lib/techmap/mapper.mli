(** Cut-based technology mapping of AIGs onto the cell library.

    The mapper enumerates 4-feasible cuts, matches their functions
    against permutation variants of the library cells (output polarity
    handled with inverters), and covers the graph with a dynamic
    program whose cost depends on the optimisation mode:

    - [Delay]: minimise arrival time (cell pin-to-pin delays),
      tie-break on area flow — Design Compiler's
      ["set_max_delay 0"] regime in the paper;
    - [Area]: minimise area flow — ["compile -area_effort high"];
    - [Power]: minimise activity-weighted area flow (switching
      activity from exact signal probabilities) —
      ["set_max_leakage_power 0; set_max_dynamic_power 0"].

    Every AND node also carries a structural AND2(+INV) fallback, so
    mapping always succeeds regardless of cut matching coverage. *)

type mode = Delay | Area | Power

(** [map ~mode ~lib aig] returns the mapped netlist.
    @raise Invalid_argument when [Stdcell.validate lib] reports a
    problem. *)
val map : mode:mode -> lib:Stdcell.t list -> Aig.t -> Netlist.t

(** Every mode once, with its CLI/JSON name. *)
val modes : (string * mode) list

(** [mode_name m] is ["delay"], ["area"] or ["power"]. *)
val mode_name : mode -> string
