(** BLIF (Berkeley Logic Interchange Format) emission.

    Lets mapped or unmapped netlists travel to external tools
    (ABC reads this directly), mirroring how the paper moved designs
    between its tools. Gates are written as [.names] tables; mapped
    cells keep their library name in a comment. *)

(** [of_netlist ?model nl] renders a combinational BLIF model. *)
val of_netlist : ?model:string -> Netlist.t -> string

(** [write_netlist path nl] writes [of_netlist nl] to [path]. *)
val write_netlist : ?model:string -> string -> Netlist.t -> unit

exception Parse_error of string

(** [parse_string text] reads back the combinational BLIF subset this
    module emits (.model/.inputs/.outputs/.names with ON-set rows,
    defined-before-use).  Tables become {!Netlist.Gate.Cell} instances
    with unit physical data.
    @raise Parse_error on unsupported or malformed input. *)
val parse_string : string -> Netlist.t

val parse_file : string -> Netlist.t
