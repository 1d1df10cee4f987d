module Gate = Netlist.Gate

let net id = Printf.sprintf "n%d" id

let header buf model inputs outputs =
  Printf.bprintf buf ".model %s\n" model;
  Printf.bprintf buf ".inputs %s\n" (String.concat " " inputs);
  Printf.bprintf buf ".outputs %s\n" (String.concat " " outputs)

(* Single-output truth table as .names cover lines (one line per ON
   row; fine for the <= 4-input gates we emit). *)
let names buf ins out rows =
  Printf.bprintf buf ".names %s %s\n" (String.concat " " ins) out;
  List.iter (fun (pattern, v) ->
      if v then Printf.bprintf buf "%s 1\n" pattern)
    rows

let gate_rows g arity =
  let tt idx =
    Gate.eval g (Array.init arity (fun i -> idx land (1 lsl i) <> 0))
  in
  List.init (1 lsl arity) (fun idx ->
      ( String.init arity (fun i -> if idx land (1 lsl i) <> 0 then '1' else '0'),
        tt idx ))

let of_netlist ?(model = "rdca") nl =
  let buf = Buffer.create 4096 in
  let ni = Netlist.ni nl in
  let inputs = List.init ni (fun i -> net i) in
  (* Distinct output names: an output may alias an internal net. *)
  let outs = Netlist.outputs nl in
  let out_names = Array.to_list (Array.mapi (fun o _ -> Printf.sprintf "po%d" o) outs) in
  header buf model inputs out_names;
  Netlist.iter_nodes nl (fun id g fanins ->
      match g with
      | Gate.Const b ->
          Printf.bprintf buf ".names %s\n%s" (net id) (if b then "1\n" else "")
      | Gate.Cell c ->
          Printf.bprintf buf "# cell %s\n" c.Gate.cell_name;
          names buf
            (Array.to_list (Array.map net fanins))
            (net id)
            (List.init (1 lsl c.Gate.arity) (fun idx ->
                 ( String.init c.Gate.arity (fun i ->
                       if idx land (1 lsl i) <> 0 then '1' else '0'),
                   Logic.Truth.eval c.Gate.tt idx )))
      | g ->
          names buf
            (Array.to_list (Array.map net fanins))
            (net id)
            (gate_rows g (Array.length fanins)));
  Array.iteri
    (fun o id ->
      (* buffer tying the output name to its driving net *)
      names buf [ net id ] (Printf.sprintf "po%d" o) [ ("1", true) ])
    outs;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

let write_netlist ?model path nl = write path (of_netlist ?model nl)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           match String.index_opt l '#' with
           | Some i -> String.sub l 0 i
           | None -> l)
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  let tokens l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  (* first pass: group .names blocks *)
  let inputs = ref [] and outputs = ref [] in
  let blocks = ref [] (* (ins, out, rows) in order *) in
  let current = ref None in
  let flush () =
    match !current with
    | Some (ins, out, rows) ->
        blocks := (ins, out, List.rev rows) :: !blocks;
        current := None
    | None -> ()
  in
  List.iter
    (fun line ->
      match tokens line with
      | ".model" :: _ -> ()
      | ".inputs" :: names -> inputs := !inputs @ names
      | ".outputs" :: names -> outputs := !outputs @ names
      | ".names" :: signals -> (
          flush ();
          match List.rev signals with
          | out :: rev_ins -> current := Some (List.rev rev_ins, out, [])
          | [] -> fail ".names without signals")
      | [ ".end" ] -> flush ()
      | d :: _ when String.length d > 0 && d.[0] = '.' ->
          fail "unsupported directive %s" d
      | row -> (
          match (!current, row) with
          | Some (ins, out, rows), [ pattern; "1" ] ->
              current := Some (ins, out, pattern :: rows)
          | Some (ins, out, rows), [ "1" ] when ins = [] ->
              current := Some (ins, out, "1" :: rows)
          | Some _, _ -> fail "unsupported row %S (only ON-set rows)" line
          | None, _ -> fail "row outside .names: %S" line))
    lines;
  flush ();
  let blocks = List.rev !blocks in
  let nl = Netlist.create ~ni:(List.length !inputs) in
  let env = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace env name i) !inputs;
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some id -> id
    | None -> fail "signal %s used before definition" name
  in
  List.iter
    (fun (ins, out, rows) ->
      let arity = List.length ins in
      if arity > Logic.Truth.max_vars then
        fail "table %s: too many inputs (%d)" out arity;
      let id =
        if arity = 0 then
          Netlist.add nl (Gate.Const (rows <> [])) [||]
        else begin
          let tt = ref 0 in
          List.iter
            (fun pattern ->
              if String.length pattern <> arity then
                fail "table %s: row width mismatch" out;
              let cube = Twolevel.Cube.of_string pattern in
              Twolevel.Cube.iter_minterms ~n:arity
                (fun idx -> tt := !tt lor (1 lsl idx))
                cube)
            rows;
          let fanins = Array.of_list (List.map lookup ins) in
          Netlist.add nl
            (Gate.Cell
               {
                 Gate.cell_name = "names";
                 tt = !tt;
                 arity;
                 area = 1.0;
                 delay = 1.0;
                 input_cap = 1.0;
               })
            fanins
        end
      in
      Hashtbl.replace env out id)
    blocks;
  Netlist.set_outputs nl
    (Array.of_list (List.map lookup !outputs));
  nl

let parse_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_string text
