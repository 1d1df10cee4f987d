module Spec = Spec

type pla_type = F | Fd | Fr | Fdr

type term = {
  input : Twolevel.Cube.t;
  output_chars : string;
  line : int;
  col : int;
  out_col : int;
}

type conflict = {
  c_output : int;
  c_minterm : int;
  c_first : Spec.phase;
  c_second : Spec.phase;
  c_line : int;
  c_col : int;
}

type t = {
  spec : Spec.t;
  input_names : string array;
  output_names : string array;
  ty : pla_type;
  terms : term list;
  conflicts : conflict list;
}

exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let default_names ~ni ~no =
  ( Array.init ni (fun i -> Printf.sprintf "x%d" i),
    Array.init no (fun o -> Printf.sprintf "y%d" o) )

type line =
  | Directive of string * string list
  | Term of { ins : string; outs : string; col_in : int; col_out : int }
  | Blank

(* Tokens with their 1-based starting columns in the raw line (tabs
   count as one column, like most editors' default). *)
let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    if line.[!i] = ' ' then incr i
    else begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' do
        incr i
      done;
      toks := (String.sub line start (!i - start), start + 1) :: !toks
    end
  done;
  List.rev !toks

let classify_line raw =
  let line =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  let line = String.map (function '\t' | '\r' -> ' ' | c -> c) line in
  if String.trim line = "" then Blank
  else if (String.trim line).[0] = '.' then
    match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
    | d :: args -> Directive (d, args)
    | [] -> Blank
  else
    match tokenize line with
    | [ (ins, col_in); (outs, col_out) ] -> Term { ins; outs; col_in; col_out }
    | [ (single, col_in) ] ->
        (* Single-output PLAs sometimes omit the space; split on width
           later — here treat as error since we can't know .i yet. *)
        Term { ins = single; outs = ""; col_in; col_out = 0 }
    | _ -> fail "malformed product term: %S" (String.trim line)

let pla_type_of_string = function
  | "f" -> F
  | "fd" -> Fd
  | "fr" -> Fr
  | "fdr" -> Fdr
  | s -> fail "unknown .type %S" s

(* A header directive that takes exactly one integer argument; a
   truncated or non-numeric form is a structured parse error, never an
   escaping [Failure]. *)
let int_directive d = function
  | [ v ] -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail "%s: not an integer: %S" d v)
  | [] -> fail "%s: missing argument" d
  | _ -> fail "%s: expected exactly one argument" d

(* The characters of an output column that state a phase under [ty];
   [None] is "no information", left to the type's default phase. *)
let explicit_phase ty c =
  match (c, ty) with
  | ('1' | '4'), _ -> Some Spec.On
  | ('-' | '~' | '2'), (Fd | Fdr) -> Some Spec.Dc
  | ('-' | '~' | '2'), (F | Fr) -> None
  | '0', (Fr | Fdr) -> Some Spec.Off
  | '0', (F | Fd) -> None
  | c, _ -> fail "bad output character %C" c

(* A scanned .pla text: the header and the terms in source order. *)
type scanned = {
  s_ni : int;
  s_no : int;
  s_ty : pla_type;
  s_input_names : string array;
  s_output_names : string array;
  s_terms : term list;
}

(* The one scanner both readers share: directives, header checks
   against the reader's own input limit, then every term's widths,
   input cube and output characters, in source order. *)
let scan ~max_inputs ~representation text =
  let ni = ref (-1) and no = ref (-1) in
  let ilb = ref None and ob = ref None in
  let ty = ref Fd in
  let raw_terms = ref [] in
  let ended = ref false in
  List.iteri
    (fun i raw ->
      if not !ended then
        match classify_line raw with
        | Blank -> ()
        | Directive (".i", args) -> ni := int_directive ".i" args
        | Directive (".o", args) -> no := int_directive ".o" args
        | Directive (".p", _) -> () (* informational *)
        | Directive (".ilb", names) -> ilb := Some (Array.of_list names)
        | Directive (".ob", names) -> ob := Some (Array.of_list names)
        | Directive (".type", [ v ]) -> ty := pla_type_of_string v
        | Directive (".type", _) -> fail ".type: expected exactly one argument"
        | Directive ((".e" | ".end"), _) -> ended := true
        | Directive (d, _) -> fail "unsupported directive %S" d
        | Term { ins; outs; col_in; col_out } ->
            raw_terms := (i + 1, col_in, col_out, ins, outs) :: !raw_terms)
    (String.split_on_char '\n' text);
  if !ni < 0 then fail "missing or negative .i";
  if !no < 0 then fail "missing or negative .o";
  let ni = !ni and no = !no in
  if no = 0 then fail ".o 0: at least one output required";
  if ni > max_inputs then
    fail ".i %d exceeds %s representation limit (%d)" ni representation
      max_inputs;
  let term (line, col, out_col, ins, outs) =
    if String.length ins <> ni then fail "term %S: expected %d inputs" ins ni;
    if String.length outs <> no then
      fail "term %S %S: expected %d outputs" ins outs no;
    let input =
      try Twolevel.Cube.of_string ins
      with Invalid_argument _ -> fail "term %S: bad input character" ins
    in
    (* raises on the first character no type gives a meaning *)
    String.iter (fun c -> ignore (explicit_phase !ty c)) outs;
    { input; output_chars = outs; line; col; out_col }
  in
  let s_terms = List.map term (List.rev !raw_terms) in
  let di, dd = default_names ~ni ~no in
  {
    s_ni = ni;
    s_no = no;
    s_ty = !ty;
    s_input_names =
      (match !ilb with Some a when Array.length a = ni -> a | _ -> di);
    s_output_names =
      (match !ob with Some a when Array.length a = no -> a | _ -> dd);
    s_terms;
  }

let parse_string text =
  let sc = scan ~max_inputs:20 ~representation:"dense" text in
  let ni = sc.s_ni and no = sc.s_no in
  let default = match sc.s_ty with Fr -> Spec.Dc | F | Fd | Fdr -> Spec.Off in
  let spec = Spec.create ~ni ~no ~default in
  (* Last explicit phase per (output, minterm): 0 = never explicitly
     driven, else 1 + phase code; bit 3 marks "conflict already
     recorded" so each pair reports at most once. *)
  let size = 1 lsl ni in
  let explicit = Bytes.make (no * size) '\000' in
  let phase_code = function Spec.On -> 1 | Spec.Off -> 2 | Spec.Dc -> 3 in
  let phase_of_code = function
    | 1 -> Spec.On
    | 2 -> Spec.Off
    | _ -> Spec.Dc
  in
  let conflicts = ref [] in
  let drive ~line ~col ~o ~m p =
    let idx = (o * size) + m in
    let prev = Char.code (Bytes.get explicit idx) in
    let prev_code = prev land 0x7 and reported = prev land 0x8 <> 0 in
    (if prev_code <> 0 && prev_code <> phase_code p && not reported then
       conflicts :=
         {
           c_output = o;
           c_minterm = m;
           c_first = phase_of_code prev_code;
           c_second = p;
           c_line = line;
           c_col = col;
         }
         :: !conflicts);
    let report_bit =
      if reported || (prev_code <> 0 && prev_code <> phase_code p) then 0x8
      else 0
    in
    Bytes.set explicit idx (Char.chr (phase_code p lor report_bit));
    Spec.set spec ~o ~m p
  in
  (* Textual last-write-wins: terms apply in source order. *)
  List.iter
    (fun t ->
      Twolevel.Cube.iter_minterms ~n:ni
        (fun m ->
          String.iteri
            (fun o c ->
              match explicit_phase sc.s_ty c with
              | Some p ->
                  (* Column of this output character in the source line. *)
                  let col = if t.out_col > 0 then t.out_col + o else 0 in
                  drive ~line:t.line ~col ~o ~m p
              | None -> ())
            t.output_chars)
        t.input)
    sc.s_terms;
  {
    spec;
    input_names = sc.s_input_names;
    output_names = sc.s_output_names;
    ty = sc.s_ty;
    terms = sc.s_terms;
    conflicts = List.rev !conflicts;
  }

(* ------------------------------------------------------------------ *)
(* Cover-level parsing: the scalable loader.  Product terms are kept
   as cubes instead of being expanded into a dense table, so the only
   arity limit is the cube representation's n <= 61.  Phase precedence
   on overlapping cubes is espresso's set view (on wins over dc, off
   is the complement) rather than the dense parser's textual
   last-write-wins — callers needing exact line-order resolution stay
   on [parse_string]. *)

type cover_sets =
  | Fd_sets of { on : Twolevel.Cover.t; dc : Twolevel.Cover.t }
  | Fr_sets of { on : Twolevel.Cover.t; off : Twolevel.Cover.t }

type cover_file = {
  cf_ni : int;
  cf_outputs : cover_sets list;
  cf_input_names : string array;
  cf_output_names : string array;
  cf_ty : pla_type;
}

let parse_string_covers text =
  let sc =
    scan ~max_inputs:61 (* Twolevel.Cube's mask width *)
      ~representation:"cube" text
  in
  let ni = sc.s_ni and ty = sc.s_ty in
  (* Per output: cube lists for the phases the type makes explicit
     besides the on-set: DC for f/fd/fdr, off for fr ([fdr]'s off
     cubes restate the default phase and are dropped). *)
  let on_cubes = Array.make sc.s_no [] and aux_cubes = Array.make sc.s_no [] in
  List.iter
    (fun t ->
      String.iteri
        (fun o c ->
          match (explicit_phase ty c, ty) with
          | Some Spec.On, _ -> on_cubes.(o) <- t.input :: on_cubes.(o)
          | Some Spec.Dc, _ | Some Spec.Off, Fr ->
              aux_cubes.(o) <- t.input :: aux_cubes.(o)
          | Some Spec.Off, (F | Fd | Fdr) | None, _ -> ())
        t.output_chars)
    sc.s_terms;
  let cover cubes = Twolevel.Cover.make ~n:ni (List.rev cubes) in
  let outputs =
    List.init sc.s_no (fun o ->
        let on = cover on_cubes.(o) and aux = cover aux_cubes.(o) in
        match ty with
        | F | Fd | Fdr -> Fd_sets { on; dc = aux }
        | Fr -> Fr_sets { on; off = aux })
  in
  {
    cf_ni = ni;
    cf_outputs = outputs;
    cf_input_names = sc.s_input_names;
    cf_output_names = sc.s_output_names;
    cf_ty = ty;
  }

let read_file path = In_channel.with_open_text path In_channel.input_all
let parse_file path = parse_string (read_file path)
let parse_file_covers path = parse_string_covers (read_file path)

let result parse x =
  match parse x with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  | exception Sys_error msg -> Error msg

let parse_string_res = result parse_string
let parse_file_res = result parse_file
let parse_string_covers_res = result parse_string_covers
let parse_file_covers_res = result parse_file_covers

let type_to_string = function F -> "f" | Fd -> "fd" | Fr -> "fr" | Fdr -> "fdr"

let to_string ?(ty = Fdr) spec =
  let ni = Spec.ni spec and no = Spec.no spec in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf ".i %d\n.o %d\n.type %s\n" ni no (type_to_string ty);
  (* One line per minterm that carries information for some output. *)
  let nterms = ref 0 in
  let body = Buffer.create 1024 in
  for m = 0 to (1 lsl ni) - 1 do
    let outs =
      String.init no (fun o ->
          match (Spec.get spec ~o ~m, ty) with
          | Spec.On, _ -> '1'
          | Spec.Dc, (Fd | Fdr | Fr) -> '-'
          | Spec.Dc, F -> invalid_arg "Pla.to_string: type f cannot hold DCs"
          | Spec.Off, _ -> '0')
    in
    (* Characters that merely restate the type's default carry no
       information and a line of only those is omitted. *)
    let informative =
      String.exists
        (fun c ->
          match (c, ty) with
          | '1', _ -> true
          | '-', (Fd | Fdr) -> true (* default is off *)
          | '-', (F | Fr) -> false
          | '0', (Fr | Fdr) -> true
          | '0', (F | Fd) -> false
          | _, _ -> false)
        outs
    in
    if informative then begin
      incr nterms;
      Printf.bprintf body "%s %s\n" (Bitvec.Minterm.to_string ~n:ni m) outs
    end
  done;
  Printf.bprintf buf ".p %d\n" !nterms;
  Buffer.add_buffer buf body;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf

let write_file path spec =
  let oc = open_out path in
  output_string oc (to_string spec);
  close_out oc

let to_string_covers ~ni covers =
  if covers = [] then invalid_arg "Pla.to_string_covers: no outputs";
  let no = List.length covers in
  List.iteri
    (fun o (on, dc) ->
      if Twolevel.Cover.n on <> ni || Twolevel.Cover.n dc <> ni then
        invalid_arg
          (Printf.sprintf "Pla.to_string_covers: output %d arity mismatch" o))
    covers;
  let buf = Buffer.create 1024 in
  (* collect (input cube, output chars) lines: one line per cube, with
     '1'/'-' in this output's column and '0' (no info under fd)
     elsewhere *)
  let lines = ref [] in
  List.iteri
    (fun o (on, dc) ->
      let emit ch cube =
        let outs = String.init no (fun i -> if i = o then ch else '0') in
        lines := (Twolevel.Cube.to_string ~n:ni cube, outs) :: !lines
      in
      List.iter (emit '1') (Twolevel.Cover.cubes on);
      List.iter (emit '-') (Twolevel.Cover.cubes dc))
    covers;
  let lines = List.rev !lines in
  Printf.bprintf buf ".i %d\n.o %d\n.type fd\n.p %d\n" ni no
    (List.length lines);
  List.iter (fun (ins, outs) -> Printf.bprintf buf "%s %s\n" ins outs) lines;
  Buffer.add_string buf ".e\n";
  Buffer.contents buf
