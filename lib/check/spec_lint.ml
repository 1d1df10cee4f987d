module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bitvec.Bv.Kernel

(* Does any output's phase depend on input [j]?  The phase planes must
   be invariant under the neighbour permutation m -> m xor 2^j. *)
let input_used spec j =
  let no = Spec.no spec in
  let rec loop o =
    if o >= no then false
    else
      let on, off, _ = Spec.phase_planes spec ~o in
      if
        (not (Bv.equal (K.neighbor ~j on) on))
        || not (Bv.equal (K.neighbor ~j off) off)
      then true
      else loop (o + 1)
  in
  loop 0

let unused_inputs spec =
  List.filter
    (fun j -> not (input_used spec j))
    (List.init (Spec.ni spec) Fun.id)

let outputs_equal spec o1 o2 =
  let on1, off1, _ = Spec.phase_planes spec ~o:o1 in
  let on2, off2, _ = Spec.phase_planes spec ~o:o2 in
  Bv.equal on1 on2 && Bv.equal off1 off2

let lint spec =
  let ni = Spec.ni spec and no = Spec.no spec in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Unused inputs. *)
  List.iter
    (fun j ->
      add
        (Diag.warn ~code:"unused-input" ~loc:(Diag.Input_var j)
           "no output depends on input x%d" j))
    (unused_inputs spec);
  (* Constant / free outputs. *)
  for o = 0 to no - 1 do
    let on = Spec.on_count spec ~o
    and off = Spec.off_count spec ~o
    and dc = Spec.dc_count spec ~o in
    if on = 0 && off = 0 then
      add
        (Diag.warn ~code:"free-output" ~loc:(Diag.Output o)
           "output y%d is entirely don't-care" o)
    else if off = 0 then
      add
        (Diag.warn ~code:"constant-output" ~loc:(Diag.Output o)
           "output y%d is never required off (constant 1 realises it%s)" o
           (if dc > 0 then Printf.sprintf "; %d DC minterm(s)" dc else ""))
    else if on = 0 then
      add
        (Diag.warn ~code:"constant-output" ~loc:(Diag.Output o)
           "output y%d is never required on (constant 0 realises it%s)" o
           (if dc > 0 then Printf.sprintf "; %d DC minterm(s)" dc else ""))
  done;
  (* Duplicate outputs (identical phase tables). *)
  for o2 = 1 to no - 1 do
    let rec first o1 =
      if o1 >= o2 then ()
      else if outputs_equal spec o1 o2 then
        add
          (Diag.warn ~code:"duplicate-output" ~loc:(Diag.Output o2)
             "output y%d has the same phase table as y%d" o2 o1)
      else first (o1 + 1)
    in
    first 0
  done;
  (* DC-density statistics. *)
  let size = Spec.size spec in
  let total = size * no in
  let ons = ref 0 and dcs = ref 0 in
  for o = 0 to no - 1 do
    ons := !ons + Spec.on_count spec ~o;
    dcs := !dcs + Spec.dc_count spec ~o
  done;
  let pct x = 100.0 *. float_of_int x /. float_of_int total in
  add
    (Diag.info ~code:"dc-density" ~loc:Diag.Global
       "%d inputs, %d outputs: on %.1f%%, off %.1f%%, DC %.1f%%" ni no
       (pct !ons)
       (pct (total - !ons - !dcs))
       (pct !dcs));
  List.rev !diags

let phase_name = function
  | Spec.On -> "on"
  | Spec.Off -> "off"
  | Spec.Dc -> "dc"

let split_conflicts (pla : Pla.t) =
  List.partition
    (fun (c : Pla.conflict) ->
      match (c.Pla.c_first, c.Pla.c_second) with
      | Spec.On, Spec.Off | Spec.Off, Spec.On -> true
      | _ -> false)
    pla.Pla.conflicts

let overlap_errors pla =
  List.map
    (fun (c : Pla.conflict) ->
      Diag.error ~code:"on-off-overlap"
        ~loc:(Diag.Term { line = c.Pla.c_line; col = c.Pla.c_col })
        "minterm %d of output y%d is asserted both on and off (term at line \
         %d drives it %s over %s)"
        c.Pla.c_minterm c.Pla.c_output c.Pla.c_line
        (phase_name c.Pla.c_second)
        (phase_name c.Pla.c_first))
    (fst (split_conflicts pla))

let lint_pla (pla : Pla.t) =
  let _, contradictory = split_conflicts pla in
  let overlap_diags = overlap_errors pla in
  let contradictory_diags =
    List.map
      (fun (c : Pla.conflict) ->
        Diag.warn ~code:"contradictory-term"
          ~loc:(Diag.Term { line = c.Pla.c_line; col = c.Pla.c_col })
          "minterm %d of output y%d is redeclared %s after %s (term at line %d)"
          c.Pla.c_minterm c.Pla.c_output
          (phase_name c.Pla.c_second)
          (phase_name c.Pla.c_first)
          c.Pla.c_line)
      contradictory
  in
  (* Duplicate term lines: identical input cube and output column. *)
  let seen = Hashtbl.create 64 in
  let dup_diags =
    List.filter_map
      (fun (t : Pla.term) ->
        let key =
          ( Twolevel.Cube.mask0 t.Pla.input,
            Twolevel.Cube.mask1 t.Pla.input,
            t.Pla.output_chars )
        in
        match Hashtbl.find_opt seen key with
        | Some first_line ->
            Some
              (Diag.warn ~code:"duplicate-term"
                 ~loc:(Diag.Term { line = t.Pla.line; col = t.Pla.col })
                 "product term duplicates line %d" first_line)
        | None ->
            Hashtbl.add seen key t.Pla.line;
            None)
      pla.Pla.terms
  in
  Diag.cap ~limit:50 overlap_diags
  @ Diag.cap ~limit:50 contradictory_diags
  @ Diag.cap ~limit:50 dup_diags
  @ lint pla.Pla.spec
