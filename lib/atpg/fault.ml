module Gate = Netlist.Gate

type pin = Stem | Branch of int

type t = { node : int; pin : pin; stuck : bool }

let pin_rank = function Stem -> 0 | Branch j -> 1 + j

let compare a b =
  let c = Stdlib.compare a.node b.node in
  if c <> 0 then c
  else
    let c = Stdlib.compare (pin_rank a.pin) (pin_rank b.pin) in
    if c <> 0 then c else Stdlib.compare a.stuck b.stuck

let pin_to_string = function
  | Stem -> "stem"
  | Branch j -> Printf.sprintf "pin %d" j

let to_string f =
  Printf.sprintf "node %d %s s-a-%d" f.node (pin_to_string f.pin)
    (if f.stuck then 1 else 0)

(* A node carries faults iff it is a real gate: inputs have no gate,
   and a constant's stem stuck at its own value is the circuit itself
   (the opposite polarity is a branch fault of each reader). *)
let is_gate_node nl v =
  match Netlist.gate nl v with
  | Gate.Input _ | Gate.Const _ -> false
  | _ -> true

(* Dense fault-id layout: per gate node, [stem s-a-0; stem s-a-1;
   branch 0 s-a-0; branch 0 s-a-1; ...] — the canonical {!compare}
   order, so ids are monotone in it. *)
let id_layout nl =
  let n = Netlist.node_count nl in
  let base = Array.make n (-1) in
  let total = ref 0 in
  Netlist.iter_nodes nl (fun v _ fis ->
      if is_gate_node nl v then begin
        base.(v) <- !total;
        total := !total + (2 * (1 + Array.length fis))
      end);
  (base, !total)

let universe nl =
  let base, total = id_layout nl in
  let faults =
    Array.make total { node = 0; pin = Stem; stuck = false }
  in
  Netlist.iter_nodes nl (fun v _ fis ->
      if base.(v) >= 0 then begin
        let b = base.(v) in
        faults.(b) <- { node = v; pin = Stem; stuck = false };
        faults.(b + 1) <- { node = v; pin = Stem; stuck = true };
        Array.iteri
          (fun j _ ->
            faults.(b + 2 + (2 * j)) <- { node = v; pin = Branch j; stuck = false };
            faults.(b + 3 + (2 * j)) <- { node = v; pin = Branch j; stuck = true })
          fis
      end);
  faults

type mode = No_collapse | Equivalence | Dominance

let modes =
  [
    ("none", No_collapse);
    ("equivalence", Equivalence);
    ("dominance", Dominance);
  ]

let mode_name m = fst (List.find (fun (_, m') -> m' = m) modes)

type cls = { rep : t; members : t list; implied_by : int option }

type collapsed = { classes : cls array; total : int }

(* Union-find keeping the smallest id as root, so the class
   representative is the canonically smallest member. *)
let rec find parent i =
  if parent.(i) = i then i
  else begin
    let r = find parent parent.(i) in
    parent.(i) <- r;
    r
  end

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then
    if ri < rj then parent.(rj) <- ri else parent.(ri) <- rj

let collapse ?(mode = Equivalence) nl =
  let base, total = id_layout nl in
  let faults = universe nl in
  let id f =
    base.(f.node) + (2 * pin_rank f.pin) + if f.stuck then 1 else 0
  in
  let parent = Array.init total (fun i -> i) in
  let n = Netlist.node_count nl in
  let outputs = Netlist.outputs nl in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) outputs;
  (* Single reader pin of each driver, when unique: fanout.(d) is
     [None] before any reader, [Some (m, j)] after one, and
     [Some (-1, -1)] once a second reader appears. *)
  let fanout = Array.make n None in
  if mode <> No_collapse then begin
    Netlist.iter_nodes nl (fun m _ fis ->
        Array.iteri
          (fun j d ->
            fanout.(d) <-
              (match fanout.(d) with
              | None -> Some (m, j)
              | Some _ -> Some (-1, -1)))
          fis);
    (* Gate-local input/output equivalences. *)
    Netlist.iter_nodes nl (fun v g fis ->
        if base.(v) >= 0 then
          let stem stuck = id { node = v; pin = Stem; stuck } in
          let branch j stuck = id { node = v; pin = Branch j; stuck } in
          match g with
          | Gate.Buf ->
              union parent (branch 0 false) (stem false);
              union parent (branch 0 true) (stem true)
          | Gate.Not ->
              union parent (branch 0 false) (stem true);
              union parent (branch 0 true) (stem false)
          | Gate.And ->
              Array.iteri (fun j _ -> union parent (branch j false) (stem false)) fis
          | Gate.Nand ->
              Array.iteri (fun j _ -> union parent (branch j false) (stem true)) fis
          | Gate.Or ->
              Array.iteri (fun j _ -> union parent (branch j true) (stem true)) fis
          | Gate.Nor ->
              Array.iteri (fun j _ -> union parent (branch j true) (stem false)) fis
          | Gate.Xor | Gate.Xnor | Gate.Cell _ -> ()
          | Gate.Input _ | Gate.Const _ -> ());
    (* A fanout-free stem is the same line as its only branch (unless
       the stem is also a primary output, which the branch fault does
       not reach). *)
    for d = 0 to n - 1 do
      if base.(d) >= 0 && not is_output.(d) then
        match fanout.(d) with
        | Some (m, j) when m >= 0 ->
            union parent (id { node = d; pin = Stem; stuck = false })
              (id { node = m; pin = Branch j; stuck = false });
            union parent (id { node = d; pin = Stem; stuck = true })
              (id { node = m; pin = Branch j; stuck = true })
        | _ -> ()
    done
  end;
  (* Gather classes in ascending root order = canonical rep order. *)
  let members = Hashtbl.create 64 in
  for i = total - 1 downto 0 do
    let r = find parent i in
    let tail = try Hashtbl.find members r with Not_found -> [] in
    Hashtbl.replace members r (faults.(i) :: tail)
  done;
  let roots = ref [] in
  for i = total - 1 downto 0 do
    if find parent i = i then roots := i :: !roots
  done;
  let roots = Array.of_list !roots in
  let class_of_root = Hashtbl.create 64 in
  Array.iteri (fun k r -> Hashtbl.replace class_of_root r k) roots;
  let implied = Array.make (Array.length roots) None in
  if mode = Dominance then
    (* Any test for the first branch fault below also sensitises and
       propagates the stem fault: the stem class inherits
       testability (and the witness) from the branch class.  The
       reverse is not sound, so untestable branch classes leave the
       stem to direct analysis. *)
    Netlist.iter_nodes nl (fun v g fis ->
        if base.(v) >= 0 && Array.length fis >= 2 then
          let pair =
            match g with
            | Gate.And -> Some (true, true)
            | Gate.Nand -> Some (false, true)
            | Gate.Or -> Some (false, false)
            | Gate.Nor -> Some (true, false)
            | _ -> None
          in
          match pair with
          | None -> ()
          | Some (stem_stuck, branch_stuck) ->
              let rs = find parent (id { node = v; pin = Stem; stuck = stem_stuck }) in
              let rb =
                find parent (id { node = v; pin = Branch 0; stuck = branch_stuck })
              in
              if rs <> rb then begin
                let ks = Hashtbl.find class_of_root rs in
                let kb = Hashtbl.find class_of_root rb in
                if implied.(ks) = None then implied.(ks) <- Some kb
              end);
  let classes =
    Array.mapi
      (fun k r ->
        let ms = Hashtbl.find members r in
        { rep = List.hd ms; members = ms; implied_by = implied.(k) })
      roots
  in
  { classes; total }
