module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bitvec.Bv.Kernel

type graph = {
  node_count : int;
  inputs : int array;
  fanins : int array array;
  outputs : int array;
}

let graph_of_netlist nl =
  let n = Netlist.node_count nl and ni = Netlist.ni nl in
  let fanins = Array.make n [||] in
  Netlist.iter_nodes nl (fun id _gate fi -> fanins.(id) <- Array.copy fi);
  {
    node_count = n;
    inputs = Array.init ni Fun.id;
    fanins;
    outputs = Array.copy (Netlist.outputs nl);
  }

(* Strongly connected components, iterative Tarjan (explicit DFS
   frames: no recursion depth limit on deep netlists).  Out-of-range
   fanins are skipped here and reported separately. *)
let sccs g =
  let n = g.node_count in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Stack.create () in
  let frames = Stack.create () in
  let counter = ref 0 in
  let result = ref [] in
  let visit v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    Stack.push v stack;
    on_stack.(v) <- true;
    Stack.push (v, 0) frames
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while not (Stack.is_empty frames) do
        let v, i = Stack.pop frames in
        if i < Array.length g.fanins.(v) then begin
          Stack.push (v, i + 1) frames;
          let w = g.fanins.(v).(i) in
          if w >= 0 && w < n then
            if index.(w) < 0 then visit w
            else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          (match Stack.top frames with
          | p, _ -> low.(p) <- min low.(p) low.(v)
          | exception Stack.Empty -> ());
          if low.(v) = index.(v) then begin
            let scc = ref [] in
            let continue = ref true in
            while !continue do
              let w = Stack.pop stack in
              on_stack.(w) <- false;
              scc := w :: !scc;
              if w = v then continue := false
            done;
            result := !scc :: !result
          end
        end
      done
    end
  done;
  !result

(* Nodes reachable from the outputs along fanin edges. *)
let output_cone g =
  let reach = Array.make g.node_count false in
  let stack = Stack.create () in
  Array.iter
    (fun o ->
      if o >= 0 && o < g.node_count && not reach.(o) then begin
        reach.(o) <- true;
        Stack.push o stack
      end)
    g.outputs;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    Array.iter
      (fun w ->
        if w >= 0 && w < g.node_count && not reach.(w) then begin
          reach.(w) <- true;
          Stack.push w stack
        end)
      g.fanins.(v)
  done;
  reach

let structure g =
  let n = g.node_count in
  let is_input = Array.make n false in
  Array.iter
    (fun i -> if i >= 0 && i < n then is_input.(i) <- true)
    g.inputs;
  (* Out-of-range fanins. *)
  let bad_fanin = ref [] in
  Array.iteri
    (fun v fi ->
      Array.iter
        (fun w ->
          if w < 0 || w >= n then
            bad_fanin :=
              Diag.error ~code:"bad-fanin" ~loc:(Diag.Node v)
                "node %d has out-of-range fanin id %d" v w
              :: !bad_fanin)
        fi)
    g.fanins;
  (* Combinational cycles: non-trivial SCCs plus self-loops. *)
  let cyclic =
    List.filter
      (fun scc ->
        match scc with
        | [ v ] -> Array.exists (fun w -> w = v) g.fanins.(v)
        | _ -> List.length scc > 1)
      (sccs g)
  in
  let cyclic =
    List.sort compare (List.map (fun scc -> List.sort compare scc) cyclic)
  in
  let cycle_diags =
    List.map
      (fun scc ->
        let head = List.filteri (fun i _ -> i < 8) scc in
        Diag.error ~code:"combinational-cycle"
          ~loc:(Diag.Node (List.hd scc))
          "combinational cycle through %d node(s): %s%s" (List.length scc)
          (String.concat ", " (List.map string_of_int head))
          (if List.length scc > 8 then ", ..." else ""))
      cyclic
  in
  (* Fanout counts. *)
  let fanout = Array.make n 0 in
  Array.iter
    (Array.iter (fun w -> if w >= 0 && w < n then fanout.(w) <- fanout.(w) + 1))
    g.fanins;
  (* Dangling non-input nodes outside every output cone. *)
  let reach = output_cone g in
  let dangling = ref [] in
  for v = n - 1 downto 0 do
    if (not reach.(v)) && not is_input.(v) then
      dangling :=
        Diag.warn ~code:"dangling-node" ~loc:(Diag.Node v)
          "node %d feeds no primary output" v
        :: !dangling
  done;
  (* Floating primary inputs. *)
  let floating = ref [] in
  Array.iter
    (fun i ->
      if i >= 0 && i < n && fanout.(i) = 0 then
        floating :=
          Diag.warn ~code:"floating-input" ~loc:(Diag.Node i)
            "primary input node %d drives nothing" i
          :: !floating)
    g.inputs;
  let floating = List.rev !floating in
  (* Fanout statistics. *)
  let max_fanout = ref 0 and max_node = ref (-1) and edges = ref 0 in
  Array.iteri
    (fun v f ->
      edges := !edges + f;
      if f > !max_fanout then begin
        max_fanout := f;
        max_node := v
      end)
    fanout;
  let stats =
    Diag.info ~code:"fanout-stats" ~loc:Diag.Global
      "%d nodes, %d edges, mean fanout %.2f, max fanout %d%s" n !edges
      (if n = 0 then 0.0 else float_of_int !edges /. float_of_int n)
      !max_fanout
      (if !max_node >= 0 then Printf.sprintf " at node %d" !max_node else "")
  in
  List.rev !bad_fanin @ cycle_diags
  @ Diag.cap ~limit:20 (List.rev !dangling)
  @ Diag.cap ~limit:20 floating
  @ [ stats ]

let check nl = structure (graph_of_netlist nl)


(* ------------------------------------------------------------------ *)
(* Care-set equivalence of a mapped netlist against its spec. *)

type equiv_engine = Auto | Exhaustive | Bdd_backed

let equiv_engines =
  [ ("auto", Auto); ("exhaustive", Exhaustive); ("bdd", Bdd_backed) ]

(* Build one BDD per primary output by structural traversal. *)
let bdds_of_netlist man nl =
  let n = Netlist.node_count nl and ni = Netlist.ni nl in
  let values = Array.make n (Bdd.zero man) in
  for i = 0 to ni - 1 do
    values.(i) <- Bdd.var man i
  done;
  Netlist.iter_nodes nl (fun id gate fi ->
      values.(id) <- Bdd.of_gate man gate (Array.map (fun k -> values.(k)) fi));
  Array.map (fun o -> values.(o)) (Netlist.outputs nl)

(* First set bit, or -1. *)
let first_set bv =
  let exception Found of int in
  try
    Bv.iter_set (fun i -> raise (Found i)) bv;
    -1
  with Found i -> i

let mismatch_diag ~o ~on_errors ~off_errors ~example =
  Diag.error ~code:"care-set-mismatch" ~loc:(Diag.Output o)
    "netlist output y%d disagrees with the spec on %d on-set and %d off-set \
     minterm(s), e.g. minterm %d"
    o on_errors off_errors example

let equiv_exhaustive ~spec nl =
  let tables = Netlist.output_tables nl in
  let diags = ref [] in
  Array.iteri
    (fun o table ->
      let on, off, _ = Spec.phase_planes spec ~o in
      let not_table = Bv.complement table in
      let on_errors = K.popcount_and on not_table in
      let off_errors = K.popcount_and off table in
      if on_errors > 0 || off_errors > 0 then begin
        let example =
          if on_errors > 0 then first_set (Bv.inter on not_table)
          else first_set (Bv.inter off table)
        in
        diags := mismatch_diag ~o ~on_errors ~off_errors ~example :: !diags
      end)
    tables;
  List.rev !diags

let equiv_bdd ~spec nl =
  let ni = Spec.ni spec in
  let man = Bdd.make_man ~nvars:ni in
  let outs = bdds_of_netlist man nl in
  let diags = ref [] in
  Array.iteri
    (fun o f ->
      let on, off, _ = Spec.phase_planes spec ~o in
      let on_b = Bdd.of_bv man on and off_b = Bdd.of_bv man off in
      let bad_on = Bdd.band man on_b (Bdd.bnot man f) in
      let bad_off = Bdd.band man off_b f in
      let on_errors = Bdd.satcount man bad_on in
      let off_errors = Bdd.satcount man bad_off in
      if on_errors > 0 || off_errors > 0 then begin
        (* Dense expansion only on the (error) path, so the witness is
           the same smallest minterm the exhaustive engine reports. *)
        let bad = if on_errors > 0 then bad_on else bad_off in
        let example = first_set (Bdd.to_bv man bad) in
        diags := mismatch_diag ~o ~on_errors ~off_errors ~example :: !diags
      end)
    outs;
  List.rev !diags

let equiv_spec ?(engine = Auto) ~spec nl =
  if Netlist.ni nl <> Spec.ni spec then
    [
      Diag.error ~code:"arity-mismatch" ~loc:Diag.Global
        "netlist has %d inputs, spec has %d" (Netlist.ni nl) (Spec.ni spec);
    ]
  else if Netlist.no nl <> Spec.no spec then
    [
      Diag.error ~code:"arity-mismatch" ~loc:Diag.Global
        "netlist has %d outputs, spec has %d" (Netlist.no nl) (Spec.no spec);
    ]
  else
    match engine with
    | Exhaustive -> equiv_exhaustive ~spec nl
    | Bdd_backed -> equiv_bdd ~spec nl
    | Auto ->
        if Spec.ni spec <= 12 then equiv_exhaustive ~spec nl
        else equiv_bdd ~spec nl
