module Bv = Bitvec.Bv

type phase = On | Off | Dc

type planes = { p_on : Bv.t; p_off : Bv.t; p_dc : Bv.t }

type t = {
  ni : int;
  no : int;
  tables : Bytes.t array;
  cache : planes option Atomic.t array;
      (** packed phase planes, per output, published by CAS *)
}

let c_plane_builds = Prof.counter "spec.plane_builds"
let c_cas_losses = Prof.counter "spec.plane_cas_losses"
let c_warm = Prof.counter "spec.warm_calls"
let sp_build = Prof.span "spec.plane_build"

let phase_to_char = function Off -> '\000' | On -> '\001' | Dc -> '\002'

let phase_of_char = function
  | '\000' -> Off
  | '\001' -> On
  | '\002' -> Dc
  | _ -> assert false

let create ~ni ~no ~default =
  if ni < 0 || ni > 20 || no <= 0 then invalid_arg "Spec.create";
  let len = 1 lsl ni in
  let tables =
    Array.init no (fun _ -> Bytes.make len (phase_to_char default))
  in
  { ni; no; tables; cache = Array.init no (fun _ -> Atomic.make None) }

let ni t = t.ni
let no t = t.no
let size t = 1 lsl t.ni

let check t ~o ~m =
  if o < 0 || o >= t.no then invalid_arg "Spec: output out of range";
  if m < 0 || m >= size t then invalid_arg "Spec: minterm out of range"

let get t ~o ~m =
  check t ~o ~m;
  phase_of_char (Bytes.get t.tables.(o) m)

let set t ~o ~m p =
  check t ~o ~m;
  Bytes.set t.tables.(o) m (phase_to_char p);
  Atomic.set t.cache.(o) None

let assign_dc t ~o ~m v =
  if get t ~o ~m <> Dc then invalid_arg "Spec.assign_dc: minterm is not DC";
  set t ~o ~m (if v then On else Off)

let copy t =
  {
    ni = t.ni;
    no = t.no;
    tables = Array.map Bytes.copy t.tables;
    cache = Array.init t.no (fun _ -> Atomic.make None);
  }

let equal a b =
  a.ni = b.ni && a.no = b.no && Array.for_all2 Bytes.equal a.tables b.tables

(* Packed phase planes.  Built lazily from the byte table, one pass
   per output, and invalidated by [set].  Publication is lock-free:
   concurrent readers (the parallel evaluation layer maps over outputs
   of a shared spec) each compute the planes outside any lock and race
   to install theirs with a single compare-and-set — the planes are
   immutable once published, so losers simply adopt the winner's copy
   and drop their own.  Mutation during a parallel region is already
   outside the contract. *)
let build_planes t ~o =
  let len = size t in
  let p_on = Bv.create len
  and p_off = Bv.create len
  and p_dc = Bv.create len in
  let table = t.tables.(o) in
  for m = 0 to len - 1 do
    match Bytes.unsafe_get table m with
    | '\001' -> Bv.unsafe_set p_on m
    | '\000' -> Bv.unsafe_set p_off m
    | _ -> Bv.unsafe_set p_dc m
  done;
  { p_on; p_off; p_dc }

let planes t ~o =
  if o < 0 || o >= t.no then invalid_arg "Spec: output out of range";
  let slot = t.cache.(o) in
  match Atomic.get slot with
  | Some p -> p
  | None -> (
      let p = Prof.time sp_build (fun () -> build_planes t ~o) in
      Prof.incr c_plane_builds;
      if Atomic.compare_and_set slot None (Some p) then p
      else begin
        Prof.incr c_cas_losses;
        (* A concurrent reader published first; adopt its (identical)
           copy.  If a mutation slipped in and re-invalidated the slot,
           our freshly built copy is the best answer available. *)
        match Atomic.get slot with Some q -> q | None -> p
      end)

let warm_cache t =
  Prof.incr c_warm;
  for o = 0 to t.no - 1 do
    ignore (planes t ~o)
  done

let phase_planes t ~o =
  let p = planes t ~o in
  (p.p_on, p.p_off, p.p_dc)

let plane_of pl = function On -> pl.p_on | Off -> pl.p_off | Dc -> pl.p_dc

let count_phase t ~o p = Bv.cardinal (plane_of (planes t ~o) p)

let on_count t ~o = count_phase t ~o On
let off_count t ~o = count_phase t ~o Off
let dc_count t ~o = count_phase t ~o Dc

let signal_probs t ~o =
  let total = float_of_int (size t) in
  ( float_of_int (on_count t ~o) /. total,
    float_of_int (off_count t ~o) /. total,
    float_of_int (dc_count t ~o) /. total )

let dc_fraction t =
  let dcs = ref 0 in
  for o = 0 to t.no - 1 do
    dcs := !dcs + dc_count t ~o
  done;
  float_of_int !dcs /. float_of_int (size t * t.no)

let is_fully_specified t =
  let dc = phase_to_char Dc in
  Array.for_all
    (fun table ->
      let ok = ref true in
      Bytes.iter (fun c -> if c = dc then ok := false) table;
      !ok)
    t.tables

let iter_dc t ~o f =
  let dc = phase_to_char Dc in
  Bytes.iteri (fun m c -> if c = dc then f m) t.tables.(o)

let phase_bv t ~o p = Bv.copy (plane_of (planes t ~o) p)

let on_bv t ~o = phase_bv t ~o On
let off_bv t ~o = phase_bv t ~o Off
let dc_bv t ~o = phase_bv t ~o Dc

let phase_cover t ~o p =
  let c = phase_to_char p in
  let cubes = ref [] in
  Bytes.iteri
    (fun m ch ->
      if ch = c then cubes := Twolevel.Cube.of_minterm ~n:t.ni m :: !cubes)
    t.tables.(o);
  Twolevel.Cover.make ~n:t.ni (List.rev !cubes)

let on_cover t ~o = phase_cover t ~o On
let dc_cover t ~o = phase_cover t ~o Dc

let of_covers ~ni covers =
  if covers = [] then invalid_arg "Spec.of_covers: no outputs";
  let no = List.length covers in
  let t = create ~ni ~no ~default:Off in
  List.iteri
    (fun o (on, dc) ->
      if Twolevel.Cover.n on <> ni || Twolevel.Cover.n dc <> ni then
        invalid_arg "Spec.of_covers: arity mismatch";
      List.iter
        (Twolevel.Cube.iter_minterms ~n:ni (fun m -> set t ~o ~m Dc))
        (Twolevel.Cover.cubes dc);
      List.iter
        (Twolevel.Cube.iter_minterms ~n:ni (fun m -> set t ~o ~m On))
        (Twolevel.Cover.cubes on))
    covers;
  t

let neighbour_counts t ~o ~m =
  check t ~o ~m;
  let table = t.tables.(o) in
  let on = ref 0 and off = ref 0 and dc = ref 0 in
  for j = 0 to t.ni - 1 do
    match phase_of_char (Bytes.get table (m lxor (1 lsl j))) with
    | On -> incr on
    | Off -> incr off
    | Dc -> incr dc
  done;
  (!on, !off, !dc)

(* Per-minterm neighbour counts for the whole 2^n space at once:
   n bit-sliced additions of permuted phase planes — O(n log n) vector
   passes instead of O(n 2^n) byte probes.  DC counts follow from
   on + off + dc = n.  With no inputs the sweep adds nothing, so every
   count is 0. *)
let neighbour_counts_batch t ~o =
  let module K = Bv.Kernel in
  let pl = planes t ~o in
  let len = size t in
  let bits = 5 (* counts <= ni <= 20 < 32 *) in
  let on_c = K.counter_create ~len ~bits
  and off_c = K.counter_create ~len ~bits in
  ignore
    (K.neighbour_sweep ~nj:t.ni
       [|
         {
           K.sw_src = pl.p_on;
           sw_diff = false;
           sw_counter = Some on_c;
           sw_cross = None;
         };
         {
           K.sw_src = pl.p_off;
           sw_diff = false;
           sw_counter = Some off_c;
           sw_cross = None;
         };
       |]);
  let on = K.counter_extract on_c and off = K.counter_extract off_c in
  let dc = Array.init len (fun m -> t.ni - on.(m) - off.(m)) in
  (on, off, dc)

let on_neighbours t ~o ~m =
  let on, _, _ = neighbour_counts t ~o ~m in
  on

let off_neighbours t ~o ~m =
  let _, off, _ = neighbour_counts t ~o ~m in
  off

let dc_neighbours t ~o ~m =
  let _, _, dc = neighbour_counts t ~o ~m in
  dc

let output_value t ~o ~m =
  match get t ~o ~m with
  | On -> true
  | Off -> false
  | Dc -> invalid_arg "Spec.output_value: unassigned DC"

let pp ppf t =
  Format.fprintf ppf "@[<v>spec: %d inputs, %d outputs@," t.ni t.no;
  for o = 0 to t.no - 1 do
    Format.fprintf ppf "  y%d: |on|=%d |off|=%d |dc|=%d@," o (on_count t ~o)
      (off_count t ~o) (dc_count t ~o)
  done;
  Format.fprintf ppf "@]"
