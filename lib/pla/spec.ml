module Bv = Bitvec.Bv

type phase = On | Off | Dc

(* The function itself: per output, three packed phase planes over the
   2^ni minterms, every minterm set in exactly one of them. *)
type planes = { p_on : Bv.t; p_off : Bv.t; p_dc : Bv.t }

type t = { ni : int; no : int; planes : planes array }

let plane_of pl = function On -> pl.p_on | Off -> pl.p_off | Dc -> pl.p_dc

let create ~ni ~no ~default =
  if ni < 0 || ni > 20 || no <= 0 then invalid_arg "Spec.create";
  let len = 1 lsl ni in
  let planes =
    Array.init no (fun _ ->
        let pl =
          { p_on = Bv.create len; p_off = Bv.create len; p_dc = Bv.create len }
        in
        Bv.fill (plane_of pl default) true;
        pl)
  in
  { ni; no; planes }

let ni t = t.ni
let no t = t.no
let size t = 1 lsl t.ni

let check t ~o ~m =
  if o < 0 || o >= t.no then invalid_arg "Spec: output out of range";
  if m < 0 || m >= size t then invalid_arg "Spec: minterm out of range"

(* The phase of minterm [m], already range-checked. *)
let phase_at pl m =
  if Bv.unsafe_get pl.p_on m then On
  else if Bv.unsafe_get pl.p_dc m then Dc
  else Off

let get t ~o ~m =
  check t ~o ~m;
  phase_at (Array.unsafe_get t.planes o) m

let set t ~o ~m p =
  check t ~o ~m;
  let pl = Array.unsafe_get t.planes o in
  let old = phase_at pl m in
  if old <> p then begin
    Bv.clear (plane_of pl old) m;
    Bv.unsafe_set (plane_of pl p) m
  end

let assign_dc t ~o ~m v =
  if get t ~o ~m <> Dc then invalid_arg "Spec.assign_dc: minterm is not DC";
  set t ~o ~m (if v then On else Off)

let copy t =
  {
    t with
    planes =
      Array.map
        (fun pl ->
          {
            p_on = Bv.copy pl.p_on;
            p_off = Bv.copy pl.p_off;
            p_dc = Bv.copy pl.p_dc;
          })
        t.planes;
  }

(* The off plane is the complement of the other two. *)
let equal a b =
  a.ni = b.ni && a.no = b.no
  && Array.for_all2
       (fun x y -> Bv.equal x.p_on y.p_on && Bv.equal x.p_dc y.p_dc)
       a.planes b.planes

let planes t ~o =
  if o < 0 || o >= t.no then invalid_arg "Spec: output out of range";
  t.planes.(o)

let warm_cache (_ : t) = ()

let phase_planes t ~o =
  let p = planes t ~o in
  (p.p_on, p.p_off, p.p_dc)

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

(* [f] on every set bit of [plane], in ascending minterm order. *)
let iter_plane plane f =
  for m = 0 to Bv.length plane - 1 do
    if Bv.unsafe_get plane m then f m
  done

let iter_dc t ~o f = iter_plane (planes t ~o).p_dc f

let phase_bv t ~o p = Bv.copy (plane_of (planes t ~o) p)

let on_bv t ~o = phase_bv t ~o On
let off_bv t ~o = phase_bv t ~o Off
let dc_bv t ~o = phase_bv t ~o Dc

let phase_cover t ~o p =
  let cubes = ref [] in
  iter_plane
    (plane_of (planes t ~o) p)
    (fun m -> cubes := Twolevel.Cube.of_minterm ~n:t.ni m :: !cubes);
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
  let pl = t.planes.(o) in
  let on = ref 0 and off = ref 0 and dc = ref 0 in
  for j = 0 to t.ni - 1 do
    match phase_at pl (m lxor (1 lsl j)) with
    | On -> incr on
    | Off -> incr off
    | Dc -> incr dc
  done;
  (!on, !off, !dc)

(* Per-minterm neighbour counts for the whole 2^n space at once:
   n bit-sliced additions of permuted phase planes — O(n log n) vector
   passes instead of O(n 2^n) single-bit probes.  DC counts follow from
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
