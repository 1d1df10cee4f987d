type t = int
(* Node handles index into the manager's node arrays.  Handle 0 is the
   0-terminal, handle 1 the 1-terminal. *)

type man = {
  nvars : int;
  mutable var_of : int array; (* variable index per node; terminals: nvars *)
  mutable low_of : int array;
  mutable high_of : int array;
  mutable next : int; (* next free slot *)
  mutable unique : int array;
      (* open addressing with linear probing over node handles, 0 for an
         empty slot (terminals are never hashed); twice the node
         capacity, so at most half full *)
  mutable cache : int array;
      (* direct-mapped, lossy ITE cache: entry e holds (f, g, h, result)
         at [4e .. 4e+3]; f = 0 marks an empty entry, since a terminal
         [f] never reaches the cache *)
  mutable stamp : int array; (* node visited by the current walk iff = epoch *)
  mutable memo : int array; (* per-node results of the current walk *)
  mutable fmemo : float array;
  mutable epoch : int;
}

(* Node slots of a fresh manager.  Kept small: the windowed DC
   extractor builds one manager per window, most of them a few hundred
   nodes. *)
let initial_capacity = 256

(* The computed cache grows with the node arrays up to this many
   entries (32 MB). *)
let max_cache_entries = 1 lsl 20

let make_man ~nvars =
  if nvars < 0 then invalid_arg "Bdd.make_man";
  let cap = initial_capacity in
  let m =
    {
      nvars;
      var_of = Array.make cap 0;
      low_of = Array.make cap 0;
      high_of = Array.make cap 0;
      next = 2;
      unique = Array.make (2 * cap) 0;
      cache = Array.make (4 * cap) 0;
      stamp = [||];
      memo = [||];
      fmemo = [||];
      epoch = 0;
    }
  in
  (* Terminals sit below every variable: give them variable index
     [nvars] so the "top variable" comparisons are uniform. *)
  m.var_of.(0) <- nvars;
  m.var_of.(1) <- nvars;
  m.low_of.(1) <- 1;
  m.high_of.(1) <- 1;
  m

let nvars m = m.nvars
let zero _ = 0
let one _ = 1
let is_zero _ f = f = 0
let is_one _ f = f = 1
let equal (a : t) (b : t) = a = b

let hash a b c =
  let h = ((((a * 0x9E3779B1) + b) * 0x85EBCA77) + c) * 0xC2B2AE3D in
  h lxor (h lsr 29)

(* The slot holding node (v, low, high), or the empty slot where it
   belongs. *)
let rec probe m v low high i =
  let n = m.unique.(i) in
  if n = 0 || (m.var_of.(n) = v && m.low_of.(n) = low && m.high_of.(n) = high)
  then i
  else probe m v low high ((i + 1) land (Array.length m.unique - 1))

let slot m v low high =
  probe m v low high (hash v low high land (Array.length m.unique - 1))

let cache_entry cache f g h =
  (hash f g h land ((Array.length cache lsr 2) - 1)) lsl 2

let cache_store cache f g h r =
  let e = cache_entry cache f g h in
  cache.(e) <- f;
  cache.(e + 1) <- g;
  cache.(e + 2) <- h;
  cache.(e + 3) <- r

(* Double the node arrays and the unique table (rehashed); the cache
   doubles too, keeping its entries, until [max_cache_entries]. *)
let grow m =
  let cap = Array.length m.var_of in
  let extend a = Array.append a (Array.make cap 0) in
  m.var_of <- extend m.var_of;
  m.low_of <- extend m.low_of;
  m.high_of <- extend m.high_of;
  m.unique <- Array.make (4 * cap) 0;
  for n = 2 to m.next - 1 do
    m.unique.(slot m m.var_of.(n) m.low_of.(n) m.high_of.(n)) <- n
  done;
  let old = m.cache in
  if Array.length old lsr 2 < max_cache_entries then begin
    m.cache <- Array.make (2 * Array.length old) 0;
    for e = 0 to (Array.length old lsr 2) - 1 do
      let k = 4 * e in
      if old.(k) <> 0 then
        cache_store m.cache old.(k) old.(k + 1) old.(k + 2) old.(k + 3)
    done
  end

let rec mk m v low high =
  if low = high then low
  else
    let i = slot m v low high in
    let n = m.unique.(i) in
    if n <> 0 then n
    else if m.next = Array.length m.var_of then begin
      grow m;
      mk m v low high
    end
    else begin
      let n = m.next in
      m.next <- n + 1;
      m.var_of.(n) <- v;
      m.low_of.(n) <- low;
      m.high_of.(n) <- high;
      m.unique.(i) <- n;
      n
    end

let var m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.var: out of range";
  mk m i 0 1

let nvar m i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.nvar: out of range";
  mk m i 1 0

(* Top variable of up to three nodes. *)
let top2 m a b = min m.var_of.(a) m.var_of.(b)
let top3 m a b c = min m.var_of.(a) (top2 m b c)

let cof m f v ~value =
  if m.var_of.(f) = v then if value then m.high_of.(f) else m.low_of.(f)
  else f

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let c = m.cache in
    let e = cache_entry c f g h in
    if c.(e) = f && c.(e + 1) = g && c.(e + 2) = h then c.(e + 3)
    else begin
      let v = top3 m f g h in
      let r0 =
        ite m (cof m f v ~value:false) (cof m g v ~value:false)
          (cof m h v ~value:false)
      in
      let r1 =
        ite m (cof m f v ~value:true) (cof m g v ~value:true)
          (cof m h v ~value:true)
      in
      let r = mk m v r0 r1 in
      (* The recursion may have grown the cache. *)
      cache_store m.cache f g h r;
      r
    end

let bnot m f = ite m f 0 1
let band m a b = ite m a b 0
let bor m a b = ite m a 1 b
let bxor m a b = ite m a (ite m b 0 1) b

let rec restrict m f ~var:v ~value =
  if m.var_of.(f) > v then f
  else if m.var_of.(f) = v then if value then m.high_of.(f) else m.low_of.(f)
  else
    let fv = m.var_of.(f) in
    mk m fv
      (restrict m m.low_of.(f) ~var:v ~value)
      (restrict m m.high_of.(f) ~var:v ~value)

let exists m vars f =
  List.fold_left
    (fun f v ->
      bor m (restrict m f ~var:v ~value:false) (restrict m f ~var:v ~value:true))
    f vars

let forall m vars f =
  List.fold_left
    (fun f v ->
      band m
        (restrict m f ~var:v ~value:false)
        (restrict m f ~var:v ~value:true))
    f vars

let rec eval_minterm m f mt =
  if f <= 1 then f = 1
  else if mt land (1 lsl m.var_of.(f)) <> 0 then
    eval_minterm m m.high_of.(f) mt
  else eval_minterm m m.low_of.(f) mt

(* ------------------------------------------------------------------ *)
(* Memoised walks.  A walk visits only nodes that exist when it starts
   (descendants of its argument), so the mark arrays need only cover
   the node capacity of that moment; nodes a walk creates are never
   marked. *)

let new_walk m =
  let cap = Array.length m.var_of in
  if Array.length m.stamp < cap then begin
    m.stamp <- Array.make cap 0;
    m.memo <- Array.make cap 0;
    m.fmemo <- Array.make cap 0.0
  end;
  m.epoch <- m.epoch + 1;
  m.epoch

let[@inline] count_of m f = if f <= 1 then float_of_int f else m.fmemo.(f)

(* Fills [fmemo.(f)] with the count of [f] over the variables below
   (>=) its level; the caller scales at the top. *)
let rec count_below m ep f =
  if f > 1 && m.stamp.(f) <> ep then begin
    let v = m.var_of.(f) and lo = m.low_of.(f) and hi = m.high_of.(f) in
    count_below m ep lo;
    count_below m ep hi;
    m.fmemo.(f) <-
      (count_of m lo *. Float.ldexp 1.0 (m.var_of.(lo) - v - 1))
      +. (count_of m hi *. Float.ldexp 1.0 (m.var_of.(hi) - v - 1));
    m.stamp.(f) <- ep
  end

let satcount_float m f =
  count_below m (new_walk m) f;
  Float.ldexp 1.0 m.var_of.(f) *. count_of m f

(* 2^62 is the first count [int] cannot hold (max_int = 2^62 - 1);
   the float comparison is conservative at the boundary because
   2^62 - 1 rounds up to 2^62 in double precision. *)
let max_exact_int_count = 4611686018427387904.0 (* 2^62 *)

let satcount m f =
  let c = satcount_float m f +. 0.5 in
  if c >= max_exact_int_count then
    invalid_arg
      "Bdd.satcount: count exceeds the integer range; use satcount_float"
  else int_of_float c

let rec count_nodes m ep f acc =
  if f <= 1 || m.stamp.(f) = ep then acc
  else begin
    m.stamp.(f) <- ep;
    count_nodes m ep m.high_of.(f) (count_nodes m ep m.low_of.(f) (acc + 1))
  end

let size m f = count_nodes m (new_walk m) f 0

let support m f =
  let ep = new_walk m in
  let used = Array.make m.nvars false in
  let rec go f =
    if f > 1 && m.stamp.(f) <> ep then begin
      m.stamp.(f) <- ep;
      used.(m.var_of.(f)) <- true;
      go m.low_of.(f);
      go m.high_of.(f)
    end
  in
  go f;
  List.filter (fun v -> used.(v)) (List.init m.nvars Fun.id)

let flip_var m f i =
  if i < 0 || i >= m.nvars then invalid_arg "Bdd.flip_var: out of range";
  let ep = new_walk m in
  let rec go f =
    let v = m.var_of.(f) in
    if v > i then f (* below variable i in the order: independent *)
    else if v = i then mk m i m.high_of.(f) m.low_of.(f)
    else if m.stamp.(f) = ep then m.memo.(f)
    else begin
      let r = mk m v (go m.low_of.(f)) (go m.high_of.(f)) in
      m.stamp.(f) <- ep;
      m.memo.(f) <- r;
      r
    end
  in
  go f

(* ------------------------------------------------------------------ *)
(* Conversions. *)

let of_cube m cube =
  let rec go i acc =
    if i >= m.nvars then acc
    else
      let lit =
        match Twolevel.Cube.get cube i with
        | Twolevel.Cube.Zero -> nvar m i
        | Twolevel.Cube.One -> var m i
        | Twolevel.Cube.Free -> 1
      in
      go (i + 1) (band m acc lit)
  in
  go 0 1

let of_cover m cover =
  if Twolevel.Cover.n cover <> m.nvars then
    invalid_arg "Bdd.of_cover: arity mismatch";
  List.fold_left
    (fun acc c -> bor m acc (of_cube m c))
    0
    (Twolevel.Cover.cubes cover)

let of_gate m (g : Netlist.Gate.t) fanins =
  let fold op =
    let acc = ref fanins.(0) in
    for i = 1 to Array.length fanins - 1 do
      acc := op m !acc fanins.(i)
    done;
    !acc
  in
  match g with
  | Netlist.Gate.Input _ -> invalid_arg "Bdd.of_gate: Input has no fanins"
  | Const v -> if v then 1 else 0
  | Buf -> fanins.(0)
  | Not -> bnot m fanins.(0)
  | And -> fold band
  | Or -> fold bor
  | Nand -> bnot m (fold band)
  | Nor -> bnot m (fold bor)
  | Xor -> fold bxor
  | Xnor -> bnot m (fold bxor)
  | Cell c ->
      (* OR over the minterms of the cell's truth table. *)
      let acc = ref 0 in
      for idx = 0 to (1 lsl c.arity) - 1 do
        if Logic.Truth.eval c.tt idx then begin
          let cube = ref 1 in
          for i = 0 to c.arity - 1 do
            let f =
              if idx land (1 lsl i) <> 0 then fanins.(i) else bnot m fanins.(i)
            in
            cube := band m !cube f
          done;
          acc := bor m !acc !cube
        end
      done;
      !acc

let of_bv m bv =
  if Bitvec.Bv.length bv <> 1 lsl m.nvars then
    invalid_arg "Bdd.of_bv: length mismatch";
  (* Variable 0 (the root of our order) is bit 0 of the minterm index,
     so the 0/1 branches of variable v are index strides of 2^v. *)
  let rec go v stride base =
    if v = m.nvars then if Bitvec.Bv.get bv base then 1 else 0
    else
      let f0 = go (v + 1) (stride * 2) base in
      let f1 = go (v + 1) (stride * 2) (base + stride) in
      mk m v f0 f1
  in
  go 0 1 0

let to_bv m f =
  if m.nvars > 24 then invalid_arg "Bdd.to_bv: nvars too large";
  let bv = Bitvec.Bv.create (1 lsl m.nvars) in
  for mt = 0 to (1 lsl m.nvars) - 1 do
    if eval_minterm m f mt then Bitvec.Bv.set bv mt
  done;
  bv

let isop m ~lower ~upper =
  if band m lower (bnot m upper) <> 0 then
    invalid_arg "Bdd.isop: lower not contained in upper";
  let memo = Hashtbl.create 256 in
  (* returns (cubes, bdd of the cover); cubes as Twolevel cubes *)
  let rec go l u =
    if l = 0 then ([], 0)
    else if u = 1 then ([ Twolevel.Cube.full ~n:m.nvars ], 1)
    else
      match Hashtbl.find_opt memo (l, u) with
      | Some r -> r
      | None ->
          let v = top2 m l u in
          let l0 = cof m l v ~value:false and l1 = cof m l v ~value:true in
          let u0 = cof m u v ~value:false and u1 = cof m u v ~value:true in
          (* cubes that must contain the literal !v / v *)
          let c0, f0 = go (band m l0 (bnot m u1)) u0 in
          let c1, f1 = go (band m l1 (bnot m u0)) u1 in
          (* what remains to cover, variable v free *)
          let ld =
            bor m (band m l0 (bnot m f0)) (band m l1 (bnot m f1))
          in
          let cd, fd = go ld (band m u0 u1) in
          let xv = var m v and nxv = nvar m v in
          let cover_bdd =
            bor m fd (bor m (band m nxv f0) (band m xv f1))
          in
          let set_lit lit cube = Twolevel.Cube.set cube v lit in
          let cubes =
            List.map (set_lit Twolevel.Cube.Zero) c0
            @ List.map (set_lit Twolevel.Cube.One) c1
            @ cd
          in
          let r = (cubes, cover_bdd) in
          Hashtbl.add memo (l, u) r;
          r
  in
  let cubes, f = go lower upper in
  (Twolevel.Cover.make ~n:m.nvars cubes, f)
