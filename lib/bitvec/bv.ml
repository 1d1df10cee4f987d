type t = { len : int; words : int array }

let bits_per_word = 63
let word_of i = i / bits_per_word
let bit_of i = i mod bits_per_word

let nwords len = if len = 0 then 0 else word_of (len - 1) + 1

let create len =
  if len < 0 then invalid_arg "Bv.create: negative length";
  { len; words = Array.make (nwords len) 0 }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bv: index out of range"

let get t i =
  check t i;
  t.words.(word_of i) land (1 lsl bit_of i) <> 0

let set t i =
  check t i;
  t.words.(word_of i) <- t.words.(word_of i) lor (1 lsl bit_of i)

let clear t i =
  check t i;
  t.words.(word_of i) <- t.words.(word_of i) land lnot (1 lsl bit_of i)

let assign t i b = if b then set t i else clear t i

(* The unsafe variants skip both the length check and the array bounds
   check; callers do a single range check at loop entry. *)
let unsafe_get t i =
  Array.unsafe_get t.words (word_of i) land (1 lsl bit_of i) <> 0

let unsafe_set t i =
  let w = word_of i in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl bit_of i))

let copy t = { len = t.len; words = Array.copy t.words }

(* Mask of valid bits in the last word, so that [complement] and [fill]
   never set padding bits (cardinal and equality depend on them being 0). *)
let last_mask t =
  let r = t.len mod bits_per_word in
  if r = 0 then -1 (* OCaml ints are exactly 63 bits wide: all bits valid *)
  else (1 lsl r) - 1

let fill t b =
  let v = if b then -1 else 0 in
  Array.fill t.words 0 (Array.length t.words) v;
  if b && Array.length t.words > 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land last_mask t
  end

(* SWAR popcount.  The masks are built at module init because hex
   literals above [max_int] are rejected: OCaml ints are 63-bit. *)
let swar_mask ~step ~width =
  let rec go acc i =
    if i >= bits_per_word then acc
    else go (acc lor (((1 lsl width) - 1) lsl i)) (i + step)
  in
  go 0 0

let m1 = swar_mask ~step:2 ~width:1 (* 0b...010101 *)
let m2 = swar_mask ~step:4 ~width:2 (* 0b...001100110011 *)
let m4 = swar_mask ~step:8 ~width:4
let h01 = swar_mask ~step:8 ~width:1 (* one per byte *)

let popcount_word w =
  let w = w - ((w lsr 1) land m1) in
  let w = (w land m2) + ((w lsr 2) land m2) in
  let w = (w + (w lsr 4)) land m4 in
  (* Byte sums fit in 7 bits (<= 63 set bits total), so the classic
     multiply-accumulate into the top byte cannot carry out. *)
  (w * h01) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b = a.len = b.len && a.words = b.words

let check_len a b =
  if a.len <> b.len then invalid_arg "Bv: length mismatch"

let map2 op a b =
  check_len a b;
  { len = a.len; words = Array.map2 op a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b
let logxor a b = map2 ( lxor ) a b

let complement a =
  let t = { len = a.len; words = Array.map lnot a.words } in
  if Array.length t.words > 0 then begin
    let last = Array.length t.words - 1 in
    t.words.(last) <- t.words.(last) land last_mask t
  end;
  t

let in_place op a b =
  check_len a b;
  Array.iteri (fun i w -> a.words.(i) <- op w b.words.(i)) a.words

let union_in_place a b = in_place ( lor ) a b
let inter_in_place a b = in_place ( land ) a b
let diff_in_place a b = in_place (fun x y -> x land lnot y) a b
let logxor_in_place a b = in_place ( lxor ) a b

let subset a b =
  check_len a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let disjoint a b =
  check_len a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let iter_set f t =
  Array.iteri
    (fun wi w ->
      let rec go w =
        if w <> 0 then begin
          let b = w land -w in
          let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
          f ((wi * bits_per_word) + log2 b 0);
          go (w land (w - 1))
        end
      in
      go w)
    t.words

let fold_set f t init =
  let acc = ref init in
  iter_set (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold_set (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (set t) l;
  t

let random ~rng n ~density =
  let t = create n in
  for i = 0 to n - 1 do
    if Random.State.float rng 1.0 < density then set t i
  done;
  t

let pp ppf t =
  for i = 0 to t.len - 1 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done

(* ------------------------------------------------------------------ *)

module Kernel = struct
  let enabled = ref true

  (* [index_mask ~len ~j] has bit m set iff bit [j] of the index [m] is
     zero — the periodic selector the neighbour shift needs.  Built
     word-parallel: for 2^j < 63 each word is a window into a 126-bit
     unrolled period; for 2^j >= 63 each word is constant or has one
     run boundary. *)
  let build_index_mask ~len ~j =
    let s = 1 lsl j in
    let t = create len in
    let w = Array.length t.words in
    if s < bits_per_word then begin
      (* Unroll the infinite pattern to 126 bits; word wi is the 63-bit
         window starting at (wi * 63) mod 2s. *)
      let p_lo = ref 0 and p_hi = ref 0 in
      for idx = 0 to (2 * bits_per_word) - 1 do
        if (idx lsr j) land 1 = 0 then
          if idx < bits_per_word then p_lo := !p_lo lor (1 lsl idx)
          else p_hi := !p_hi lor (1 lsl (idx - bits_per_word))
      done;
      let p_lo = !p_lo and p_hi = !p_hi in
      let period = 2 * s in
      for wi = 0 to w - 1 do
        let off = wi * bits_per_word land (period - 1) in
        let word =
          if off = 0 then p_lo
          else (p_lo lsr off) lor (p_hi lsl (bits_per_word - off))
        in
        Array.unsafe_set t.words wi word
      done
    end
    else
      for wi = 0 to w - 1 do
        let start = wi * bits_per_word in
        let q0 = start lsr j and q1 = (start + bits_per_word - 1) lsr j in
        let word =
          if q0 = q1 then if q0 land 1 = 0 then -1 else 0
          else begin
            (* one parity boundary inside this word *)
            let k = ((q0 + 1) lsl j) - start in
            let low = (1 lsl k) - 1 in
            if q0 land 1 = 0 then low else -1 lxor low
          end
        in
        Array.unsafe_set t.words wi word
      done;
    if w > 0 then t.words.(w - 1) <- t.words.(w - 1) land last_mask t;
    t

  (* A mask is a pure function of (len, j) and the kernels request the
     same few over and over, so memoise.  Stored masks stay internal
     to this module and are only ever read; the lock makes the memo
     safe from parallel worker domains. *)
  let mask_memo : (int * int, t) Hashtbl.t = Hashtbl.create 64
  let mask_lock = Mutex.create ()

  let index_mask ~len ~j =
    Mutex.lock mask_lock;
    let m =
      match Hashtbl.find_opt mask_memo (len, j) with
      | Some m -> m
      | None ->
          let m = build_index_mask ~len ~j in
          Hashtbl.add mask_memo (len, j) m;
          m
    in
    Mutex.unlock mask_lock;
    m

  let check_neighbor name ~j t =
    let s = 1 lsl j in
    if j < 0 || j > 40 || t.len = 0 || t.len mod (2 * s) <> 0 then
      invalid_arg (name ^ ": length must be a multiple of 2^(j+1)")

  (* d[m] = t[m] xor t[m xor 2^j], for all 63 minterms of a word at
     once.  With e[m] = t[m] xor t[m+s], the positions with bit j = 0
     of [e] are exactly the wanted values; their mirror at bit j = 1
     is the same value shifted up by s.  The funnel shifts are fused
     into the xor/mask (downward) and or (upward) passes, so the whole
     computation is two passes and two allocations. *)
  let neighbor_diff ~j t =
    check_neighbor "Bv.Kernel.neighbor_diff" ~j t;
    let s = 1 lsl j in
    let mask = index_mask ~len:t.len ~j in
    let w = Array.length t.words in
    let ws = s / bits_per_word and bs = s mod bits_per_word in
    let e = create t.len in
    for i = 0 to w - 1 do
      let sh =
        if i + ws >= w then 0
        else
          let lo = Array.unsafe_get t.words (i + ws) lsr bs in
          if bs = 0 || i + ws + 1 >= w then lo
          else
            lo lor (Array.unsafe_get t.words (i + ws + 1)
                    lsl (bits_per_word - bs))
      in
      Array.unsafe_set e.words i
        ((sh lxor Array.unsafe_get t.words i)
        land Array.unsafe_get mask.words i)
    done;
    let d = create t.len in
    for i = 0 to w - 1 do
      let sh =
        if i - ws < 0 then 0
        else
          let lo = Array.unsafe_get e.words (i - ws) lsl bs in
          if bs = 0 || i - ws - 1 < 0 then lo
          else
            lo lor (Array.unsafe_get e.words (i - ws - 1)
                    lsr (bits_per_word - bs))
      in
      Array.unsafe_set d.words i (Array.unsafe_get e.words i lor sh)
    done;
    if w > 0 then d.words.(w - 1) <- d.words.(w - 1) land last_mask d;
    d

  let neighbor ~j t =
    let d = neighbor_diff ~j t in
    logxor_in_place d t;
    d

  let popcount_and a b =
    check_len a b;
    let acc = ref 0 in
    for i = 0 to Array.length a.words - 1 do
      acc :=
        !acc
        + popcount_word
            (Array.unsafe_get a.words i land Array.unsafe_get b.words i)
    done;
    !acc

  let popcount_and3 a b c =
    check_len a b;
    check_len a c;
    let acc = ref 0 in
    for i = 0 to Array.length a.words - 1 do
      acc :=
        !acc
        + popcount_word
            (Array.unsafe_get a.words i
            land Array.unsafe_get b.words i
            land Array.unsafe_get c.words i)
    done;
    !acc

  let popcount_or a b =
    check_len a b;
    let acc = ref 0 in
    for i = 0 to Array.length a.words - 1 do
      acc :=
        !acc
        + popcount_word
            (Array.unsafe_get a.words i lor Array.unsafe_get b.words i)
    done;
    !acc

  let popcount_xor a b =
    check_len a b;
    let acc = ref 0 in
    for i = 0 to Array.length a.words - 1 do
      acc :=
        !acc
        + popcount_word
            (Array.unsafe_get a.words i lxor Array.unsafe_get b.words i)
    done;
    !acc

  let popcount_and_masked a b ~mask = popcount_and3 a b mask

  (* Bit-sliced per-index counters: plane k holds bit k of every
     index's count, so adding a 0/1 plane to 2^n counters is a ripple-
     carry over O(bits) whole-vector AND/XOR passes. *)
  type counter = { c_len : int; planes : t array }

  let counter_create ~len ~bits =
    if bits <= 0 then invalid_arg "Bv.Kernel.counter_create";
    { c_len = len; planes = Array.init bits (fun _ -> create len) }

  let counter_length c = c.c_len
  let counter_bits c = Array.length c.planes

  (* The ripple carries run word-column-wise: one pass over the words,
     a short (usually 1-2 level) carry chain per word, no temporary
     vectors.  The incoming plane is only ever read. *)
  let counter_add_bit c plane =
    if length plane <> c.c_len then invalid_arg "Bv.Kernel.counter_add_bit";
    let bits = Array.length c.planes in
    let w = Array.length plane.words in
    for i = 0 to w - 1 do
      let carry = ref (Array.unsafe_get plane.words i) in
      let k = ref 0 in
      while !carry <> 0 do
        if !k >= bits then invalid_arg "Bv.Kernel.counter_add_bit: overflow";
        let p = (Array.unsafe_get c.planes !k).words in
        let pv = Array.unsafe_get p i in
        Array.unsafe_set p i (pv lxor !carry);
        carry := pv land !carry;
        incr k
      done
    done

  let counter_add c src =
    if src.c_len <> c.c_len then invalid_arg "Bv.Kernel.counter_add";
    let bits = Array.length c.planes in
    let sbits = Array.length src.planes in
    let w = Array.length c.planes.(0).words in
    for i = 0 to w - 1 do
      let carry = ref 0 in
      for k = 0 to bits - 1 do
        let p = (Array.unsafe_get c.planes k).words in
        let av = Array.unsafe_get p i
        and bv =
          if k < sbits then Array.unsafe_get src.planes.(k).words i else 0
        in
        Array.unsafe_set p i (av lxor bv lxor !carry);
        carry := (av land bv) lor (!carry land (av lor bv))
      done;
      if !carry <> 0 then invalid_arg "Bv.Kernel.counter_add: overflow"
    done

  (* ---------------------------------------------------------------- *)
  (* Cache-blocked neighbour sweep.                                    *)

  type sweep_op = {
    sw_src : t;
    sw_diff : bool;
    sw_counter : counter option;
    sw_cross : t option;
  }

  (* 256 words = 2 KiB per operand plane: a handful of planes (sources,
     counters, masks, cross sets) stay L1/L2-resident per tile. *)
  let default_tile = 256

  (* One fused pass instead of [nj * ops] full-vector traversals: for
     each tile of words, for each flip bit [j], the neighbour (or
     neighbour-difference) words of every operand are computed on the
     fly — the e/d funnel-shift algebra is exactly the one in
     [neighbor_diff], evaluated per word — and consumed immediately by
     the popcount accumulator and/or the ripple-carry counter column.
     No intermediate 2^n-bit vector is ever materialised, and each
     plane's tile slice is touched once per [j] while hot in cache.
     Per word-column the counter additions happen in the same j-
     ascending order as the word-at-a-time kernels, so results (and
     overflow behaviour) are bit-identical. *)
  let neighbour_sweep ?(tile = default_tile) ~nj ops =
    if tile < 1 then invalid_arg "Bv.Kernel.neighbour_sweep: tile must be >= 1";
    let nops = Array.length ops in
    let accs = Array.make nops 0 in
    if nops > 0 && nj > 0 then begin
      let src0 = ops.(0).sw_src in
      let len = src0.len in
      Array.iter
        (fun op ->
          if op.sw_src.len <> len then
            invalid_arg "Bv.Kernel.neighbour_sweep: length mismatch";
          (match op.sw_counter with
          | Some c when c.c_len <> len ->
              invalid_arg "Bv.Kernel.neighbour_sweep: counter length mismatch"
          | _ -> ());
          match op.sw_cross with
          | Some x when x.len <> len ->
              invalid_arg "Bv.Kernel.neighbour_sweep: cross length mismatch"
          | _ -> ())
        ops;
      for j = 0 to nj - 1 do
        check_neighbor "Bv.Kernel.neighbour_sweep" ~j src0
      done;
      let masks = Array.init nj (fun j -> (index_mask ~len ~j).words) in
      let w = Array.length src0.words in
      let lm = last_mask src0 in
      let lo = ref 0 in
      while !lo < w do
        let hi = min w (!lo + tile) in
        for j = 0 to nj - 1 do
          let s = 1 lsl j in
          let ws = s / bits_per_word and bs = s mod bits_per_word in
          let mask = masks.(j) in
          for oi = 0 to nops - 1 do
            let op = Array.unsafe_get ops oi in
            let tw = op.sw_src.words in
            let e_at x =
              if x < 0 then 0
              else
                let sh =
                  if x + ws >= w then 0
                  else
                    let l = Array.unsafe_get tw (x + ws) lsr bs in
                    if bs = 0 || x + ws + 1 >= w then l
                    else
                      l
                      lor (Array.unsafe_get tw (x + ws + 1)
                          lsl (bits_per_word - bs))
                in
                (sh lxor Array.unsafe_get tw x) land Array.unsafe_get mask x
            in
            for i = !lo to hi - 1 do
              let sh =
                if i - ws < 0 then 0
                else
                  let l = e_at (i - ws) lsl bs in
                  if bs = 0 || i - ws - 1 < 0 then l
                  else l lor (e_at (i - ws - 1) lsr (bits_per_word - bs))
              in
              let d = e_at i lor sh in
              let d = if i = w - 1 then d land lm else d in
              let v = if op.sw_diff then d else d lxor Array.unsafe_get tw i in
              (match op.sw_cross with
              | Some x ->
                  Array.unsafe_set accs oi
                    (Array.unsafe_get accs oi
                    + popcount_word (v land Array.unsafe_get x.words i))
              | None -> ());
              match op.sw_counter with
              | Some c ->
                  let bits = Array.length c.planes in
                  let carry = ref v and k = ref 0 in
                  while !carry <> 0 do
                    if !k >= bits then
                      invalid_arg "Bv.Kernel.counter_add_bit: overflow";
                    let p = (Array.unsafe_get c.planes !k).words in
                    let pv = Array.unsafe_get p i in
                    Array.unsafe_set p i (pv lxor !carry);
                    carry := pv land !carry;
                    incr k
                  done
              | None -> ()
            done
          done
        done;
        lo := hi
      done
    end;
    accs

  let counter_neighbor ~j c =
    { c_len = c.c_len; planes = Array.map (fun p -> neighbor ~j p) c.planes }

  let counter_get c m =
    if m < 0 || m >= c.c_len then invalid_arg "Bv.Kernel.counter_get";
    let v = ref 0 in
    Array.iteri (fun k p -> if unsafe_get p m then v := !v lor (1 lsl k))
      c.planes;
    !v

  let counter_extract c =
    let r = Array.make c.c_len 0 in
    Array.iteri
      (fun k p ->
        let bit = 1 lsl k in
        iter_set (fun i -> Array.unsafe_set r i (Array.unsafe_get r i lor bit)) p)
      c.planes;
    r

  let counter_weighted_sum c ~mask =
    if length mask <> c.c_len then
      invalid_arg "Bv.Kernel.counter_weighted_sum";
    let acc = ref 0 in
    Array.iteri (fun k p -> acc := !acc + (popcount_and p mask lsl k)) c.planes;
    !acc

  (* |a - b| per index plus the sign plane (bit set where b > a), via
     a bit-sliced two's-complement subtract (a + lnot b + 1, initial
     carry all-ones) and conditional negate ((d xor s) + s).  Both
     ripples run word-column-wise in one pass; the padding columns
     compute garbage that the final mask clears.  Requires equal
     widths; the result reuses that width. *)
  let counter_abs_diff a b =
    if a.c_len <> b.c_len || Array.length a.planes <> Array.length b.planes
    then invalid_arg "Bv.Kernel.counter_abs_diff";
    let bits = Array.length a.planes in
    let len = a.c_len in
    let abs = counter_create ~len ~bits in
    let sign = create len in
    let w = Array.length sign.words in
    let tmp = Array.make bits 0 in
    for i = 0 to w - 1 do
      let carry = ref (-1) in
      for k = 0 to bits - 1 do
        let av = Array.unsafe_get a.planes.(k).words i
        and bv = lnot (Array.unsafe_get b.planes.(k).words i) in
        Array.unsafe_set tmp k (av lxor bv lxor !carry);
        carry := (av land bv) lor (!carry land (av lor bv))
      done;
      (* the extra slice (a = 0, lnot b = all-ones) reduces to this *)
      let s = lnot !carry in
      Array.unsafe_set sign.words i s;
      let c2 = ref s in
      for k = 0 to bits - 1 do
        let v = Array.unsafe_get tmp k lxor s in
        Array.unsafe_set (Array.unsafe_get abs.planes k).words i (v lxor !c2);
        c2 := v land !c2
      done
    done;
    if w > 0 then begin
      let lm = last_mask sign in
      sign.words.(w - 1) <- sign.words.(w - 1) land lm;
      Array.iter
        (fun p -> p.words.(w - 1) <- p.words.(w - 1) land lm)
        abs.planes
    end;
    (abs, sign)
end
