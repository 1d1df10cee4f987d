module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bv.Kernel

let ordered_pairs spec = Spec.ni spec * Spec.size spec

(* The reference oracle for the word-parallel [same_phase_pairs]
   below. *)
let same_phase_pairs_scalar spec ~o =
  let n = Spec.ni spec in
  let count = ref 0 in
  for m = 0 to Spec.size spec - 1 do
    let p = Spec.get spec ~o ~m in
    for j = 0 to n - 1 do
      if Spec.get spec ~o ~m:(m lxor (1 lsl j)) = p then incr count
    done
  done;
  !count

(* Per-phase same-phase pair counts: for each phase plane P,
   sum over j of |P /\ N_j P| — the quantity shared by
   [same_phase_pairs] and [border_counts]. *)
let same_counts spec ~o =
  let n = Spec.ni spec in
  let on, off, dc = Spec.phase_planes spec ~o in
  let op p =
    { K.sw_src = p; sw_diff = false; sw_counter = None; sw_cross = Some p }
  in
  let accs = K.neighbour_sweep ~nj:n [| op on; op off; op dc |] in
  (accs.(0), accs.(1), accs.(2))

let same_phase_pairs spec ~o =
  let s_on, s_off, s_dc = same_counts spec ~o in
  s_on + s_off + s_dc

let complexity_factor spec ~o =
  let same = same_phase_pairs spec ~o in
  (* A 0-input function is constant, hence trivially regular — the
     [local_complexity_factor] convention, not 0/0. *)
  if Spec.ni spec = 0 then 1.0
  else float_of_int same /. float_of_int (ordered_pairs spec)

let mean_over_outputs f spec =
  let no = Spec.no spec in
  let acc = ref 0.0 in
  for o = 0 to no - 1 do
    acc := !acc +. f spec ~o
  done;
  !acc /. float_of_int no

let mean_complexity_factor spec = mean_over_outputs complexity_factor spec

let expected_complexity_factor spec ~o =
  let f1, f0, fdc = Spec.signal_probs spec ~o in
  (f0 *. f0) +. (f1 *. f1) +. (fdc *. fdc)

let mean_expected_complexity_factor spec =
  mean_over_outputs expected_complexity_factor spec

let local_complexity_factor spec ~o ~m =
  let n = Spec.ni spec in
  if n = 0 then begin
    ignore (Spec.get spec ~o ~m : Spec.phase) (* range check only *);
    1.0 (* a 0-input function is constant, hence trivially regular *)
  end
  else begin
    let count = ref 0 in
    for j = 0 to n - 1 do
      let xj = m lxor (1 lsl j) in
      let pj = Spec.get spec ~o ~m:xj in
      (* x_k ranges over all n neighbours of x_j — including m itself
         (flipping bit j again), which the paper's definition admits. *)
      for k = 0 to n - 1 do
        let xk = xj lxor (1 lsl k) in
        if Spec.get spec ~o ~m:xk = pj then incr count
      done
    done;
    float_of_int !count /. float_of_int (n * n)
  end

(* Whole-space LC^f.  Writing S(x) for the number of neighbours of x
   sharing x's phase, the paper's double sum collapses to
     LC^f(m) = (1/n^2) * sum over j of S(m lxor 2^j):
   build S once as a bit-sliced counter (n fused plane operations),
   then accumulate its n neighbour permutations into a wider counter.
   Integer arithmetic throughout, so bit-identical to
   [local_complexity_factor] at every minterm.  A 0-input function is
   constant, hence trivially regular. *)
let local_complexity_factors spec ~o =
  let n = Spec.ni spec in
  if n = 0 then begin
    if o < 0 || o >= Spec.no spec then invalid_arg "Spec: output out of range";
    [| 1.0 |]
  end
  else begin
    let len = Spec.size spec in
    let on, off, dc = Spec.phase_planes spec ~o in
    let s = K.counter_create ~len ~bits:5 (* S <= n <= 20 < 32 *) in
    for k = 0 to n - 1 do
      let same = Bv.inter on (K.neighbor ~j:k on) in
      Bv.union_in_place same (Bv.inter off (K.neighbor ~j:k off));
      Bv.union_in_place same (Bv.inter dc (K.neighbor ~j:k dc));
      K.counter_add_bit s same
    done;
    let t = K.counter_create ~len ~bits:9 (* T <= n^2 <= 400 < 512 *) in
    for j = 0 to n - 1 do
      K.counter_add t (K.counter_neighbor ~j s)
    done;
    let sums = K.counter_extract t in
    let nn = float_of_int (n * n) in
    Array.map (fun c -> float_of_int c /. nn) sums
  end

type counts = { b0 : int; b1 : int; bdc : int }

let border_counts_scalar spec ~o =
  let n = Spec.ni spec in
  let b0 = ref 0 and b1 = ref 0 and bdc = ref 0 in
  for m = 0 to Spec.size spec - 1 do
    let p = Spec.get spec ~o ~m in
    for j = 0 to n - 1 do
      let p' = Spec.get spec ~o ~m:(m lxor (1 lsl j)) in
      if p' <> p then
        match p with
        | Spec.Off -> incr b0
        | Spec.On -> incr b1
        | Spec.Dc -> incr bdc
    done
  done;
  { b0 = !b0; b1 = !b1; bdc = !bdc }

(* Each minterm of a phase set has n neighbours; those not in the same
   set are exactly the border pairs, so b_P = n*|P| - same_P. *)
let border_counts spec ~o =
  let n = Spec.ni spec in
  let on, off, dc = Spec.phase_planes spec ~o in
  let s_on, s_off, s_dc = same_counts spec ~o in
  {
    b0 = (n * Bv.cardinal off) - s_off;
    b1 = (n * Bv.cardinal on) - s_on;
    bdc = (n * Bv.cardinal dc) - s_dc;
  }
