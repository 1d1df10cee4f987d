module Spec = Pla.Spec
module Bv = Bitvec.Bv
module K = Bv.Kernel

let events ~n = float_of_int (n * (1 lsl n))

(* An [ni = 0] spec has no inputs to flip, hence no error events at
   all; the rate of an empty event space is 0, not 0/0. *)
let rate ~n count = if n = 0 then 0.0 else float_of_int count /. events ~n

(* The reference oracle for the word-parallel [of_table] below.  The
   single range check at entry licenses the unchecked bit reads in the
   loop. *)
let of_table_scalar spec ~o ~impl =
  let n = Spec.ni spec in
  let size = Spec.size spec in
  if Bv.length impl <> size then invalid_arg "Error_rate.of_table: length";
  let count = ref 0 in
  for m = 0 to size - 1 do
    match Spec.get spec ~o ~m with
    | Spec.Dc -> () (* errors cannot originate in the DC space *)
    | Spec.On | Spec.Off ->
        let v = Bv.unsafe_get impl m in
        for j = 0 to n - 1 do
          if Bv.unsafe_get impl (m lxor (1 lsl j)) <> v then incr count
        done
  done;
  rate ~n !count

(* An event (m, j) propagates iff bit m of [neighbor_diff ~j impl] is
   set, so the per-output count is n fused popcounts over the care set
   — tiled into one cache-blocked sweep. *)
let of_table spec ~o ~impl =
  let n = Spec.ni spec in
  if Bv.length impl <> Spec.size spec then
    invalid_arg "Error_rate.of_table: length";
  if n = 0 then 0.0
  else begin
    let _, _, dc = Spec.phase_planes spec ~o in
    let care = Bv.complement dc in
    let accs =
      K.neighbour_sweep ~nj:n
        [|
          {
            K.sw_src = impl;
            sw_diff = true;
            sw_counter = None;
            sw_cross = Some care;
          };
        |]
    in
    rate ~n accs.(0)
  end

(* Per-output rates are independent, so the mean is computed by a
   parallel map over outputs followed by a sequential fold in output
   order — the same summation order as a sequential loop, hence
   bit-identical at every job count. *)
let of_tables spec tables =
  if Array.length tables <> Spec.no spec then
    invalid_arg "Error_rate.of_tables: output count";
  let rates =
    Parallel.Pool.mapi (fun o impl -> of_table spec ~o ~impl) tables
  in
  Array.fold_left ( +. ) 0.0 rates /. float_of_int (Spec.no spec)

let of_netlist spec nl =
  if Netlist.ni nl <> Spec.ni spec then
    invalid_arg "Error_rate.of_netlist: input count";
  of_tables spec (Netlist.output_tables nl)

type bounds = { base : float; min_dc : float; max_dc : float }

let zero_bounds = { base = 0.0; min_dc = 0.0; max_dc = 0.0 }

let bounds_scalar spec ~o =
  let n = Spec.ni spec in
  let size = Spec.size spec in
  if n = 0 then zero_bounds
  else begin
    let base = ref 0 and min_dc = ref 0 and max_dc = ref 0 in
    for m = 0 to size - 1 do
      match Spec.get spec ~o ~m with
      | Spec.On | Spec.Off ->
          (* Count care->care opposite-phase transitions; both directions
             appear because we visit both endpoints. *)
          let my = Spec.get spec ~o ~m in
          for j = 0 to n - 1 do
            let m' = m lxor (1 lsl j) in
            match Spec.get spec ~o ~m:m' with
            | Spec.Dc -> ()
            | p -> if p <> my then incr base
          done
      | Spec.Dc ->
          let on, off, _ = Spec.neighbour_counts spec ~o ~m in
          min_dc := !min_dc + min on off;
          max_dc := !max_dc + max on off
    done;
    let ev = events ~n in
    {
      base = float_of_int !base /. ev;
      min_dc = float_of_int !min_dc /. ev;
      max_dc = float_of_int !max_dc /. ev;
    }
  end

(* Word-parallel bounds.  The base term pairs an on-minterm with an
   off-neighbour (both directions, like the scalar oracle).  The DC
   terms need per-minterm neighbour counts: with bit-sliced counters,
     sum over DC of min(on, off) = (S - A) / 2
     sum over DC of max(on, off) = (S + A) / 2
   where S sums on + off and A sums |on - off| over the DC set — all
   exact integer arithmetic, so the result is bit-identical to the
   scalar oracle. *)
let bounds spec ~o =
  let n = Spec.ni spec in
  if n = 0 then zero_bounds
  else begin
    let on, off, dc = Spec.phase_planes spec ~o in
    let len = Spec.size spec in
    let on_c = K.counter_create ~len ~bits:5
    and off_c = K.counter_create ~len ~bits:5 in
    (* One tiled sweep: each j-neighbour plane feeds its counter and
       the opposite-phase cross popcount while hot in cache. *)
    let accs =
      K.neighbour_sweep ~nj:n
        [|
          {
            K.sw_src = on;
            sw_diff = false;
            sw_counter = Some on_c;
            sw_cross = Some off;
          };
          {
            K.sw_src = off;
            sw_diff = false;
            sw_counter = Some off_c;
            sw_cross = Some on;
          };
        |]
    in
    let base = ref (accs.(0) + accs.(1)) in
    let s =
      K.counter_weighted_sum on_c ~mask:dc
      + K.counter_weighted_sum off_c ~mask:dc
    in
    let abs_c, _sign = K.counter_abs_diff on_c off_c in
    let a = K.counter_weighted_sum abs_c ~mask:dc in
    let ev = events ~n in
    {
      base = float_of_int !base /. ev;
      min_dc = float_of_int ((s - a) / 2) /. ev;
      max_dc = float_of_int ((s + a) / 2) /. ev;
    }
  end

let mean_bounds spec =
  let no = Spec.no spec in
  let per_output = Parallel.Pool.init no (fun o -> bounds spec ~o) in
  let acc =
    Array.fold_left
      (fun acc b ->
        {
          base = acc.base +. b.base;
          min_dc = acc.min_dc +. b.min_dc;
          max_dc = acc.max_dc +. b.max_dc;
        })
      zero_bounds per_output
  in
  let k = float_of_int no in
  { base = acc.base /. k; min_dc = acc.min_dc /. k; max_dc = acc.max_dc /. k }

let min_rate b = b.base +. b.min_dc
let max_rate b = b.base +. b.max_dc

let impl_table assigned ~o =
  let on, _, dc = Spec.phase_planes assigned ~o in
  if not (Bv.is_empty dc) then invalid_arg "Spec.output_value: unassigned DC";
  Bv.copy on

let of_spec_assigned spec ~o = of_table spec ~o ~impl:(impl_table spec ~o)

(* Iterate all k-subsets of inputs as XOR masks. *)
let iter_flip_masks ~n ~k f =
  let rec go start mask chosen =
    if chosen = k then f mask
    else
      for j = start to n - 1 do
        go (j + 1) (mask lor (1 lsl j)) (chosen + 1)
      done
  in
  go 0 0 0

let binomial n k =
  let rec go i acc = if i > k then acc else go (i + 1) (acc * (n - i + 1) / i) in
  go 1 1

let of_table_kbit spec ~o ~impl ~k =
  let n = Spec.ni spec in
  if k < 1 || k > n then invalid_arg "Error_rate.of_table_kbit: bad k";
  let size = Spec.size spec in
  if Bv.length impl <> size then invalid_arg "Error_rate.of_table_kbit";
  let count = ref 0 in
  for m = 0 to size - 1 do
    match Spec.get spec ~o ~m with
    | Spec.Dc -> ()
    | Spec.On | Spec.Off ->
        let v = Bv.unsafe_get impl m in
        iter_flip_masks ~n ~k (fun mask ->
            if Bv.unsafe_get impl (m lxor mask) <> v then incr count)
  done;
  float_of_int !count /. (float_of_int (binomial n k) *. float_of_int size)

let of_tables_kbit spec tables ~k =
  if Array.length tables <> Spec.no spec then
    invalid_arg "Error_rate.of_tables_kbit";
  let rates =
    Parallel.Pool.mapi (fun o impl -> of_table_kbit spec ~o ~impl ~k) tables
  in
  Array.fold_left ( +. ) 0.0 rates /. float_of_int (Spec.no spec)
