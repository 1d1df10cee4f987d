module Spec = Pla.Spec

type params = {
  ni : int;
  on_count : int;
  off_count : int;
  target_cf : float option;
  tolerance : float;
  max_steps : int;
}

let default_params ~ni ~dc_frac ~target_cf =
  let size = 1 lsl ni in
  let dc = int_of_float (Float.round (dc_frac *. float_of_int size)) in
  let care = size - dc in
  let on = care / 2 in
  {
    ni;
    on_count = on;
    off_count = care - on;
    target_cf;
    tolerance = 0.01;
    max_steps = 60 * size;
  }

(* Phase encoding in the working table: 0 = off, 1 = on, 2 = dc. *)
let phase_of_code = function
  | 0 -> Spec.Off
  | 1 -> Spec.On
  | _ -> Spec.Dc

(* Same-phase ordered-pair count of a code table. *)
let same_pairs ~ni table =
  let size = 1 lsl ni in
  let count = ref 0 in
  for m = 0 to size - 1 do
    let p = Bytes.get table m in
    for j = 0 to ni - 1 do
      if Bytes.get table (m lxor (1 lsl j)) = p then incr count
    done
  done;
  !count

(* Change in same-pair count if minterm [m]'s code becomes [q]. *)
let delta_for ~ni table m q =
  let p = Bytes.get table m in
  if p = q then 0
  else begin
    let d = ref 0 in
    for j = 0 to ni - 1 do
      let pn = Bytes.get table (m lxor (1 lsl j)) in
      if pn = p then decr d;
      if pn = q then incr d
    done;
    2 * !d (* ordered pairs: both directions *)
  end

(* Random shuffled code assignment with exact counts. *)
let random_codes ~rng ~size ~on ~off =
  let codes = Bytes.make size '\002' in
  let order = Array.init size (fun i -> i) in
  for i = size - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  for i = 0 to on - 1 do
    Bytes.set codes order.(i) '\001'
  done;
  for i = on to on + off - 1 do
    Bytes.set codes order.(i) '\000'
  done;
  codes

(* Clustered seed: recursively split the space on random variables and
   hand whole sub-cubes to the phase with the largest remaining quota.
   Produces cube-aligned structure (high complexity factor). *)
(* Maximally clustered seed.  By the edge-isoperimetric inequality on
   the hypercube (Harper/Lindsey/Bernstein/Hart), initial segments of
   the lexicographic (integer) order minimise the edge boundary, i.e.
   maximise same-phase adjacency.  We lay the three phases out as
   nested initial segments of a randomly bit-permuted integer order,
   largest phase first. *)
let clustered_codes ~rng ~ni ~on ~off =
  let size = 1 lsl ni in
  let codes = Bytes.make size '\000' in
  let order = Array.init ni (fun i -> i) in
  for i = ni - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let rank m =
    let r = ref 0 in
    for j = 0 to ni - 1 do
      if m land (1 lsl order.(j)) <> 0 then r := !r lor (1 lsl j)
    done;
    !r
  in
  (* slots: (code, count), largest first *)
  let slots =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      [ ('\002', size - on - off); ('\001', on); ('\000', off) ]
  in
  let bounds =
    let acc = ref 0 in
    List.map
      (fun (code, count) ->
        acc := !acc + count;
        (code, !acc))
      slots
  in
  for m = 0 to size - 1 do
    let r = rank m in
    let code =
      let rec pick = function
        | [] -> '\000'
        | (code, upper) :: rest -> if r < upper then code else pick rest
      in
      pick bounds
    in
    Bytes.set codes m code
  done;
  codes

(* Anti-clustered seed: minterms ordered checkerboard-first (even
   parity before odd, random tie order), then handed to the phases as
   nested segments.  A balanced two-phase split along this order is
   exactly the parity function (complexity factor 0), so seeds land at
   the bottom of the reachable range. *)
let checkerboard_codes ~rng ~ni ~on ~off =
  let size = 1 lsl ni in
  let codes = Bytes.make size '\000' in
  let order = Array.init size (fun i -> i) in
  for i = size - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let rank = Array.make size 0 in
  let next = ref 0 in
  let assign_parity p =
    Array.iter
      (fun m ->
        if Bitvec.Minterm.popcount m land 1 = p then begin
          rank.(m) <- !next;
          incr next
        end)
      order
  in
  assign_parity 0;
  assign_parity 1;
  let slots =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      [ ('\002', size - on - off); ('\001', on); ('\000', off) ]
  in
  let bounds =
    let acc = ref 0 in
    List.map
      (fun (code, count) ->
        acc := !acc + count;
        (code, !acc))
      slots
  in
  for m = 0 to size - 1 do
    let r = rank.(m) in
    let code =
      let rec pick = function
        | [] -> '\000'
        | (code, upper) :: rest -> if r < upper then code else pick rest
      in
      pick bounds
    in
    Bytes.set codes m code
  done;
  codes

let anneal ~rng ~ni ~target ~tolerance ~max_steps codes =
  let size = 1 lsl ni in
  let total = float_of_int (ni * size) in
  let pairs = ref (same_pairs ~ni codes) in
  let cf () = float_of_int !pairs /. total in
  let cost () = abs_float (cf () -. target) in
  (* One swap moves cf by O(1/2^ni); the temperature must sit well
     below that scale or annealing degenerates into a random walk that
     drifts toward the entropy-favoured (random) configuration. *)
  let temp0 = 0.2 /. float_of_int size in
  let step = ref 0 in
  while cost () > tolerance && !step < max_steps do
    incr step;
    let a = Random.State.int rng size in
    let b = Random.State.int rng size in
    let pa = Bytes.get codes a and pb = Bytes.get codes b in
    if pa <> pb then begin
      let before = cost () in
      (* apply swap with incremental pair updates *)
      let d1 = delta_for ~ni codes a pb in
      Bytes.set codes a pb;
      pairs := !pairs + d1;
      let d2 = delta_for ~ni codes b pa in
      Bytes.set codes b pa;
      pairs := !pairs + d2;
      let after = cost () in
      let temp =
        temp0 *. (1.0 -. (float_of_int !step /. float_of_int max_steps))
      in
      let accept =
        after <= before
        || Random.State.float rng 1.0 < exp ((before -. after) /. max temp 1e-6)
      in
      if not accept then begin
        (* revert *)
        let d3 = delta_for ~ni codes b pb in
        Bytes.set codes b pb;
        pairs := !pairs + d3;
        let d4 = delta_for ~ni codes a pa in
        Bytes.set codes a pa;
        pairs := !pairs + d4
      end
    end
  done

let codes_to_spec ~ni codes =
  let spec = Spec.create ~ni ~no:1 ~default:Spec.Off in
  Bytes.iteri
    (fun m c -> Spec.set spec ~o:0 ~m (phase_of_code (Char.code c)))
    codes;
  spec

let output ~rng p =
  let size = 1 lsl p.ni in
  if p.on_count + p.off_count > size then invalid_arg "Synth_gen: counts";
  let codes =
    match p.target_cf with
    | None -> random_codes ~rng ~size ~on:p.on_count ~off:p.off_count
    | Some target ->
        (* Three seeds spanning the reachable range — random (at
           E[C^f]), maximally clustered (high), checkerboard (low) —
           start annealing from the nearest. *)
        let seeds =
          [
            random_codes ~rng ~size ~on:p.on_count ~off:p.off_count;
            clustered_codes ~rng ~ni:p.ni ~on:p.on_count ~off:p.off_count;
            checkerboard_codes ~rng ~ni:p.ni ~on:p.on_count ~off:p.off_count;
          ]
        in
        let total = float_of_int (p.ni * size) in
        let cf_of c = float_of_int (same_pairs ~ni:p.ni c) /. total in
        let seed =
          List.fold_left
            (fun best cand ->
              if abs_float (cf_of cand -. target) < abs_float (cf_of best -. target)
              then cand
              else best)
            (List.hd seeds) (List.tl seeds)
        in
        anneal ~rng ~ni:p.ni ~target ~tolerance:p.tolerance
          ~max_steps:p.max_steps seed;
        seed
  in
  codes_to_spec ~ni:p.ni codes

let spec ~rng ~no p =
  if no <= 0 then invalid_arg "Synth_gen.spec: no outputs";
  let s = Spec.create ~ni:p.ni ~no ~default:Spec.Off in
  for o = 0 to no - 1 do
    let one = output ~rng p in
    for m = 0 to Spec.size s - 1 do
      Spec.set s ~o ~m (Spec.get one ~o:0 ~m)
    done
  done;
  s

let random_spec ~rng ~ni ~no ~f1 ~f0 =
  let s = Spec.create ~ni ~no ~default:Spec.Dc in
  for o = 0 to no - 1 do
    for m = 0 to (1 lsl ni) - 1 do
      let x = Random.State.float rng 1.0 in
      if x < f1 then Spec.set s ~o ~m Spec.On
      else if x < f1 +. f0 then Spec.set s ~o ~m Spec.Off
    done
  done;
  s

(* ------------------------------------------------------------------ *)
(* Cover-level generation: the n > 20 regime, where specs are cube
   lists rather than tables.  Each cube fixes every variable with
   probability [lit_prob] (split evenly between the polarities), so a
   cube covers 2^(n * (1 - lit_prob)) minterms in expectation and the
   resulting BDDs stay small while the function is far from trivial. *)

let random_cube ~rng ~ni ~lit_prob =
  Twolevel.Cube.make ~n:ni
    (List.init ni (fun _ ->
         if Random.State.float rng 1.0 >= lit_prob then Twolevel.Cube.Free
         else if Random.State.bool rng then Twolevel.Cube.One
         else Twolevel.Cube.Zero))

let random_cover ~rng ~ni ~cubes ~lit_prob =
  if cubes < 0 then invalid_arg "Synth_gen.random_cover: negative count";
  Twolevel.Cover.make ~n:ni
    (List.init cubes (fun _ -> random_cube ~rng ~ni ~lit_prob))

let random_cover_sets ~rng ~ni ~no ~on_cubes ~dc_cubes ~lit_prob =
  if no <= 0 then invalid_arg "Synth_gen.random_cover_sets: no outputs";
  if ni < 1 || ni > 61 then invalid_arg "Synth_gen.random_cover_sets: ni";
  List.init no (fun _ ->
      let on = random_cover ~rng ~ni ~cubes:on_cubes ~lit_prob in
      let dc = random_cover ~rng ~ni ~cubes:dc_cubes ~lit_prob in
      Pla.Fd_sets { on; dc })
