(* Tests for the espresso-style minimisers: correctness invariants on
   random incompletely specified functions, canonical examples, and
   the exact Quine-McCluskey oracle the heuristics are measured
   against. *)

module Cube = Twolevel.Cube
module Cover = Twolevel.Cover
module Bv = Bitvec.Bv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bv_of_minterms n l =
  let bv = Bv.create (1 lsl n) in
  List.iter (Bv.set bv) l;
  bv

(* Minimise the function with the given on- and DC-minterm lists. *)
let dense n on_l dc_l =
  let on = bv_of_minterms n on_l and dc = bv_of_minterms n dc_l in
  (on, dc, Espresso.Dense.minimize ~n ~on ~dc)

let valid_minimization ~n ~on ~dc result =
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    let out = Cover.eval result m in
    if Bv.get on m && not out then ok := false;
    (* off-set minterm must not be covered *)
    if (not (Bv.get on m)) && (not (Bv.get dc m)) && out then ok := false
  done;
  !ok

let test_constant_zero () =
  let _, _, r = dense 3 [] [ 1; 2 ] in
  check_int "empty" 0 (Cover.size r)

let test_xor_two_cubes () =
  (* XOR of 2 variables needs exactly 2 cubes. *)
  let on, dc, r = dense 2 [ 1; 2 ] [] in
  check_int "xor cubes" 2 (Cover.size r);
  check "valid" true (valid_minimization ~n:2 ~on ~dc r)

let test_dc_not_required () =
  (* DCs must only be used when they help: off-set must stay uncovered. *)
  let on, dc, r = dense 3 [ 0; 1 ] [ 7 ] in
  check "valid" true (valid_minimization ~n:3 ~on ~dc r);
  check_int "one cube 00-" 1 (Cover.size r)

let test_classic_example () =
  (* f = x0'x1' + x0 x1 over 3 vars with x2 free, from minterms. *)
  let on =
    Cover.to_bv (Cover.make ~n:3 (List.map Cube.of_string [ "00-"; "11-" ]))
  in
  let r = Espresso.Dense.minimize ~n:3 ~on ~dc:(Bv.create 8) in
  check_int "already minimal" 2 (Cover.size r);
  check "same function" true (Bv.equal (Cover.to_bv r) on)

(* Random specifications: partition the 2^n space into on/off/dc with a
   three-sided coin, minimise, and check the functional invariants. *)
let gen_spec n =
  QCheck.Gen.(
    list_repeat (1 lsl n) (int_bound 2)
    |> map (fun phases ->
           let on = ref [] and dc = ref [] in
           List.iteri
             (fun m p ->
               if p = 1 then on := m :: !on else if p = 2 then dc := m :: !dc)
             phases;
           (!on, !dc)))

let arb_spec n =
  QCheck.make
    ~print:(fun (on, dc) ->
      Printf.sprintf "on=%s dc=%s"
        (String.concat "," (List.map string_of_int on))
        (String.concat "," (List.map string_of_int dc)))
    (gen_spec n)

let prop_minimize_no_worse =
  QCheck.Test.make ~name:"minimize never beats the on-set lower bound"
    ~count:80 (arb_spec 4) (fun (on_l, dc_l) ->
      let _, _, r = dense 4 on_l dc_l in
      (* trivially, cube count cannot exceed the number of on minterms,
         and must be >= 1 when the on-set is non-empty *)
      (on_l = [] && Cover.size r = 0)
      || (Cover.size r >= 1 && Cover.size r <= List.length on_l))

let prop_dense_valid =
  QCheck.Test.make ~name:"dense minimize respects on/off sets" ~count:150
    (arb_spec 5) (fun (on_l, dc_l) ->
      let on, dc, r = dense 5 on_l dc_l in
      valid_minimization ~n:5 ~on ~dc r)

let test_dense_full_space () =
  let on = bv_of_minterms 3 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let dc = bv_of_minterms 3 [] in
  let r = Espresso.Dense.minimize ~n:3 ~on ~dc in
  check_int "single full cube" 1 (Cover.size r)

let test_dense_with_dc () =
  let on = bv_of_minterms 2 [ 0; 3 ] in
  let dc = bv_of_minterms 2 [ 1; 2 ] in
  let r = Espresso.Dense.minimize ~n:2 ~on ~dc in
  check_int "collapses via dc" 1 (Cover.size r)

let test_dense_overlap_rejected () =
  let on = bv_of_minterms 2 [ 0 ] in
  let dc = bv_of_minterms 2 [ 0 ] in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Dense.minimize: on and dc overlap") (fun () ->
      ignore (Espresso.Dense.minimize ~n:2 ~on ~dc))

let test_dense_large_smoke () =
  (* 10-input random function: must terminate quickly and be valid. *)
  let rng = Random.State.make [| 42 |] in
  let on = Bv.create 1024 and dc = Bv.create 1024 in
  for m = 0 to 1023 do
    match Random.State.int rng 3 with
    | 0 -> ()
    | 1 -> Bv.set on m
    | _ -> Bv.set dc m
  done;
  let r = Espresso.Dense.minimize ~n:10 ~on ~dc in
  let ok = ref true in
  for m = 0 to 1023 do
    let out = Cover.eval r m in
    if Bv.get on m && not out then ok := false;
    if (not (Bv.get on m)) && (not (Bv.get dc m)) && out then ok := false
  done;
  check "valid on 10 inputs" true !ok;
  check "nontrivial compression" true (Cover.size r < Bv.cardinal on)

let suite =
  ( "espresso",
    [
      Alcotest.test_case "constant zero" `Quick test_constant_zero;
      Alcotest.test_case "xor needs two cubes" `Quick test_xor_two_cubes;
      Alcotest.test_case "dc not forced into cover" `Quick test_dc_not_required;
      Alcotest.test_case "classic two-cube function" `Quick test_classic_example;
      QCheck_alcotest.to_alcotest prop_minimize_no_worse;
      Alcotest.test_case "dense: full space" `Quick test_dense_full_space;
      Alcotest.test_case "dense: dc merging" `Quick test_dense_with_dc;
      Alcotest.test_case "dense: overlap rejected" `Quick
        test_dense_overlap_rejected;
      Alcotest.test_case "dense: 10-input smoke" `Quick test_dense_large_smoke;
      QCheck_alcotest.to_alcotest prop_dense_valid;
    ] )

(* Exact Quine-McCluskey as oracle for the heuristics. *)

let test_qm_primes_of_and () =
  (* f = x0 & x1 over 2 vars: only prime is 11. *)
  let on = bv_of_minterms 2 [ 3 ] and dc = bv_of_minterms 2 [] in
  let p = Espresso.Qm.primes ~n:2 ~on ~dc in
  check_int "one prime" 1 (Cover.size p);
  check "is the minterm" true
    (Cube.equal (List.hd (Cover.cubes p)) (Cube.of_string "11"))

let test_qm_primes_with_merging () =
  (* f = x2' over 3 vars as minterms: single prime --0. *)
  let on = bv_of_minterms 3 [ 0; 1; 2; 3 ] and dc = bv_of_minterms 3 [] in
  let p = Espresso.Qm.primes ~n:3 ~on ~dc in
  check_int "one prime" 1 (Cover.size p);
  check "is --0" true (Cube.equal (List.hd (Cover.cubes p)) (Cube.of_string "--0"))

let test_qm_classic_primes () =
  (* The classic f = Σm(0,1,2,5,6,7) over 3 vars has 6 primes... the
     textbook example: primes are x0'x1', x0'x2', x1x2', x0x2, x1'x2,
     x0x1.  Wait — check count only. *)
  let on = bv_of_minterms 3 [ 0; 1; 2; 5; 6; 7 ] and dc = bv_of_minterms 3 [] in
  let p = Espresso.Qm.primes ~n:3 ~on ~dc in
  check_int "six primes" 6 (Cover.size p);
  (* exact minimum is 3 cubes *)
  let r = Espresso.Qm.minimize ~n:3 ~on ~dc in
  check_int "minimum 3" 3 (Cover.size r)

let test_qm_min_xor3 () =
  (* 3-input parity needs 4 cubes exactly. *)
  let on =
    bv_of_minterms 3
      (List.filter (fun m -> Bitvec.Minterm.popcount m mod 2 = 1)
         [ 0; 1; 2; 3; 4; 5; 6; 7 ])
  in
  let r = Espresso.Qm.minimize ~n:3 ~on ~dc:(bv_of_minterms 3 []) in
  check_int "parity cubes" 4 (Cover.size r)

let test_qm_uses_dc () =
  let on = bv_of_minterms 2 [ 0; 3 ] and dc = bv_of_minterms 2 [ 1; 2 ] in
  let r = Espresso.Qm.minimize ~n:2 ~on ~dc in
  check_int "single cube with dc" 1 (Cover.size r)

let prop_qm_valid =
  QCheck.Test.make ~name:"qm minimize respects on/off sets" ~count:100
    (arb_spec 4) (fun (on_l, dc_l) ->
      let on = bv_of_minterms 4 on_l and dc = bv_of_minterms 4 dc_l in
      let r = Espresso.Qm.minimize ~n:4 ~on ~dc in
      let ok = ref true in
      for m = 0 to 15 do
        let out = Cover.eval r m in
        if Bv.get on m && not out then ok := false;
        if (not (Bv.get on m)) && (not (Bv.get dc m)) && out then ok := false
      done;
      !ok)

let prop_heuristic_never_beats_exact ~name n =
  QCheck.Test.make ~name ~count:100 (arb_spec n) (fun (on_l, dc_l) ->
      let on, dc, heur = dense n on_l dc_l in
      let exact = Espresso.Qm.minimize ~n ~on ~dc in
      Cover.size heur >= Cover.size exact)

let prop_heuristic_close_to_exact =
  QCheck.Test.make ~name:"dense espresso within 1.5x of exact + 1" ~count:100
    (arb_spec 4) (fun (on_l, dc_l) ->
      let on = bv_of_minterms 4 on_l and dc = bv_of_minterms 4 dc_l in
      let exact = Espresso.Qm.minimize ~n:4 ~on ~dc in
      let heur = Espresso.Dense.minimize ~n:4 ~on ~dc in
      float_of_int (Cover.size heur)
      <= (1.5 *. float_of_int (Cover.size exact)) +. 1.0)

let prop_primes_are_prime =
  QCheck.Test.make ~name:"every QM prime is maximal" ~count:60 (arb_spec 4)
    (fun (on_l, dc_l) ->
      let on = bv_of_minterms 4 on_l and dc = bv_of_minterms 4 dc_l in
      QCheck.assume (on_l <> [] || dc_l <> []);
      let care = Bv.union on dc in
      let ps = Espresso.Qm.primes ~n:4 ~on ~dc in
      List.for_all
        (fun c ->
          (* contained in care ... *)
          let inside = ref true in
          Cube.iter_minterms ~n:4
            (fun m -> if not (Bv.get care m) then inside := false)
            c;
          (* ... and no single-literal raise stays inside *)
          let maximal = ref true in
          for j = 0 to 3 do
            if Cube.get c j <> Cube.Free then begin
              let c' = Cube.set c j Cube.Free in
              let fits = ref true in
              Cube.iter_minterms ~n:4
                (fun m -> if not (Bv.get care m) then fits := false)
                c';
              if !fits then maximal := false
            end
          done;
          !inside && !maximal)
        (Cover.cubes ps))

let qm_cases =
  [
    Alcotest.test_case "qm: primes of and2" `Quick test_qm_primes_of_and;
    Alcotest.test_case "qm: merging to one prime" `Quick
      test_qm_primes_with_merging;
    Alcotest.test_case "qm: classic 6-prime example" `Quick
      test_qm_classic_primes;
    Alcotest.test_case "qm: parity minimum" `Quick test_qm_min_xor3;
    Alcotest.test_case "qm: exploits dc" `Quick test_qm_uses_dc;
    QCheck_alcotest.to_alcotest prop_qm_valid;
    QCheck_alcotest.to_alcotest
      (prop_heuristic_never_beats_exact
         ~name:"dense espresso never beats the exact minimum" 4);
    QCheck_alcotest.to_alcotest
      (prop_heuristic_never_beats_exact
         ~name:"dense espresso never beats QM at n=5" 5);
    QCheck_alcotest.to_alcotest prop_heuristic_close_to_exact;
    QCheck_alcotest.to_alcotest prop_primes_are_prime;
  ]

let suite = (fst suite, snd suite @ qm_cases)

(* Multi-output espresso: validity, sharing, agreement. *)

let multi_valid ~n ~ons ~dcs cubes =
  let no = Array.length ons in
  let ok = ref true in
  for o = 0 to no - 1 do
    for m = 0 to (1 lsl n) - 1 do
      let v = Espresso.Multi.eval ~n cubes ~o ~m in
      if Bv.get ons.(o) m && not v then ok := false;
      if (not (Bv.get ons.(o) m)) && (not (Bv.get dcs.(o) m)) && v then
        ok := false
    done
  done;
  !ok

let test_multi_shares_identical_outputs () =
  (* Two identical outputs must share every cube: cube count equals the
     single-output cover size. *)
  let on = bv_of_minterms 4 [ 3; 7; 11; 15; 1 ] in
  let dc = bv_of_minterms 4 [] in
  let single = Espresso.Dense.minimize ~n:4 ~on ~dc in
  let cubes =
    Espresso.Multi.minimize ~n:4 ~ons:[| Bv.copy on; Bv.copy on |]
      ~dcs:[| Bv.copy dc; Bv.copy dc |]
  in
  check "valid" true
    (multi_valid ~n:4 ~ons:[| on; on |] ~dcs:[| dc; dc |] cubes);
  check "no duplication" true (List.length cubes <= Cover.size single);
  List.iter
    (fun c -> check_int "both outputs" 0b11 c.Espresso.Multi.outputs)
    cubes

let test_multi_disjoint_outputs () =
  let on0 = bv_of_minterms 3 [ 1; 3 ] and on1 = bv_of_minterms 3 [ 4; 6 ] in
  let dc = bv_of_minterms 3 [] in
  let cubes =
    Espresso.Multi.minimize ~n:3 ~ons:[| on0; on1 |]
      ~dcs:[| Bv.copy dc; Bv.copy dc |]
  in
  check "valid" true
    (multi_valid ~n:3 ~ons:[| on0; on1 |] ~dcs:[| dc; dc |] cubes)

let test_multi_output_raise_shares () =
  (* o0 = x0&x1 on-set; o1 has the same minterms as DC: expansion may
     raise the output part, sharing the term; validity must hold. *)
  let on0 = bv_of_minterms 2 [ 3 ] and on1 = bv_of_minterms 2 [] in
  let dc0 = bv_of_minterms 2 [] and dc1 = bv_of_minterms 2 [ 3 ] in
  let cubes =
    Espresso.Multi.minimize ~n:2 ~ons:[| on0; on1 |] ~dcs:[| dc0; dc1 |]
  in
  check "valid" true (multi_valid ~n:2 ~ons:[| on0; on1 |] ~dcs:[| dc0; dc1 |] cubes)

let gen_multi_spec n no =
  QCheck.Gen.(
    list_repeat (no * (1 lsl n)) (int_bound 2)
    |> map (fun phases ->
           let ons = Array.init no (fun _ -> Bv.create (1 lsl n)) in
           let dcs = Array.init no (fun _ -> Bv.create (1 lsl n)) in
           List.iteri
             (fun i p ->
               let o = i / (1 lsl n) and m = i mod (1 lsl n) in
               if p = 1 then Bv.set ons.(o) m
               else if p = 2 then Bv.set dcs.(o) m)
             phases;
           (ons, dcs)))

let prop_multi_valid =
  QCheck.Test.make ~name:"multi minimize respects all on/off sets" ~count:80
    (QCheck.make (gen_multi_spec 4 3))
    (fun (ons, dcs) ->
      let cubes = Espresso.Multi.minimize ~n:4 ~ons ~dcs in
      multi_valid ~n:4 ~ons ~dcs cubes)

let prop_multi_no_worse_than_sum =
  QCheck.Test.make
    ~name:"multi cube count <= sum of single-output counts (+slack)"
    ~count:50
    (QCheck.make (gen_multi_spec 4 3))
    (fun (ons, dcs) ->
      let cubes = Espresso.Multi.minimize ~n:4 ~ons ~dcs in
      let singles =
        Array.to_list
          (Array.mapi
             (fun o on ->
               Cover.size (Espresso.Dense.minimize ~n:4 ~on ~dc:dcs.(o)))
             ons)
      in
      List.length cubes <= List.fold_left ( + ) 0 singles + 2)

let multi_cases =
  [
    Alcotest.test_case "multi: identical outputs share" `Quick
      test_multi_shares_identical_outputs;
    Alcotest.test_case "multi: disjoint outputs" `Quick
      test_multi_disjoint_outputs;
    Alcotest.test_case "multi: output raising" `Quick
      test_multi_output_raise_shares;
    QCheck_alcotest.to_alcotest prop_multi_valid;
    QCheck_alcotest.to_alcotest prop_multi_no_worse_than_sum;
  ]

let suite = (fst suite, snd suite @ multi_cases)
