(* Tests for algebraic factoring: division, kernels, QUICK_FACTOR. *)

module Cube = Twolevel.Cube
module Cover = Twolevel.Cover
module Factor = Twolevel.Factor
module Bv = Bitvec.Bv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cov n strs = Cover.make ~n (List.map Cube.of_string strs)
let same_function a b = Bv.equal (Cover.to_bv a) (Cover.to_bv b)

let semantically_equal n cover expr =
  let ok = ref true in
  for m = 0 to (1 lsl n) - 1 do
    if Cover.eval cover m <> Factor.eval expr m then ok := false
  done;
  !ok

let test_of_cover_eval () =
  let f = cov 3 [ "1-0"; "-11" ] in
  check "flat expr equals cover" true (semantically_equal 3 f (Factor.of_cover f));
  check "empty is false" true (Factor.of_cover (Cover.empty ~n:2) = Factor.Const false)

let test_divide_by_literal () =
  (* F = a b + a c + d  divided by a: Q = b + c, R = d
     (vars: a=x0, b=x1, c=x2, d=x3) *)
  let f = cov 4 [ "11--"; "1-1-"; "---1" ] in
  let by = Cube.set (Cube.full ~n:4) 0 Cube.One in
  let q, r = Factor.divide ~by f in
  check_int "quotient cubes" 2 (Cover.size q);
  check_int "remainder cubes" 1 (Cover.size r);
  check "q contains b" true
    (List.exists (fun c -> Cube.equal c (Cube.of_string "-1--")) (Cover.cubes q));
  check "q contains c" true
    (List.exists (fun c -> Cube.equal c (Cube.of_string "--1-")) (Cover.cubes q))

let test_divide_by_cube () =
  (* F = a b c + a b d  divided by ab: Q = c + d *)
  let f = cov 4 [ "111-"; "11-1" ] in
  let by = Cube.of_string "11--" in
  let q, r = Factor.divide ~by f in
  check_int "q size" 2 (Cover.size q);
  check_int "r empty" 0 (Cover.size r)

let test_best_literal () =
  let f = cov 3 [ "1--"; "1-1"; "-10" ] in
  Alcotest.(check (option (pair int bool)))
    "x0 positive occurs twice" (Some (0, false)) (Factor.best_literal f);
  check "no repeated literal" true
    (Factor.best_literal (cov 2 [ "1-"; "-1" ]) = None)

let test_factor_textbook () =
  (* F = a b + a c = a (b + c): 3 literals factored vs 4 flat. *)
  let f = cov 3 [ "11-"; "1-1" ] in
  let e = Factor.factor f in
  check "equivalent" true (semantically_equal 3 f e);
  check_int "3 literals" 3 (Factor.literal_count e);
  check_int "flat has 4" 4 (Factor.literal_count (Factor.of_cover f))

let test_factor_bigger () =
  (* F = ad + bd + cd + e -> d(a+b+c) + e : 5 literals vs 7. *)
  let f = cov 5 [ "1--1-"; "-1-1-"; "--11-"; "----1" ] in
  let e = Factor.factor f in
  check "equivalent" true (semantically_equal 5 f e);
  check_int "5 literals" 5 (Factor.literal_count e)

let test_kernels_textbook () =
  (* F = ace + bce + de + g (SIS example): kernels include (a+b)
     with co-kernel ce, (ace+bce+de) / e = ac+bc+d with co-kernel e,
     and F itself (cube-free). *)
  (* vars: a=0 b=1 c=2 d=3 e=4 g=5 *)
  let f = cov 6 [ "1-1-1-"; "-11-1-"; "---11-"; "-----1" ] in
  let ks = Factor.kernels f in
  check "has a+b kernel" true
    (List.exists
       (fun (_, k) ->
         Cover.size k = 2
         && same_function k (cov 6 [ "1-----"; "-1----" ]))
       ks);
  check "has ac+bc+d kernel" true
    (List.exists
       (fun (_, k) ->
         Cover.size k = 3
         && same_function k (cov 6 [ "1-1---"; "-11---"; "---1--" ]))
       ks);
  check "F itself is a kernel" true
    (List.exists (fun (ck, k) ->
         Cube.free_count ~n:6 ck = 6 && Cover.size k = 4)
       ks)

let test_kernel_property () =
  (* every kernel is cube-free and co-kernel * kernel ⊆ F algebraically *)
  let f = cov 5 [ "11---"; "1-1--"; "-11-1"; "---1-"; "1---1" ] in
  let ks = Factor.kernels f in
  check "at least one kernel" true (ks <> []);
  List.iter
    (fun (ck, k) ->
      (* cube-freeness: no literal common to all kernel cubes *)
      match Cover.cubes k with
      | [] -> Alcotest.fail "empty kernel"
      | c :: rest ->
          let sup = List.fold_left Cube.supercube c rest in
          check "kernel cube-free" true (Cube.free_count ~n:5 sup = 5);
          (* each co-kernel*kernel-cube is a cube of F *)
          List.iter
            (fun kc ->
              match Cube.intersect ck kc with
              | None -> Alcotest.fail "cokernel incompatible with kernel cube"
              | Some prod ->
                  check "product is a cube of F" true
                    (List.exists (Cube.equal prod) (Cover.cubes f)))
            (Cover.cubes k))
    ks

let test_aig_of_factored () =
  let f = cov 4 [ "11--"; "1-1-"; "1--1" ] in
  let e = Factor.factor f in
  let flat = Aig.of_covers ~ni:4 [ f ] in
  let fac = Aig.of_factored ~ni:4 [ e ] in
  for m = 0 to 15 do
    check
      (Printf.sprintf "m=%d" m)
      true
      (Aig.eval_minterm flat m = Aig.eval_minterm fac m)
  done;
  check "factored not larger" true (Aig.num_ands fac <= Aig.num_ands flat)

let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (frequencyl [ (2, Cube.Zero); (2, Cube.One); (3, Cube.Free) ])
      |> map (Cube.make ~n)
    in
    list_size (int_range 0 8) gen_cube |> map (fun cs -> Cover.make ~n cs))

let arb_cover n =
  QCheck.make ~print:(fun cv -> Format.asprintf "%a" Cover.pp cv) (gen_cover n)

let prop_factor_equivalent =
  QCheck.Test.make ~name:"factor preserves the function" ~count:200
    (arb_cover 5) (fun f ->
      semantically_equal 5 f (Factor.factor f))

let prop_factor_never_more_literals =
  QCheck.Test.make ~name:"factored literals <= flat literals" ~count:200
    (arb_cover 5) (fun f ->
      Factor.literal_count (Factor.factor f)
      <= Factor.literal_count (Factor.of_cover f))

let prop_divide_reconstructs =
  QCheck.Test.make ~name:"F = by*Q + R semantically when dividing"
    ~count:200
    QCheck.(pair (arb_cover 5) (int_bound 9))
    (fun (f, litid) ->
      let var = litid / 2 and neg = litid land 1 = 1 in
      let by =
        Cube.set (Cube.full ~n:5) var (if neg then Cube.Zero else Cube.One)
      in
      let q, r = Factor.divide ~by f in
      let reconstructed =
        Cover.make ~n:5
          (List.filter_map (fun c -> Cube.intersect by c) (Cover.cubes q)
          @ Cover.cubes r)
      in
      same_function f reconstructed)

let suite =
  ( "factor",
    [
      Alcotest.test_case "of_cover eval" `Quick test_of_cover_eval;
      Alcotest.test_case "divide by literal" `Quick test_divide_by_literal;
      Alcotest.test_case "divide by cube" `Quick test_divide_by_cube;
      Alcotest.test_case "best literal" `Quick test_best_literal;
      Alcotest.test_case "factor textbook" `Quick test_factor_textbook;
      Alcotest.test_case "factor bigger" `Quick test_factor_bigger;
      Alcotest.test_case "kernels textbook" `Quick test_kernels_textbook;
      Alcotest.test_case "kernel properties" `Quick test_kernel_property;
      Alcotest.test_case "aig of factored" `Quick test_aig_of_factored;
      QCheck_alcotest.to_alcotest prop_factor_equivalent;
      QCheck_alcotest.to_alcotest prop_factor_never_more_literals;
      QCheck_alcotest.to_alcotest prop_divide_reconstructs;
    ] )
