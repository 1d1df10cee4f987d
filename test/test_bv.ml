(* Unit and property tests for Bitvec.Bv. *)

module Bv = Bitvec.Bv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create_empty () =
  let t = Bv.create 100 in
  check_int "length" 100 (Bv.length t);
  check_int "cardinal" 0 (Bv.cardinal t);
  check "is_empty" true (Bv.is_empty t)

let test_set_get_clear () =
  let t = Bv.create 70 in
  Bv.set t 0;
  Bv.set t 62;
  Bv.set t 63;
  Bv.set t 69;
  check "bit 0" true (Bv.get t 0);
  check "bit 62" true (Bv.get t 62);
  check "bit 63 (word boundary)" true (Bv.get t 63);
  check "bit 69" true (Bv.get t 69);
  check "bit 1" false (Bv.get t 1);
  check_int "cardinal" 4 (Bv.cardinal t);
  Bv.clear t 63;
  check "cleared" false (Bv.get t 63);
  check_int "cardinal after clear" 3 (Bv.cardinal t)

let test_assign () =
  let t = Bv.create 8 in
  Bv.assign t 3 true;
  check "assigned true" true (Bv.get t 3);
  Bv.assign t 3 false;
  check "assigned false" false (Bv.get t 3)

let test_out_of_range () =
  let t = Bv.create 10 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bv: index out of range")
    (fun () -> ignore (Bv.get t (-1)));
  Alcotest.check_raises "get 10" (Invalid_argument "Bv: index out of range")
    (fun () -> ignore (Bv.get t 10))

let test_fill_complement () =
  let t = Bv.create 65 in
  Bv.fill t true;
  check_int "filled cardinal" 65 (Bv.cardinal t);
  let c = Bv.complement t in
  check_int "complement cardinal" 0 (Bv.cardinal c);
  let c2 = Bv.complement c in
  check "double complement" true (Bv.equal t c2)

let test_setops () =
  let a = Bv.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bv.of_list 10 [ 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 5; 6; 7 ]
    (Bv.to_list (Bv.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bv.to_list (Bv.inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 7 ] (Bv.to_list (Bv.diff a b));
  check "subset no" false (Bv.subset a b);
  check "subset yes" true (Bv.subset (Bv.inter a b) a);
  check "disjoint no" false (Bv.disjoint a b);
  check "disjoint yes" true (Bv.disjoint (Bv.diff a b) b)

let test_inplace () =
  let a = Bv.of_list 10 [ 1; 2 ] in
  let b = Bv.of_list 10 [ 2; 3 ] in
  Bv.union_in_place a b;
  Alcotest.(check (list int)) "union_in_place" [ 1; 2; 3 ] (Bv.to_list a);
  Bv.diff_in_place a b;
  Alcotest.(check (list int)) "diff_in_place" [ 1 ] (Bv.to_list a);
  let c = Bv.of_list 10 [ 1; 5 ] in
  Bv.inter_in_place c (Bv.of_list 10 [ 5 ]);
  Alcotest.(check (list int)) "inter_in_place" [ 5 ] (Bv.to_list c)

let test_iter_fold () =
  let t = Bv.of_list 200 [ 0; 63; 64; 126; 199 ] in
  let collected = ref [] in
  Bv.iter_set (fun i -> collected := i :: !collected) t;
  Alcotest.(check (list int)) "iter order" [ 0; 63; 64; 126; 199 ]
    (List.rev !collected);
  check_int "fold sum" (0 + 63 + 64 + 126 + 199)
    (Bv.fold_set (fun i acc -> acc + i) t 0)

let test_copy_independent () =
  let a = Bv.of_list 10 [ 1 ] in
  let b = Bv.copy a in
  Bv.set b 2;
  check "copy independent" false (Bv.get a 2);
  check "copy kept" true (Bv.get b 1)

(* Properties *)

let gen_ops =
  QCheck.(pair (small_nat |> map (fun n -> n + 1)) (list small_nat))

let prop_of_list_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:200 gen_ops
    (fun (n, l) ->
      let l = List.filter (fun i -> i < n) l |> List.sort_uniq compare in
      Bv.to_list (Bv.of_list n l) = l)

let prop_demorgan =
  QCheck.Test.make ~name:"De Morgan: not (a|b) = not a & not b" ~count:200
    QCheck.(triple small_nat (list small_nat) (list small_nat))
    (fun (n0, la, lb) ->
      let n = n0 + 1 in
      let mk l = Bv.of_list n (List.filter (fun i -> i < n) l) in
      let a = mk la and b = mk lb in
      Bv.equal
        (Bv.complement (Bv.union a b))
        (Bv.inter (Bv.complement a) (Bv.complement b)))

let prop_cardinal_union =
  QCheck.Test.make ~name:"|a|+|b| = |a∪b|+|a∩b|" ~count:200
    QCheck.(triple small_nat (list small_nat) (list small_nat))
    (fun (n0, la, lb) ->
      let n = n0 + 1 in
      let mk l = Bv.of_list n (List.filter (fun i -> i < n) l) in
      let a = mk la and b = mk lb in
      Bv.cardinal a + Bv.cardinal b
      = Bv.cardinal (Bv.union a b) + Bv.cardinal (Bv.inter a b))

let suite =
  ( "bv",
    [
      Alcotest.test_case "create empty" `Quick test_create_empty;
      Alcotest.test_case "set/get/clear across word boundary" `Quick
        test_set_get_clear;
      Alcotest.test_case "assign" `Quick test_assign;
      Alcotest.test_case "out of range raises" `Quick test_out_of_range;
      Alcotest.test_case "fill and complement respect padding" `Quick
        test_fill_complement;
      Alcotest.test_case "set operations" `Quick test_setops;
      Alcotest.test_case "in-place operations" `Quick test_inplace;
      Alcotest.test_case "iter/fold order" `Quick test_iter_fold;
      Alcotest.test_case "copy independence" `Quick test_copy_independent;
      QCheck_alcotest.to_alcotest prop_of_list_roundtrip;
      QCheck_alcotest.to_alcotest prop_demorgan;
      QCheck_alcotest.to_alcotest prop_cardinal_union;
    ] )

(* Word-boundary and duplicate edge cases. *)

let test_exact_word_lengths () =
  List.iter
    (fun n ->
      let t = Bv.create n in
      Bv.fill t true;
      Alcotest.(check int) (Printf.sprintf "fill %d" n) n (Bv.cardinal t);
      let c = Bv.complement t in
      Alcotest.(check int) (Printf.sprintf "compl %d" n) 0 (Bv.cardinal c))
    [ 1; 62; 63; 64; 126; 127 ]

let test_of_list_duplicates () =
  let t = Bv.of_list 8 [ 3; 3; 3 ] in
  Alcotest.(check int) "dup sets once" 1 (Bv.cardinal t)

let test_zero_length () =
  let t = Bv.create 0 in
  Alcotest.(check int) "empty" 0 (Bv.cardinal t);
  Alcotest.(check bool) "is_empty" true (Bv.is_empty t);
  Alcotest.(check bool) "equal to self complement" true
    (Bv.equal t (Bv.complement t))

let prop_subset_reflexive_transitive =
  QCheck.Test.make ~name:"subset is reflexive and transitive via inter"
    ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (la, lb) ->
      let n = 40 in
      let mk l = Bv.of_list n (List.filter (fun i -> i < n) l) in
      let a = mk la and b = mk lb in
      let i = Bv.inter a b in
      Bv.subset a a && Bv.subset i a && Bv.subset i b)

let extra_cases =
  [
    Alcotest.test_case "exact word lengths" `Quick test_exact_word_lengths;
    Alcotest.test_case "of_list duplicates" `Quick test_of_list_duplicates;
    Alcotest.test_case "zero length" `Quick test_zero_length;
    QCheck_alcotest.to_alcotest prop_subset_reflexive_transitive;
  ]

let suite = (fst suite, snd suite @ extra_cases)

(* Word-parallel kernels: every operation is checked against the
   obvious scalar definition on random vectors of power-of-two
   lengths spanning several word boundaries. *)

module K = Bv.Kernel

let test_unsafe_accessors () =
  let t = Bv.create 130 in
  Bv.unsafe_set t 0;
  Bv.unsafe_set t 63;
  Bv.unsafe_set t 129;
  check "unsafe_get 0" true (Bv.unsafe_get t 0);
  check "unsafe_get 63" true (Bv.unsafe_get t 63);
  check "unsafe_get 129" true (Bv.unsafe_get t 129);
  check "unsafe_get 1" false (Bv.unsafe_get t 1);
  check_int "cardinal" 3 (Bv.cardinal t)

let test_logxor () =
  let a = Bv.of_list 10 [ 1; 3; 5 ] and b = Bv.of_list 10 [ 3; 4 ] in
  Alcotest.(check (list int)) "logxor" [ 1; 4; 5 ] (Bv.to_list (Bv.logxor a b));
  Bv.logxor_in_place a b;
  Alcotest.(check (list int)) "logxor_in_place" [ 1; 4; 5 ] (Bv.to_list a)

let random_bv rng n =
  let t = Bv.create n in
  for i = 0 to n - 1 do
    if Random.State.bool rng then Bv.set t i
  done;
  t

let test_neighbor_matches_permutation () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let len = 1 lsl n in
      let a = random_bv rng len in
      for j = 0 to n - 1 do
        let nb = K.neighbor ~j a in
        let d = K.neighbor_diff ~j a in
        for m = 0 to len - 1 do
          let want = Bv.get a (m lxor (1 lsl j)) in
          if Bv.get nb m <> want then
            Alcotest.failf "neighbor n=%d j=%d m=%d" n j m;
          if Bv.get d m <> (Bv.get a m <> want) then
            Alcotest.failf "neighbor_diff n=%d j=%d m=%d" n j m
        done
      done)
    [ 1; 2; 5; 6; 7; 8; 9; 10 ]

let test_neighbor_validation () =
  let a = Bv.create 12 in
  Alcotest.check_raises "not a multiple"
    (Invalid_argument
       "Bv.Kernel.neighbor_diff: length must be a multiple of 2^(j+1)")
    (fun () -> ignore (K.neighbor_diff ~j:3 a))

let test_popcount_and () =
  let rng = Random.State.make [| 7 |] in
  let a = random_bv rng 300 and b = random_bv rng 300 and c = random_bv rng 300 in
  check_int "and" (Bv.cardinal (Bv.inter a b)) (K.popcount_and a b);
  check_int "and3"
    (Bv.cardinal (Bv.inter a (Bv.inter b c)))
    (K.popcount_and3 a b c);
  check_int "or" (Bv.cardinal (Bv.union a b)) (K.popcount_or a b);
  check_int "xor" (Bv.cardinal (Bv.logxor a b)) (K.popcount_xor a b);
  check_int "and masked"
    (Bv.cardinal (Bv.inter (Bv.inter a b) c))
    (K.popcount_and_masked a b ~mask:c)

let test_counter_roundtrip () =
  let rng = Random.State.make [| 11 |] in
  let len = 200 in
  let c = K.counter_create ~len ~bits:5 in
  let reference = Array.make len 0 in
  for _ = 1 to 20 do
    let p = random_bv rng len in
    K.counter_add_bit c p;
    for i = 0 to len - 1 do
      if Bv.get p i then reference.(i) <- reference.(i) + 1
    done
  done;
  let got = K.counter_extract c in
  Alcotest.(check (array int)) "extract" reference got;
  check_int "get mid" reference.(100) (K.counter_get c 100);
  let mask = random_bv rng len in
  let want =
    Bv.fold_set (fun i acc -> acc + reference.(i)) mask 0
  in
  check_int "weighted sum" want (K.counter_weighted_sum c ~mask)

let test_counter_add_and_abs_diff () =
  let rng = Random.State.make [| 13 |] in
  let len = 150 in
  let mk rounds =
    let c = K.counter_create ~len ~bits:6 in
    for _ = 1 to rounds do
      K.counter_add_bit c (random_bv rng len)
    done;
    c
  in
  let a = mk 17 and b = mk 9 in
  let av = K.counter_extract a and bv = K.counter_extract b in
  let sum = K.counter_create ~len ~bits:6 in
  K.counter_add sum a;
  K.counter_add sum b;
  Alcotest.(check (array int)) "counter_add"
    (Array.map2 ( + ) av bv)
    (K.counter_extract sum);
  let abs, sign = K.counter_abs_diff a b in
  Alcotest.(check (array int)) "abs diff"
    (Array.map2 (fun x y -> Stdlib.abs (x - y)) av bv)
    (K.counter_extract abs);
  for i = 0 to len - 1 do
    if Bv.get sign i <> (bv.(i) > av.(i)) then Alcotest.failf "sign at %d" i
  done

let test_counter_neighbor () =
  let rng = Random.State.make [| 17 |] in
  let len = 128 in
  let c = K.counter_create ~len ~bits:4 in
  for _ = 1 to 9 do
    K.counter_add_bit c (random_bv rng len)
  done;
  let v = K.counter_extract c in
  List.iter
    (fun j ->
      let shifted = K.counter_neighbor ~j c in
      let got = K.counter_extract shifted in
      for m = 0 to len - 1 do
        if got.(m) <> v.(m lxor (1 lsl j)) then
          Alcotest.failf "counter_neighbor j=%d m=%d" j m
      done)
    [ 0; 1; 3; 6 ]

let test_counter_overflow () =
  let c = K.counter_create ~len:8 ~bits:2 in
  let ones = Bv.create 8 in
  Bv.fill ones true;
  K.counter_add_bit c ones;
  K.counter_add_bit c ones;
  K.counter_add_bit c ones;
  Alcotest.check_raises "overflow"
    (Invalid_argument "Bv.Kernel.counter_add_bit: overflow") (fun () ->
      K.counter_add_bit c ones)

let prop_neighbor_involution =
  QCheck.Test.make ~name:"kernel neighbor is an involution" ~count:100
    QCheck.(pair (int_bound 6) (list small_nat))
    (fun (n0, l) ->
      let n = n0 + 1 in
      let len = 1 lsl n in
      let a = Bv.of_list len (List.filter (fun i -> i < len) l) in
      List.for_all
        (fun j -> Bv.equal a (K.neighbor ~j (K.neighbor ~j a)))
        (List.init n (fun j -> j)))

let kernel_cases =
  [
    Alcotest.test_case "unsafe accessors" `Quick test_unsafe_accessors;
    Alcotest.test_case "logxor" `Quick test_logxor;
    Alcotest.test_case "kernel neighbor matches permutation" `Quick
      test_neighbor_matches_permutation;
    Alcotest.test_case "kernel neighbor validation" `Quick
      test_neighbor_validation;
    Alcotest.test_case "kernel fused popcounts" `Quick test_popcount_and;
    Alcotest.test_case "counter roundtrip" `Quick test_counter_roundtrip;
    Alcotest.test_case "counter add / abs diff" `Quick
      test_counter_add_and_abs_diff;
    Alcotest.test_case "counter neighbor" `Quick test_counter_neighbor;
    Alcotest.test_case "counter overflow" `Quick test_counter_overflow;
    QCheck_alcotest.to_alcotest prop_neighbor_involution;
  ]

let suite = (fst suite, snd suite @ kernel_cases)
