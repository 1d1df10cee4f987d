(* Tests for the ROBDD package: structural invariants, semantics
   against dense enumeration, conversions. *)

module Cover = Twolevel.Cover
module Cube = Twolevel.Cube
module Bv = Bitvec.Bv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_terminals () =
  let m = Bdd.make_man ~nvars:3 in
  check "zero" true (Bdd.is_zero m (Bdd.zero m));
  check "one" true (Bdd.is_one m (Bdd.one m));
  check "distinct" false (Bdd.equal (Bdd.zero m) (Bdd.one m))

let test_var_semantics () =
  let m = Bdd.make_man ~nvars:3 in
  let x1 = Bdd.var m 1 in
  check "x1 on m=2" true (Bdd.eval_minterm m x1 0b010);
  check "x1 off m=5" false (Bdd.eval_minterm m x1 0b101);
  let nx1 = Bdd.nvar m 1 in
  check "nx1 = not x1" true (Bdd.equal nx1 (Bdd.bnot m x1))

let test_hash_consing () =
  let m = Bdd.make_man ~nvars:4 in
  let a = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.band m (Bdd.var m 1) (Bdd.var m 0) in
  check "AND commutes to same node" true (Bdd.equal a b);
  let c = Bdd.bor m (Bdd.bnot m (Bdd.var m 0)) (Bdd.bnot m (Bdd.var m 1)) in
  check "De Morgan to same node" true (Bdd.equal (Bdd.bnot m a) c)

let test_connectives () =
  let m = Bdd.make_man ~nvars:2 in
  let x0 = Bdd.var m 0 and x1 = Bdd.var m 1 in
  let test_table name f expected =
    List.iteri
      (fun mt e ->
        check
          (Printf.sprintf "%s m=%d" name mt)
          e (Bdd.eval_minterm m f mt))
      expected
  in
  test_table "and" (Bdd.band m x0 x1) [ false; false; false; true ];
  test_table "or" (Bdd.bor m x0 x1) [ false; true; true; true ];
  test_table "xor" (Bdd.bxor m x0 x1) [ false; true; true; false ];
  test_table "not x0" (Bdd.bnot m x0) [ true; false; true; false ]

let test_ite () =
  let m = Bdd.make_man ~nvars:3 in
  let f = Bdd.ite m (Bdd.var m 0) (Bdd.var m 1) (Bdd.var m 2) in
  for mt = 0 to 7 do
    let x0 = mt land 1 <> 0 and x1 = mt land 2 <> 0 and x2 = mt land 4 <> 0 in
    check
      (Printf.sprintf "ite m=%d" mt)
      (if x0 then x1 else x2)
      (Bdd.eval_minterm m f mt)
  done

let test_satcount () =
  let m = Bdd.make_man ~nvars:4 in
  check_int "count one" 16 (Bdd.satcount m (Bdd.one m));
  check_int "count zero" 0 (Bdd.satcount m (Bdd.zero m));
  check_int "count var" 8 (Bdd.satcount m (Bdd.var m 2));
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 3) in
  check_int "count and" 4 (Bdd.satcount m f);
  let g = Bdd.bxor m (Bdd.var m 0) (Bdd.var m 1) in
  check_int "count xor" 8 (Bdd.satcount m g)

let test_support_size () =
  let m = Bdd.make_man ~nvars:5 in
  let f = Bdd.band m (Bdd.var m 1) (Bdd.bor m (Bdd.var m 3) (Bdd.var m 4)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 4 ] (Bdd.support m f);
  check "size positive" true (Bdd.size m f > 0);
  check_int "size of terminal" 0 (Bdd.size m (Bdd.one m))

let test_cover_conversion () =
  let m = Bdd.make_man ~nvars:3 in
  let cover = Cover.make ~n:3 [ Cube.of_string "1-0"; Cube.of_string "-11" ] in
  let f = Bdd.of_cover m cover in
  for mt = 0 to 7 do
    check
      (Printf.sprintf "of_cover m=%d" mt)
      (Cover.eval cover mt)
      (Bdd.eval_minterm m f mt)
  done

let test_bv_conversion () =
  let m = Bdd.make_man ~nvars:4 in
  let bv = Bv.of_list 16 [ 0; 3; 7; 9; 15 ] in
  let f = Bdd.of_bv m bv in
  check "roundtrip" true (Bv.equal bv (Bdd.to_bv m f));
  check_int "satcount matches" 5 (Bdd.satcount m f)

let test_xor_chain_size () =
  (* XOR of n variables has exactly n internal nodes... for ROBDDs
     without complement edges it is 2n-1 nodes. *)
  let n = 8 in
  let m = Bdd.make_man ~nvars:n in
  let f = ref (Bdd.zero m) in
  for i = 0 to n - 1 do
    f := Bdd.bxor m !f (Bdd.var m i)
  done;
  check_int "xor chain nodes" ((2 * n) - 1) (Bdd.size m !f);
  check_int "xor satcount" 128 (Bdd.satcount m !f)

(* Properties: random covers agree with dense evaluation. *)

let gen_cover n =
  QCheck.Gen.(
    let gen_cube =
      list_repeat n (frequencyl [ (2, Cube.Zero); (2, Cube.One); (3, Cube.Free) ])
      |> map (Cube.make ~n)
    in
    list_size (int_range 0 6) gen_cube |> map (fun cs -> Cover.make ~n cs))

let arb_cover n =
  QCheck.make ~print:(fun cv -> Format.asprintf "%a" Cover.pp cv) (gen_cover n)

let prop_of_cover_semantics =
  QCheck.Test.make ~name:"of_cover agrees with Cover.eval" ~count:150
    (arb_cover 6) (fun cover ->
      let m = Bdd.make_man ~nvars:6 in
      let f = Bdd.of_cover m cover in
      let ok = ref true in
      for mt = 0 to 63 do
        if Bdd.eval_minterm m f mt <> Cover.eval cover mt then ok := false
      done;
      !ok)

let prop_satcount =
  QCheck.Test.make ~name:"satcount = cover cardinality" ~count:150
    (arb_cover 6) (fun cover ->
      let m = Bdd.make_man ~nvars:6 in
      Bdd.satcount m (Bdd.of_cover m cover)
      = Bv.cardinal (Cover.to_bv cover))

let prop_complement_cover =
  QCheck.Test.make ~name:"bnot agrees with Bv.complement" ~count:100
    (arb_cover 5) (fun cover ->
      let m = Bdd.make_man ~nvars:5 in
      Bv.equal
        (Bdd.to_bv m (Bdd.bnot m (Bdd.of_cover m cover)))
        (Bv.complement (Cover.to_bv cover)))

(* Bdd.of_gate is the only gate-to-BDD translation, so it gets its own
   oracle: every gate kind over fanins that are BDD variables (in a
   random pin-to-variable order) must agree with Gate.eval on every
   minterm. *)
let gen_gate_case =
  let open QCheck.Gen in
  let module Gate = Netlist.Gate in
  let cell k =
    map
      (fun bits ->
        let tt = Logic.Truth.of_fun k (List.nth bits) in
        Gate.Cell
          {
            Gate.cell_name = "rand";
            tt;
            arity = k;
            area = 1.0;
            delay = 1.0;
            input_cap = 1.0;
          })
      (list_repeat (1 lsl k) bool)
  in
  let gate_and_arity =
    oneof
      [
        map (fun v -> (Gate.Const v, 0)) bool;
        map (fun g -> (g, 1)) (oneofl [ Gate.Buf; Gate.Not ]);
        pair
          (oneofl
             [ Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ])
          (int_range 2 5);
        ( int_range 0 Logic.Truth.max_vars >>= fun k ->
          map (fun g -> (g, k)) (cell k) );
      ]
  in
  gate_and_arity >>= fun (g, k) ->
  map (fun perm -> (g, Array.of_list perm)) (shuffle_l (List.init k Fun.id))

let prop_of_gate_semantics =
  QCheck.Test.make ~name:"of_gate agrees with Gate.eval" ~count:300
    (QCheck.make gen_gate_case ~print:(fun (g, perm) ->
         Printf.sprintf "%s over vars [%s]" (Netlist.Gate.name g)
           (String.concat ";" (Array.to_list (Array.map string_of_int perm)))))
    (fun (g, perm) ->
      let k = Array.length perm in
      let m = Bdd.make_man ~nvars:k in
      let f = Bdd.of_gate m g (Array.map (Bdd.var m) perm) in
      List.for_all
        (fun mt ->
          Bdd.eval_minterm m f mt
          = Netlist.Gate.eval g
              (Array.map (fun v -> mt land (1 lsl v) <> 0) perm))
        (List.init (1 lsl k) Fun.id))

let test_of_gate_rejects_input () =
  let m = Bdd.make_man ~nvars:1 in
  check "Input raises" true
    (match Bdd.of_gate m (Netlist.Gate.Input 0) [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  ( "bdd",
    [
      Alcotest.test_case "terminals" `Quick test_terminals;
      Alcotest.test_case "var semantics" `Quick test_var_semantics;
      Alcotest.test_case "hash consing" `Quick test_hash_consing;
      Alcotest.test_case "connectives" `Quick test_connectives;
      Alcotest.test_case "ite" `Quick test_ite;
      Alcotest.test_case "satcount" `Quick test_satcount;
      Alcotest.test_case "support and size" `Quick test_support_size;
      Alcotest.test_case "cover conversion" `Quick test_cover_conversion;
      Alcotest.test_case "bv conversion" `Quick test_bv_conversion;
      Alcotest.test_case "xor chain size" `Quick test_xor_chain_size;
      QCheck_alcotest.to_alcotest prop_of_cover_semantics;
      QCheck_alcotest.to_alcotest prop_satcount;
      QCheck_alcotest.to_alcotest prop_complement_cover;
      QCheck_alcotest.to_alcotest prop_of_gate_semantics;
      Alcotest.test_case "of_gate rejects Input" `Quick
        test_of_gate_rejects_input;
    ] )

(* ISOP extraction. *)

let test_isop_fully_specified () =
  let m = Bdd.make_man ~nvars:3 in
  let f = Bdd.bor m (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)) (Bdd.var m 2) in
  let cover, fbdd = Bdd.isop m ~lower:f ~upper:f in
  check "cover bdd equals f" true (Bdd.equal fbdd f);
  for mt = 0 to 7 do
    check
      (Printf.sprintf "isop m=%d" mt)
      (Bdd.eval_minterm m f mt)
      (Cover.eval cover mt)
  done

let test_isop_with_dc () =
  (* on = {00}, dc = {01,10} over 2 vars: a single-literal cube fits. *)
  let m = Bdd.make_man ~nvars:2 in
  let on = Bdd.band m (Bdd.nvar m 0) (Bdd.nvar m 1) in
  let up =
    Bdd.bor m on
      (Bdd.bor m
         (Bdd.band m (Bdd.var m 0) (Bdd.nvar m 1))
         (Bdd.band m (Bdd.nvar m 0) (Bdd.var m 1)))
  in
  let cover, fbdd = Bdd.isop m ~lower:on ~upper:up in
  check_int "one cube" 1 (Cover.size cover);
  (* interval respected *)
  check "lower <= cover" true
    (Bdd.is_zero m (Bdd.band m on (Bdd.bnot m fbdd)));
  check "cover <= upper" true
    (Bdd.is_zero m (Bdd.band m fbdd (Bdd.bnot m up)))

let test_isop_rejects_bad_interval () =
  let m = Bdd.make_man ~nvars:2 in
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Bdd.isop: lower not contained in upper") (fun () ->
      ignore (Bdd.isop m ~lower:(Bdd.one m) ~upper:(Bdd.var m 0)))

let test_isop_large_n () =
  (* 30-variable sparse function: symbolic synthesis beyond the dense
     limit. *)
  let n = 30 in
  let m = Bdd.make_man ~nvars:n in
  let f =
    Bdd.bor m
      (Bdd.band m (Bdd.var m 0) (Bdd.var m 15))
      (Bdd.band m (Bdd.var m 7) (Bdd.bnot m (Bdd.var m 29)))
  in
  let cover, fbdd = Bdd.isop m ~lower:f ~upper:f in
  check "exact" true (Bdd.equal fbdd f);
  check "two cubes" true (Cover.size cover = 2)

let prop_isop_interval =
  QCheck.Test.make ~name:"isop stays within [on, on+dc]" ~count:100
    QCheck.(pair (arb_cover 5) (arb_cover 5))
    (fun (on_c, dc_c) ->
      let m = Bdd.make_man ~nvars:5 in
      let on = Bdd.of_cover m on_c in
      let dc = Bdd.band m (Bdd.of_cover m dc_c) (Bdd.bnot m on) in
      let up = Bdd.bor m on dc in
      let cover, fbdd = Bdd.isop m ~lower:on ~upper:up in
      Bdd.is_zero m (Bdd.band m on (Bdd.bnot m fbdd))
      && Bdd.is_zero m (Bdd.band m fbdd (Bdd.bnot m up))
      && Bdd.equal fbdd (Bdd.of_cover m cover))

let prop_isop_competitive =
  QCheck.Test.make ~name:"isop cover size competitive with dense espresso"
    ~count:60 (arb_cover 5) (fun on_c ->
      let m = Bdd.make_man ~nvars:5 in
      let on = Bdd.of_cover m on_c in
      let cover, _ = Bdd.isop m ~lower:on ~upper:on in
      let on_bv = Bdd.to_bv m on in
      let dc_bv = Bv.create 32 in
      let esp = Espresso.Dense.minimize ~n:5 ~on:on_bv ~dc:dc_bv in
      (* ISOP is irredundant, not minimal: allow slack but catch blowups *)
      Cover.size cover <= (2 * Cover.size esp) + 2)

let isop_cases =
  [
    Alcotest.test_case "isop fully specified" `Quick test_isop_fully_specified;
    Alcotest.test_case "isop exploits dc" `Quick test_isop_with_dc;
    Alcotest.test_case "isop rejects bad interval" `Quick
      test_isop_rejects_bad_interval;
    Alcotest.test_case "isop at n=30" `Quick test_isop_large_n;
    QCheck_alcotest.to_alcotest prop_isop_interval;
    QCheck_alcotest.to_alcotest prop_isop_competitive;
  ]

let suite = (fst suite, snd suite @ isop_cases)

(* More algebraic laws. *)

let prop_flip_var_involution =
  QCheck.Test.make ~name:"flip_var is an involution" ~count:80
    QCheck.(pair (arb_cover 5) (int_bound 4))
    (fun (cover, v) ->
      let m = Bdd.make_man ~nvars:5 in
      let f = Bdd.of_cover m cover in
      Bdd.equal f (Bdd.flip_var m (Bdd.flip_var m f v) v))

let prop_flip_var_satcount =
  QCheck.Test.make ~name:"flip_var preserves satcount" ~count:80
    QCheck.(pair (arb_cover 5) (int_bound 4))
    (fun (cover, v) ->
      let m = Bdd.make_man ~nvars:5 in
      let f = Bdd.of_cover m cover in
      Bdd.satcount m f = Bdd.satcount m (Bdd.flip_var m f v))

let law_cases =
  [
    QCheck_alcotest.to_alcotest prop_flip_var_involution;
    QCheck_alcotest.to_alcotest prop_flip_var_satcount;
  ]

let suite = (fst suite, snd suite @ law_cases)

(* The int-array core: random programs checked step by step against
   dense truth tables.  A program starts from 16 random functions and
   runs 400 steps over 8 variables; a fresh manager starts with 256
   node slots and ends with 2k to 5k nodes, so every program crosses
   four or five doublings of the node arrays, the unique table and
   the computed cache. *)

let prog_vars = 8

(* An operand is a variable or the k-th most recent function.  [Ite]
   takes two variables and a function, so many calls share their
   (f, g) pair and differ only in h. *)
type operand = V of int | R of int

type step =
  | Not of operand
  | And of operand * operand
  | Or of operand * operand
  | Xor of operand * operand
  | Ite of int * int * operand
  | Flip of operand * int

let gen_program =
  let open QCheck.Gen in
  let var = int_bound (prog_vars - 1) in
  let opnd =
    frequency
      [ (1, map (fun i -> V i) var); (3, map (fun k -> R k) (int_bound 15)) ]
  in
  let step =
    frequency
      [
        (1, map (fun a -> Not a) opnd);
        (2, map2 (fun a b -> And (a, b)) opnd opnd);
        (2, map2 (fun a b -> Or (a, b)) opnd opnd);
        (3, map2 (fun a b -> Xor (a, b)) opnd opnd);
        (3, map3 (fun f g h -> Ite (f, g, h)) var var opnd);
        (2, map2 (fun a i -> Flip (a, i)) opnd var);
      ]
  in
  pair int (list_repeat 400 step)

let size_n = 1 lsl prog_vars

let dense_var i =
  Bv.of_list size_n
    (List.filter (fun m -> m land (1 lsl i) <> 0) (List.init size_n Fun.id))

let dense_flip ~n tt i =
  let r = Bv.create (1 lsl n) in
  for mt = 0 to (1 lsl n) - 1 do
    if Bv.get tt (mt lxor (1 lsl i)) then Bv.set r mt
  done;
  r

let dense_ite f g h = Bv.union (Bv.inter f g) (Bv.diff h f)

let run_program m (seed, steps) =
  let rng = Random.State.make [| seed |] in
  let tts = ref (Array.init 16 (fun _ -> Bv.random ~rng size_n ~density:0.5)) in
  let fs = ref (Array.map (Bdd.of_bv m) !tts) in
  let fetch = function
    | V i -> (Bdd.var m i, dense_var i)
    | R k ->
        let j = Array.length !fs - 1 - k in
        (!fs.(j), !tts.(j))
  in
  let ok = ref true in
  List.iter
    (fun step ->
      let f, tt =
        match step with
        | Not a ->
            let f, t = fetch a in
            (Bdd.bnot m f, Bv.complement t)
        | And (a, b) ->
            let (f, t), (g, u) = (fetch a, fetch b) in
            (Bdd.band m f g, Bv.inter t u)
        | Or (a, b) ->
            let (f, t), (g, u) = (fetch a, fetch b) in
            (Bdd.bor m f g, Bv.union t u)
        | Xor (a, b) ->
            let (f, t), (g, u) = (fetch a, fetch b) in
            (Bdd.bxor m f g, Bv.logxor t u)
        | Ite (i, j, c) ->
            let h, u = fetch c in
            ( Bdd.ite m (Bdd.var m i) (Bdd.var m j) h,
              dense_ite (dense_var i) (dense_var j) u )
        | Flip (a, i) ->
            let f, t = fetch a in
            (Bdd.flip_var m f i, dense_flip ~n:prog_vars t i)
      in
      if not (Bv.equal (Bdd.to_bv m f) tt) then ok := false;
      fs := Array.append !fs [| f |];
      tts := Array.append !tts [| tt |])
    steps;
  (!ok, !fs, !tts)

let print_step = function
  | Not _ -> "not" | And _ -> "and" | Or _ -> "or" | Xor _ -> "xor"
  | Ite _ -> "ite" | Flip _ -> "flip"

let prop_random_programs =
  QCheck.Test.make ~name:"random programs agree with dense tables across growth"
    ~count:10
    (QCheck.make gen_program ~print:(fun (seed, p) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat " " (List.map print_step p))))
    (fun (seed, steps) ->
      let m = Bdd.make_man ~nvars:prog_vars in
      let ok, fs, tts = run_program m (seed, steps) in
      (* The 16 seeds and the first 60 steps' functions, rebuilt
         bottom-up through the unique table and by re-running their
         steps through the cache, are the same handles after the tables
         have been rebuilt. *)
      let early = 16 + 60 in
      let rebuilt = ref true in
      for k = 0 to early - 1 do
        if not (Bdd.equal (Bdd.of_bv m tts.(k)) fs.(k)) then rebuilt := false
      done;
      let _, fs', _ =
        run_program m (seed, List.filteri (fun k _ -> k < 60) steps)
      in
      ok && !rebuilt && Array.for_all2 Bdd.equal fs' (Array.sub fs 0 early))

(* Memoised walks share one mark array per manager.  Alternate the
   four walks over different functions of one manager: a walk that
   read a stale mark would pick up the previous walk's memo. *)

let dense_size ~n tt =
  (* ROBDD nodes labelled v are the distinct cofactors by variables
     0..v-1 that depend on variable v. *)
  let total = ref 0 in
  for v = 0 to n - 1 do
    let seen = Hashtbl.create 16 in
    for a = 0 to (1 lsl v) - 1 do
      let sub =
        String.init (1 lsl (n - v)) (fun k ->
            if Bv.get tt (a + (k lsl v)) then '1' else '0')
      in
      let depends = ref false in
      for k = 0 to (1 lsl (n - v - 1)) - 1 do
        if sub.[2 * k] <> sub.[(2 * k) + 1] then depends := true
      done;
      if !depends then Hashtbl.replace seen sub ()
    done;
    total := !total + Hashtbl.length seen
  done;
  !total

let dense_support ~n tt =
  List.filter
    (fun v ->
      List.exists
        (fun mt -> Bv.get tt mt <> Bv.get tt (mt lxor (1 lsl v)))
        (List.init (1 lsl n) Fun.id))
    (List.init n Fun.id)

let test_alternating_walks () =
  let n = 7 in
  let m = Bdd.make_man ~nvars:n in
  let rng = Random.State.make [| 5 |] in
  let tts =
    Array.init 12 (fun k ->
        Bv.random ~rng (1 lsl n) ~density:(0.1 +. (0.07 *. float_of_int k)))
  in
  (* Shared structure: each function also appears inside the next. *)
  let fs = Array.map (Bdd.of_bv m) tts in
  for k = 1 to Array.length fs - 1 do
    fs.(k) <- Bdd.bor m fs.(k) (Bdd.band m fs.(k - 1) (Bdd.var m (k mod n)))
  done;
  let tts = Array.map (Bdd.to_bv m) fs in
  for round = 0 to 7 do
    Array.iteri
      (fun k f ->
        let tt = tts.(k) in
        let what = Printf.sprintf "round %d f%d" round k in
        match (round + k) mod 4 with
        | 0 ->
            Alcotest.(check (float 0.0))
              (what ^ " satcount_float")
              (float_of_int (Bv.cardinal tt))
              (Bdd.satcount_float m f)
        | 1 ->
            let i = (round + (3 * k)) mod n in
            check (what ^ " flip_var") true
              (Bv.equal (Bdd.to_bv m (Bdd.flip_var m f i)) (dense_flip ~n tt i))
        | 2 -> check_int (what ^ " size") (dense_size ~n tt) (Bdd.size m f)
        | _ ->
            Alcotest.(check (list int))
              (what ^ " support") (dense_support ~n tt) (Bdd.support m f))
      fs
  done

let core_cases =
  [
    QCheck_alcotest.to_alcotest prop_random_programs;
    Alcotest.test_case "alternating memoised walks" `Quick
      test_alternating_walks;
  ]

let suite = (fst suite, snd suite @ core_cases)
