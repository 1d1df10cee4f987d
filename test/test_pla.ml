(* Tests for the .pla parser and printer. *)

module Spec = Pla.Spec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let phase = Alcotest.testable
    (fun ppf -> function
      | Spec.On -> Format.pp_print_string ppf "On"
      | Spec.Off -> Format.pp_print_string ppf "Off"
      | Spec.Dc -> Format.pp_print_string ppf "Dc")
    ( = )

let sample_fd =
  ".i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 3\n1-0 1-\n011 01\n000 -0\n.e\n"

let test_parse_fd () =
  let p = Pla.parse_string sample_fd in
  check_int "ni" 3 (Spec.ni p.spec);
  check_int "no" 2 (Spec.no p.spec);
  Alcotest.(check (array string)) "ilb" [| "a"; "b"; "c" |] p.input_names;
  Alcotest.(check (array string)) "ob" [| "f"; "g" |] p.output_names;
  (* line "1-0 1-": minterms with x0=1, x2=0: m=1 (001) and m=3 (011).
     Output 0 gets On, output 1 gets Dc. *)
  Alcotest.check phase "m1 o0" Spec.On (Spec.get p.spec ~o:0 ~m:1);
  Alcotest.check phase "m3 o0" Spec.On (Spec.get p.spec ~o:0 ~m:3);
  Alcotest.check phase "m1 o1" Spec.Dc (Spec.get p.spec ~o:1 ~m:1);
  (* line "011 01": m = x1=1,x2=1 -> 0b110 = 6; o0 '0' means nothing
     under fd (stays Off), o1 On. *)
  Alcotest.check phase "m6 o0" Spec.Off (Spec.get p.spec ~o:0 ~m:6);
  Alcotest.check phase "m6 o1" Spec.On (Spec.get p.spec ~o:1 ~m:6);
  (* line "000 -0": m=0, o0 Dc, o1 nothing (Off). *)
  Alcotest.check phase "m0 o0" Spec.Dc (Spec.get p.spec ~o:0 ~m:0);
  Alcotest.check phase "m0 o1" Spec.Off (Spec.get p.spec ~o:1 ~m:0);
  (* unmentioned minterm defaults to Off under fd *)
  Alcotest.check phase "m7 o0" Spec.Off (Spec.get p.spec ~o:0 ~m:7)

let test_parse_fr_default_dc () =
  let text = ".i 2\n.o 1\n.type fr\n11 1\n00 0\n.e\n" in
  let p = Pla.parse_string text in
  Alcotest.check phase "on" Spec.On (Spec.get p.spec ~o:0 ~m:3);
  Alcotest.check phase "off" Spec.Off (Spec.get p.spec ~o:0 ~m:0);
  Alcotest.check phase "unmentioned is dc" Spec.Dc (Spec.get p.spec ~o:0 ~m:1)

let test_parse_fdr () =
  let text = ".i 2\n.o 1\n.type fdr\n11 1\n0- -\n10 0\n.e\n" in
  let p = Pla.parse_string text in
  Alcotest.check phase "on" Spec.On (Spec.get p.spec ~o:0 ~m:3);
  Alcotest.check phase "dc m0" Spec.Dc (Spec.get p.spec ~o:0 ~m:0);
  Alcotest.check phase "dc m2" Spec.Dc (Spec.get p.spec ~o:0 ~m:2);
  Alcotest.check phase "off" Spec.Off (Spec.get p.spec ~o:0 ~m:1)

let test_comments_and_whitespace () =
  let text = "# header\n.i 1\n.o 1\n\n  # indented comment\n1 1 # trailing\n.e\n" in
  let p = Pla.parse_string text in
  Alcotest.check phase "on" Spec.On (Spec.get p.spec ~o:0 ~m:1)

let test_errors () =
  let expect_fail text =
    match Pla.parse_string text with
    | exception Pla.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_fail ".o 1\n1 1\n";
  expect_fail ".i 1\n1 1\n";
  expect_fail ".i 1\n.o 1\n11 1\n";
  expect_fail ".i 1\n.o 1\n1 11\n";
  expect_fail ".i 1\n.o 1\n.type zz\n1 1\n";
  expect_fail ".i 1\n.o 1\nx 1\n"

let test_roundtrip_fdr () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:1 ~m:7 Spec.On;
  Spec.set s ~o:1 ~m:0 Spec.Dc;
  let text = Pla.to_string s in
  let p = Pla.parse_string text in
  check "roundtrip preserves spec" true (Spec.equal s p.spec)

let test_roundtrip_fd () =
  let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  Spec.set s ~o:0 ~m:9 Spec.Dc;
  let text = Pla.to_string ~ty:Pla.Fd s in
  let p = Pla.parse_string text in
  check "fd roundtrip" true (Spec.equal s p.spec)

let test_file_roundtrip () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  let path = Filename.temp_file "rdca" ".pla" in
  Pla.write_file path s;
  let p = Pla.parse_file path in
  Sys.remove path;
  check "file roundtrip" true (Spec.equal s p.spec)

let prop_roundtrip =
  QCheck.Test.make ~name:"pla fdr roundtrip on random specs" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 16) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      Spec.equal s (Pla.parse_string (Pla.to_string s)).spec)

let suite =
  ( "pla",
    [
      Alcotest.test_case "parse fd sample" `Quick test_parse_fd;
      Alcotest.test_case "parse fr default dc" `Quick test_parse_fr_default_dc;
      Alcotest.test_case "parse fdr" `Quick test_parse_fdr;
      Alcotest.test_case "comments and whitespace" `Quick
        test_comments_and_whitespace;
      Alcotest.test_case "parse errors" `Quick test_errors;
      Alcotest.test_case "roundtrip fdr" `Quick test_roundtrip_fdr;
      Alcotest.test_case "roundtrip fd" `Quick test_roundtrip_fd;
      Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
    ] )

(* Cover-level writer. *)

let test_covers_writer_roundtrip () =
  let s = Spec.create ~ni:4 ~no:2 ~default:Spec.Off in
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.On) [ 1; 3; 5 ];
  List.iter (fun m -> Spec.set s ~o:0 ~m Spec.Dc) [ 7; 9 ];
  List.iter (fun m -> Spec.set s ~o:1 ~m Spec.On) [ 0; 15 ];
  let covers =
    List.init 2 (fun o -> (Spec.on_cover s ~o, Spec.dc_cover s ~o))
  in
  let text = Pla.to_string_covers ~ni:4 covers in
  let p = Pla.parse_string text in
  check "roundtrip" true (Spec.equal s p.Pla.spec)

let test_covers_writer_compact () =
  (* A minimised cover writes one line per cube, far fewer than one
     per minterm. *)
  let s = Spec.create ~ni:6 ~no:1 ~default:Spec.Off in
  for m = 0 to 31 do
    Spec.set s ~o:0 ~m Spec.On (* x5 = 0 half-space *)
  done;
  let on = Espresso.Dense.minimize ~n:6 ~on:(Spec.on_bv s ~o:0)
      ~dc:(Spec.dc_bv s ~o:0)
  in
  let text =
    Pla.to_string_covers ~ni:6 [ (on, Twolevel.Cover.empty ~n:6) ]
  in
  let lines = String.split_on_char '\n' text in
  check "under ten lines" true (List.length lines < 10);
  let p = Pla.parse_string text in
  check "function preserved" true (Spec.equal s p.Pla.spec)

let cover_writer_cases =
  [
    Alcotest.test_case "covers writer roundtrip" `Quick
      test_covers_writer_roundtrip;
    Alcotest.test_case "covers writer compact" `Quick
      test_covers_writer_compact;
  ]

let suite = (fst suite, snd suite @ cover_writer_cases)

(* Malformed inputs must surface as structured errors (Parse_error, or
   Error via the _res API) — never as Failure, Invalid_argument or any
   other escaping exception. *)

let expect_parse_error label text =
  match Pla.parse_string text with
  | _ -> Alcotest.failf "%s: expected Parse_error" label
  | exception Pla.Parse_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: escaped with %s instead of Parse_error" label
        (Printexc.to_string e)

let test_truncated_headers () =
  expect_parse_error "bare .i" ".i\n.o 1\n.e\n";
  expect_parse_error "bare .o" ".i 1\n.o\n.e\n";
  expect_parse_error "non-integer .i" ".i three\n.o 1\n.e\n";
  expect_parse_error "non-integer .o" ".i 1\n.o x\n.e\n";
  expect_parse_error "two-arg .i" ".i 1 2\n.o 1\n.e\n";
  expect_parse_error "negative .i" ".i -4\n.o 1\n.e\n";
  expect_parse_error "zero outputs" ".i 1\n.o 0\n.e\n";
  expect_parse_error "oversized .i" ".i 21\n.o 1\n.e\n";
  expect_parse_error "bare .type" ".i 1\n.o 1\n.type\n.e\n"

let test_wrong_width_rows () =
  expect_parse_error "input row too long" ".i 2\n.o 1\n111 1\n.e\n";
  expect_parse_error "input row too short" ".i 3\n.o 1\n11 1\n.e\n";
  expect_parse_error "output part too long" ".i 2\n.o 1\n11 11\n.e\n";
  expect_parse_error "output part missing" ".i 2\n.o 1\n11\n.e\n";
  expect_parse_error "three fields" ".i 2\n.o 1\n11 1 1\n.e\n"

let test_illegal_characters () =
  expect_parse_error "bad input char" ".i 2\n.o 1\nx1 1\n.e\n";
  expect_parse_error "bad output char" ".i 2\n.o 1\n11 z\n.e\n";
  expect_parse_error "bad type" ".i 2\n.o 1\n.type qq\n11 1\n.e\n";
  expect_parse_error "unknown directive" ".i 2\n.o 1\n.magic\n11 1\n.e\n"

let test_result_api () =
  (match Pla.parse_string_res ".i\n.o 1\n.e\n" with
  | Error msg -> check "message mentions .i" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected Error");
  (match Pla.parse_string_res sample_fd with
  | Ok p -> check_int "ok parse" 3 (Spec.ni p.Pla.spec)
  | Error msg -> Alcotest.failf "unexpected error: %s" msg);
  match Pla.parse_file_res "/nonexistent/path/f.pla" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error for missing file"

let malformed_cases =
  [
    Alcotest.test_case "truncated headers" `Quick test_truncated_headers;
    Alcotest.test_case "wrong-width rows" `Quick test_wrong_width_rows;
    Alcotest.test_case "illegal characters" `Quick test_illegal_characters;
    Alcotest.test_case "result api" `Quick test_result_api;
  ]

let suite = (fst suite, snd suite @ malformed_cases)

(* The dense and the cube-level reader share one scanner and differ
   only in how overlapping terms resolve: on text whose input cubes are
   pairwise disjoint, the cube-level covers rebuild the dense spec. *)
let spec_of_cover_file cf =
  let ni = cf.Pla.cf_ni in
  Spec.of_covers ~ni
    (List.map
       (function
         | Pla.Fd_sets { on; dc } -> (on, dc)
         | Pla.Fr_sets { on; off } ->
             let care =
               Bitvec.Bv.union (Twolevel.Cover.to_bv on)
                 (Twolevel.Cover.to_bv off)
             in
             (on, Twolevel.Cover.of_bv ~n:ni (Bitvec.Bv.complement care)))
       cf.Pla.cf_outputs)

let gen_disjoint_pla =
  QCheck.Gen.(
    int_range 1 6 >>= fun ni ->
    int_range 1 3 >>= fun no ->
    oneofl [ "fd"; "fr"; "fdr" ] >>= fun ty ->
    list_size (int_range 0 10)
      (pair
         (string_size ~gen:(oneofl [ '0'; '1'; '-' ]) (return ni))
         (string_size
            ~gen:(oneofl [ '0'; '1'; '-'; '~'; '2'; '4' ])
            (return no)))
    >|= fun rows ->
    (* keep a row only if its cube meets no earlier kept cube *)
    let kept =
      List.fold_left
        (fun acc (ins, outs) ->
          let c = Twolevel.Cube.of_string ins in
          if
            List.for_all
              (fun (ins', _) ->
                Twolevel.Cube.intersect c (Twolevel.Cube.of_string ins') = None)
              acc
          then (ins, outs) :: acc
          else acc)
        [] rows
    in
    Printf.sprintf ".i %d\n.o %d\n.type %s\n%s.e\n" ni no ty
      (String.concat ""
         (List.rev_map (fun (i, o) -> Printf.sprintf "%s %s\n" i o) kept)))

let prop_readers_agree =
  QCheck.Test.make ~name:"cube-level reader rebuilds the dense spec"
    ~count:300
    (QCheck.make ~print:Fun.id gen_disjoint_pla)
    (fun text ->
      Spec.equal (Pla.parse_string text).Pla.spec
        (spec_of_cover_file (Pla.parse_string_covers text)))

let suite =
  (fst suite, snd suite @ [ QCheck_alcotest.to_alcotest prop_readers_agree ])
