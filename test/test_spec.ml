(* Tests for the incompletely specified function representation. *)

module Spec = Pla.Spec
module Cover = Twolevel.Cover
module Cube = Twolevel.Cube

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let phase = Alcotest.testable
    (fun ppf -> function
      | Spec.On -> Format.pp_print_string ppf "On"
      | Spec.Off -> Format.pp_print_string ppf "Off"
      | Spec.Dc -> Format.pp_print_string ppf "Dc")
    ( = )

let test_create_defaults () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Dc in
  check_int "ni" 3 (Spec.ni s);
  check_int "no" 2 (Spec.no s);
  check_int "size" 8 (Spec.size s);
  Alcotest.check phase "default" Spec.Dc (Spec.get s ~o:1 ~m:5);
  check_int "dc count" 8 (Spec.dc_count s ~o:0)

let test_set_get () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:2 Spec.On;
  Alcotest.check phase "set on" Spec.On (Spec.get s ~o:0 ~m:2);
  Alcotest.check phase "untouched" Spec.Off (Spec.get s ~o:0 ~m:1);
  check_int "on count" 1 (Spec.on_count s ~o:0);
  check_int "off count" 3 (Spec.off_count s ~o:0)

let test_assign_dc () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Dc in
  Spec.assign_dc s ~o:0 ~m:0 true;
  Spec.assign_dc s ~o:0 ~m:1 false;
  Alcotest.check phase "to on" Spec.On (Spec.get s ~o:0 ~m:0);
  Alcotest.check phase "to off" Spec.Off (Spec.get s ~o:0 ~m:1);
  Alcotest.check_raises "not dc"
    (Invalid_argument "Spec.assign_dc: minterm is not DC") (fun () ->
      Spec.assign_dc s ~o:0 ~m:0 false)

let test_copy_equal () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:3 Spec.On;
  let c = Spec.copy s in
  check "equal after copy" true (Spec.equal s c);
  Spec.set c ~o:0 ~m:4 Spec.Dc;
  check "independent" false (Spec.equal s c)

let test_signal_probs () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  Spec.set s ~o:0 ~m:1 Spec.Dc;
  let f1, f0, fdc = Spec.signal_probs s ~o:0 in
  Alcotest.(check (float 1e-9)) "f1" 0.25 f1;
  Alcotest.(check (float 1e-9)) "f0" 0.5 f0;
  Alcotest.(check (float 1e-9)) "fdc" 0.25 fdc

let test_dc_fraction () =
  let s = Spec.create ~ni:2 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.Dc;
  Spec.set s ~o:1 ~m:0 Spec.Dc;
  Spec.set s ~o:1 ~m:1 Spec.Dc;
  Alcotest.(check (float 1e-9)) "3 of 8" 0.375 (Spec.dc_fraction s)

let test_neighbour_counts () =
  (* 2-input function: m0=On, m1=Off, m2=Dc, m3=On.
     Neighbours of m0 (00): m1 (flip x0), m2 (flip x1). *)
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:0 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:0 ~m:3 Spec.On;
  let on, off, dc = Spec.neighbour_counts s ~o:0 ~m:0 in
  check_int "on nbrs of 0" 0 on;
  check_int "off nbrs of 0" 1 off;
  check_int "dc nbrs of 0" 1 dc;
  let on, _, _ = Spec.neighbour_counts s ~o:0 ~m:2 in
  check_int "on nbrs of 2" 2 on;
  let _, off, _ = Spec.neighbour_counts s ~o:0 ~m:1 in
  check_int "off nbrs of 1" 0 off;
  let _, _, dc = Spec.neighbour_counts s ~o:0 ~m:3 in
  check_int "dc nbrs of 3" 1 dc

let test_covers_roundtrip () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:1 ~m:7 Spec.On;
  let covers =
    List.init 2 (fun o -> (Spec.on_cover s ~o, Spec.dc_cover s ~o))
  in
  let s2 = Spec.of_covers ~ni:3 covers in
  check "roundtrip" true (Spec.equal s s2)

let test_of_covers_on_wins () =
  (* Overlapping on and dc covers: On wins. *)
  let on = Cover.make ~n:2 [ Cube.of_string "1-" ] in
  let dc = Cover.make ~n:2 [ Cube.of_string "11" ] in
  let s = Spec.of_covers ~ni:2 [ (on, dc) ] in
  Alcotest.check phase "overlap is On" Spec.On (Spec.get s ~o:0 ~m:3)

let test_iter_dc () =
  let s = Spec.create ~ni:3 ~no:1 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:2 Spec.Dc;
  Spec.set s ~o:0 ~m:5 Spec.Dc;
  let acc = ref [] in
  Spec.iter_dc s ~o:0 (fun m -> acc := m :: !acc);
  Alcotest.(check (list int)) "dc minterms" [ 2; 5 ] (List.rev !acc)

let test_bv_extraction () =
  let s = Spec.create ~ni:2 ~no:1 ~default:Spec.Dc in
  Spec.set s ~o:0 ~m:1 Spec.On;
  Spec.set s ~o:0 ~m:2 Spec.Off;
  Alcotest.(check (list int)) "on_bv" [ 1 ] (Bitvec.Bv.to_list (Spec.on_bv s ~o:0));
  Alcotest.(check (list int)) "off_bv" [ 2 ] (Bitvec.Bv.to_list (Spec.off_bv s ~o:0));
  Alcotest.(check (list int)) "dc_bv" [ 0; 3 ] (Bitvec.Bv.to_list (Spec.dc_bv s ~o:0))

let test_output_value () =
  let s = Spec.create ~ni:1 ~no:1 ~default:Spec.Dc in
  Spec.set s ~o:0 ~m:0 Spec.On;
  check "on is true" true (Spec.output_value s ~o:0 ~m:0);
  Alcotest.check_raises "dc raises"
    (Invalid_argument "Spec.output_value: unassigned DC") (fun () ->
      ignore (Spec.output_value s ~o:0 ~m:1))

let test_count_phase_engines_agree () =
  (* 65 minterms would not fit one word; use ni=7 to cross the 63-bit
     word boundary. *)
  let s = Spec.create ~ni:7 ~no:1 ~default:Spec.Off in
  for m = 0 to 127 do
    if m mod 3 = 0 then Spec.set s ~o:0 ~m Spec.On
    else if m mod 5 = 0 then Spec.set s ~o:0 ~m Spec.Dc
  done;
  List.iter
    (fun p ->
      let scan = ref 0 in
      for m = 0 to 127 do
        if Spec.get s ~o:0 ~m = p then incr scan
      done;
      check_int "popcount = byte scan" !scan (Spec.count_phase s ~o:0 p))
    [ Spec.On; Spec.Off; Spec.Dc ]

(* The planes are the spec's storage: ones borrowed before a write
   show it, and a fresh [phase_planes] call agrees with them. *)
let test_planes_follow_set () =
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  Spec.set s ~o:0 ~m:1 Spec.On;
  let on, off, dc = Spec.phase_planes s ~o:0 in
  Alcotest.(check (list int)) "on-plane" [ 1 ] (Bitvec.Bv.to_list on);
  Spec.set s ~o:0 ~m:5 Spec.On;
  Alcotest.(check (list int)) "borrowed on-plane follows set" [ 1; 5 ]
    (Bitvec.Bv.to_list on);
  Alcotest.(check (list int)) "borrowed off-plane follows set"
    [ 0; 2; 3; 4; 6; 7 ] (Bitvec.Bv.to_list off);
  check "dc empty" true (Bitvec.Bv.is_empty dc);
  let on', _, _ = Spec.phase_planes s ~o:0 in
  check "fresh call agrees" true (Bitvec.Bv.equal on on');
  (* other outputs are unaffected *)
  let on1, _, _ = Spec.phase_planes s ~o:1 in
  check "o1 untouched" true (Bitvec.Bv.is_empty on1);
  Spec.set s ~o:1 ~m:0 Spec.Dc;
  let _, _, dc1 = Spec.phase_planes s ~o:1 in
  Alcotest.(check (list int)) "dc set" [ 0 ] (Bitvec.Bv.to_list dc1);
  Spec.assign_dc s ~o:1 ~m:0 true;
  Alcotest.(check (list int)) "assigned" [ 0 ] (Bitvec.Bv.to_list on1);
  check "dc gone" true (Bitvec.Bv.is_empty dc1);
  (* a copy owns its planes *)
  let c = Spec.copy s in
  Spec.set c ~o:1 ~m:7 Spec.Dc;
  check "copy independent" true (Bitvec.Bv.is_empty dc1)

let test_neighbour_counts_batch_matches () =
  let s = Spec.create ~ni:7 ~no:1 ~default:Spec.Off in
  for m = 0 to 127 do
    if (m * 7) mod 11 < 3 then Spec.set s ~o:0 ~m Spec.On
    else if (m * 5) mod 13 < 4 then Spec.set s ~o:0 ~m Spec.Dc
  done;
  let on, off, dc = Spec.neighbour_counts_batch s ~o:0 in
  for m = 0 to 127 do
    let o_, f_, d_ = Spec.neighbour_counts s ~o:0 ~m in
    check_int "on" o_ on.(m);
    check_int "off" f_ off.(m);
    check_int "dc" d_ dc.(m)
  done

let prop_phase_partition =
  QCheck.Test.make ~name:"on+off+dc counts partition the space" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 16) (int_bound 2))
    (fun phases ->
      let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun m p ->
          Spec.set s ~o:0 ~m
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      Spec.on_count s ~o:0 + Spec.off_count s ~o:0 + Spec.dc_count s ~o:0 = 16)

let prop_neighbour_sum =
  QCheck.Test.make ~name:"neighbour counts always sum to ni" ~count:100
    QCheck.(pair (int_bound 15) (list_of_size (QCheck.Gen.return 16) (int_bound 2)))
    (fun (m, phases) ->
      let s = Spec.create ~ni:4 ~no:1 ~default:Spec.Off in
      List.iteri
        (fun i p ->
          Spec.set s ~o:0 ~m:i
            (match p with 0 -> Spec.Off | 1 -> Spec.On | _ -> Spec.Dc))
        phases;
      let on, off, dc = Spec.neighbour_counts s ~o:0 ~m in
      on + off + dc = 4)

(* Model test: random [set] / [assign_dc] / [copy] sequences against
   an array of phases per output, at ni 0-9 (2^9 minterms span nine
   63-bit words).  After every step each reader agrees with the model,
   and every minterm sits in exactly one phase plane. *)
type op = Set of int * int * Spec.phase | Assign of int * int * bool | Copy

let phase_name = function Spec.On -> "On" | Spec.Off -> "Off" | Spec.Dc -> "Dc"

let print_case (ni, no, default, ops) =
  Printf.sprintf "ni=%d no=%d default=%s: %s" ni no (phase_name default)
    (String.concat "; "
       (List.map
          (function
            | Set (o, m, p) -> Printf.sprintf "set %d %d %s" o m (phase_name p)
            | Assign (o, m, v) -> Printf.sprintf "assign_dc %d %d %b" o m v
            | Copy -> "copy")
          ops))

let gen_case =
  QCheck.Gen.(
    int_range 0 9 >>= fun ni ->
    int_range 1 3 >>= fun no ->
    let phase = oneofl [ Spec.On; Spec.Off; Spec.Dc ] in
    let o = int_bound (no - 1) and m = int_bound ((1 lsl ni) - 1) in
    let op =
      frequency
        [
          (5, map3 (fun o m p -> Set (o, m, p)) o m phase);
          (3, map3 (fun o m v -> Assign (o, m, v)) o m bool);
          (1, return Copy);
        ]
    in
    phase >>= fun default ->
    list_size (int_range 0 40) op >|= fun ops -> (ni, no, default, ops))

let spec_of_model ni model =
  let s = Spec.create ~ni ~no:(Array.length model) ~default:Spec.Off in
  Array.iteri
    (fun o ph -> Array.iteri (fun m p -> Spec.set s ~o ~m p) ph)
    model;
  s

let agrees ni s model =
  let size = 1 lsl ni in
  let all = List.init size Fun.id in
  let minterms p ph = List.filter (fun m -> ph.(m) = p) all in
  let output o ph =
    let cover_is c ms =
      List.equal Cube.equal (Cover.cubes c)
        (List.map (Cube.of_minterm ~n:ni) ms)
    in
    let dcs = ref [] in
    Spec.iter_dc s ~o (fun m -> dcs := m :: !dcs);
    let on, off, dc = Spec.phase_planes s ~o in
    let plane_of = function Spec.On -> on | Spec.Off -> off | Spec.Dc -> dc in
    let nbr m =
      List.fold_left
        (fun (a, b, c) j ->
          match ph.(m lxor (1 lsl j)) with
          | Spec.On -> (a + 1, b, c)
          | Spec.Off -> (a, b + 1, c)
          | Spec.Dc -> (a, b, c + 1))
        (0, 0, 0) (List.init ni Fun.id)
    in
    List.for_all (fun m -> Spec.get s ~o ~m = ph.(m)) all
    && List.for_all
         (fun p -> Spec.count_phase s ~o p = List.length (minterms p ph))
         [ Spec.On; Spec.Off; Spec.Dc ]
    && List.rev !dcs = minterms Spec.Dc ph
    && cover_is (Spec.on_cover s ~o) (minterms Spec.On ph)
    && cover_is (Spec.dc_cover s ~o) (minterms Spec.Dc ph)
    && List.for_all (fun m -> Spec.neighbour_counts s ~o ~m = nbr m) all
    (* one bit per minterm, in the model's plane; the cardinals then
       also rule out set padding bits *)
    && List.for_all
         (fun m ->
           List.for_all
             (fun p -> Bitvec.Bv.get (plane_of p) m = (p = ph.(m)))
             [ Spec.On; Spec.Off; Spec.Dc ])
         all
    && Bitvec.Bv.cardinal on + Bitvec.Bv.cardinal off + Bitvec.Bv.cardinal dc
       = size
  in
  let no = Array.length model in
  (* [equal] holds against a rebuild of the model and fails once the
     last minterm of the last output moves Off <-> Dc (On -> Off). *)
  let other = Array.map Array.copy model in
  let last = other.(no - 1) in
  last.(size - 1) <-
    (match last.(size - 1) with
    | Spec.Off -> Spec.Dc
    | Spec.Dc -> Spec.Off
    | Spec.On -> Spec.Off);
  List.for_all (fun o -> output o model.(o)) (List.init no Fun.id)
  && Spec.equal s (spec_of_model ni model)
  && not (Spec.equal s (spec_of_model ni other))

let prop_model =
  QCheck.Test.make ~name:"set/assign_dc/copy agree with a phase-array model"
    ~count:200
    (QCheck.make ~print:print_case gen_case)
    (fun (ni, no, default, ops) ->
      let s = ref (Spec.create ~ni ~no ~default) in
      let model =
        ref (Array.init no (fun _ -> Array.make (1 lsl ni) default))
      in
      (* every spec a [copy] left behind, with the model it must keep *)
      let retired = ref [] in
      let step op =
        (match op with
        | Set (o, m, p) ->
            Spec.set !s ~o ~m p;
            !model.(o).(m) <- p
        | Assign (o, m, v) -> (
            match Spec.assign_dc !s ~o ~m v with
            | () ->
                if !model.(o).(m) <> Spec.Dc then
                  failwith "assign_dc accepted a care minterm";
                !model.(o).(m) <- (if v then Spec.On else Spec.Off)
            | exception Invalid_argument _ ->
                if !model.(o).(m) = Spec.Dc then
                  failwith "assign_dc rejected a DC minterm")
        | Copy ->
            retired := (!s, Array.map Array.copy !model) :: !retired;
            s := Spec.copy !s);
        agrees ni !s !model
      in
      List.for_all step ops
      && List.for_all (fun (s', m') -> agrees ni s' m') !retired)

let suite =
  ( "spec",
    [
      Alcotest.test_case "create defaults" `Quick test_create_defaults;
      Alcotest.test_case "set/get" `Quick test_set_get;
      Alcotest.test_case "assign_dc" `Quick test_assign_dc;
      Alcotest.test_case "copy/equal" `Quick test_copy_equal;
      Alcotest.test_case "signal probabilities" `Quick test_signal_probs;
      Alcotest.test_case "dc fraction" `Quick test_dc_fraction;
      Alcotest.test_case "neighbour counts" `Quick test_neighbour_counts;
      Alcotest.test_case "cover roundtrip" `Quick test_covers_roundtrip;
      Alcotest.test_case "of_covers overlap: on wins" `Quick
        test_of_covers_on_wins;
      Alcotest.test_case "iter_dc" `Quick test_iter_dc;
      Alcotest.test_case "bv extraction" `Quick test_bv_extraction;
      Alcotest.test_case "output_value" `Quick test_output_value;
      Alcotest.test_case "count_phase engines agree" `Quick
        test_count_phase_engines_agree;
      Alcotest.test_case "phase planes follow set" `Quick
        test_planes_follow_set;
      Alcotest.test_case "neighbour_counts_batch matches per-minterm" `Quick
        test_neighbour_counts_batch_matches;
      QCheck_alcotest.to_alcotest prop_phase_partition;
      QCheck_alcotest.to_alcotest prop_neighbour_sum;
      QCheck_alcotest.to_alcotest prop_model;
    ] )
