(* The rdca benchmark: one seeded workload per run, a closed loop with
   one client, in-process calls to the library entry points the CLI
   subcommands use, the pool pinned to one job.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A run is set-up (input generation and set-up synthesis, repeated
   and timed), an untimed warm-up, then the timed loop: [rounds] rounds
   over the workload's op list, each op on fresh input objects.  Every
   output is checked after the loop.  With --trace 1 the same run also
   replays one round as public layer calls with spans around each and
   reports per-layer metrics instead of end-to-end ones.  The last line
   of standard output is the result object; the line before it
   ("run-info") holds provenance, host-drift calibration and the work
   fingerprint. *)

module J = Rdca_json.Jsonout

type workload_def = {
  setup : seed:int -> Op.workload;
  round_seconds : float;
      (** nominal duration of one round on the reference host; sets the
          round count for --seconds *)
}

let workloads =
  [
    ( "sweep",
      { setup = W_sweep.setup; round_seconds = 14.0 } );
    ( "dcopt",
      { setup = W_dcopt.setup; round_seconds = 5.0 } );
    ( "testability",
      { setup = W_testability.setup; round_seconds = 7.0 } );
    ( "wide-analysis",
      { setup = W_wide.setup; round_seconds = 8.0 } );
  ]

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile and the number of samples strictly above its
   rank. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  (a.(rank - 1), n - rank)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Host and provenance *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  Some (float_of_int kb /. 1024.0))
            else scan ()
      in
      let v = scan () in
      close_in ic;
      Option.value v ~default:0.0

(* A fixed loop of integer arithmetic and short-lived allocation, timed
   before and after the timed loop: a drift between runs that shows
   here too is the host, not the program. *)
let calibrate () =
  snd
    (time (fun () ->
         let acc = ref 0 in
         for i = 1 to 30_000_000 do
           acc := ((!acc * 1103515245) + i) land 0xFFFFFFF
         done;
         let l = ref [] in
         for i = 1 to 3_000_000 do
           l := i :: !l;
           if i land 1023 = 0 then l := []
         done;
         ignore (Sys.opaque_identity (!acc, !l))))

(* ------------------------------------------------------------------ *)
(* The timed loop *)

let counter_names =
  [
    "sat.conflicts"; "sat.decisions"; "sat.propagations"; "sat.restarts";
    "atpg.classes"; "cut.memo_hits"; "cut.memo_misses"; "spec.plane_builds";
  ]

let counters () = List.map (fun n -> (n, Prof.value (Prof.counter n))) counter_names

let counter_diff a b = List.map2 (fun (n, x) (_, y) -> (n, y - x)) a b

type round = {
  outcomes : (Op.outcome, string) result array;
  latencies : float array;
  wall : float;
  counts : (string * int) list;
  minor_words : float;
  major : int;
}

let guard f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let run_round (w : Op.workload) ~exec =
  let prepared = Array.map Option.some (w.Op.prepare_round ()) in
  (* Rounds start from the same memo and heap state, so each repeats the
     same work. *)
  Aig.Cut.clear_memo ();
  Gc.full_major ();
  let n = Array.length prepared in
  let outcomes = Array.make n (Error "not run") in
  let latencies = Array.make n 0.0 in
  let c0 = counters () and g0 = Gc.quick_stat () in
  let t0 = now () in
  for i = 0 to n - 1 do
    let p = Option.get prepared.(i) in
    (* The op owns its inputs: drop the round's reference so they die
       with the op, as they would in one CLI invocation. *)
    prepared.(i) <- None;
    let ti = now () in
    outcomes.(i) <- guard (fun () -> exec i p);
    latencies.(i) <- now () -. ti
  done;
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    outcomes;
    latencies;
    wall;
    counts = counter_diff c0 (counters ());
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced round *)

let per_layer_units =
  [
    ("assign.self_ms", "ms"); ("error_rate.self_ms", "ms");
    ("pla.plane_builds", "count"); ("espresso.self_ms", "ms");
    ("espresso.cubes", "count"); ("aig.build_ms", "ms");
    ("aig.balance_ms", "ms"); ("aig.nodes", "count"); ("cut.self_ms", "ms");
    ("cut.memo_hit_ratio", "ratio"); ("techmap.self_ms", "ms");
    ("techmap.gates", "count"); ("report.self_ms", "ms");
    ("window.self_ms", "ms"); ("window.leaves_mean", "count");
    ("dc.bdd_windows", "count"); ("dc.bdd_ms", "ms");
    ("dc.sat_windows", "count"); ("dc.sat_ms", "ms");
    ("sat.conflicts", "count"); ("sat.propagations", "count");
    ("sat.decisions", "count"); ("dc.patterns", "count");
    ("dc.rewrite_ratio", "ratio"); ("check.equiv_ms", "ms");
    ("fault.collapse_ms", "ms"); ("fault.collapse_ratio", "ratio");
    ("atpg.exhaustive_ms", "ms"); ("atpg.classes", "count");
    ("atpg.sat_ms", "ms"); ("atpg.us_per_class", "us");
    ("sat.conflicts_per_class", "count"); ("redundancy.passes", "count");
    ("redundancy.removed", "count"); ("analysis.bdd_ms", "ms");
    ("analysis.bdd_share", "ratio"); ("analysis.sampled_ms", "ms");
    ("analysis.first_query_ms", "ms"); ("analysis.memo_query_ms", "ms");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("trace.attributed_fraction", "ratio"); ("trace.overhead", "ratio");
  ]

(* Counts and times are per op (the mean over the traced round). *)
let per_layer ~tr ~outcomes ~counts ~traced_wall ~untraced_throughput ~gc =
  let ops = float_of_int (Array.length outcomes) in
  let per_op x = x /. ops in
  let selfs = Spans.self_times tr in
  let self name =
    List.fold_left
      (fun acc ((s : Spans.span), st) -> if s.Spans.name = name then acc +. st else acc)
      0.0 selfs
  in
  let ms x = 1000.0 *. x in
  let op_time =
    List.fold_left
      (fun acc ((s : Spans.span), _) ->
        if s.Spans.name = "op" then acc +. (s.Spans.t1 -. s.Spans.t0) else acc)
      0.0 selfs
  in
  let attributed =
    List.fold_left
      (fun acc ((s : Spans.span), st) -> if s.Spans.name = "op" then acc else acc +. st)
      0.0 selfs
  in
  let layer name =
    Array.fold_left
      (fun acc -> function
        | Ok (o : Op.outcome) ->
            acc +. Option.value ~default:0.0 (List.assoc_opt name o.Op.layer)
        | Error _ -> acc)
      0.0 outcomes
  in
  let count name = float_of_int (List.assoc name counts) in
  let sat_classes = layer "atpg.sat_classes" in
  let values =
    [
      ("assign.self_ms", per_op (ms (self "assign")));
      ("error_rate.self_ms", per_op (ms (self "error_rate")));
      ("pla.plane_builds", per_op (count "spec.plane_builds"));
      ("espresso.self_ms", per_op (ms (self "espresso")));
      ("espresso.cubes", per_op (layer "espresso.cubes"));
      ("aig.build_ms", per_op (ms (self "aig.build")));
      ("aig.balance_ms", per_op (ms (self "aig.balance")));
      ("aig.nodes", per_op (layer "aig.nodes"));
      ("cut.self_ms", per_op (ms (self "cut")));
      ("cut.memo_hit_ratio", ratio (layer "cut.hits") (layer "cut.lookups"));
      ("techmap.self_ms", per_op (ms (self "techmap")));
      ("techmap.gates", per_op (layer "techmap.gates"));
      ("report.self_ms", per_op (ms (self "report")));
      ("window.self_ms", per_op (ms (self "window")));
      ("window.leaves_mean", ratio (layer "window.leaves") (layer "window.count"));
      ("dc.bdd_windows", per_op (layer "dc.bdd_windows"));
      ("dc.bdd_ms", per_op (ms (self "dc.bdd")));
      ("dc.sat_windows", per_op (layer "dc.sat_windows"));
      ("dc.sat_ms", per_op (ms (self "dc.sat")));
      ("sat.conflicts", per_op (count "sat.conflicts"));
      ("sat.propagations", per_op (count "sat.propagations"));
      ("sat.decisions", per_op (count "sat.decisions"));
      ("dc.patterns", per_op (layer "dc.patterns"));
      ("dc.rewrite_ratio", ratio (layer "dc.rewritten") (layer "window.count"));
      ("check.equiv_ms", per_op (ms (self "check.equiv")));
      ("fault.collapse_ms", per_op (ms (self "fault.collapse")));
      ("fault.collapse_ratio", ratio (layer "fault.faults") (layer "fault.classes"));
      ("atpg.exhaustive_ms", per_op (ms (self "atpg.exhaustive")));
      ("atpg.classes", per_op (count "atpg.classes"));
      ("atpg.sat_ms", per_op (ms (self "atpg.sat")));
      ("atpg.us_per_class", ratio (1e6 *. self "atpg.sat") sat_classes);
      ("sat.conflicts_per_class", ratio (count "sat.conflicts") sat_classes);
      ("redundancy.passes", per_op (layer "redundancy.passes"));
      ("redundancy.removed", per_op (layer "redundancy.removed"));
      ("analysis.bdd_ms", per_op (ms (self "analysis.bdd")));
      ("analysis.bdd_share", ratio (self "analysis.bdd") op_time);
      ("analysis.sampled_ms", per_op (ms (self "analysis.sampled")));
      ("analysis.first_query_ms", per_op (ms (layer "analysis.first_query_s")));
      ("analysis.memo_query_ms", per_op (ms (layer "analysis.memo_query_s")));
      ("gc.minor_mwords", fst gc);
      ("gc.major_collections", snd gc);
      ("trace.attributed_fraction", ratio attributed op_time);
      ("trace.overhead", ratio (ratio ops traced_wall) untraced_throughput);
    ]
  in
  List.map (fun (n, u) -> (n, List.assoc n values, u)) per_layer_units

(* ------------------------------------------------------------------ *)
(* Output *)

let compact v =
  String.concat "" (List.map String.trim (String.split_on_char '\n' (J.to_string v)))

let metric_json (name, value, unit) =
  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ])

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace {0|1} [--rev REV] [--out DIR]\n"
    (String.concat "|" (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and rev = ref "unknown" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Int (fun s -> seconds := Some s), "S nominal timed-loop length");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 traced per-layer run");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench";
  let def =
    match List.assoc_opt !workload workloads with Some d -> d | None -> usage ()
  in
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some sec, Some t when sec >= 1 && (t = 0 || t = 1) -> (s, sec, t = 1)
    | _ -> usage ()
  in
  Parallel.Pool.set_default_jobs 1;
  (* Set-up three times, each from scratch; the inputs are a function of
     the seed, so the last one is as good as any. *)
  let setups = List.init 3 (fun _ -> time (fun () -> def.setup ~seed)) in
  let w = fst (List.nth setups 2) in
  let digests = List.map (fun ((w : Op.workload), _) -> w.Op.inputs_digest) setups in
  let setup_stable = List.for_all (( = ) w.Op.inputs_digest) digests in
  let (), warmup_s =
    time (fun () ->
        let prepared = w.Op.prepare_round () in
        List.iter (fun i -> ignore (guard (fun () -> prepared.(i).Op.run ()))) w.Op.warmup)
  in
  let setup_s = median (List.map snd setups) +. warmup_s in
  let rounds =
    max 1 (int_of_float (Float.round (float_of_int seconds /. def.round_seconds)))
  in
  let nops = Array.length w.Op.labels in
  let calib_before = calibrate () in
  let runs = List.init rounds (fun _ -> run_round w ~exec:(fun _ p -> p.Op.run ())) in
  let calib_after = calibrate () in
  (* Read before the output checks, which allocate for themselves. *)
  let rss = peak_rss_mb () in
  (* Output checks, after the loop.  Round 1 is checked against the
     oracles; later rounds must reproduce it exactly. *)
  let failures = ref [] in
  let fail r i reason =
    failures := (r, i, reason) :: !failures
  in
  let first = List.hd runs in
  let checks_t0 = now () in
  let keys =
    Array.mapi
      (fun i -> function
        | Error e ->
            fail 1 i e;
            None
        | Ok (o : Op.outcome) -> (
            match guard o.Op.summary with
            | Error e ->
                fail 1 i e;
                None
            | Ok s -> Some s))
      first.outcomes
  in
  if not traced then
    Array.iteri
      (fun i -> function
        | Ok (o : Op.outcome) when keys.(i) <> None -> (
            match guard o.Op.check with
            | Ok None -> ()
            | Ok (Some reason) | Error reason -> fail 1 i reason)
        | _ -> ())
      first.outcomes;
  List.iteri
    (fun r (run : round) ->
      if r > 0 then begin
        Array.iteri
          (fun i -> function
            | Error e -> fail (r + 1) i e
            | Ok (o : Op.outcome) -> (
                match (guard o.Op.summary, keys.(i)) with
                | Ok s, Some s1 when s.Op.key = s1.Op.key -> ()
                | Ok _, _ -> fail (r + 1) i "result differs from round 1"
                | Error e, _ -> fail (r + 1) i e))
          run.outcomes;
        if run.counts <> first.counts then
          fail (r + 1) (-1) "work counters differ from round 1"
      end)
    runs;
  let checks_s = now () -. checks_t0 in
  let round_throughputs =
    List.map (fun (r : round) -> ratio (float_of_int nops) r.wall) runs
  in
  let throughput = median round_throughputs in
  let latencies =
    List.concat_map (fun (r : round) -> Array.to_list r.latencies) runs
  in
  let gc_minor = List.fold_left (fun a (r : round) -> a +. r.minor_words) 0.0 runs in
  let gc_major = List.fold_left (fun a (r : round) -> a + r.major) 0 runs in
  let total_ops = nops * rounds in
  (* The traced replay: one more round, as public layer calls. *)
  let traced_result =
    if not traced then None
    else begin
      let tr = Spans.create () in
      let snap0 = Prof.snapshot () in
      Prof.set_enabled true;
      let run =
        run_round w ~exec:(fun i p ->
            Spans.set_op tr i;
            Spans.span tr "op" (fun () -> p.Op.replay tr))
      in
      Prof.set_enabled false;
      let prof = Prof.diff ~before:snap0 ~after:(Prof.snapshot ()) in
      Array.iteri
        (fun i -> function
          | Error e -> fail 0 i e
          | Ok (o : Op.outcome) -> (
              match (guard o.Op.summary, keys.(i)) with
              | Ok s, Some s1 when s.Op.key = s1.Op.key -> (
                  match guard o.Op.check with
                  | Ok None -> ()
                  | Ok (Some reason) | Error reason -> fail 0 i reason)
              | Ok s, Some s1 ->
                  fail 0 i (Printf.sprintf "replay %s, entry point %s" s.Op.key s1.Op.key)
              | Ok _, None -> ()
              | Error e, _ -> fail 0 i e))
        run.outcomes;
      (try Sys.mkdir (Filename.dirname !out) 0o755 with Sys_error _ -> ());
      (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat !out (Printf.sprintf "trace-%s-seed%d.json" !workload seed)
      in
      Spans.write_chrome tr path;
      let layers =
        per_layer ~tr ~outcomes:run.outcomes ~counts:run.counts ~traced_wall:run.wall
          ~untraced_throughput:throughput
          ~gc:
            ( gc_minor /. 1e6 /. float_of_int total_ops,
              float_of_int gc_major /. float_of_int rounds )
      in
      Some (layers, path, prof)
    end
  in
  (* QoR and the work fingerprint, from round 1 (later rounds repeat it
     exactly or have failed above). *)
  let summaries = Array.to_list keys |> List.filter_map Fun.id in
  let areas = List.concat_map (fun s -> s.Op.areas) summaries in
  let rates = List.concat_map (fun s -> s.Op.error_rates) summaries in
  (* wide-analysis produces no netlist; the result line still needs
     every metric, so both QoR metrics print the constant 1.0 there. *)
  let qor_area = if areas = [] then 1.0 else mean areas in
  let qor_rate = if rates = [] then 1.0 else mean rates in
  let work_totals =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (k, v) ->
            let prev = Option.value ~default:0 (List.assoc_opt k acc) in
            (k, prev + v) :: List.remove_assoc k acc)
          acc s.Op.work)
      [] summaries
    |> List.sort compare
  in
  let loop_counts =
    List.fold_left
      (fun acc (r : round) -> List.map2 (fun (n, a) (_, b) -> (n, a + b)) acc r.counts)
      (List.map (fun n -> (n, 0)) counter_names)
      runs
  in
  let fingerprint_values =
    J.Obj
      ([
         ("ops", J.Int total_ops);
         ("qor_area", J.String (Op.float_key qor_area));
         ("qor_input_error_rate", J.String (Op.float_key qor_rate));
       ]
      @ List.map (fun (k, v) -> ("work." ^ k, J.Int v)) work_totals
      @ List.map (fun (k, v) -> (k, J.Int v)) loop_counts
      @ [ ("results", J.String (Gen.digest (List.map (fun s -> s.Op.key) summaries))) ])
  in
  let fingerprint = Digest.to_hex (Digest.string (compact fingerprint_values)) in
  let failed_ops =
    List.sort_uniq compare (List.filter_map (fun (r, i, _) -> if i >= 0 then Some (r, i) else None) !failures)
  in
  let attempted = total_ops + if traced then nops else 0 in
  let p50 = median latencies in
  let p90, beyond = percentile latencies 0.9 in
  let end_to_end =
    [
      ("throughput_ops_s", throughput, "ops/s");
      ("latency_p50_ms", 1000.0 *. p50, "ms");
    ]
    @ (if beyond >= 10 then [ ("latency_p90_ms", 1000.0 *. p90, "ms") ] else [])
    @ [
        ("peak_rss_mb", rss, "MB");
        ("qor_area", qor_area, "area");
        ("qor_input_error_rate", qor_rate, "fraction");
        ("setup_s", setup_s, "s");
      ]
  in
  let metrics =
    match traced_result with
    | Some (layers, _, _) -> layers
    | None -> end_to_end
  in
  let correct = !failures = [] && setup_stable in
  let info =
    J.Obj
      ([
         ( "provenance",
           J.Obj
             [
               ("rev", J.String !rev);
               ("ocaml", J.String Sys.ocaml_version);
               ("nproc", J.Int (Domain.recommended_domain_count ()));
               ("jobs", J.Int (Parallel.Pool.default_jobs ()));
               ( "rdca_kernel",
                 J.String (Option.value ~default:"" (Sys.getenv_opt "RDCA_KERNEL")) );
               ("kernel_enabled", J.Bool !Bitvec.Bv.Kernel.enabled);
               ("workload", J.String !workload);
               ("seed", J.Int seed);
               ("seconds", J.Int seconds);
               ("traced", J.Bool traced);
             ] );
         ( "host",
           J.Obj
             [
               ("calibration_before_s", J.Float calib_before);
               ("calibration_after_s", J.Float calib_after);
             ] );
         ( "loop",
           J.Obj
             [
               ("ops_per_round", J.Int nops);
               ("rounds", J.Int rounds);
               ("round_wall_s", J.List (List.map (fun (r : round) -> J.Float r.wall) runs));
               ("latency_samples", J.Int (List.length latencies));
               ("p90_samples_beyond", J.Int beyond);
               ("setup_runs_s", J.List (List.map (fun (_, t) -> J.Float t) setups));
               ("warmup_s", J.Float warmup_s);
               ("checks_s", J.Float checks_s);
               ("gc_minor_mwords", J.Float (gc_minor /. 1e6));
               ("gc_major_collections", J.Int gc_major);
             ] );
         ("inputs_digest", J.String w.Op.inputs_digest);
         ("fingerprint", J.String fingerprint);
         ("fingerprint_values", fingerprint_values);
         ( "failures",
           J.List
             (List.map
                (fun (r, i, reason) ->
                  J.Obj
                    [
                      ("round", J.Int r);
                      ("op", J.String (if i >= 0 then w.Op.labels.(i) else "-"));
                      ("reason", J.String reason);
                    ])
                (List.rev !failures)) );
       ]
      @
      match traced_result with
      | None -> []
      | Some (_, path, prof) ->
          [
            ("trace_file", J.String path);
            ( "prof_spans",
              J.Obj
                (List.map
                   (fun (n, s, c) ->
                     (n, J.Obj [ ("ms", J.Float (1000.0 *. s)); ("calls", J.Int c) ]))
                   prof.Prof.spans) );
          ])
  in
  List.iter
    (fun (n, v, u) -> Printf.printf "%-28s %16.6f %s\n" n v u)
    metrics;
  print_string ("run-info " ^ compact info ^ "\n");
  print_string
    (compact
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int (List.length failed_ops));
            ("metrics", J.Obj (List.map metric_json metrics));
          ])
    ^ "\n");
  exit 0
