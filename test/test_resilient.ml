(* Supervised multi-process execution: frame codec, checkpoint
   round-trips, the supervisor's happy/chaos/degraded paths, the
   shard-partition merge property behind campaign distribution, and
   the Distrib end-to-end guarantees (chaos run and checkpoint resume
   both bit-identical to the sequential campaign). *)

module J = Rdca_json.Jsonout
module Jin = Rdca_json.Jsonin
module Frame = Resilient.Frame
module Event = Resilient.Event
module Checkpoint = Resilient.Checkpoint
module Interrupt = Resilient.Interrupt
module Sup = Resilient.Supervisor
module Spec = Pla.Spec
module Campaign = Reliability.Campaign
module Flow = Rdca_flow.Flow
module Distrib = Rdca_flow.Distrib

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Frame codec *)

let sample_value =
  J.Obj
    [
      ("type", J.String "result");
      ("id", J.Int 3);
      ("value", J.List [ J.Float 0.125; J.Float 1e-17; J.Bool true; J.Null ]);
      ("nested", J.Obj [ ("s", J.String "a\"b\\c\nd") ]);
    ]

let test_frame_roundtrip_bytewise () =
  (* Two frames, delivered one byte at a time: the decoder must yield
     both values exactly, whatever the chunking. *)
  let wire = Frame.encode sample_value ^ Frame.encode (J.Int 42) in
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      let b = Bytes.make 1 c in
      List.iter (fun v -> got := v :: !got) (Frame.feed dec b 1))
    wire;
  match List.rev !got with
  | [ a; b ] ->
      check "first frame" true (a = sample_value);
      check "second frame" true (b = J.Int 42)
  | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l)

let test_frame_protocol_error () =
  let dec = Frame.decoder () in
  let bad = Bytes.of_string "zzzzzzzz\n" in
  match Frame.feed dec bad (Bytes.length bad) with
  | _ -> Alcotest.fail "malformed header must raise"
  | exception Frame.Protocol_error _ -> ()

let test_frame_leading_noise () =
  (* A tolerant decoder skips start-up junk on the worker's stdout
     (e.g. a library printing a diagnostic line at module init), then
     turns strict once the first real frame lands. *)
  let wire =
    "qcheck random seed: 873022513\nmore junk\n"
    ^ Frame.encode sample_value ^ Frame.encode (J.Int 42)
  in
  let dec = Frame.decoder ~tolerate_noise:true () in
  let got = Frame.feed dec (Bytes.of_string wire) (String.length wire) in
  check "noise skipped, both frames decoded" true
    (got = [ sample_value; J.Int 42 ]);
  let bad = Bytes.of_string "zzzzzzzz\n" in
  (match Frame.feed dec bad (Bytes.length bad) with
  | _ -> Alcotest.fail "tolerant decoder must turn strict after sync"
  | exception Frame.Protocol_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Checkpoints *)

let ckpt_fixture =
  {
    Checkpoint.kind = "campaign";
    key = J.Obj [ ("input", J.String "bench"); ("seed", J.Int 1) ];
    total = 3;
    interrupted = true;
    shards = [ (0, J.List [ J.Float 0.5 ]); (2, J.String "x") ];
  }

let with_temp_checkpoint f =
  let path = Filename.temp_file "rdca-test-ckpt" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp_checkpoint (fun path ->
      Checkpoint.save path ckpt_fixture;
      (match Checkpoint.load path with
      | Ok c -> check "load = save" true (c = ckpt_fixture)
      | Error e -> Alcotest.fail e);
      let shards, rejected =
        Checkpoint.resume ~path ~kind:"campaign" ~key:ckpt_fixture.Checkpoint.key
          ~total:3
      in
      check "no rejection" true (rejected = None);
      check "shards restored" true (shards = ckpt_fixture.Checkpoint.shards))

let test_checkpoint_fingerprint_mismatch () =
  with_temp_checkpoint (fun path ->
      Checkpoint.save path ckpt_fixture;
      let shards, rejected =
        Checkpoint.resume ~path ~kind:"campaign"
          ~key:(J.Obj [ ("input", J.String "other"); ("seed", J.Int 1) ])
          ~total:3
      in
      check "mismatch rejected" true (rejected <> None);
      check "no shards on mismatch" true (shards = []);
      let shards2, rejected2 =
        Checkpoint.resume ~path ~kind:"sweep" ~key:ckpt_fixture.Checkpoint.key
          ~total:3
      in
      check "kind mismatch rejected" true (rejected2 <> None && shards2 = []))

let test_checkpoint_missing_file () =
  let shards, rejected =
    Checkpoint.resume ~path:"/nonexistent/rdca-ckpt.json" ~kind:"campaign"
      ~key:J.Null ~total:1
  in
  check "missing file is a silent fresh start" true
    (shards = [] && rejected = None)

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let tasks n = Array.init n (fun i -> J.Obj [ ("x", J.Int i) ])

let square v =
  match Option.bind (Jin.member "x" v) Jin.to_int with
  | Some x -> J.Obj [ ("y", J.Int (x * x)) ]
  | None -> failwith "bad payload"

(* The handler served by the test binary's hidden worker mode (see
   test/main.ml): payloads with a "kind" are campaign shards for
   Distrib.dispatch, as under rdca worker; the rest are squared,
   except payloads marked "boom" raise. *)
let worker_handler v =
  if Jin.member "kind" v <> None then Distrib.dispatch v
  else
    match Option.bind (Jin.member "boom" v) Jin.to_bool with
    | Some true -> failwith "boom"
    | _ -> square v

(* Worker processes are this test binary in its worker mode. *)
let sup_exec =
  {
    Sup.default with
    Sup.argv = [| Sys.executable_name; "--resilient-worker" |];
  }

let expected n = List.init n (fun i -> (i, J.Obj [ ("y", J.Int (i * i)) ]))

let test_sup_in_process () =
  let out = Sup.run { Sup.default with Sup.workers = 0 } ~handler:square
      ~tasks:(tasks 5) in
  check "results" true (out.Sup.results = expected 5);
  check "no failures" true (out.Sup.failures = []);
  check_int "one dispatch per task" 5 out.Sup.dispatches;
  check "in-process mode" true
    (match out.Sup.mode with Sup.Processes _ -> false | _ -> true)

let test_sup_empty_and_skip () =
  let out = Sup.run Sup.default ~handler:square ~tasks:[||] in
  check "empty run" true (out.Sup.results = [] && out.Sup.dispatches = 0);
  let out =
    Sup.run ~skip:[ 0; 2; 99 ] { Sup.default with Sup.workers = 0 }
      ~handler:square ~tasks:(tasks 4)
  in
  check "skipped ids omitted" true
    (List.map fst out.Sup.results = [ 1; 3 ])

let test_sup_processes () =
  let seen = ref [] in
  let out =
    Sup.run
      ~on_result:(fun id _ -> seen := id :: !seen)
      { sup_exec with Sup.workers = 2; Sup.deadline = 30.0 }
      ~handler:worker_handler ~tasks:(tasks 6)
  in
  check "worker results match in-process" true (out.Sup.results = expected 6);
  check "process mode" true (out.Sup.mode = Sup.Processes 2);
  check "on_result fired once per task" true
    (List.sort compare !seen = [ 0; 1; 2; 3; 4; 5 ]);
  check "spawn events logged" true
    (List.exists (fun e -> e.Event.code = "worker-spawned") out.Sup.events)

let test_sup_spawn_with_live_domains () =
  (* Workers are exec'd, so the parent need not be single-domain: they
     spawn while the pool region's domains are live, and the pool is
     left running. *)
  let module Pool = Parallel.Pool in
  let pool_live () = (Pool.stats ()).Pool.pool_instantiated in
  Pool.with_jobs 2 (fun () ->
      let squares = Pool.map_list ~chunk:1 square (Array.to_list (tasks 4)) in
      check "pool region ran" true
        (squares = List.map snd (expected 4) && pool_live ());
      let out =
        Sup.run
          { sup_exec with Sup.workers = 2 }
          ~handler:worker_handler ~tasks:(tasks 4)
      in
      check "results" true
        (out.Sup.results = expected 4 && out.Sup.failures = []);
      check "process mode" true (out.Sup.mode = Sup.Processes 2);
      check "pool domains left running" true (pool_live ()))

let test_sup_handler_failure () =
  let tasks =
    Array.init 4 (fun i ->
        let boom = if i = 2 then [ ("boom", J.Bool true) ] else [] in
        J.Obj (("x", J.Int i) :: boom))
  in
  let out =
    Sup.run
      { sup_exec with Sup.workers = 2; Sup.retries = 1; Sup.backoff = 0.01 }
      ~handler:worker_handler ~tasks
  in
  check "other tasks still complete" true
    (List.map fst out.Sup.results = [ 0; 1; 3 ]);
  check "failing task recorded" true (List.map fst out.Sup.failures = [ 2 ]);
  check "retry happened before giving up" true (out.Sup.dispatches > 4);
  check "failure event logged" true
    (List.exists (fun e -> e.Event.code = "task-failed") out.Sup.events)

let test_sup_chaos_kill () =
  let cfg =
    {
      sup_exec with
      Sup.workers = 2;
      Sup.retries = 2;
      Sup.backoff = 0.05;
      Sup.deadline = 10.0;
      Sup.chaos =
        Some
          { Sup.kill_fraction = 1.0; Sup.stall_fraction = 0.0; Sup.chaos_seed = 5 };
    }
  in
  let out = Sup.run cfg ~handler:worker_handler ~tasks:(tasks 4) in
  check "all tasks survive a 100% first-attempt kill rate" true
    (out.Sup.results = expected 4 && out.Sup.failures = []);
  check "kills were actually injected" true
    (List.exists (fun e -> e.Event.code = "chaos") out.Sup.events);
  check "worker deaths observed" true
    (List.exists (fun e -> e.Event.code = "worker-died") out.Sup.events)

let test_sup_chaos_stall () =
  let cfg =
    {
      sup_exec with
      Sup.workers = 2;
      Sup.retries = 2;
      Sup.backoff = 0.05;
      Sup.deadline = 0.6;
      Sup.chaos =
        Some
          { Sup.kill_fraction = 0.0; Sup.stall_fraction = 1.0; Sup.chaos_seed = 5 };
    }
  in
  let out = Sup.run cfg ~handler:worker_handler ~tasks:(tasks 4) in
  check "all tasks survive a 100% first-attempt stall rate" true
    (out.Sup.results = expected 4 && out.Sup.failures = []);
  check "deadline kills recovered the stalls" true
    (List.exists (fun e -> e.Event.code = "task-deadline") out.Sup.events)

let test_sup_degrades_without_workers () =
  let cfg =
    {
      Sup.default with
      Sup.workers = 2;
      Sup.argv = [| "/nonexistent/rdca-worker-binary" |];
    }
  in
  let out = Sup.run cfg ~handler:square ~tasks:(tasks 4) in
  check "degraded run still completes everything" true
    (out.Sup.results = expected 4 && out.Sup.failures = []);
  check "fell off the process rung" true
    (match out.Sup.mode with Sup.Processes _ -> false | _ -> true);
  check "degradation event logged" true
    (List.exists (fun e -> e.Event.code = "degraded") out.Sup.events)

(* A worker stalled in its handler must exit once its supervisor is
   gone.  Workers inherit the supervisor's ignored SIGPIPE, so the
   only sign of a dead supervisor is a failed heartbeat write. *)
let test_worker_exits_without_supervisor () =
  let r_in, w_in = Unix.pipe ~cloexec:true () in
  let r_out, w_out = Unix.pipe ~cloexec:true () in
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
      (fun () ->
        Unix.create_process Sys.executable_name sup_exec.Sup.argv r_in w_out
          Unix.stderr)
  in
  Unix.close r_in;
  Unix.close w_out;
  let exited = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !exited then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      Frame.write w_in
        (J.Obj
           [
             ("type", J.String "task"); ("id", J.Int 0); ("attempt", J.Int 0);
             ("payload", J.Obj [ ("x", J.Int 1) ]); ("chaos", J.String "stall");
           ]);
      let ack = Frame.read r_out (Frame.decoder ~tolerate_noise:true ()) in
      check "ack arrives" true
        (Option.bind ack (Jin.member "type") = Some (J.String "ack"));
      Unix.close w_in;
      Unix.close r_out;
      let deadline = Unix.gettimeofday () +. 2.0 in
      while (not !exited) && Unix.gettimeofday () < deadline do
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> Unix.sleepf 0.02
        | _ -> exited := true
      done;
      check "stalled worker exits within 2 s of losing its supervisor" true
        !exited)

(* ------------------------------------------------------------------ *)
(* Campaign sharding: any partition of the site list, evaluated
   independently and concatenated, equals the monolithic run — the
   invariant every worker schedule relies on. *)

let campaign_fixture () =
  let nl = Netlist.create ~ni:3 in
  let a = Netlist.add nl Netlist.Gate.And [| 0; 1 |] in
  let x = Netlist.add nl Netlist.Gate.Xor [| a; 2 |] in
  let n = Netlist.add nl Netlist.Gate.Nor [| a; 2 |] in
  Netlist.set_outputs nl [| x; n |];
  let s = Spec.create ~ni:3 ~no:2 ~default:Spec.Off in
  for m = 0 to 7 do
    let outs = Netlist.eval_minterm nl m in
    for o = 0 to 1 do
      Spec.set s ~o ~m (if outs.(o) then Spec.On else Spec.Off)
    done
  done;
  Spec.set s ~o:0 ~m:5 Spec.Dc;
  Spec.set s ~o:1 ~m:2 Spec.Dc;
  (s, nl)

let rec chunk k = function
  | [] -> []
  | l ->
      let n = min k (List.length l) in
      List.filteri (fun i _ -> i < n) l
      :: chunk k (List.filteri (fun i _ -> i >= n) l)

let prop_shard_partition =
  QCheck.Test.make ~name:"sharded campaign merges like the monolithic run"
    ~count:8
    QCheck.(int_range 1 8)
    (fun shard_size ->
      let s, nl = campaign_fixture () in
      let config =
        { Campaign.default_config with Campaign.trials_per_site = 60 }
      in
      let full = Campaign.run config s nl in
      let sites = Campaign.selected_sites config nl in
      let merged =
        List.concat_map
          (fun c -> Campaign.run_sites config s nl c)
          (chunk shard_size sites)
      in
      merged = full.Campaign.results)

(* ------------------------------------------------------------------ *)
(* Distrib end-to-end *)

let strip (r : Campaign.report) =
  ( r.Campaign.results,
    r.Campaign.sites_total,
    r.Campaign.sites_done,
    r.Campaign.complete )

let distrib_fixture () =
  let spec = Synthetic.Suite.load_by_name "bench" in
  let r =
    Flow.synthesize ~mode:Techmap.Mapper.Area ~strategy:Flow.Conventional spec
  in
  let config =
    {
      Campaign.default_config with
      Campaign.trials_per_site = 50;
      max_sites = Some 6;
    }
  in
  (spec, r.Flow.netlist, config)

let run_distrib opts (spec, nl, config) =
  Distrib.campaign_run opts ~input:"bench" ~strategy:Flow.Conventional
    ~mode:Techmap.Mapper.Area config spec nl

let test_distrib_chaos_identical () =
  let spec, nl, config = distrib_fixture () in
  let seq = Campaign.run config spec nl in
  let sup =
    {
      sup_exec with
      Sup.workers = 2;
      (* The stalled shard waits out the deadline; a clean shard (worker
         start, one synthesis of bench, two sites) takes about 0.1 s. *)
      Sup.deadline = 1.0;
      Sup.backoff = 0.05;
      Sup.chaos =
        Some
          {
            Sup.kill_fraction = 0.4;
            Sup.stall_fraction = 0.2;
            Sup.chaos_seed = 7;
          };
    }
  in
  let opts =
    {
      Distrib.sup;
      shard_size = 2;
      checkpoint = None;
      resume = false;
      stop_after = None;
    }
  in
  match run_distrib opts (spec, nl, config) with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check "chaotic run completes" false d.Distrib.interrupted;
      check "shards ran in worker processes" true
        (d.Distrib.exec_mode = Sup.Processes 2);
      check "chaos was injected" true
        (List.exists (fun e -> e.Event.code = "chaos") d.Distrib.events);
      check "chaotic run is bit-identical to the sequential campaign" true
        (strip d.Distrib.value = strip seq)

let test_distrib_resume () =
  let spec, nl, config = distrib_fixture () in
  let seq = Campaign.run config spec nl in
  with_temp_checkpoint (fun ckpt ->
      let opts =
        {
          Distrib.sup = { sup_exec with Sup.workers = 2 };
          shard_size = 2;
          checkpoint = Some ckpt;
          resume = false;
          stop_after = Some 1;
        }
      in
      (match run_distrib opts (spec, nl, config) with
      | Error e -> Alcotest.fail e
      | Ok d ->
          check "stopped run is interrupted" true d.Distrib.interrupted;
          check "partial report marked incomplete" false
            d.Distrib.value.Campaign.complete);
      (match Checkpoint.load ckpt with
      | Ok c ->
          check "checkpoint holds the finished shard" true
            (c.Checkpoint.interrupted && List.length c.Checkpoint.shards = 1)
      | Error e -> Alcotest.fail e);
      match
        run_distrib
          { opts with Distrib.resume = true; stop_after = None }
          (spec, nl, config)
      with
      | Error e -> Alcotest.fail e
      | Ok d ->
          check "resumed run completes" false d.Distrib.interrupted;
          check "resumed shards ran in worker processes" true
            (d.Distrib.exec_mode = Sup.Processes 2);
          check "resume was taken from the checkpoint" true
            (List.exists
               (fun e -> e.Event.code = "checkpoint-resumed")
               d.Distrib.events);
          check "resumed report is bit-identical to the sequential campaign"
            true
            (strip d.Distrib.value = strip seq))

(* ------------------------------------------------------------------ *)
(* Interrupt hooks *)

let test_interrupt_hooks () =
  let hits = ref 0 in
  let unhook = Interrupt.on_interrupt (fun () -> incr hits) in
  Interrupt.simulate ();
  check_int "hook ran" 1 !hits;
  check "triggered resets after simulate" false (Interrupt.triggered ());
  unhook ();
  Interrupt.simulate ();
  check_int "deregistered hook does not run again" 1 !hits

let suite =
  ( "resilient",
    [
      Alcotest.test_case "frame: bytewise round-trip" `Quick
        test_frame_roundtrip_bytewise;
      Alcotest.test_case "frame: leading noise tolerated" `Quick
        test_frame_leading_noise;
      Alcotest.test_case "frame: protocol error" `Quick
        test_frame_protocol_error;
      Alcotest.test_case "checkpoint: round-trip" `Quick
        test_checkpoint_roundtrip;
      Alcotest.test_case "checkpoint: fingerprint mismatch" `Quick
        test_checkpoint_fingerprint_mismatch;
      Alcotest.test_case "checkpoint: missing file" `Quick
        test_checkpoint_missing_file;
      Alcotest.test_case "supervisor: in-process" `Quick test_sup_in_process;
      Alcotest.test_case "supervisor: empty and skip" `Quick
        test_sup_empty_and_skip;
      Alcotest.test_case "supervisor: exec'd worker processes" `Quick
        test_sup_processes;
      Alcotest.test_case "supervisor: spawn with live domains" `Quick
        test_sup_spawn_with_live_domains;
      Alcotest.test_case "supervisor: permanent handler failure" `Quick
        test_sup_handler_failure;
      Alcotest.test_case "supervisor: chaos kills" `Quick test_sup_chaos_kill;
      Alcotest.test_case "supervisor: chaos stalls" `Quick
        test_sup_chaos_stall;
      Alcotest.test_case "supervisor: degradation ladder" `Quick
        test_sup_degrades_without_workers;
      Alcotest.test_case "worker: exits without its supervisor" `Quick
        test_worker_exits_without_supervisor;
      QCheck_alcotest.to_alcotest prop_shard_partition;
      Alcotest.test_case "distrib: chaos run bit-identical" `Quick
        test_distrib_chaos_identical;
      Alcotest.test_case "distrib: checkpoint resume" `Quick
        test_distrib_resume;
      Alcotest.test_case "interrupt: hooks" `Quick test_interrupt_hooks;
    ] )
