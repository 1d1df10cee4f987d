module J = Rdca_json.Jsonout
module Jin = Rdca_json.Jsonin
module Diag = Check.Diag
module Pool = Parallel.Pool

type chaos = {
  kill_fraction : float;
  stall_fraction : float;
  chaos_seed : int;
}

type config = {
  workers : int;
  argv : string array;
  deadline : float;
  retries : int;
  backoff : float;
  chaos : chaos option;
}

let default =
  {
    workers = 2;
    argv = [| Sys.executable_name; "worker" |];
    deadline = 60.0;
    retries = 3;
    backoff = 0.25;
    chaos = None;
  }

(* A busy worker silent this long is presumed wedged: ten periods of
   the worker's heartbeat ({!Worker.serve}). *)
let stall_timeout = 2.0

type mode = Processes of int | Pool of int | Sequential

type outcome = {
  results : (int * J.t) list;
  failures : (int * string) list;
  events : Event.t list;
  dispatches : int;
  mode : mode;
}

(* Small deterministic integer mixer (splitmix-style constants): drives
   chaos assignment and backoff jitter without touching the global RNG
   state, so supervised runs stay reproducible. *)
let mix a b =
  let h = ref (a * 0x9E3779B1 land max_int) in
  h := !h lxor ((b * 0x85EBCA77) land max_int);
  h := !h * 0xC2B2AE35 land max_int;
  h := !h lxor (!h lsr 15);
  !h land 0x3FFFFFFF

let unit_float a b = float_of_int (mix a b) /. float_of_int 0x40000000

(* Chaos is decided by the supervisor, and only for a task's first
   attempt: the injected failure is part of the schedule, and retries
   must be clean so every chaotic run still terminates. *)
let chaos_for cfg ~id ~attempt =
  match cfg.chaos with
  | Some c when attempt = 0 ->
      let u = unit_float c.chaos_seed id in
      if u < c.kill_fraction then Some "kill"
      else if u < c.kill_fraction +. c.stall_fraction then Some "stall"
      else None
  | _ -> None

let backoff_delay cfg ~id ~attempt =
  let jitter = 0.75 +. (0.5 *. unit_float 0 ((id * 31) + attempt)) in
  cfg.backoff *. (2.0 ** float_of_int attempt) *. jitter

type busy = {
  task : int;
  attempt : int;
  since : float;
  mutable last : float; (* last frame of any kind from this worker *)
}

type wstate = Idle | Busy of busy

type worker = {
  pid : int;
  to_w : Unix.file_descr;
  from_w : Unix.file_descr;
  dec : Frame.decoder;
  mutable st : wstate;
  mutable got_frame : bool;
      (* any frame at all proves the worker came up; a silent death is
         counted as a spawn failure for the degradation ladder *)
}

type pending = { id : int; attempt : int; not_before : float }

let ignore_unix f = try f () with Unix.Unix_error _ | Sys_error _ -> ()

let run ?on_result ?(skip = []) cfg ~handler ~tasks =
  let n = Array.length tasks in
  let skip = List.filter (fun i -> i >= 0 && i < n) skip in
  let skipped = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace skipped i ()) skip;
  let todo = ref [] in
  for i = n - 1 downto 0 do
    if not (Hashtbl.mem skipped i) then todo := i :: !todo
  done;
  let total = List.length !todo in
  let t0 = Unix.gettimeofday () in
  let rel t = t -. t0 in
  let events = ref [] in
  let event severity code fmt =
    Format.kasprintf
      (fun message ->
        events :=
          { Event.severity; code; time = rel (Unix.gettimeofday ()); message }
          :: !events)
      fmt
  in
  let results : (int, J.t) Hashtbl.t = Hashtbl.create 64 in
  let failures = ref [] in
  let dispatches = ref 0 in
  let record_result id value =
    if not (Hashtbl.mem results id) then begin
      Hashtbl.replace results id value;
      match on_result with Some f -> f id value | None -> ()
    end
  in
  let record_failure id message =
    if not (Hashtbl.mem results id) && not (List.mem_assoc id !failures) then begin
      failures := (id, message) :: !failures;
      event Diag.Error "task-failed" "task %d failed permanently: %s" id
        message
    end
  in
  let eval_one id =
    match handler tasks.(id) with
    | v -> (id, Ok v)
    | exception e -> (id, Error (Printexc.to_string e))
  in
  (* Bottom rungs of the ladder: run [ids] in this process, on the
     shared pool when it has more than one job, else sequentially. *)
  let in_process ids =
    dispatches := !dispatches + List.length ids;
    let jobs = Pool.default_jobs () in
    let out =
      if jobs > 1 then Pool.map_list ~chunk:1 eval_one ids
      else List.map eval_one ids
    in
    List.iter
      (function
        | id, Ok v -> record_result id v
        | id, Error m -> record_failure id m)
      out;
    if jobs > 1 then Pool jobs else Sequential
  in
  let finish mode =
    {
      results =
        Hashtbl.fold (fun id v acc -> (id, v) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      failures = List.sort (fun (a, _) (b, _) -> compare a b) !failures;
      events = List.rev !events;
      dispatches = !dispatches;
      mode;
    }
  in
  if total = 0 then finish Sequential
  else if cfg.workers <= 0 then finish (in_process !todo)
  else begin
    (* --- supervised multi-process path --- *)
    let prev_sigpipe =
      (* A worker dying mid-write must surface as EPIPE, not kill us. *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ | Sys_error _ -> None
    in
    let workers : worker list ref = ref [] in
    let pending = ref [] in
    let push_pending p =
      pending :=
        List.sort (fun a b -> compare (a.id, a.attempt) (b.id, b.attempt))
          (p :: !pending)
    in
    List.iter
      (fun id -> push_pending { id; attempt = 0; not_before = t0 })
      !todo;
    let spawn_failures = ref 0 in
    let give_up_spawning = ref false in
    let max_spawn_failures = max 3 (cfg.workers * 2) in
    let close_worker_fds w =
      ignore_unix (fun () -> Unix.close w.to_w);
      ignore_unix (fun () -> Unix.close w.from_w)
    in
    let spawn_worker () =
      try
        if Array.length cfg.argv = 0 then invalid_arg "Supervisor: empty argv";
        (* Close-on-exec, so no worker holds a copy of any supervisor
           end: a worker whose supervisor dies sees end of file. *)
        let r_in, w_in = Unix.pipe ~cloexec:true () in
        let r_out, w_out = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process cfg.argv.(0) cfg.argv r_in w_out Unix.stderr
        in
        Unix.close r_in;
        Unix.close w_out;
        let w =
          {
            pid;
            to_w = w_in;
            from_w = r_out;
            dec = Frame.decoder ~tolerate_noise:true ();
            st = Idle;
            got_frame = false;
          }
        in
        workers := !workers @ [ w ];
        event Diag.Info "worker-spawned" "worker pid %d spawned" pid
      with e ->
        incr spawn_failures;
        if !spawn_failures >= max_spawn_failures then give_up_spawning := true;
        event Diag.Warn "spawn-failed" "could not spawn worker: %s"
          (Printexc.to_string e)
    in
    let requeue ~why id attempt =
      if Hashtbl.mem results id then ()
      else if attempt >= max 0 cfg.retries then record_failure id why
      else begin
        let delay = backoff_delay cfg ~id ~attempt in
        event Diag.Warn "task-retry"
          "task %d attempt %d failed (%s); retrying in %.3fs" id attempt why
          delay;
        push_pending
          {
            id;
            attempt = attempt + 1;
            not_before = Unix.gettimeofday () +. delay;
          }
      end
    in
    let reap_worker w =
      close_worker_fds w;
      ignore_unix (fun () -> ignore (Unix.waitpid [] w.pid))
    in
    let remove_worker w = workers := List.filter (fun x -> x != w) !workers in
    let worker_died w ~why =
      (if not w.got_frame then begin
         incr spawn_failures;
         if !spawn_failures >= max_spawn_failures then give_up_spawning := true
       end);
      event Diag.Warn "worker-died" "worker pid %d died (%s)" w.pid why;
      (match w.st with
      | Busy b -> requeue ~why:(Printf.sprintf "worker died: %s" why) b.task b.attempt
      | Idle -> ());
      remove_worker w;
      reap_worker w
    in
    let kill_worker w ~why ~code =
      event Diag.Warn code "killing worker pid %d (%s)" w.pid why;
      ignore_unix (fun () -> Unix.kill w.pid Sys.sigkill);
      (match w.st with
      | Busy b -> requeue ~why b.task b.attempt
      | Idle -> ());
      remove_worker w;
      reap_worker w
    in
    let drop_pending id =
      pending := List.filter (fun p -> p.id <> id) !pending
    in
    let handle_frame w frame =
      w.got_frame <- true;
      spawn_failures := 0;
      let now = Unix.gettimeofday () in
      (match w.st with Busy b -> b.last <- now | Idle -> ());
      let typ = Option.bind (Jin.member "type" frame) Jin.to_string in
      let fid = Option.bind (Jin.member "id" frame) Jin.to_int in
      match (typ, fid) with
      | Some "hb", _ | Some "ack", _ -> ()
      | Some "result", Some id ->
          let value =
            match Jin.member "value" frame with Some v -> v | None -> J.Null
          in
          (* First result wins; a racing retry's duplicate is dropped
             (deterministic handlers make the copies identical). *)
          record_result id value;
          drop_pending id;
          (match w.st with
          | Busy b when b.task = id -> w.st <- Idle
          | _ -> ())
      | Some "error", Some id ->
          let message =
            match Option.bind (Jin.member "message" frame) Jin.to_string with
            | Some m -> m
            | None -> "unknown worker error"
          in
          (match w.st with
          | Busy b when b.task = id ->
              w.st <- Idle;
              requeue ~why:(Printf.sprintf "handler error: %s" message) id
                b.attempt
          | _ -> requeue ~why:(Printf.sprintf "handler error: %s" message) id 0)
      | _ ->
          event Diag.Warn "protocol" "worker pid %d sent unexpected frame" w.pid
    in
    let dispatch_ready () =
      let now = Unix.gettimeofday () in
      let idle = List.filter (fun w -> w.st = Idle) !workers in
      List.iter
        (fun w ->
          match
            List.find_opt
              (fun p ->
                p.not_before <= now && not (Hashtbl.mem results p.id))
              !pending
          with
          | None -> ()
          | Some p ->
              pending := List.filter (fun q -> q != p) !pending;
              let chaos = chaos_for cfg ~id:p.id ~attempt:p.attempt in
              let fields =
                [
                  ("type", J.String "task");
                  ("id", J.Int p.id);
                  ("attempt", J.Int p.attempt);
                ]
                @ (match chaos with
                  | Some c ->
                      event Diag.Info "chaos" "injecting %s into task %d" c
                        p.id;
                      [ ("chaos", J.String c) ]
                  | None -> [])
                @ [ ("payload", tasks.(p.id)) ]
              in
              let sent =
                try
                  Frame.write w.to_w (J.Obj fields);
                  true
                with Unix.Unix_error _ | Sys_error _ -> false
              in
              if sent then begin
                incr dispatches;
                w.st <-
                  Busy { task = p.id; attempt = p.attempt; since = now; last = now }
              end
              else begin
                push_pending p;
                worker_died w ~why:"write failed"
              end)
        idle
    in
    let check_timeouts () =
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          match w.st with
          | Idle -> ()
          | Busy b ->
              if cfg.deadline > 0.0 && now -. b.since > cfg.deadline then
                kill_worker w
                  ~why:
                    (Printf.sprintf "task %d exceeded %.3fs deadline" b.task
                       cfg.deadline)
                  ~code:"task-deadline"
              else if now -. b.last > stall_timeout then
                kill_worker w
                  ~why:
                    (Printf.sprintf "no frames for %.3fs on task %d"
                       (now -. b.last) b.task)
                  ~code:"worker-stalled")
        (List.filter (fun w -> match w.st with Busy _ -> true | _ -> false)
           !workers)
    in
    let outstanding () =
      total - Hashtbl.length results - List.length !failures
    in
    let degraded = ref None in
    (* Main supervision loop: spawn, dispatch, select, decode, time out. *)
    (try
       while outstanding () > 0 && !degraded = None do
         (* Keep the fleet at strength while there is queued work. *)
         while
           (not !give_up_spawning)
           && List.length !workers < min cfg.workers (outstanding ())
         do
           spawn_worker ()
         done;
         if !workers = [] then begin
           (* No processes and none forthcoming: degrade in-process. *)
           let remaining =
             List.filter
               (fun id ->
                 (not (Hashtbl.mem results id))
                 && not (List.mem_assoc id !failures))
               !todo
           in
           pending := [];
           event Diag.Warn "degraded"
             "no worker processes available; running %d remaining task(s) \
              in-process"
             (List.length remaining);
           degraded := Some (in_process remaining)
         end
         else begin
           dispatch_ready ();
           let fds = List.map (fun w -> w.from_w) !workers in
           let readable, _, _ =
             try Unix.select fds [] [] 0.05
             with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
           in
           let buf = Bytes.create 65536 in
           List.iter
             (fun fd ->
               match List.find_opt (fun w -> w.from_w = fd) !workers with
               | None -> ()
               | Some w -> (
                   match Unix.read fd buf 0 (Bytes.length buf) with
                   | 0 -> worker_died w ~why:"pipe closed"
                   | len -> (
                       match Frame.feed w.dec buf len with
                       | frames -> List.iter (handle_frame w) frames
                       | exception Frame.Protocol_error m ->
                           kill_worker w ~why:m ~code:"protocol")
                   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
                   | exception Unix.Unix_error _ ->
                       worker_died w ~why:"read failed"))
             readable;
           check_timeouts ()
         end
       done
     with e ->
       (* Tear down the fleet before re-raising: no orphans, no zombies. *)
       List.iter
         (fun w ->
           ignore_unix (fun () -> Unix.kill w.pid Sys.sigkill);
           reap_worker w)
         !workers;
       workers := [];
       Option.iter (fun b -> Sys.set_signal Sys.sigpipe b) prev_sigpipe;
       raise e);
    (* Graceful shutdown: ask nicely, then insist. *)
    List.iter
      (fun w ->
        ignore_unix (fun () ->
            Frame.write w.to_w (J.Obj [ ("type", J.String "exit") ])))
      !workers;
    List.iter
      (fun w ->
        let deadline = Unix.gettimeofday () +. 1.0 in
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] w.pid with
          | 0, _ ->
              if Unix.gettimeofday () < deadline then begin
                ignore (Unix.select [] [] [] 0.02);
                wait ()
              end
              else begin
                ignore_unix (fun () -> Unix.kill w.pid Sys.sigkill);
                ignore_unix (fun () -> ignore (Unix.waitpid [] w.pid))
              end
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        wait ();
        close_worker_fds w)
      !workers;
    workers := [];
    Option.iter (fun b -> Sys.set_signal Sys.sigpipe b) prev_sigpipe;
    let mode =
      match !degraded with Some m -> m | None -> Processes cfg.workers
    in
    finish mode
  end
