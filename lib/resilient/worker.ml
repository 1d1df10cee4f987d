module J = Rdca_json.Jsonout
module Jin = Rdca_json.Jsonin

let obj_type v = Option.bind (Jin.member "type" v) Jin.to_string

let heartbeat = 0.2

let serve ~handler ~input ~output () =
  (* One writer mutex serialises the main loop's acks/results with the
     background heartbeats; once [finished] is set under it, no frame
     is written any more. *)
  let wlock = Mutex.create () in
  let finished = Atomic.make false in
  let send frame =
    Mutex.protect wlock (fun () ->
        if not (Atomic.get finished) then
          try Frame.write output frame
          with Unix.Unix_error _ | Sys_error _ ->
            (* The supervisor is gone (SIGPIPE is ignored, so a write
               fails with EPIPE instead of killing us): nothing can take
               a result any more, so end the process, even while the
               handler is still busy or stalled. *)
            Unix._exit 1)
  in
  let rec beat () =
    Thread.delay heartbeat;
    if not (Atomic.get finished) then begin
      send (J.Obj [ ("type", J.String "hb") ]);
      beat ()
    end
  in
  ignore (Thread.create beat () : Thread.t);
  let dec = Frame.decoder () in
  let rec loop () =
    match (try Frame.read input dec with Frame.Protocol_error _ -> None) with
    | None -> ()
    | Some frame -> (
        match obj_type frame with
        | Some "exit" -> ()
        | Some "task" ->
            let id =
              match Option.bind (Jin.member "id" frame) Jin.to_int with
              | Some id -> id
              | None -> -1
            in
            send (J.Obj [ ("type", J.String "ack"); ("id", J.Int id) ]);
            (match Option.bind (Jin.member "chaos" frame) Jin.to_string with
            | Some "kill" ->
                (* Abrupt death, as if the process segfaulted or was
                   OOM-killed: no farewell frame, no cleanup. *)
                Unix._exit 137
            | Some "stall" ->
                (* Alive (heartbeats continue) but stuck: the
                   supervisor's per-task deadline must fire. *)
                Thread.delay 3600.0
            | _ -> ());
            let payload =
              match Jin.member "payload" frame with Some p -> p | None -> J.Null
            in
            (match handler payload with
            | value ->
                send
                  (J.Obj
                     [
                       ("type", J.String "result"); ("id", J.Int id);
                       ("value", value);
                     ])
            | exception e ->
                send
                  (J.Obj
                     [
                       ("type", J.String "error"); ("id", J.Int id);
                       ("message", J.String (Printexc.to_string e));
                     ]));
            loop ()
        | _ -> loop ())
  in
  loop ();
  (* Under the writer lock, so process exit cannot race a heartbeat
     write; the heartbeat thread ends on its next wake-up. *)
  Mutex.protect wlock (fun () -> Atomic.set finished true)
