module J = Rdca_json.Jsonout
module Jin = Rdca_json.Jsonin

let obj_type v = Option.bind (Jin.member "type" v) Jin.to_string

let heartbeat = 0.2

let serve ~handler ~input ~output () =
  (* One writer mutex serialises the main loop's acks/results with the
     background heartbeats. *)
  let wlock = Mutex.create () in
  let dead = ref false in
  let send frame =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () ->
        if not !dead then
          try Frame.write output frame
          with Unix.Unix_error _ | Sys_error _ -> dead := true)
  in
  let stop_hb = Atomic.make false in
  let hb_thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_hb) do
          Thread.delay heartbeat;
          if not (Atomic.get stop_hb) then send (J.Obj [ ("type", J.String "hb") ])
        done)
      ()
  in
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
            if not !dead then loop ()
        | _ -> loop ())
  in
  loop ();
  Atomic.set stop_hb true;
  (* The heartbeat thread wakes within one period; joining keeps
     process exit from racing a last write. *)
  Thread.join hb_thread
