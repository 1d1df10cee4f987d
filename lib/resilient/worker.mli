(** Worker side of the supervision protocol.

    A worker reads task frames from one pipe, runs a handler on each
    payload and writes result frames to another, with a background
    thread emitting heartbeats so the supervisor can tell a stalled
    worker from a slow one.

    Frames understood (all JSON objects with a ["type"] field):
    - [task] — [{type, id, attempt, payload, chaos?}]; the worker
      replies [ack] immediately, then [result] (with [value]) on
      success or [error] (with [message]) if the handler raises.
    - [exit] — finish the serve loop.

    The optional [chaos] field is the supervisor-driven failure
    injection used by the [--chaos] test mode: ["kill"] makes the
    worker die abruptly after the ack (exercising the supervisor's
    death/requeue path), ["stall"] makes it sleep long past any
    deadline while heartbeats continue (exercising the deadline
    kill). *)

val serve :
  handler:(Rdca_json.Jsonout.t -> Rdca_json.Jsonout.t) ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
(** [serve ~handler ~input ~output ()] runs the frame loop until an
    [exit] frame or end of file on [input], beating every 0.2 s in
    the background.  Never raises on protocol or handler errors; a
    write to a dead supervisor pipe ends the process ([Unix._exit]),
    whatever the handler is doing. *)
