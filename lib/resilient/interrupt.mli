(** Cooperative SIGINT/SIGTERM handling for long-running commands.

    [rdca faultsim] and [bench/main.exe] register hooks that write a
    partial JSON report marked ["interrupted": true] before the process
    exits, so a long fault simulation survives a Ctrl-C or a
    batch-scheduler kill. *)

val install : unit -> unit
(** Install handlers for SIGINT and SIGTERM (idempotent).  On the first
    signal every registered hook runs once (most recent first,
    exceptions ignored), stdout and stderr are flushed and the process
    exits with status [130] at once, without running [at_exit]
    functions: the handler may run on any domain, including a
    {!Parallel.Pool} worker that the pool's exit-time shutdown would
    wait for.  A signal arriving while the hooks run is ignored.  On
    platforms without these signals this is a no-op. *)

val on_interrupt : (unit -> unit) -> unit -> unit
(** [on_interrupt hook] registers [hook] and returns a thunk that
    deregisters it — call it when the guarded phase completes normally
    so a later signal does not re-flush stale state. *)

val triggered : unit -> bool
(** Whether a signal has been received (observable from hooks). *)

val simulate : unit -> unit
(** Run the hooks as a signal would, but return instead of exiting —
    the test harness's way of exercising interrupt flushing. *)
