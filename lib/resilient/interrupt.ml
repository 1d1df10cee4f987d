let hooks : (int * (unit -> unit)) list ref = ref []
let next_id = ref 0
let installed = ref false
let hit = ref false
let fired = Atomic.make false

let run_hooks () =
  hit := true;
  List.iter (fun (_, f) -> try f () with _ -> ()) !hooks

(* OCaml 5 runs a signal handler on whichever domain polls first, often
   a pool worker while the main domain waits on its batch.  [exit]
   there would run the pool's at_exit shutdown, which joins every
   worker domain — the caller included — and never returns.  So the
   first signal runs the hooks and ends the process without at_exit
   functions; a signal arriving meanwhile returns at once. *)
let handler _signum =
  if Atomic.compare_and_set fired false true then begin
    run_hooks ();
    (try
       flush stdout;
       flush stderr
     with _ -> ());
    Unix._exit 130
  end

let install () =
  if not !installed then begin
    installed := true;
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle handler)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]
  end

let on_interrupt hook =
  incr next_id;
  let id = !next_id in
  hooks := (id, hook) :: !hooks;
  fun () -> hooks := List.filter (fun (i, _) -> i <> id) !hooks

let triggered () = !hit

let simulate () =
  run_hooks ();
  hit := false
