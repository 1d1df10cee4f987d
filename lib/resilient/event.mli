(** Structured supervision events.

    Everything noteworthy the {!Supervisor} does besides computing —
    spawning, killing, retrying, degrading — is recorded as an event in
    the run's outcome, in the style of {!Check.Diag}: a severity, a
    stable machine-readable code, and a human message.  Campaign and
    benchmark reports carry them so a degraded run says so instead of
    silently changing execution mode. *)

type t = {
  severity : Check.Diag.severity;
  code : string;
      (** stable kebab-case identifier, e.g. ["worker-died"],
          ["task-deadline"], ["degraded-to-pool"] *)
  time : float;  (** seconds since the supervisor run started *)
  message : string;
}

val make :
  severity:Check.Diag.severity ->
  code:string ->
  time:float ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val to_json : t -> Rdca_json.Jsonout.t

val pp : Format.formatter -> t -> unit
(** One line: ["warn[worker-died] t=1.203: ..."]. *)
