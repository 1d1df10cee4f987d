module Diag = Check.Diag
module J = Rdca_json.Jsonout

type t = {
  severity : Diag.severity;
  code : string;
  time : float;
  message : string;
}

let make ~severity ~code ~time fmt =
  Format.kasprintf (fun message -> { severity; code; time; message }) fmt

let to_json e =
  J.Obj
    [
      ("severity", J.String (Diag.severity_name e.severity));
      ("code", J.String e.code);
      ("time", J.Float e.time);
      ("message", J.String e.message);
    ]

let pp ppf e =
  Format.fprintf ppf "%s[%s] t=%.3f: %s"
    (Diag.severity_name e.severity)
    e.code e.time e.message
