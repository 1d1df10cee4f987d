module J = Rdca_json.Jsonout
module Jin = Rdca_json.Jsonin
module Campaign = Reliability.Campaign
module Mapper = Techmap.Mapper
module Sup = Resilient.Supervisor
module Event = Resilient.Event
module Checkpoint = Resilient.Checkpoint
module Interrupt = Resilient.Interrupt

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)

let strategy_to_json = function
  | Flow.Conventional -> J.Obj [ ("method", J.String "conventional") ]
  | Flow.Ranking f ->
      J.Obj [ ("method", J.String "ranking"); ("param", J.Float f) ]
  | Flow.Lcf t -> J.Obj [ ("method", J.String "lcf"); ("param", J.Float t) ]
  | Flow.Complete -> J.Obj [ ("method", J.String "complete") ]

let strategy_of_json v =
  let param () =
    match Option.bind (Jin.member "param" v) Jin.to_float with
    | Some f -> Ok f
    | None -> Error "strategy: missing or bad \"param\" field"
  in
  match Option.bind (Jin.member "method" v) Jin.to_string with
  | Some "conventional" -> Ok Flow.Conventional
  | Some "ranking" -> Result.map (fun f -> Flow.Ranking f) (param ())
  | Some "lcf" -> Result.map (fun t -> Flow.Lcf t) (param ())
  | Some "complete" -> Ok Flow.Complete
  | Some m -> Error (Printf.sprintf "strategy: unknown method %S" m)
  | None -> Error "strategy: missing \"method\" field"

let field name conv v =
  match Option.bind (Jin.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or bad %S field" name)

(* ------------------------------------------------------------------ *)
(* Worker-side dispatch                                                *)

let fail fmt = Printf.ksprintf failwith fmt
let ok_or_fail = function Ok x -> x | Error e -> fail "%s" e

let decode_sites v =
  match Option.bind (Jin.member "sites" v) Jin.to_list with
  | None -> fail "campaign shard: missing \"sites\" field"
  | Some l ->
      List.map
        (fun s ->
          match Jin.to_int s with
          | Some i -> i
          | None -> fail "campaign shard: non-integer site")
        l

let decode_campaign_config v =
  match Jin.member "config" v with
  | None -> fail "campaign shard: missing \"config\" field"
  | Some c ->
      let int name = ok_or_fail (field name Jin.to_int c) in
      let kinds =
        match Option.bind (Jin.member "kinds" c) Jin.to_list with
        | None -> fail "campaign config: missing \"kinds\" field"
        | Some ks ->
            List.map
              (fun k ->
                match Option.bind (Jin.to_string k) Reliability.Inject.kind_of_name with
                | Some kind -> kind
                | None -> fail "campaign config: bad fault kind")
              ks
      in
      {
        Campaign.seed = int "seed";
        trials_per_site = int "trials_per_site";
        confidence = ok_or_fail (field "confidence" Jin.to_float c);
        kinds;
        max_sites =
          Option.bind (Jin.member "max_sites" c) Jin.to_int;
        time_budget = None;
        dead_sites =
          (match Option.bind (Jin.member "dead_sites" c) Jin.to_list with
          | None -> []
          | Some l ->
              List.map
                (fun s ->
                  match Jin.to_int s with
                  | Some i -> i
                  | None -> fail "campaign config: non-integer dead site")
                l);
      }

(* Out-of-process workers rebuild the netlist from the task's
   (input, strategy, mode) description; one synthesis per distinct
   triple per worker process. *)
let synth_cache : (string, Pla.Spec.t * Netlist.t) Hashtbl.t =
  Hashtbl.create 4

let synthesized ~input ~strategy ~mode =
  let key =
    Printf.sprintf "%s|%s|%s" input
      (J.to_string (strategy_to_json strategy))
      (Mapper.mode_name mode)
  in
  match Hashtbl.find_opt synth_cache key with
  | Some v -> v
  | None ->
      let spec =
        match Flow.load_spec input with
        | Ok s -> s
        | Error e -> fail "%s" (Flow.error_to_string e)
      in
      let r = Flow.synthesize ~mode ~strategy spec in
      let v = (spec, r.Flow.netlist) in
      Hashtbl.replace synth_cache key v;
      v

let run_campaign_shard config spec nl sites =
  J.List
    (List.map Campaign.site_result_to_json
       (Campaign.run_sites config spec nl sites))

let dispatch payload =
  match Option.bind (Jin.member "kind" payload) Jin.to_string with
  | Some "campaign-shard" ->
      let input = ok_or_fail (field "input" Jin.to_string payload) in
      let strategy =
        match Jin.member "strategy" payload with
        | Some s -> ok_or_fail (strategy_of_json s)
        | None -> fail "campaign shard: missing \"strategy\" field"
      in
      let mode =
        match
          Option.bind
            (Option.bind (Jin.member "mode" payload) Jin.to_string)
            (fun name -> List.assoc_opt name Mapper.modes)
        with
        | Some m -> m
        | None -> fail "campaign shard: missing or bad \"mode\" field"
      in
      let config = decode_campaign_config payload in
      let spec, nl = synthesized ~input ~strategy ~mode in
      run_campaign_shard config spec nl (decode_sites payload)
  | Some k -> fail "unknown task kind %S" k
  | None -> fail "task payload has no \"kind\" field"

(* ------------------------------------------------------------------ *)
(* Distributed campaign                                                *)

type 'a distributed = {
  value : 'a;
  events : Event.t list;
  exec_mode : Sup.mode;
  interrupted : bool;
}

type campaign_opts = {
  sup : Sup.config;
  shard_size : int;
  checkpoint : string option;
  resume : bool;
  stop_after : int option;
}

let chunk k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let take k xs =
  let rec go n = function
    | x :: rest when n < k -> x :: go (n + 1) rest
    | _ -> []
  in
  go 0 xs

let campaign_run opts ~input ~strategy ~mode config spec nl =
  let shard_size = max 1 opts.shard_size in
  match Campaign.selected_sites config nl with
  | exception Invalid_argument m -> Error m
  | sites -> (
      let sites_total = List.length sites in
      let t0 = Unix.gettimeofday () in
      let shards = chunk shard_size sites in
      let total = List.length shards in
      let task_of_shard shard_sites =
        J.Obj
          [
            ("kind", J.String "campaign-shard");
            ("input", J.String input);
            ("strategy", strategy_to_json strategy);
            ("mode", J.String (Mapper.mode_name mode));
            ("config", Campaign.config_to_json config);
            ("sites", J.List (List.map (fun s -> J.Int s) shard_sites));
          ]
      in
      let tasks = Array.of_list (List.map task_of_shard shards) in
      let key =
        J.Obj
          [
            ("input", J.String input);
            ("strategy", strategy_to_json strategy);
            ("mode", J.String (Mapper.mode_name mode));
            ("config", Campaign.config_to_json config);
            ("shard_size", J.Int shard_size);
            ( "spec_digest",
              J.String (Digest.to_hex (Digest.string (Pla.to_string spec))) );
          ]
      in
      let done_tbl : (int, J.t) Hashtbl.t = Hashtbl.create 64 in
      let pre_events = ref [] in
      let pre_event severity code fmt =
        Format.kasprintf
          (fun message ->
            pre_events :=
              { Event.severity; code; time = 0.0; message } :: !pre_events)
          fmt
      in
      (match (opts.checkpoint, opts.resume) with
      | Some path, true ->
          let done_shards, rejected =
            Checkpoint.resume ~path ~kind:"campaign" ~key ~total
          in
          Option.iter
            (fun reason ->
              pre_event Check.Diag.Warn "checkpoint-rejected"
                "ignoring checkpoint %s: %s" path reason)
            rejected;
          if done_shards <> [] then
            pre_event Check.Diag.Info "checkpoint-resumed"
              "resuming from %s: %d/%d shard(s) already complete" path
              (List.length done_shards) total;
          List.iter (fun (id, v) -> Hashtbl.replace done_tbl id v) done_shards
      | _ -> ());
      let save_checkpoint ~interrupted =
        match opts.checkpoint with
        | None -> ()
        | Some path ->
            let entries =
              Hashtbl.fold (fun id v acc -> (id, v) :: acc) done_tbl []
              |> List.sort (fun (a, _) (b, _) -> compare a b)
            in
            Checkpoint.save path
              { Checkpoint.kind = "campaign"; key; total; interrupted;
                shards = entries }
      in
      let missing = ref [] in
      for id = total - 1 downto 0 do
        if not (Hashtbl.mem done_tbl id) then missing := id :: !missing
      done;
      let to_run =
        match opts.stop_after with
        | None -> !missing
        | Some k -> take (max 0 k) !missing
      in
      let skip =
        List.filter (fun id -> not (List.mem id to_run))
          (List.init total Fun.id)
      in
      (* The in-process fallback uses the already synthesized netlist;
         only worker processes pay a re-synthesis. *)
      let local_handler payload =
        run_campaign_shard config spec nl (decode_sites payload)
      in
      let on_result id v =
        Hashtbl.replace done_tbl id v;
        save_checkpoint ~interrupted:false
      in
      let unhook =
        match opts.checkpoint with
        | Some _ -> Some (Interrupt.on_interrupt (fun () ->
            save_checkpoint ~interrupted:true))
        | None -> None
      in
      let out =
        Fun.protect
          ~finally:(fun () -> Option.iter (fun f -> f ()) unhook)
          (fun () ->
            Sup.run ~on_result ~skip opts.sup ~handler:local_handler ~tasks)
      in
      let all_done = Hashtbl.length done_tbl = total in
      if opts.checkpoint <> None then
        save_checkpoint ~interrupted:(not all_done);
      (* Merge in shard order; absent shards (stop_after, permanent
         failures) just shorten the report, they never corrupt it. *)
      let decoded = ref (Ok []) in
      for id = total - 1 downto 0 do
        match (!decoded, Hashtbl.find_opt done_tbl id) with
        | Error _, _ | _, None -> ()
        | Ok acc, Some v -> (
            match Jin.to_list v with
            | None -> decoded := Error (Printf.sprintf "shard %d: not a list" id)
            | Some items ->
                let rec fold rs = function
                  | [] -> decoded := Ok (rs @ acc)
                  | x :: rest -> (
                      match Campaign.site_result_of_json x with
                      | Ok r -> fold (rs @ [ r ]) rest
                      | Error e ->
                          decoded :=
                            Error (Printf.sprintf "shard %d: %s" id e))
                in
                fold [] items)
      done;
      match !decoded with
      | Error e -> Error e
      | Ok results ->
          let report =
            Campaign.of_results config ~sites_total ~complete:all_done
              ~elapsed:(Unix.gettimeofday () -. t0)
              results
          in
          Ok
            {
              value = report;
              events = List.rev !pre_events @ out.Sup.events;
              exec_mode = out.Sup.mode;
              interrupted = not all_done;
            })

let campaign_report_to_json report ~events ~interrupted =
  let module C = Campaign in
  let pooled =
    List.map
      (fun p ->
        let lo, hi = p.C.p_ci in
        J.Obj
          [
            ("kind", J.String (Reliability.Inject.kind_name p.C.p_kind));
            ("sites", J.Int p.C.p_sites);
            ("events", J.Int p.C.p_events);
            ("propagated", J.Int p.C.p_propagated);
            ("rate", J.Float p.C.p_rate);
            ("ci_lo", J.Float lo);
            ("ci_hi", J.Float hi);
          ])
      (C.pooled report)
  in
  J.Obj
    [
      ("schema_version", J.Int 1);
      ("config", C.config_to_json report.C.config);
      ("sites_total", J.Int report.C.sites_total);
      ("sites_done", J.Int report.C.sites_done);
      ("complete", J.Bool report.C.complete);
      ("interrupted", J.Bool interrupted);
      ("elapsed", J.Float report.C.elapsed);
      ("results", J.List (List.map C.site_result_to_json report.C.results));
      ("pooled", J.List pooled);
      ("supervision", J.List (List.map Event.to_json events));
    ]
