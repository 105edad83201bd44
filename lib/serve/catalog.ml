module Json = Tm_obs.Json
module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Ioa = Tm_ioa.Ioa
module TA = Tm_core.Time_automaton
module Condition = Tm_timed.Condition
module Semantics = Tm_timed.Semantics
module Tseq = Tm_timed.Tseq
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Margin = Tm_faults.Margin
module Registry = Tm_systems.Registry
module Supervisor = Tm_recover.Supervisor
module Snapshot = Tm_recover.Snapshot

type 'r job = {
  label : string;
  op : string;
  fingerprint : string;
  req_limit : int option;
  req_deadline_s : float option;
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    ('r, Reach.exhausted) result;
}

(* ------------------------------------------------------------------ *)
(* engines and strategies *)

let engine_of = function
  | "auto" -> Ok (module Reach.Auto : Reach.S)
  | "ref" -> Ok (module Reach.Ref : Reach.S)
  | "paranoid" -> Ok (module Reach.Paranoid : Reach.S)
  | other ->
      Error (Printf.sprintf "unknown engine %S (auto | ref | paranoid)" other)

let make_strategy name =
  let cap = Rational.of_int 1 in
  match name with
  | "eager" -> Ok (fun ~seed:_ ~denominator:_ -> Strategy.eager)
  | "lazy" -> Ok (fun ~seed:_ ~denominator:_ -> Strategy.lazy_ ~cap ())
  | "random" ->
      Ok
        (fun ~seed ~denominator ->
          Strategy.random ~prng:(Prng.create seed) ~denominator ~cap)
  | other ->
      Error (Printf.sprintf "unknown strategy %S (eager | lazy | random)" other)

(* ------------------------------------------------------------------ *)
(* checks *)

type outcome =
  | Verified of { bounds : Interval.t; stats : Reach.stats }
  | Lower_violation of Reach.stats
  | Upper_violation of Reach.stats
  | Unsupported of string
  | Invariant_ok of Reach.stats
  | Invariant_violated of string

(* One search answers a list of checks (see catalog.mli): at its
   fixpoint every item; stopped by the condition, the condition alone;
   stopped by an invariant, only the invariant of a one-item list. *)
let check_job (type s a) (module E : Reach.S) ~label
    (v : (s, a) Registry.verified) (checks : (s, a) Registry.check list) =
  let sys = v.Registry.system and bm = v.Registry.boundmap in
  let props =
    List.map
      (function
        | Registry.Cond c | Registry.Note { cond = c; _ } -> Reach.Condition c
        | Registry.Inv { pred; _ } -> Reach.Invariant pred)
      checks
  in
  let fingerprint =
    match checks with
    | [ Registry.Note { label; _ } ] -> "informational:" ^ label
    | _ -> E.fingerprint sys bm props
  in
  let answer r check =
    match (check, r) with
    | Registry.Inv _, Ok (Reach.Verified stats) -> Some (Invariant_ok stats)
    | Registry.Inv _, Error s when List.compare_length_with checks 1 = 0 ->
        Some (Invariant_violated (Format.asprintf "%a" sys.Ioa.pp_state s))
    | Registry.Inv _, _ -> None
    | (Registry.Cond c | Registry.Note { cond = c; _ }), r -> (
        match r with
        | Ok (Reach.Verified stats) ->
            Some (Verified { bounds = c.Condition.bounds; stats })
        | Ok (Reach.Lower_violation st) -> Some (Lower_violation st)
        | Ok (Reach.Upper_violation st) -> Some (Upper_violation st)
        | Ok (Reach.Unsupported m) -> Some (Unsupported m)
        | Ok (Reach.Unknown _) | Error _ -> None)
  in
  let exec ~limit ~deadline_s ~domains:_ ~checkpoint ~resume =
    match E.check ?limit ?deadline_s ?checkpoint ?resume sys bm props with
    | Ok (Reach.Unknown e) -> Error e
    | r -> Ok (List.map (answer r) checks)
  in
  {
    label = String.concat " + " (List.map (Registry.check_label label) checks);
    op = "verify";
    fingerprint;
    req_limit = None;
    req_deadline_s = None;
    exec;
  }

let own_job engine ~label v check =
  let j = check_job engine ~label v [ check ] in
  let exec ~limit ~deadline_s ~domains ~checkpoint ~resume =
    match j.exec ~limit ~deadline_s ~domains ~checkpoint ~resume with
    | Ok [ Some o ] -> Ok o
    | Ok _ -> assert false (* a check's own search answers it *)
    | Error e -> Error e
  in
  { j with exec }

(* Verdict documents.  Field order is fixed, so re-rendering the same
   outcome yields byte-identical JSON — the cache equality the tests
   and CI check. *)

let verdict_doc ~item ~result extra =
  Json.Obj
    (("item", Json.String item) :: ("result", Json.String result) :: extra)

let stats_fields (st : Reach.stats) =
  [
    ("locations", Json.Int st.Reach.locations);
    ("zones", Json.Int st.Reach.zones);
    ("edges", Json.Int st.Reach.edges);
  ]

let outcome_json ~item = function
  | Verified { bounds; stats } ->
      verdict_doc ~item ~result:"verified"
        (("bounds", Json.String (Interval.to_string bounds))
        :: stats_fields stats)
  | Lower_violation st ->
      verdict_doc ~item ~result:"lower_violation" (stats_fields st)
  | Upper_violation st ->
      verdict_doc ~item ~result:"upper_violation" (stats_fields st)
  | Unsupported m ->
      verdict_doc ~item ~result:"unsupported" [ ("message", Json.String m) ]
  | Invariant_ok st ->
      verdict_doc ~item ~result:"invariant_ok" (stats_fields st)
  | Invariant_violated s ->
      verdict_doc ~item ~result:"invariant_violated"
        [ ("state", Json.String s) ]

(* ------------------------------------------------------------------ *)
(* margins *)

let margin_reports (module E : Reach.S) ?limit ?deadline_s ~domains
    (model : Registry.model) =
  match model.Registry.verified with
  | Registry.Verified v ->
      List.filter_map
        (fun check ->
          let report subject prop =
            let check =
              Margin.status (module E) ?limit ?deadline_s v.system prop
            in
            Some (Margin.report ~domains ~subject ~check v.boundmap)
          in
          match check with
          | Registry.Cond c ->
              report
                (Printf.sprintf "%s %s %s" model.label c.Condition.cname
                   (Interval.to_string c.Condition.bounds))
                (Reach.Condition c)
          | Registry.Inv { label; pred; _ } ->
              report
                (Printf.sprintf "%s %s (invariant)" model.label label)
                (Reach.Invariant pred)
          | Registry.Note _ -> None)
        v.checks

let budget_suffix ~limit ~deadline_s =
  Printf.sprintf "|limit=%s|deadline=%s"
    (match limit with Some n -> string_of_int n | None -> "-")
    (match deadline_s with Some s -> Printf.sprintf "%g" s | None -> "-")

let margin_fingerprint (module E : Reach.S) (v : _ Registry.verified) ~limit
    ~deadline_s =
  let prop_name = function
    | Registry.Cond c -> Some c.Condition.cname
    | Registry.Inv { label; _ } -> Some (label ^ ":invariant")
    | Registry.Note _ -> None
  in
  E.fingerprint v.Registry.system v.Registry.boundmap
    [ Reach.Invariant (fun _ -> true) ]
  ^ "|serve=margin|props="
  ^ String.concat "," (List.filter_map prop_name v.Registry.checks)
  ^ budget_suffix ~limit ~deadline_s

(* ------------------------------------------------------------------ *)
(* simulation *)

let simulate_json (type s a) ~item (s : (s, a) Registry.simulated) ~steps
    ~strategy ~deadline_s =
  let run = Simulator.simulate ?deadline_s ~steps ~strategy s.Registry.impl in
  let seq = Simulator.project run in
  let violations = Semantics.semi_satisfies_all seq s.Registry.conds in
  let base = s.Registry.impl.TA.base in
  let moves =
    List.map
      (fun ((act, t), _) ->
        Json.Obj
          [
            ("t", Json.String (Rational.to_string t));
            ("act", Json.String (Format.asprintf "%a" base.Ioa.pp_action act));
          ])
      seq.Tseq.moves
  in
  Json.Obj
    [
      ("item", Json.String item);
      ("result", Json.String "simulated");
      ("stop", Json.String (Simulator.describe_stop run.Simulator.reason));
      ("violations", Json.Int (List.length violations));
      ("moves", Json.List moves);
    ]

(* ------------------------------------------------------------------ *)
(* request parsing *)

let field k j = Json.member k j
let str_field k j = Option.bind (field k j) Json.string_opt
let int_field k j = Option.bind (field k j) Json.int_opt
let float_field k j = Option.bind (field k j) Json.float_opt
let ( let* ) = Result.bind

(* The request's parameters in request order, and their canonical
   string (which the simulation fingerprint records verbatim). *)
let parse_params json =
  match json with
  | None -> Ok ([], "")
  | Some (Json.Obj kvs) ->
      let rec go acc = function
        | [] ->
            let given = List.rev acc in
            Ok
              ( given,
                String.concat ","
                  (List.map (fun (k, i) -> Printf.sprintf "%s=%d" k i) given)
              )
        | (key, v) :: rest -> (
            match Json.int_opt v with
            | None -> Error (Printf.sprintf "param %S must be an integer" key)
            | Some i ->
                let* () = Registry.known_param key in
                go ((key, i) :: acc) rest)
      in
      go [] kvs
  | Some _ -> Error "\"params\" must be an object of integers"

let of_request ?(default_engine = "auto") req =
  match req with
  | Json.Obj _ -> (
      let op = Option.value (str_field "op" req) ~default:"verify" in
      let system = Option.value (str_field "system" req) ~default:"rm" in
      let ename =
        Option.value (str_field "engine" req) ~default:default_engine
      in
      let* engine = engine_of ename in
      let* given, paramstr = parse_params (field "params" req) in
      let* entry = Registry.find system in
      let* model =
        Registry.instantiate ~margin:(String.equal op "margin") entry given
      in
      let limit = int_field "limit" req in
      let deadline_s = float_field "deadline_s" req in
      let job label ~fingerprint exec =
        Ok
          {
            label;
            op;
            fingerprint;
            req_limit = limit;
            req_deadline_s = deadline_s;
            exec;
          }
      in
      match op with
      | "verify" -> (
          let (Registry.Verified v) = model.Registry.verified in
          (* the CLI-only notes are not served, so request item indices
             are those of the real checks *)
          let checks =
            List.filter
              (function Registry.Note _ -> false | _ -> true)
              v.checks
          in
          let idx = Option.value (int_field "item" req) ~default:0 in
          match if idx < 0 then None else List.nth_opt checks idx with
          | None ->
              Error
                (Printf.sprintf "item %d out of range (%s has %d items)" idx
                   system (List.length checks))
          | Some check ->
              let j = own_job engine ~label:model.label v check in
              job j.label ~fingerprint:j.fingerprint
                (fun ~limit ~deadline_s ~domains ~checkpoint ~resume ->
                  Result.map (outcome_json ~item:j.label)
                    (j.exec ~limit ~deadline_s ~domains ~checkpoint ~resume)))
      | "margin" ->
          let (Registry.Verified v) = model.Registry.verified in
          job (system ^ " margin")
            ~fingerprint:(margin_fingerprint engine v ~limit ~deadline_s)
            (fun ~limit ~deadline_s ~domains ~checkpoint:_ ~resume:_ ->
              let reports =
                margin_reports engine ?limit ?deadline_s ~domains model
              in
              Ok
                (Json.Obj
                   [
                     ("item", Json.String (model.label ^ " margin"));
                     ("result", Json.String "margin");
                     ("reports", Json.List (List.map Margin.to_json reports));
                   ]))
      | "simulate" ->
          let steps =
            max 1 (min 5000 (Option.value (int_field "steps" req) ~default:60))
          in
          let sname =
            Option.value (str_field "strategy" req) ~default:"random"
          in
          let seed = Option.value (int_field "seed" req) ~default:42 in
          let (Registry.Simulated s) = model.Registry.simulated in
          let* strategy = make_strategy sname in
          job (system ^ " simulate")
            ~fingerprint:
              (Printf.sprintf
                 "tmsim1|system=%s|%s|steps=%d|strategy=%s|seed=%d%s" system
                 paramstr steps sname seed
                 (budget_suffix ~limit:None ~deadline_s))
            (fun ~limit:_ ~deadline_s ~domains:_ ~checkpoint:_ ~resume:_ ->
              Ok
                (simulate_json ~item:(system ^ " simulate") s ~steps
                   ~strategy:(strategy ~seed ~denominator:s.denominator)
                   ~deadline_s))
      | other ->
          Error
            (Printf.sprintf
               "unknown op %S (verify | margin | simulate | ping | stats | \
                shutdown)"
               other))
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* the supervised runner *)

type policy = {
  retry_deadline : bool;
  contain : bool;
  jitter_max_s : float option;
  interrupted : string;
}

let cli_policy =
  {
    retry_deadline = true;
    contain = false;
    jitter_max_s = None;
    interrupted = "interrupted (SIGINT/SIGTERM)";
  }

let daemon_policy =
  {
    retry_deadline = false;
    contain = true;
    jitter_max_s = Some 2.0;
    interrupted = "interrupted: daemon shutting down";
  }

let supervise policy ~attempts ~backoff_s ?on_retry ?limit ?deadline_s
    ~domains ?checkpoint ?resume job =
  let resume = ref resume and last = ref None in
  let stop f = Supervisor.Done (Error f) in
  let retry f reason =
    last := Some f;
    Supervisor.Transient reason
  in
  (* an interrupt that keeps an attempt from running reports the
     progress so far and the checkpoint that holds it *)
  let interrupted () =
    let partial =
      match !last with
      | Some (`Exhausted (e : Reach.exhausted)) -> e.partial
      | _ -> { Reach.locations = 0; zones = 0; edges = 0 }
    in
    stop
      (`Exhausted
        { Reach.reason = policy.interrupted; partial; checkpoint = !resume })
  in
  let attempt ~attempt:_ =
    if Supervisor.interrupt_requested () then interrupted ()
    else
      match
        job.exec ~limit ~deadline_s ~domains ~checkpoint ~resume:!resume
      with
      | Ok r -> Supervisor.Done (Ok r)
      | Error (e : Reach.exhausted) ->
          (* the next attempt resumes from this one's snapshot, else
             from where this one began — unless a finished search (a
             paranoid run whose check ran out of time) removed it *)
          (match (e.checkpoint, !resume) with
          | Some _, _ -> resume := e.checkpoint
          | None, Some r when not (Sys.file_exists r) -> resume := None
          | None, _ -> ());
          if Supervisor.interrupt_requested () then stop (`Exhausted e)
          else if
            e.checkpoint <> None
            || policy.retry_deadline
               && String.starts_with ~prefix:"deadline" e.reason
          then retry (`Exhausted e) e.reason
          else stop (`Exhausted e)
      | exception Supervisor.Interrupted when policy.contain -> interrupted ()
      | exception ex when policy.contain ->
          let m = Printexc.to_string ex in
          retry (`Crashed m) m
  in
  (* decorrelated jitter, deterministically seeded per fingerprint: a
     fleet of retries spreads out, a repeated run replays exactly *)
  let seed = Snapshot.crc32 (Bytes.of_string job.fingerprint) in
  let jitter = Option.map (fun _ -> Prng.create seed) policy.jitter_max_s in
  match
    Supervisor.with_retries ~attempts ~backoff_s ?jitter
      ?max_backoff_s:policy.jitter_max_s ?on_retry attempt
  with
  | Ok r -> r
  | Error _ -> Error (Option.get !last)
