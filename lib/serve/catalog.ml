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
module RM = Tm_systems.Resource_manager
module IM = Tm_systems.Interrupt_manager
module SR = Tm_systems.Signal_relay
module F = Tm_systems.Fischer
module RG = Tm_systems.Request_grant
module TR = Tm_systems.Token_ring
module FD = Tm_systems.Failure_detector
module TS = Tm_systems.Two_stage

let q = Rational.of_int

type job = {
  label : string;
  op : string;
  fingerprint : string;
  checkpointable : bool;
  req_limit : int option;
  req_deadline_s : float option;
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    (Json.t, Reach.exhausted) result;
}

let systems = [ "rm"; "im"; "relay"; "fischer"; "rg"; "ring"; "fd"; "two" ]

(* ------------------------------------------------------------------ *)
(* verdict documents.  Field order is fixed, so re-rendering the same
   outcome yields byte-identical JSON — the cache equality the tests
   and CI check. *)

let stats_fields (st : Reach.stats) =
  [
    ("locations", Json.Int st.Reach.locations);
    ("zones", Json.Int st.Reach.zones);
    ("edges", Json.Int st.Reach.edges);
  ]

let verdict_doc ~label ~result extra =
  Json.Obj
    (("item", Json.String label) :: ("result", Json.String result) :: extra)

(* ------------------------------------------------------------------ *)
(* verification items (mirrors bin/timedmap.ml's vitems) *)

type item = {
  it_label : string;
  it_fingerprint : (module Reach.S) -> string;
  it_exec :
    (module Reach.S) ->
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    (Json.t, Reach.exhausted) result;
}

let cond_item (type s a) name (sys : (s, a) Ioa.t) bm
    (c : (s, a) Condition.t) =
  let label = Printf.sprintf "%s %s" name c.Condition.cname in
  {
    it_label = label;
    it_fingerprint =
      (fun (module E : Reach.S) -> E.fingerprint_condition sys bm c);
    it_exec =
      (fun (module E : Reach.S) ~limit ~deadline_s ~domains ~checkpoint
           ~resume ->
        match
          E.check_condition ?limit ?deadline_s ~domains ?checkpoint ?resume
            sys bm c
        with
        | Reach.Verified st ->
            Ok
              (verdict_doc ~label ~result:"verified"
                 (("bounds",
                   Json.String (Interval.to_string c.Condition.bounds))
                 :: stats_fields st))
        | Reach.Lower_violation st ->
            Ok (verdict_doc ~label ~result:"lower_violation" (stats_fields st))
        | Reach.Upper_violation st ->
            Ok (verdict_doc ~label ~result:"upper_violation" (stats_fields st))
        | Reach.Unsupported m ->
            Ok
              (verdict_doc ~label ~result:"unsupported"
                 [ ("message", Json.String m) ])
        | Reach.Unknown e -> Error e);
  }

let inv_item (type s a) label (sys : (s, a) Ioa.t) bm (pred : s -> bool) =
  {
    it_label = label;
    it_fingerprint =
      (fun (module E : Reach.S) -> E.fingerprint_invariant sys bm);
    it_exec =
      (fun (module E : Reach.S) ~limit ~deadline_s ~domains ~checkpoint
           ~resume ->
        match
          E.check_state_invariant ?limit ?deadline_s ~domains ?checkpoint
            ?resume sys bm pred
        with
        | Ok st -> Ok (verdict_doc ~label ~result:"invariant_ok" (stats_fields st))
        | Error s ->
            Ok
              (verdict_doc ~label ~result:"invariant_violated"
                 [ ("state",
                    Json.String (Format.asprintf "%a" sys.Ioa.pp_state s)) ])
        | exception Reach.Out_of_budget e -> Error e);
  }

(* ------------------------------------------------------------------ *)
(* margin + simulation closures *)

type ('s, 'a) prop = Pcond of ('s, 'a) Condition.t | Pinv of string * ('s -> bool)

let prop_name = function
  | Pcond c -> c.Condition.cname
  | Pinv (n, _) -> n ^ ":invariant"

let budget_suffix ~limit ~deadline_s =
  Printf.sprintf "|limit=%s|deadline=%s"
    (match limit with Some n -> string_of_int n | None -> "-")
    (match deadline_s with Some s -> Printf.sprintf "%g" s | None -> "-")

type margin_fns = {
  mg_fp :
    (module Reach.S) -> limit:int option -> deadline_s:float option -> string;
  mg_run :
    (module Reach.S) -> domains:int -> limit:int option ->
    deadline_s:float option -> Json.t;
}

let make_margin (type s a) name (sys : (s, a) Ioa.t) bm
    (props : (s, a) prop list) =
  {
    mg_fp =
      (fun (module E) ~limit ~deadline_s ->
        E.fingerprint_invariant sys bm
        ^ "|serve=margin|props="
        ^ String.concat "," (List.map prop_name props)
        ^ budget_suffix ~limit ~deadline_s);
    mg_run =
      (fun (module E) ~domains ~limit ~deadline_s ->
        let reports =
          List.map
            (fun prop ->
              let subject, check =
                match prop with
                | Pcond c ->
                    ( Printf.sprintf "%s %s %s" name c.Condition.cname
                        (Interval.to_string c.Condition.bounds),
                      fun bm' ->
                        Margin.condition_status
                          (module E : Reach.S)
                          ?limit ?deadline_s sys c bm' )
                | Pinv (iname, pred) ->
                    ( Printf.sprintf "%s %s (invariant)" name iname,
                      fun bm' ->
                        Margin.invariant_status
                          (module E : Reach.S)
                          ?limit ?deadline_s sys pred bm' )
              in
              Margin.to_json (Margin.report ~domains ~subject ~check bm))
            props
        in
        Json.Obj
          [ ("item", Json.String (name ^ " margin"));
            ("result", Json.String "margin");
            ("reports", Json.List reports) ]);
  }

type sim_fns = {
  sm_fp :
    steps:int -> strategy:string -> seed:int -> deadline_s:float option ->
    string;
  sm_run :
    steps:int -> strategy:string -> seed:int -> deadline_s:float option ->
    Json.t;
}

let make_strategy name seed denominator =
  match name with
  | "eager" -> Ok Strategy.eager
  | "lazy" -> Ok (Strategy.lazy_ ~cap:(q 1) ())
  | "random" ->
      Ok (Strategy.random ~prng:(Prng.create seed) ~denominator ~cap:(q 1))
  | other -> Error (Printf.sprintf "unknown strategy %S" other)

let make_sim (type s a) ~sysname ~paramstr (aut : (s, a) TA.t)
    (conds : (s, a) Condition.t list) ~denominator =
  {
    sm_fp =
      (fun ~steps ~strategy ~seed ~deadline_s ->
        Printf.sprintf "tmsim1|system=%s|%s|steps=%d|strategy=%s|seed=%d%s"
          sysname paramstr steps strategy seed
          (budget_suffix ~limit:None ~deadline_s));
    sm_run =
      (fun ~steps ~strategy ~seed ~deadline_s ->
        match make_strategy strategy seed denominator with
        | Error m ->
            Json.Obj
              [ ("item", Json.String (sysname ^ " simulate"));
                ("result", Json.String "error");
                ("message", Json.String m) ]
        | Ok strat ->
            let run = Simulator.simulate ?deadline_s ~steps ~strategy:strat aut in
            let seq = Simulator.project run in
            let violations = Semantics.semi_satisfies_all seq conds in
            let base = aut.TA.base in
            let moves =
              List.map
                (fun ((act, t), _) ->
                  Json.Obj
                    [
                      ("t", Json.String (Rational.to_string t));
                      ("act",
                       Json.String
                         (Format.asprintf "%a" base.Ioa.pp_action act));
                    ])
                seq.Tseq.moves
            in
            Json.Obj
              [
                ("item", Json.String (sysname ^ " simulate"));
                ("result", Json.String "simulated");
                ("stop",
                 Json.String (Simulator.describe_stop run.Simulator.reason));
                ("violations", Json.Int (List.length violations));
                ("moves", Json.List moves);
              ]);
  }

type pack = { pk_items : item list; pk_margin : margin_fns; pk_sim : sim_fns }

(* ------------------------------------------------------------------ *)
(* parameters *)

type params = {
  k : int; c1 : int; c2 : int; l : int;
  n : int; d1 : int; d2 : int;
  a : int; b : int;
  g1 : int; g2 : int; m : int;
}

(* The failure-detector defaults differ per op exactly as the CLI's
   per-subcommand defaults do: margin wants the single-miss detector
   whose accuracy margin is the paper's exact slack g1 - h2. *)
let defaults ~op =
  let margin = String.equal op "margin" in
  { k = 3; c1 = 2; c2 = 3; l = 1; n = 4; d1 = 1; d2 = 2; a = 1; b = 2;
    g1 = (if margin then 3 else 2); g2 = 3; m = (if margin then 1 else 2) }

let param_names =
  [ "k"; "c1"; "c2"; "l"; "n"; "d1"; "d2"; "a"; "b"; "g1"; "g2"; "m" ]

let parse_params ~op json =
  match json with
  | None -> Ok (defaults ~op, "")
  | Some (Json.Obj kvs) ->
      let rec go p acc = function
        | [] -> Ok (p, String.concat "," (List.rev acc))
        | (key, v) :: rest -> (
            match Json.int_opt v with
            | None ->
                Error (Printf.sprintf "param %S must be an integer" key)
            | Some i -> (
                let acc = Printf.sprintf "%s=%d" key i :: acc in
                match key with
                | "k" -> go { p with k = i } acc rest
                | "c1" -> go { p with c1 = i } acc rest
                | "c2" -> go { p with c2 = i } acc rest
                | "l" -> go { p with l = i } acc rest
                | "n" -> go { p with n = i } acc rest
                | "d1" -> go { p with d1 = i } acc rest
                | "d2" -> go { p with d2 = i } acc rest
                | "a" -> go { p with a = i } acc rest
                | "b" -> go { p with b = i } acc rest
                | "g1" -> go { p with g1 = i } acc rest
                | "g2" -> go { p with g2 = i } acc rest
                | "m" -> go { p with m = i } acc rest
                | other ->
                    Error
                      (Printf.sprintf "unknown param %S (known: %s)" other
                         (String.concat ", " param_names))))
      in
      go (defaults ~op) [] kvs
  | Some _ -> Error "\"params\" must be an object of integers"

(* ------------------------------------------------------------------ *)
(* system packs (mirrors the CLI instance builders) *)

let pack_of system (p : params) paramstr : (pack, string) result =
  let sim_name = system in
  match system with
  | "rm" ->
      let pp = RM.params_of_ints ~k:p.k ~c1:p.c1 ~c2:p.c2 ~l:p.l in
      let conds = [ RM.g1 pp; RM.g2 pp ] in
      Ok
        {
          pk_items =
            List.map (cond_item "manager" (RM.system pp) (RM.boundmap pp)) conds;
          pk_margin =
            make_margin "manager" (RM.system pp) (RM.boundmap pp)
              [ Pcond (RM.g1 pp); Pcond (RM.g2 pp) ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (RM.impl pp) conds
              ~denominator:4;
        }
  | "im" ->
      let pp = IM.params_of_ints ~k:p.k ~c1:p.c1 ~c2:p.c2 ~l:p.l in
      let conds = [ IM.g1 pp; IM.g2 pp ] in
      Ok
        {
          pk_items =
            List.map (cond_item "interrupt" (IM.system pp) (IM.boundmap pp))
              conds;
          pk_margin =
            make_margin "interrupt" (IM.system pp) (IM.boundmap pp)
              [ Pcond (IM.g1 pp); Pcond (IM.g2 pp) ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (IM.impl pp) conds
              ~denominator:4;
        }
  | "relay" ->
      let pp = SR.params_of_ints ~n:p.n ~d1:p.d1 ~d2:p.d2 in
      let u_line =
        Condition.make ~name:"U(0,n)"
          ~t_step:(fun _ a _ -> a = SR.Signal 0)
          ~bounds:(SR.delay_interval pp)
          ~in_pi:(fun a -> a = SR.Signal p.n)
          ()
      in
      let sim_conds = List.init p.n (fun k -> SR.u_cond pp ~k) in
      Ok
        {
          pk_items =
            [ cond_item "relay" (SR.line pp) (SR.boundmap pp) u_line ];
          pk_margin =
            make_margin "relay" (SR.line pp) (SR.boundmap pp)
              [ Pcond u_line ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (SR.impl pp) sim_conds
              ~denominator:2;
        }
  | "fischer" ->
      let n = max 2 (min p.n 6) in
      let pp =
        F.params_of_ints ~n ~r:2 ~t:1 ~a:p.a ~b:p.b ~b2:(p.b + 1) ~e:2
      in
      Ok
        {
          pk_items =
            [
              inv_item "mutual exclusion" (F.system pp) (F.boundmap pp)
                F.mutual_exclusion;
              cond_item "fischer" (F.system pp) (F.boundmap pp) (F.u_enter pp);
            ];
          pk_margin =
            make_margin "fischer" (F.system pp) (F.boundmap pp)
              [
                Pinv ("mutual exclusion", F.mutual_exclusion);
                Pcond (F.u_enter pp);
              ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (F.impl pp)
              [ F.u_enter pp ] ~denominator:2;
        }
  | "rg" ->
      let pp = RG.params_of_ints ~r1:2 ~r2:5 ~w1:1 ~w2:3 in
      Ok
        {
          pk_items =
            [ cond_item "request-grant" (RG.system pp) (RG.boundmap pp)
                (RG.u_response pp) ];
          pk_margin =
            make_margin "request-grant" (RG.system pp) (RG.boundmap pp)
              [ Pcond (RG.u_response pp) ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (RG.impl pp)
              [ RG.u_response pp ] ~denominator:2;
        }
  | "ring" ->
      let pp = TR.params_of_ints ~n:p.n ~d1:p.d1 ~d2:p.d2 in
      Ok
        {
          pk_items =
            [ cond_item "ring" (TR.system pp) (TR.boundmap pp)
                (TR.u_rotation pp) ];
          pk_margin =
            make_margin "ring" (TR.system pp) (TR.boundmap pp)
              [ Pcond (TR.u_rotation pp) ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (TR.impl pp)
              [ TR.u_rotation pp ] ~denominator:2;
        }
  | "fd" ->
      let pp = FD.params_of_ints ~h1:1 ~h2:2 ~g1:p.g1 ~g2:p.g2 ~m:p.m in
      Ok
        {
          pk_items =
            [
              inv_item "accuracy" (FD.system pp) (FD.boundmap pp)
                FD.no_false_suspicion;
              cond_item "detector" (FD.system pp) (FD.boundmap pp)
                (FD.u_detect pp);
            ];
          pk_margin =
            make_margin "detector" (FD.system pp) (FD.boundmap pp)
              [
                Pinv ("accuracy", FD.no_false_suspicion);
                Pcond (FD.u_detect pp);
              ];
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (FD.impl pp)
              [ FD.u_detect pp ] ~denominator:2;
        }
  | "two" ->
      let pp = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
      let conds = [ TS.u_start_mid pp; TS.u_mid_done pp; TS.u_end_to_end pp ] in
      Ok
        {
          pk_items =
            List.map (cond_item "two-stage" (TS.system pp) (TS.boundmap pp))
              conds;
          pk_margin =
            make_margin "two-stage" (TS.system pp) (TS.boundmap pp)
              (List.map (fun c -> Pcond c) conds);
          pk_sim =
            make_sim ~sysname:sim_name ~paramstr (TS.impl pp) conds
              ~denominator:2;
        }
  | other ->
      Error
        (Printf.sprintf "unknown system %S (known: %s)" other
           (String.concat ", " systems))

(* ------------------------------------------------------------------ *)
(* engines *)

let engine_of = function
  | "auto" -> Ok (module Reach.Auto : Reach.S)
  | "ref" -> Ok (module Reach.Ref : Reach.S)
  | "paranoid" ->
      if Tm_recover.Paranoid.every () = 0 then Tm_recover.Paranoid.set_every 64;
      Ok (module Reach.Paranoid : Reach.S)
  | other ->
      Error (Printf.sprintf "unknown engine %S (auto | ref | paranoid)" other)

(* ------------------------------------------------------------------ *)
(* request parsing *)

let field k j = Json.member k j
let str_field k j = Option.bind (field k j) Json.string_opt
let int_field k j = Option.bind (field k j) Json.int_opt
let float_field k j = Option.bind (field k j) Json.float_opt

let of_request ?(default_engine = "auto") req =
  match req with
  | Json.Obj _ -> (
      let op = Option.value (str_field "op" req) ~default:"verify" in
      let system = Option.value (str_field "system" req) ~default:"rm" in
      let ename = Option.value (str_field "engine" req) ~default:default_engine in
      match engine_of ename with
      | Error m -> Error m
      | Ok engine -> (
          match parse_params ~op (field "params" req) with
          | Error m -> Error m
          | Ok (params, paramstr) -> (
              (* system constructors validate interval shapes with
                 exceptions; a daemon must turn those into errors *)
              match pack_of system params paramstr with
              | exception Invalid_argument m -> Error m
              | exception Failure m -> Error m
              | Error m -> Error m
              | Ok pack -> (
                  let limit = int_field "limit" req in
                  let deadline_s = float_field "deadline_s" req in
                  match op with
                  | "verify" -> (
                      let idx = Option.value (int_field "item" req) ~default:0 in
                      match List.nth_opt pack.pk_items idx with
                      | None ->
                          Error
                            (Printf.sprintf
                               "item %d out of range (%s has %d items)" idx
                               system
                               (List.length pack.pk_items))
                      | Some it ->
                          Ok
                            {
                              label = it.it_label;
                              op;
                              fingerprint = it.it_fingerprint engine;
                              checkpointable = true;
                              req_limit = limit;
                              req_deadline_s = deadline_s;
                              exec =
                                (fun ~limit ~deadline_s ~domains ~checkpoint
                                     ~resume ->
                                  it.it_exec engine ~limit ~deadline_s
                                    ~domains ~checkpoint ~resume);
                            })
                  | "margin" ->
                      Ok
                        {
                          label = system ^ " margin";
                          op;
                          fingerprint =
                            pack.pk_margin.mg_fp engine ~limit ~deadline_s;
                          checkpointable = false;
                          req_limit = limit;
                          req_deadline_s = deadline_s;
                          exec =
                            (fun ~limit ~deadline_s ~domains ~checkpoint:_
                                 ~resume:_ ->
                              Ok
                                (pack.pk_margin.mg_run engine ~domains ~limit
                                   ~deadline_s));
                        }
                  | "simulate" -> (
                      let steps =
                        max 1 (min 5000
                                 (Option.value (int_field "steps" req)
                                    ~default:60))
                      in
                      let strategy =
                        Option.value (str_field "strategy" req)
                          ~default:"random"
                      in
                      let seed =
                        Option.value (int_field "seed" req) ~default:42
                      in
                      match strategy with
                      | "eager" | "lazy" | "random" ->
                          Ok
                            {
                              label = system ^ " simulate";
                              op;
                              fingerprint =
                                pack.pk_sim.sm_fp ~steps ~strategy ~seed
                                  ~deadline_s;
                              checkpointable = false;
                              req_limit = limit;
                              req_deadline_s = deadline_s;
                              exec =
                                (fun ~limit:_ ~deadline_s ~domains:_
                                     ~checkpoint:_ ~resume:_ ->
                                  Ok
                                    (pack.pk_sim.sm_run ~steps ~strategy
                                       ~seed ~deadline_s));
                            }
                      | other ->
                          Error
                            (Printf.sprintf
                               "unknown strategy %S (eager | lazy | random)"
                               other))
                  | other ->
                      Error
                        (Printf.sprintf
                           "unknown op %S (verify | margin | simulate | ping \
                            | stats | shutdown)"
                           other)))))
  | _ -> Error "request must be a JSON object"
