module Rational = Tm_base.Rational
module Hstore = Tm_base.Hstore
module Execution = Tm_ioa.Execution
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing

let c_product_states = Metrics.counter "mapping.product_states"
let c_product_edges = Metrics.counter "mapping.product_edges"
let c_exec_steps = Metrics.counter "mapping.exec_steps"
let c_failures = Metrics.counter "mapping.failures"

type 's t = {
  mname : string;
  contains : 's Tstate.t -> 's Tstate.t -> bool;
}

type ('s, 'a) failure =
  | No_start_image of 's Tstate.t
  | Move_not_enabled of {
      source_pre : 's Tstate.t;
      target_pre : 's Tstate.t;
      action : 'a;
      time : Rational.t;
    }
  | Image_lost of {
      source_post : 's Tstate.t;
      target_post : 's Tstate.t;
      action : 'a;
      time : Rational.t;
    }

let pp_failure (aut : ('s, 'a) Time_automaton.t) fmt = function
  | No_start_image s ->
      Format.fprintf fmt "no start-state image for %a"
        (Time_automaton.pp_state aut) s
  | Move_not_enabled { source_pre; target_pre; action; time } ->
      Format.fprintf fmt
        "move (%a, %a) from source %a not enabled in target witness %a"
        aut.Time_automaton.base.Tm_ioa.Ioa.pp_action action Rational.pp time
        (Time_automaton.pp_state aut) source_pre
        (Time_automaton.pp_state aut) target_pre
  | Image_lost { source_post; target_post; action; time } ->
      Format.fprintf fmt
        "after (%a, %a): target successor %a is not in the image of %a"
        aut.Time_automaton.base.Tm_ioa.Ioa.pp_action action Rational.pp time
        (Time_automaton.pp_state aut) target_post
        (Time_automaton.pp_state aut) source_post

let start_witness ~source ~target f s0 =
  let eq_base = source.Time_automaton.base.Tm_ioa.Ioa.equal_state in
  match
    List.find_opt
      (fun u0 ->
        eq_base u0.Tstate.base s0.Tstate.base
        && Rational.equal u0.Tstate.now s0.Tstate.now
        && f.contains s0 u0)
      target.Time_automaton.start
  with
  | Some u0 -> Ok u0
  | None -> Error (No_start_image s0)

type ('s, 'a) level = { target : ('s, 'a) Time_automaton.t; map : 's t }

type ('s, 'a) chain_failure = {
  level_index : int;
  level_name : string;
  failure : ('s, 'a) failure;
}

let fail i lv failure =
  Error { level_index = i; level_name = lv.map.mname; failure }

(* Level i's start witness lies in the image of level i-1's (level 0:
   of the source start state [s0]). *)
let start_witnesses ~source levels s0 =
  let rec go i prev = function
    | [] -> Ok []
    | lv :: rest -> (
        match start_witness ~source ~target:lv.target lv.map prev with
        | Error e -> fail i lv e
        | Ok u -> Result.map (List.cons u) (go (i + 1) u rest))
  in
  go 0 s0 levels

(* Advance every level's witness over the source move [pre] -> [post].
   Level i matches the move of level i-1 (level 0: of the source), so a
   move it cannot fire is reported from level i-1's pre-state. *)
let step_witnesses levels ws ~pre ~post (act, tm) =
  let base_post = post.Tstate.base in
  let rec go i pre post levels ws =
    match (levels, ws) with
    | [], [] -> Ok []
    | lv :: levels, w :: ws -> (
        match Time_automaton.fire_det lv.target w act tm ~base_post with
        | None ->
            fail i lv
              (Move_not_enabled
                 { source_pre = pre; target_pre = w; action = act; time = tm })
        | Some u when lv.map.contains post u ->
            Result.map (List.cons u) (go (i + 1) w u levels ws)
        | Some u ->
            fail i lv
              (Image_lost
                 {
                   source_post = post;
                   target_post = u;
                   action = act;
                   time = tm;
                 }))
    | _ -> invalid_arg "Mapping: witness arity mismatch"
  in
  go 0 pre post levels ws

let check_exec ~source ~levels (e : ('s, 'a) Time_automaton.texec) =
  let ( let* ) r k = Result.bind r k in
  let* ws = start_witnesses ~source levels e.Execution.first in
  let rec go ws = function
    | [] -> Ok ()
    | (pre, mv, post) :: rest ->
        Metrics.incr c_exec_steps;
        let* ws = step_witnesses levels ws ~pre ~post mv in
        go ws rest
  in
  go ws (Execution.steps e)

type stats = { product_states : int; product_edges : int; truncated : bool }

let check_exhaustive (type s a) ?params ~(source : (s, a) Time_automaton.t)
    ~(levels : (s, a) level list) () =
  let names = String.concat " ; " (List.map (fun lv -> lv.map.mname) levels) in
  Tracing.with_span "mapping.check_exhaustive" ~args:[ ("mapping", names) ]
  @@ fun () ->
  let params =
    match params with Some p -> p | None -> Tgraph.default_params source
  in
  let eq = Time_automaton.equal_state source in
  let hash = Time_automaton.hash_state source in
  let store =
    Hstore.create
      ~equal:(fun (s1, ws1) (s2, ws2) -> eq s1 s2 && List.for_all2 eq ws1 ws2)
      ~hash:(fun (s, ws) ->
        List.fold_left (fun h w -> (h * 31) + hash w) (hash s) ws)
      1024
  in
  let normalize st = Tstate.normalize ~clamp:params.Tgraph.clamp st in
  let edges = ref 0 in
  let exception Fail of (s, a) chain_failure in
  let ok_or_raise = function Ok v -> v | Error e -> raise (Fail e) in
  let result =
    match
      Tgraph.search params source store ~state:fst
        ~normalize:(fun (s, ws) -> (normalize s, List.map normalize ws))
        ~start:(fun s0 -> (s0, ok_or_raise (start_witnesses ~source levels s0)))
        ~step:(fun (s, ws) mv s_post ->
          incr edges;
          let ws' = step_witnesses levels ws ~pre:s ~post:s_post mv in
          (s_post, ok_or_raise ws'))
    with
    | _, truncated ->
        Ok
          {
            product_states = Hstore.length store;
            product_edges = !edges;
            truncated;
          }
    | exception Fail e ->
        (* first counterexample: count it and mark it in the trace *)
        Metrics.incr c_failures;
        Tracing.instant "mapping.counterexample"
          ~args:[ ("mapping", e.level_name) ];
        Error e
  in
  Metrics.add c_product_states (Hstore.length store);
  Metrics.add c_product_edges !edges;
  result
