module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Hstore = Tm_base.Hstore
module Condition = Tm_timed.Condition
module Tracing = Tm_obs.Tracing

type params = {
  denominator : int;
  cap : Rational.t;
  clamp : Rational.t;
  limit : int;
  deadline_s : float option;
}

let default_params (aut : ('s, 'a) Time_automaton.t) =
  let denominator =
    Array.fold_left
      (fun k (c : ('s, 'a) Condition.t) ->
        Interval.lcm_den k c.Condition.bounds)
      1 aut.Time_automaton.conds
  in
  let m = Time_automaton.max_constant aut in
  let clamp = Rational.mul_int 4 m in
  {
    denominator;
    cap = Rational.add clamp m;
    clamp;
    limit = 500_000;
    deadline_s = None;
  }

type ('s, 'a) t = {
  aut : ('s, 'a) Time_automaton.t;
  params : params;
  nodes : 's Tstate.t Hstore.t;
  out : ('a * Rational.t * int) list array;
  truncated : bool;
}

let grid_times params lo hi =
  (* Grid points of [lo, hi]; [lo] is included even if off-grid (it is
     an interval endpoint and therefore semantically relevant). *)
  let step = Rational.make 1 params.denominator in
  let first =
    if Rational.divides step lo then lo
    else
      Rational.mul_int
        (Rational.ceil (Rational.div lo step))
        step
  in
  let rec up t acc =
    if Rational.(t > hi) then List.rev acc else up (Rational.add t step) (t :: acc)
  in
  let pts = up first [] in
  if Rational.divides step lo then pts else lo :: pts

let moves params (aut : ('s, 'a) Time_automaton.t) s =
  List.concat_map
    (fun (act, lo, hi) ->
      let hi_capped =
        let cap_abs = Rational.add s.Tstate.now params.cap in
        match hi with
        | Time.Fin q -> Rational.min q cap_abs
        | Time.Inf -> cap_abs
      in
      if Rational.(hi_capped < lo) then []
      else
        List.map (fun t -> (act, t)) (grid_times params lo hi_capped))
    (Time_automaton.enabled_moves aut s)

let search params (aut : ('s, 'a) Time_automaton.t) store ~state ~normalize
    ~start ~step =
  let queue = Queue.create () in
  let add k =
    match Hstore.add store (normalize k) with
    | `Added id ->
        Queue.add id queue;
        id
    | `Present id -> id
  in
  List.iter (fun s -> ignore (add (start s))) aut.Time_automaton.start;
  let deadline = Option.map (fun d -> Tracing.now_s () +. d) params.deadline_s in
  let expired () =
    match deadline with None -> false | Some t -> Tracing.now_s () > t
  in
  let truncated = ref false in
  let outs = ref [] in
  while not (Queue.is_empty queue) do
    if expired () then begin
      truncated := true;
      Queue.clear queue
    end
    else begin
      let id = Queue.pop queue in
      let k = Hstore.key_of_id store id in
      let s = state k in
      let out = ref [] in
      List.iter
        (fun (act, t) ->
          List.iter
            (fun s' ->
              let k' = step k (act, t) s' in
              if Hstore.length store >= params.limit then truncated := true
              else out := (act, t, add k') :: !out)
            (Time_automaton.fire aut s act t))
        (moves params aut s);
      outs := (id, !out) :: !outs
    end
  done;
  let out = Array.make (Hstore.length store) [] in
  List.iter (fun (id, es) -> out.(id) <- es) !outs;
  (out, !truncated)

let build ?params (aut : ('s, 'a) Time_automaton.t) =
  let params =
    match params with Some p -> p | None -> default_params aut
  in
  let nodes =
    Hstore.create
      ~equal:(Time_automaton.equal_state aut)
      ~hash:(Time_automaton.hash_state aut)
      1024
  in
  let out, truncated =
    search params aut nodes ~state:Fun.id
      ~normalize:(Tstate.normalize ~clamp:params.clamp)
      ~start:Fun.id
      ~step:(fun _ _ s' -> s')
  in
  { aut; params; nodes; out; truncated }

let node_count g = Hstore.length g.nodes
let edge_count g = Array.fold_left (fun n es -> n + List.length es) 0 g.out
