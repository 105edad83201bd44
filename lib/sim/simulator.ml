module Time_automaton = Tm_core.Time_automaton
module Execution = Tm_ioa.Execution
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Json = Tm_obs.Json
module Pool = Tm_par.Pool

type stop_reason = Step_limit | Deadlock | Strategy_stop | Stopped | Watchdog

type ('s, 'a) run = {
  exec : ('s, 'a) Time_automaton.texec;
  reason : stop_reason;
}

(* Instrumentation handles are created once at module initialization;
   each update is a single field write on the hot path. *)
let c_runs = Metrics.counter "sim.runs"
let c_steps = Metrics.counter "sim.steps"
let c_windows = Metrics.counter "sim.feasible_windows"
let c_choices = Metrics.counter "sim.strategy_choices"
let h_delay = Metrics.histogram "sim.step_delay"

let stop_label = function
  | Step_limit -> "step_limit"
  | Deadlock -> "deadlock"
  | Strategy_stop -> "strategy_stop"
  | Stopped -> "stopped"
  | Watchdog -> "watchdog"

let c_stop reason =
  Metrics.counter "sim.stop" ~labels:[ ("reason", stop_label reason) ]

let c_stop_step_limit = c_stop Step_limit
let c_stop_deadlock = c_stop Deadlock
let c_stop_strategy = c_stop Strategy_stop
let c_stop_stopped = c_stop Stopped
let c_stop_watchdog = c_stop Watchdog

let record_stop = function
  | Step_limit -> Metrics.incr c_stop_step_limit
  | Deadlock -> Metrics.incr c_stop_deadlock
  | Strategy_stop -> Metrics.incr c_stop_strategy
  | Stopped -> Metrics.incr c_stop_stopped
  | Watchdog -> Metrics.incr c_stop_watchdog

let simulate_from ?(stop = fun _ -> false) ?deadline_s ~steps ~strategy aut s0
    =
  Metrics.incr c_runs;
  let deadline = Option.map (fun d -> Tracing.now_s () +. d) deadline_s in
  let expired () =
    match deadline with None -> false | Some t -> Tracing.now_s () > t
  in
  let moves_rev = ref [] in
  let rec go s k =
    if stop s then Stopped
    else if k = 0 then Step_limit
    else if expired () then Watchdog
    else
      let enabled = Time_automaton.enabled_moves aut s in
      Metrics.add c_windows (List.length enabled);
      if enabled = [] then Deadlock
      else
        match strategy aut s enabled with
        | None -> Strategy_stop
        | Some (act, tm) -> (
            Metrics.incr c_choices;
            match Time_automaton.fire aut s act tm with
            | [] ->
                invalid_arg
                  "Simulator: strategy chose a move outside its window"
            | s' :: _ ->
                Metrics.incr c_steps;
                Metrics.observe h_delay
                  (Tm_base.Rational.sub tm s.Tm_core.Tstate.now);
                moves_rev := ((act, tm), s') :: !moves_rev;
                go s' (k - 1))
  in
  let reason = Tracing.with_span "sim.simulate" (fun () -> go s0 steps) in
  record_stop reason;
  (* One event per run (not per step): carries the step count, so the
     stream stays bounded at high step budgets.  Safe from the worker
     domains [batch] fans out over. *)
  Events.emit "sim.run"
    [
      ("steps", Json.Int (List.length !moves_rev));
      ("reason", Json.String (stop_label reason));
    ];
  { exec = Execution.of_states s0 (List.rev !moves_rev); reason }

let simulate ?stop ?deadline_s ~steps ~strategy aut =
  match aut.Time_automaton.start with
  | [] -> invalid_arg "Simulator: automaton has no start state"
  | s0 :: _ -> simulate_from ?stop ?deadline_s ~steps ~strategy aut s0

(* Batch fan-out: runs are independent, so they dispatch over the pool
   with one job per run.  Randomness is pinned per run *index* — the
   PRNGs are materialized on the main domain, in run order, before any
   job starts — so run [i] computes the same trajectory whichever
   domain executes it and the result array is identical at any domain
   count (with [domains = 1], identical to a plain sequential loop). *)
let batch ?(domains = 1) ?stop ?deadline_s ~runs ~steps ~prng ~strategy aut =
  if runs < 0 then invalid_arg "Simulator.batch: runs < 0";
  let prngs = Array.init runs prng in
  let out = Array.make runs None in
  Pool.run ~domains (fun p ->
      Pool.parallel_for p ~n:runs (fun i ->
          out.(i) <-
            Some
              (simulate ?stop ?deadline_s ~steps
                 ~strategy:(strategy prngs.(i))
                 aut)));
  Array.map (function Some r -> r | None -> assert false) out

let project r = Time_automaton.project r.exec

let describe_stop = function
  | Step_limit -> "step limit reached"
  | Deadlock -> "deadlock: no enabled move"
  | Strategy_stop -> "strategy stopped"
  | Stopped -> "stop predicate fired"
  | Watchdog -> "watchdog: wall-clock deadline exceeded"
