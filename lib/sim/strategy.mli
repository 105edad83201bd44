(** Scheduling strategies for simulating [time(A, U)] automata.

    A strategy resolves the two choices the semantics leaves open at
    each step: which enabled action fires next and at which time inside
    its feasible window.  Strategies receive the automaton, the current
    state and the nonempty list of enabled moves with their windows,
    and return the chosen (action, time) — or [None] to stop.

    The [eager]/[lazy_] pair drives executions to the extreme ends of
    every window, which is how the benchmark harness probes whether the
    proved bounds are *tight*; [random] samples the interior. *)

type ('s, 'a) t =
  ('s, 'a) Tm_core.Time_automaton.t ->
  's Tm_core.Tstate.t ->
  ('a * Tm_base.Rational.t * Tm_base.Time.t) list ->
  ('a * Tm_base.Rational.t) option

val eager : ('s, 'a) t
(** Fire the move with the earliest feasible time, at that time. *)

val lazy_ :
  ?prefer:('a -> bool) -> cap:Tm_base.Rational.t -> unit -> ('s, 'a) t
(** The procrastination adversary: wait as long as the deadlines
    permit, then fire at the global deadline [min over conditions of
    Lt] (or [cap] beyond the latest release point when no deadline is
    pending), choosing the move that has been waiting longest.
    [prefer] schedules a preferred action before the others at a shared
    instant — but at most once per instant, so progress is still forced
    (this realizes worst-case event orderings like "idle step, then
    tick, then grant" at the same time point).  Stateful: build a fresh
    strategy per run. *)

val random :
  prng:Tm_base.Prng.t ->
  denominator:int ->
  cap:Tm_base.Rational.t ->
  ('s, 'a) t
(** Pick an enabled move uniformly and a grid time uniformly inside its
    (capped) window.  Deterministic given the generator state. *)

val prefer : ('a -> bool) -> ('s, 'a) t -> ('s, 'a) t
(** Restrict the move list to preferred actions when any is enabled;
    fall back to the full list otherwise. *)
