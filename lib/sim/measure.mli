(** Extracting timing measurements from simulated runs.

    The benchmark harness compares the paper's proved bounds against
    envelopes of event times measured over many simulated executions:
    the time of the first occurrence of an action, and the gaps between
    consecutive occurrences. *)

val occurrence_times :
  ('a -> bool) -> ('s, 'a) Tm_timed.Tseq.t -> Tm_base.Rational.t list
(** Times of the moves whose action satisfies the predicate. *)

val first_time :
  ('a -> bool) -> ('s, 'a) Tm_timed.Tseq.t -> Tm_base.Rational.t option

val gaps : Tm_base.Rational.t list -> Tm_base.Rational.t list
(** Differences between consecutive elements. *)

type envelope = {
  count : int;
  min : Tm_base.Rational.t;
  max : Tm_base.Rational.t;
  mean : float;
}

val envelope : Tm_base.Rational.t list -> envelope option
(** [None] on an empty sample. *)

val merge : envelope -> envelope -> envelope
(** Combine the envelopes of two disjoint sample sets: counts add,
    extremes take min/max, and the mean is the sample-count-weighted
    average [(a.mean*a.count + b.mean*b.count) / (a.count + b.count)]
    — so [merge (envelope xs) (envelope ys)] agrees with
    [envelope (xs @ ys)] exactly on [count]/[min]/[max] and up to
    float-summation rounding on [mean].  Commutative. *)

val within : Tm_base.Interval.t -> envelope -> bool
(** Both extremes of the envelope lie inside the interval. *)

val pp_envelope : Format.formatter -> envelope -> unit

val quantile : Tm_base.Rational.t list -> float -> Tm_base.Rational.t option
(** [quantile samples p] for [0 <= p <= 1]: the nearest-rank quantile of
    the sample (exact, no interpolation), [None] on an empty sample —
    {!Tm_obs.Metrics.quantile_of_samples}. *)

val summary : Tm_base.Rational.t list -> string
(** One-line human summary: count, min, p50, p90, max. *)

type ('s, 'a) ensemble = {
  runs : int;
  seeds_with_events : int;
  first : envelope option;  (** first occurrence per run *)
  gap : envelope option;  (** gaps between consecutive occurrences *)
}

val ensemble :
  ?domains:int ->
  runs:int ->
  steps:int ->
  denominator:int ->
  cap:Tm_base.Rational.t ->
  event:('a -> bool) ->
  ('s, 'a) Tm_core.Time_automaton.t ->
  ('s, 'a) ensemble
(** Run [runs] seeded random simulations and collect the envelopes of
    the first occurrence time and of the inter-occurrence gaps of
    [event] — the measurement loop used throughout the benchmark
    harness and tests, deterministic in the seed range [0..runs-1].
    [domains > 1] dispatches the runs over a pool (via
    {!Simulator.batch}); the ensemble is identical at any domain
    count. *)
