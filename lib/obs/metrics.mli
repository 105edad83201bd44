(** Process-wide metrics registry: labelled counters, gauges, and
    histograms over exact rationals.

    The hot paths of the library (simulator steps, DBM operations,
    product-construction edges) obtain a handle once — typically at
    module initialization — and then update it with a single mutable
    field write, so instrumentation stays cheap enough to leave on
    permanently.  A {!snapshot} freezes the registry into a plain value
    that can be pretty-printed, exported to JSON, and parsed back
    (see the [timedmap obs] subcommand and the round-trip tests).

    Histograms bucket exact rationals, never floats: the quantities
    measured in this library (event times, window widths, feasible
    delays) are rationals, and nearest-rank quantiles over the retained
    samples agree exactly with {!Tm_sim.Measure.quantile} on the same
    sample list.

    {b Domains.}  Updates are safe under multicore parallelism managed
    by [Tm_par.Pool]: while a pool is live ({!par_begin} ...
    {!par_end}), each worker domain writes a private per-handle sink
    selected by its {!set_domain_slot} slot, so no field is ever
    written by two domains.  Reads ({!snapshot}, {!value},
    {!gauge_value}, {!quantile}) merge main value + sinks — counters by
    sum (exact, deterministic at any domain count), gauges by max,
    histograms by summing bins and pooling retained samples — and must
    run on the main domain with no workers live.  Outside a pool the
    hot path is exactly the single mutable field write it always
    was. *)

module Rational = Tm_base.Rational

type counter
type gauge
type histogram

(** {1 Registration}

    Metrics are identified by name plus a sorted label set.  Repeated
    registration with the same identity returns the same handle.
    @raise Invalid_argument if the name is already registered with a
    different metric kind. *)

val counter : ?labels:(string * string) list -> string -> counter
val gauge : ?labels:(string * string) list -> string -> gauge

val histogram :
  ?labels:(string * string) list ->
  ?buckets:Rational.t list ->
  string ->
  histogram
(** [buckets] are the upper bounds of the histogram bins, sorted and
    deduplicated; an implicit overflow bin catches the rest.  Defaults
    to powers of two from 1/8 to 128 — friendly to the small rational
    constants of the reproduced systems. *)

val default_buckets : Rational.t list

(** {1 Domain slots}

    Used by [Tm_par.Pool]; library code never calls these directly. *)

val max_slots : int
(** Upper bound on concurrently writing domains (main = slot 0). *)

val par_begin : unit -> unit
(** Enter parallel mode: updates start routing through the caller's
    domain slot.  Call from the main domain before spawning workers. *)

val par_end : unit -> unit
(** Leave parallel mode once every worker has been joined.  Sinks keep
    their contents (reads keep merging them until {!reset}). *)

val set_domain_slot : int -> unit
(** Bind the calling domain to a sink slot (workers use [1 ..
    max_slots - 1]; the main domain defaults to [0]).
    @raise Invalid_argument when out of range. *)

val domain_slot : unit -> int
(** The calling domain's slot. *)

(** {1 Updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment: counters are
    monotone. *)

val value : counter -> int

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the running maximum of the observed values. *)

val gauge_value : gauge -> float

val observe : histogram -> Rational.t -> unit
val observe_seconds : histogram -> float -> unit
(** Observe a float duration in seconds, rounded to microseconds and
    recorded as the exact rational [us/1_000_000]. *)

val quantile_of_samples :
  who:string -> Rational.t list -> float -> Rational.t option
(** [quantile_of_samples ~who samples p] for [0 <= p <= 1]: the
    nearest-rank quantile of [samples] (exact, no interpolation), [None]
    on an empty list — the one definition behind {!quantile} and
    [Tm_sim.Measure.quantile].
    @raise Invalid_argument [who] unless [0 <= p <= 1]. *)

val quantile : histogram -> float -> Rational.t option
(** {!quantile_of_samples} over the retained samples.  At most
    {!sample_cap} samples are retained (further observations still
    count in the buckets); [None] on an empty histogram.
    @raise Invalid_argument unless [0 <= p <= 1]. *)

val sample_cap : int

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : Rational.t;
  buckets : (Rational.t * int) list;  (** cumulative count per bound *)
  overflow : int;  (** observations above every bound *)
  quantiles : (string * Rational.t) list;  (** p50/p90/p99 when nonempty *)
}

type value_snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

type entry = {
  name : string;
  labels : (string * string) list;
  value : value_snapshot;
}

type snapshot = entry list
(** Sorted by name, then labels: snapshots of equal registries are
    structurally equal. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric.  Handles stay valid — resetting is
    how the CLI and the tests isolate one run from the next. *)

val find : snapshot -> ?labels:(string * string) list -> string
  -> value_snapshot option

val counter_total : snapshot -> string -> int
(** Sum of all counter entries with this name, across label sets. *)

val equal_snapshot : snapshot -> snapshot -> bool

val pp : Format.formatter -> snapshot -> unit
(** Human-readable dump, grouped by metric kind. *)

val to_json : snapshot -> Json.t
val of_json : Json.t -> (snapshot, string) result

