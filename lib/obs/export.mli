(** Exporters and comparators over {!Metrics} snapshots.

    [to_prometheus] renders the Prometheus text exposition format
    (counters, gauges, and histograms with cumulative [_bucket] /
    [_sum] / [_count] samples; metric names have non-alphanumerics
    mapped to underscores, label values are escaped).  Exact rational
    sums are rendered as floats — Prometheus has no rationals — while
    {!Metrics.to_json} / {!Metrics.of_json} keep them exact and
    round-trip a snapshot exactly.

    [diff] is the engine behind [timedmap bench-diff]: a structural
    comparison of two snapshots where every value must match exactly
    — counters, gauges, and full histogram state — except for metrics
    whose name starts with one of [ignore_prefixes] (scheduling-
    dependent metrics such as the [par.*] family).  A metric that
    appears only in the current snapshot with a zero value is noted
    but not a drift: freshly registered instrumentation starts at
    zero. *)

val to_prometheus : Metrics.snapshot -> string

type drift = {
  dname : string;
  dlabels : (string * string) list;
  dwhat : string;  (** human-readable description of the mismatch *)
}

val diff :
  ?ignore_prefixes:string list ->
  baseline:Metrics.snapshot ->
  current:Metrics.snapshot ->
  unit ->
  drift list
(** Sorted by metric name; empty means the snapshots agree on every
    non-ignored metric. *)

val pp_drift : Format.formatter -> drift -> unit
