(** Structured end-of-run summary combining metrics and tracing.

    The CLI prints one at [info] verbosity and exports it inside the
    metrics JSON; the benchmark harness writes one next to its timing
    tables so perf PRs can diff instrumented baselines.

    Reports carry build/engine provenance — the tool version, which
    engine ran (auto/ref/paranoid), and the domain count — so a
    saved artifact is self-describing ([timedmap obs] prints the
    provenance back, and [timedmap bench-diff] can warn when two
    artifacts came from different configurations). *)

type t = {
  command : string;
  version : string;  (** tool version, "" when unknown *)
  engine : string;  (** engine: "auto", "ref", "paranoid", or "" *)
  domains : int;  (** requested worker-domain count *)
  wall_s : float;
  metrics : Metrics.snapshot;
  span_count : int;
  span_total_us : float;  (** summed duration of top-level spans *)
}

val make :
  command:string ->
  ?version:string ->
  ?engine:string ->
  ?domains:int ->
  wall_s:float ->
  unit ->
  t
(** Snapshot the global metrics registry and trace buffer.
    Provenance fields default to [""] / [1]. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
