(** Dependency-free one-shot fan-out over stdlib [Domain] and
    [Atomic].

    A pool of [domains] participating domains: the creating (main)
    domain plus up to [domains - 1] helpers.  Each {!parallel_for}
    spawns the helpers, and they and the caller take chunks of the
    index range off one shared atomic counter until none is left; the
    caller then joins the helpers, so {!parallel_for} is a barrier and
    no domain outlives the call.  The callers ([Tm_faults.Margin.report]
    and [Tm_sim.Simulator.batch]) fan out once per run, over a handful
    to a few hundred independent items.

    Determinism contract: the pool never reorders *results* — callers
    index output slots by input index — so any fan-out whose items are
    independent computes the same value at every domain count.

    Metrics/tracing integration: helpers register themselves with
    {!Tm_obs.Metrics.set_domain_slot}, so metric updates from jobs land
    in per-domain sinks and spans land in per-domain trace rows.
    Totals ([par.tasks], gauge [par.domains]) are flushed to the
    registry at {!shutdown}.

    At most one real pool exists at a time; a nested or concurrent
    {!create} returns an inline pool of size 1 (jobs then run in the
    caller).  [domains <= 1] always yields the inline pool, which
    executes {!parallel_for} as a plain sequential loop — the exact
    sequential path, no domains spawned, no par metrics emitted. *)

type t

val create : ?domains:int -> unit -> t
(** A pool of [domains] total domains (default 1; clamped to
    [1 .. Tm_obs.Metrics.max_slots]).  Spawns nothing yet. *)

val shutdown : t -> unit
(** Release the pool and flush its metrics.  Must be called from the
    creating domain, with no {!parallel_for} in flight. *)

val run : ?domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] = {!create}, apply [f], {!shutdown} — exception
    safe.  Real pools run [f] inside a [par.pool] span. *)

val size : t -> int
(** Number of participating domains (1 for the inline pool). *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for p ~n body] runs [body i] for every [i] in
    [0 .. n-1] and returns when all are done.  Indices are chunked into
    at most [4 * size] chunks of consecutive indices.  If any [body]
    raises, the first exception (in completion order) is re-raised
    after the barrier; the remaining indices of that chunk are skipped,
    other chunks still complete. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel map preserving order and length. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
