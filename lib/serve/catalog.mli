(** Request catalog: parse a job request into a runnable, fingerprinted
    job, the runners both the daemon and the CLI use to check, probe
    and simulate a {!Tm_systems.Registry} model, and {!supervise}, the
    one attempt loop that retries and resumes their verification jobs.

    A request is a JSON object:

    {v
    { "op": "verify" | "margin" | "simulate",
      "system": "fischer",                    // a registry entry
      "params": { "n": 3, "a": 1, ... },      // its knobs, all optional
      "item": 0,                               // verify: which check
      "engine": "auto"|"ref"|"paranoid",
      "limit": 50000, "deadline_s": 10.0,      // per-job budgets
      "steps": 60, "strategy": "random", "seed": 42 }   // simulate only
    v}

    Systems, their parameters and their checks come from the registry;
    [item] indexes the system's checks without the CLI-only
    informational ones.  Parsing is total and paranoid: unknown ops,
    systems, engines, params, non-integer knobs, out-of-range items all
    come back as [Error msg] — the server turns that into a structured
    error frame, never an exception.

    The job's [fingerprint] is the content address for the verdict
    cache and the checkpoint routing key.  For verify jobs it is {e
    exactly} the [Tm_zones.Reach] checkpoint fingerprint (kernel,
    boundmap, condition/invariant encoding), so cache
    entries and checkpoint files agree on identity.  Margin and
    simulation fingerprints extend it with every input that can change
    the answer (props and budgets; steps/strategy/seed/deadline). *)

module Reach = Tm_zones.Reach
module Registry = Tm_systems.Registry

type 'r job = {
  label : string;  (** human name for logs and responses *)
  op : string;
  fingerprint : string;
  req_limit : int option;  (** the budgets the request asked for; the *)
  req_deadline_s : float option;  (** server clamps them to its caps *)
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    ('r, Reach.exhausted) result;
      (** Run the job once.  [Ok r] is definite (the daemon caches it);
          [Error e] is a budget exhaustion / cooperative interrupt with
          partial stats.  Only verify jobs checkpoint and resume; only
          margin jobs fan out over [domains]. *)
}

val of_request :
  ?default_engine:string -> Tm_obs.Json.t -> (Tm_obs.Json.t job, string) result
(** [default_engine] (default ["auto"]) applies when the request names
    none. *)

(** {1 Runners} *)

val engine_of : string -> ((module Reach.S), string) result
(** ["auto"], ["ref"] or ["paranoid"]: {!Reach.Auto}, {!Reach.Ref}
    and {!Reach.Paranoid}. *)

val make_strategy :
  string ->
  (seed:int -> denominator:int -> ('s, 'a) Tm_sim.Strategy.t, string) result
(** ["eager"], ["lazy"] or ["random"]; the function builds a fresh
    strategy per run. *)

(** The definite verdict of one check. *)
type outcome =
  | Verified of { bounds : Tm_base.Interval.t; stats : Reach.stats }
  | Lower_violation of Reach.stats
  | Upper_violation of Reach.stats
  | Unsupported of string
  | Invariant_ok of Reach.stats
  | Invariant_violated of string  (** the offending state, printed *)

val outcome_json : item:string -> outcome -> Tm_obs.Json.t
(** The verdict document of a verify job, as the daemon caches and
    returns it: [item], [result], then the outcome's fields (stats as
    [locations], [zones], [edges]) in a fixed order. *)

val check_job :
  (module Reach.S) ->
  label:string ->
  ('s, 'a) Registry.verified ->
  ('s, 'a) Registry.check list ->
  outcome option list job
(** Verification items of the model labelled [label] (its existentially
    typed [verified] part is passed apart), answered by one zone search
    ({!Reach.S.check} of their properties; at most one condition) and
    fingerprinted as its checkpoints are.  A [Note] runs as the
    condition it carries; a job of one note gets a fingerprint no
    snapshot carries.  The job's label joins the items' with [" + "].

    The answer of each item is the one its own search would give, or
    [None] when the shared search cannot tell:
    - at the fixpoint every item is answered; an invariant's stats are
      the shared search's;
    - a refuted or [Unsupported] condition answers the condition, and
      leaves every invariant [None];
    - an invariant violation answers a one-item job only: with
      several items, all are [None] (the witness of the shared search
      need not be the invariant's own);
    - an exhausted budget is the job's [Error], for every item.

    A one-item job always answers its item, with exactly the
    fingerprint and the verdict of that check's own search. *)

val own_job :
  (module Reach.S) ->
  label:string ->
  ('s, 'a) Registry.verified ->
  ('s, 'a) Registry.check ->
  outcome job
(** The one-item {!check_job} of a check, answering its outcome: what the
    daemon runs for a request's item, and [verify]'s search for an item
    the shared search leaves [None]. *)

val margin_reports :
  (module Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  domains:int ->
  Registry.model ->
  Tm_faults.Margin.report list
(** One robustness margin report per check of the model, [Note]s
    skipped, each probe under the given budgets. *)

(** {1 The supervised runner}

    {!supervise} is the one attempt loop behind [timedmap verify]/[run]
    and the daemon.  It threads each attempt's checkpoint into the next
    attempt's [~resume] (where the zone engine re-bases an explicit
    [limit]), polls for interrupts, and retries an exhaustion that left
    a checkpoint unless an interrupt came with it.  Its two callers
    differ only in their {!policy}. *)

type policy = {
  retry_deadline : bool;  (** retry a deadline exhaustion with no checkpoint *)
  contain : bool;
      (** retry an attempt's exception (a second signal's
          {!Tm_recover.Supervisor.Interrupted} stops), not propagate it *)
  jitter_max_s : float option;
      (** [Some cap]: decorrelated jitter seeded by the CRC of the job's
          fingerprint, capped; [None]: pure exponential backoff *)
  interrupted : string;  (** the reason an interrupt before an attempt gives *)
}

val cli_policy : policy
val daemon_policy : policy

val supervise :
  policy ->
  attempts:int ->
  backoff_s:float ->
  ?on_retry:(attempt:int -> delay_s:float -> reason:string -> unit) ->
  ?limit:int ->
  ?deadline_s:float ->
  domains:int ->
  ?checkpoint:string * int ->
  ?resume:string ->
  'r job ->
  ('r, [ `Exhausted of Reach.exhausted | `Crashed of string ]) result
(** Run [job] under up to [attempts] attempts with the given budgets,
    the first resuming from [resume] and each later one from its
    predecessor's checkpoint, or else from where that one began while
    the file is still there; [on_retry] runs before each backoff
    sleep.  A job without a definite result ends with the last
    exhaustion (its [checkpoint] is where to resume) or the last
    contained exception's message.  An interrupt before an attempt
    gives an exhaustion with [policy.interrupted], the last partial
    stats and the checkpoint to resume from.
    @raise Invalid_argument as {!Tm_recover.Supervisor.with_retries}. *)
