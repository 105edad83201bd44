(** Request catalog: parse a job request into a runnable, fingerprinted
    job, and the runners both the daemon and the CLI use to check, probe
    and simulate a {!Tm_systems.Registry} model.

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
    widening mode, boundmap, condition/invariant encoding), so cache
    entries and checkpoint files agree on identity.  Margin and
    simulation fingerprints extend it with every input that can change
    the answer (props and budgets; steps/strategy/seed/deadline). *)

module Reach = Tm_zones.Reach
module Registry = Tm_systems.Registry

type job = {
  label : string;  (** human name for logs and responses *)
  op : string;
  fingerprint : string;
  checkpointable : bool;
      (** verify jobs resume from checkpoints; margin/simulate rerun *)
  req_limit : int option;  (** the budgets the request asked for; the *)
  req_deadline_s : float option;  (** server clamps them to its caps *)
  exec :
    limit:int option ->
    deadline_s:float option ->
    domains:int ->
    checkpoint:(string * int) option ->
    resume:string option ->
    (Tm_obs.Json.t, Reach.exhausted) result;
      (** Run the job.  [Ok verdict] is cacheable and definite;
          [Error e] is a budget exhaustion / cooperative interrupt with
          partial stats (never cached). *)
}

val of_request :
  ?default_engine:string -> Tm_obs.Json.t -> (job, string) result
(** [default_engine] (default ["auto"]) applies when the request names
    none. *)

(** {1 Runners} *)

val engine_of : string -> ((module Reach.S), string) result
(** ["auto"], ["ref"] or ["paranoid"] (which turns on a self-check
    period of 64 unless one is set). *)

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

val run_check :
  (module Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  domains:int ->
  ?checkpoint:string * int ->
  ?resume:string ->
  ('s, 'a) Registry.verified ->
  ('s, 'a) Registry.check ->
  (outcome, Reach.exhausted) result
(** [Error] on budget exhaustion or a cooperative interrupt.  A
    [Note] runs as the plain condition it carries. *)

val check_fingerprint :
  (module Reach.S) ->
  ('s, 'a) Registry.verified ->
  ('s, 'a) Registry.check ->
  string
(** The checkpoint fingerprint of a check's run; a [Note] (never
    checkpointed) gets a string no snapshot carries. *)

val margin_reports :
  (module Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  domains:int ->
  Registry.model ->
  Tm_faults.Margin.report list
(** One robustness margin report per check of the model, [Note]s
    skipped, each probe under the given budgets. *)
