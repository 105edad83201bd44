(** Request catalog: parse a job request into a runnable, fingerprinted
    job.

    A request is a JSON object:

    {v
    { "op": "verify" | "margin" | "simulate",
      "system": "rm"|"im"|"relay"|"fischer"|"rg"|"ring"|"fd"|"two",
      "params": { "n": 3, "a": 1, ... },      // system knobs, all optional
      "item": 0,                               // verify: which check
      "engine": "auto"|"ref"|"paranoid",
      "limit": 50000, "deadline_s": 10.0,      // per-job budgets
      "steps": 60, "strategy": "random", "seed": 42 }   // simulate only
    v}

    Parsing is total and paranoid: unknown ops, systems, engines,
    params, non-integer knobs, out-of-range items all come back as
    [Error msg] — the server turns that into a structured error frame,
    never an exception.

    The job's [fingerprint] is the content address for the verdict
    cache and the checkpoint routing key.  For verify jobs it is {e
    exactly} the [Tm_zones.Reach] checkpoint fingerprint (kernel,
    widening mode, boundmap, condition/invariant encoding), so cache
    entries and checkpoint files agree on identity.  Margin and
    simulation fingerprints extend it with every input that can change
    the answer (props and budgets; steps/strategy/seed/deadline). *)

module Reach = Tm_zones.Reach

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

val systems : string list
(** Known system names, for error messages and docs. *)
