(** The system registry: the one table of the shipped systems.

    Each entry names a system, documents it in one line, declares the
    integer parameters it reads (with their defaults) and carries a
    builder.  The builder is a function, so the table builds nothing
    until a caller instantiates an entry; it returns everything the
    analyses run on:

    - the {e verified model}: the automaton and boundmap of the zone
      engine and the ordered checks [verify] runs — [margin] reuses the
      same checks as its properties;
    - the {e simulated model}: the time automaton the simulator drives,
      the conditions a run is judged by, the grid denominator of the
      random strategy, and the exact first-occurrence windows;
    - the describe line and the paper mapping check the CLI prints.

    Both the CLI ([bin/timedmap.ml]) and the daemon's request catalog
    ({!Tm_serve.Catalog}) read this table and nothing else, so adding a
    system is one entry here plus the system's own module. *)

module Condition = Tm_timed.Condition

(** {1 Models} *)

(** One verification check, in the order [verify] runs them. *)
type ('s, 'a) check =
  | Cond of ('s, 'a) Condition.t
      (** a timing condition, checked by the observer construction *)
  | Inv of { label : string; pred : 's -> bool; violated : string }
      (** a state invariant; [violated] is the verdict phrase printed
          before the offending state ("VIOLATED at ...") *)
  | Note of {
      label : string;
      cond : ('s, 'a) Condition.t;
      upper_violated : string;
      verified : string;
    }
      (** informational, CLI only: a condition run without budgets or
          checkpoints, whose verdict is glossed by [upper_violated] /
          [verified].  The daemon and [margin] skip it. *)

type ('s, 'a) verified = {
  system : ('s, 'a) Tm_ioa.Ioa.t;
  boundmap : Tm_timed.Boundmap.t;
  checks : ('s, 'a) check list;
}

(** One exact first-occurrence window, printed as
    ["<what>exact [lo, hi], <reference>"]. *)
type ('s, 'a) exact_row = {
  what : string;  (** the line's lead, padding included *)
  origin : ('s, 'a) origin;
  cond : int;  (** index into [exact_conds] *)
  reference : string;  (** the paper's or the predicted window *)
}

(** Where a window is measured from. *)
and ('s, 'a) origin =
  | Start  (** the start state *)
  | After of {
      trigger : 's -> 'a -> 's -> bool;
      unreachable : string;  (** printed when no trigger edge is reachable *)
    }  (** every reachable edge matching [trigger] *)

type ('s, 'a) exact = {
  exact_conds : ('s, 'a) Condition.t array;
  rows : ('s, 'a) exact_row list;
}

type ('s, 'a) simulated = {
  impl : ('s, 'a) Tm_core.Time_automaton.t;
  conds : ('s, 'a) Condition.t list;
  denominator : int;  (** grid of the random strategy's delays *)
  exact : ('s, 'a) exact option;  (** [None]: exact analysis not wired *)
}

type model = {
  describe : string;  (** the header line of every CLI subcommand *)
  label : string;
      (** the prefix of condition verdicts and margin subjects:
          ["manager"], ["fischer"], ... *)
  verified : any_verified;
  simulated : any_simulated;
  map : unit -> string;
      (** check the paper's mapping (or say there is none); the report *)
}

and any_verified = Verified : ('s, 'a) verified -> any_verified
and any_simulated = Simulated : ('s, 'a) simulated -> any_simulated

(** {1 Entries} *)

type param = {
  key : string;  (** the CLI flag and the request's [params] key *)
  doc : string;
  default : int;
  margin_default : int option;  (** overrides [default] for [margin] *)
  clamp : (int * int) option;  (** values are clamped into this range *)
}

type entry = {
  name : string;  (** ["rm"], ["fischer"], ... *)
  doc : string;  (** one line *)
  params : param list;
  build : (string -> int) -> model;
      (** from the resolved value of each declared parameter *)
}

val entries : entry list
(** In their documented order: rm, im, relay, fischer, rg, ring, fd,
    two. *)

val find : string -> (entry, string) result
(** [Error "unknown system ..."] naming the known systems. *)

val params : (param * string list) list
(** Every parameter any entry reads, once, in order of first
    declaration, with the systems that read it. *)

val known_param : string -> (unit, string) result
(** [Error "unknown param ..."] naming the known parameters. *)

val instantiate :
  ?margin:bool -> entry -> (string * int) list -> (model, string) result
(** Build [entry] from explicit parameter values (the last binding of a
    key wins; keys the entry does not read are ignored), defaulting the
    rest — to the margin defaults when [margin] (default [false]).
    The system's own validation failures ([Invalid_argument] /
    [Failure] from its constructors) come back as [Error msg]. *)

val check_label : string -> ('s, 'a) check -> string
(** The item label of a check under a model's [label]:
    ["manager G1"], ["mutual exclusion"], ... *)
