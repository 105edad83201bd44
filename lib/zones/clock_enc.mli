(** The MMT clock encoding shared by the zone ({!Reach}) and region
    ({!Region}) engines.

    One clock per partition class (indices [1..n] with [0] reserved for
    the DBM reference; {!Region} uses [clock-1] as its 0-based index).
    An action of class [C] is guarded by [x_C >= b_l(C)]; a location
    carries the invariant [x_C <= b_u(C)] for every enabled class; a
    step resets the clocks of classes that fire or become (re-)enabled
    and frees those of classes disabled in the target (activity
    reduction). *)

exception Open_system of string
(** The encoding needs a closed system (no input actions) whose classes
    are all covered by the boundmap. *)

type ('s, 'a) t = {
  aut : ('s, 'a) Tm_ioa.Ioa.t;
  bm : Tm_timed.Boundmap.t;
  classes : string array;
  nclasses : int;
  max_const : Tm_base.Rational.t;  (** largest finite bound constant *)
  members : 'a array array;
      (** actions of each class, indexed by class index — resolved once
          at {!make} so the per-state enabledness scans never call
          [Ioa.class_of] (whose class names are typically built afresh
          per call) *)
}

val make : ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> ('s, 'a) t
(** @raise Open_system *)

val clock : ('s, 'a) t -> string -> int
(** 1-based clock index of a class. *)

val class_index : ('s, 'a) t -> 'a -> int option
(** 0-based class index of an action's class ([clock enc c - 1]). *)

val guard : ('s, 'a) t -> 'a -> (int * Tm_base.Rational.t) option
(** [(clock, b_l)] when the action's class has a positive lower bound. *)

type op = Reset of int | Free of int

val step_ops : ('s, 'a) t -> 's -> 'a -> 's -> op list
(** Clock operations induced by the step [(s, act, s')], in clock
    order. *)

val start_ops : ('s, 'a) t -> 's -> op list
(** Frees for the classes disabled in a start state. *)

val invariant : ('s, 'a) t -> 's -> (int * Tm_base.Rational.t) list
(** [(clock, b_u)] for every enabled class with a finite upper bound. *)

val scale : ('s, 'a) t -> int
(** The lcm of the denominators of all bound constants: multiplying
    constants by [scale] makes them integers (used by {!Region}). *)
