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
      (** actions of each class, indexed by class index, in alphabet
          order *)
  act_class : int array;
      (** per alphabet position, the 0-based class index of that
          action's class ([-1] when classless).  {!make} fills it and
          [members] in one pass that calls [Ioa.class_of] once per
          action, so no later query — per-state enabledness scans,
          guards, step operations — calls it (systems typically build
          their class names afresh per call) *)
}

val make : ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> ('s, 'a) t
(** @raise Open_system also when an action's class is not one of the
    automaton's classes. *)

(** Actions are named below by their position [k] in the automaton's
    alphabet. *)

val class_index : ('s, 'a) t -> int -> int option
(** 0-based class index of action [k]'s class (its clock minus one). *)

val guard : ('s, 'a) t -> int -> (int * Tm_base.Rational.t) option
(** [(clock, b_l)] when action [k]'s class has a positive lower
    bound. *)

type op = Reset of int | Free of int

val step_ops : ('s, 'a) t -> 's -> int -> 's -> op list
(** Clock operations induced by the step [(s, act, s')], [act] the
    action at alphabet position [k], in clock order. *)

val start_ops : ('s, 'a) t -> 's -> op list
(** Frees for the classes disabled in a start state. *)

val invariant : ('s, 'a) t -> 's -> (int * Tm_base.Rational.t) list
(** [(clock, b_u)] for every enabled class with a finite upper bound. *)

val lu_bounds :
  ('s, 'a) t ->
  observer:Tm_base.Interval.t option ->
  Tm_base.Rational.t option array * Tm_base.Rational.t option array
(** Per clock, the largest constant it is compared against from below
    and from above, for LU widening ([None]: never, which wipes that
    side); [Some 0] on the reference clock.  A class clock meets its
    guard and invariant ({!Tm_timed.Boundmap.lu_bounds}); the observer
    clock [nclasses + 1] of condition bounds [observer] meets inverted
    probes: [y < b_l] compares from above, [y > b_u] from below. *)

val scale : ('s, 'a) t -> int
(** The lcm of the denominators of all bound constants: multiplying
    constants by [scale] makes them integers (used by {!Region}).
    @raise Invalid_argument when it exceeds [max_int]
    ({!Tm_base.Interval.lcm_den}). *)
