(** Boundmaps (Section 2.2).

    A boundmap assigns to each partition class of an I/O automaton a
    closed interval [[b_l(C), b_u(C)]] with finite lower bound and
    nonzero upper bound: the range of possible lengths of time between
    successive chances for the class to perform an action.  A timed
    automaton is a pair of an automaton and a boundmap. *)

type t

val of_list : (string * Tm_base.Interval.t) list -> t
(** @raise Invalid_argument on duplicate class names. *)

val find : t -> string -> Tm_base.Interval.t
(** @raise Invalid_argument naming the class if it has no bounds
    assigned. *)

val lower : t -> string -> Tm_base.Rational.t
(** [b_l(C)]. *)

val upper : t -> string -> Tm_base.Time.t
(** [b_u(C)]. *)

val classes : t -> string list

val to_list : t -> (string * Tm_base.Interval.t) list
(** The bindings sorted by class name — deterministic whatever order
    the map was declared or merged in ({!classes} keeps declaration
    order). *)

val map : (string -> Tm_base.Interval.t -> Tm_base.Interval.t) -> t -> t
(** Rewrite every interval (class set unchanged) — the primitive the
    fault-perturbation layer builds on. *)

val mem : t -> string -> bool

val covers : t -> ('s, 'a) Tm_ioa.Ioa.t -> (unit, string) result
(** Every partition class of the automaton has an interval. *)

val add : t -> string -> Tm_base.Interval.t -> t
(** @raise Invalid_argument if the class is already bound. *)

val max_constant : t -> Tm_base.Rational.t
(** The largest finite endpoint appearing in the map (used to pick
    normalization clamps and zone extrapolation constants). *)

val is_integral : t -> bool
(** Every finite interval endpoint is an integer.  True for all shipped
    systems; margin's mediant probes perturb endpoints to non-integer
    rationals.  The zone engine does not need it (it scales any job to
    integers itself); diagnostics use it to tell integral jobs from
    scaled ones. *)

val lu_bounds :
  t -> string -> Tm_base.Rational.t option * Tm_base.Rational.t option
(** [(l, u)] for a class clock in the LU-extrapolation sense: [l] is
    [b_l] when positive (the guard constant), [u] is [b_u] when finite
    (the invariant constant); [None] when the respective comparison
    does not exist in the zone encoding, letting extrapolation discard
    that side entirely (clock-activity reduction).
    @raise Invalid_argument like {!find} on an unbound class. *)

val pp : Format.formatter -> t -> unit
