(** Closed time intervals [[lo, hi]] with [lo] finite and [hi] possibly
    infinite.

    These are exactly the intervals a boundmap may assign to a partition
    class (Section 2.2 of the paper: the lower bound of each interval is
    not [∞] and the upper bound is nonzero) and the [b] component of a
    timing condition (Section 2.3). *)

type t = private { lo : Rational.t; hi : Time.t }

exception Ill_formed of string

val make : Rational.t -> Time.t -> t
(** [make lo hi] checks [0 <= lo], [lo <= hi] and [hi <> 0].
    @raise Ill_formed otherwise. *)

val of_ints : int -> int -> t
val unbounded_above : Rational.t -> t
(** [unbounded_above lo] is [[lo, ∞]]. *)

val trivial : t
(** [[0, ∞]] — imposes no constraint. *)

val lower_only : Rational.t -> t
(** [[lo, ∞]]: a pure lower-bound condition. *)

val upper_only : Time.t -> t
(** [[0, hi]]: a pure upper-bound condition. *)

val lo : t -> Rational.t
val hi : t -> Time.t

val mem : Rational.t -> t -> bool
(** [mem t iv] is [lo <= t <= hi]. *)

val mem_time : Time.t -> t -> bool

val shift : Rational.t -> t -> t
(** [shift d iv] is [[lo + d, hi + d]]. *)

val scale : int -> t -> t
(** [scale n iv] is [[n*lo, n*hi]] for [n >= 1]. *)

val lcm_den : int -> t -> int
(** [lcm_den k iv] for [k >= 1]: the least common multiple of [k] and
    the denominators of [iv]'s finite endpoints — the least multiple of
    [k] that scales [iv] to integers.  Fold it over a job's intervals
    for the job's time scale.
    @raise Invalid_argument ["time scale m * d overflows (constant q)"]
    when that multiple exceeds [max_int]. *)

val width : t -> Time.t
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b]: every point of [a] lies in [b]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
