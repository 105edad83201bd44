(** A timed token ring — the signal relay bent into a cycle.

    [n] stations pass a token around a ring; station [i] holds the
    token and forwards it to station [(i+1) mod n] within [[d1, d2]].
    Unlike the relay, the system runs forever, so the interesting
    condition is *recurring*, in the style of [G2]: measured from every
    departure of the token from station 0, the next departure from
    station 0 happens within [[n·d1, n·d2]] (one full rotation).

    A second condition bounds each visit: once station [i] receives the
    token it forwards it within [[d1, d2]] — these are exactly the
    boundmap conditions, so the rotation bound is proved from them by a
    strong possibilities mapping with the same shape as the relay's
    [f_k], adapted to the cyclic index arithmetic. *)

type act = Pass of int  (** [Pass i]: station [i] forwards the token *)

val pp_act : Format.formatter -> act -> unit

type params = {
  n : int;  (** ring size, [>= 2] *)
  d1 : Tm_base.Rational.t;
  d2 : Tm_base.Rational.t;
}

val params_of_ints : n:int -> d1:int -> d2:int -> params

type state = int
(** Index of the station currently holding the token. *)

val pass_class : int -> string
val system : params -> (state, act) Tm_ioa.Ioa.t
val boundmap : params -> Tm_timed.Boundmap.t
val impl : params -> (state, act) Tm_core.Time_automaton.t

val rotation_interval : params -> Tm_base.Interval.t
(** [[n·d1, n·d2]]. *)

val u_rotation : params -> (state, act) Tm_timed.Condition.t
(** Triggered by every [Pass 0] step; [Π = {Pass 0}]; bounds
    [[n·d1, n·d2]]. *)

val u_from : params -> k:int -> (state, act) Tm_timed.Condition.t
(** Intermediate condition: from every [Pass k] step, the next
    [Pass 0] occurs within [[(n−k)·d1, (n−k)·d2]] (for [1 <= k <=
    n−1]). *)

val spec : params -> (state, act) Tm_core.Time_automaton.t
(** [time(A, {u_rotation})]. *)

val b_k : params -> k:int -> (state, act) Tm_core.Time_automaton.t
(** Intermediate requirements automaton carrying [u_from k] plus the
    boundmap conditions for stations [0..k]. *)

val f_k : params -> k:int -> state Tm_core.Mapping.t
(** [B_k -> B_{k-1}]-style mapping for the ring ([2 <= k <= n−1]);
    [k = 1] connects to the rotation condition via {!f_close}. *)

val f_close : params -> state Tm_core.Mapping.t
(** [B_1 -> spec]: a rotation is one hop from station 0 followed by the
    [u_from 1] distance. *)

val trivial_top : params -> state Tm_core.Mapping.t
(** [time(A,b) -> B_{n-1}]. *)

val chain : params -> (state, act) Tm_core.Mapping.level list
