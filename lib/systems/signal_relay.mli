(** The signal relay of Section 6.

    A line of [n+1] processes [P_0 … P_n].  [P_0] may emit [SIGNAL_0]
    once ([b(SIGNAL_0) = [0, ∞]]); each [P_i] waits for [SIGNAL_{i-1}]
    and then emits [SIGNAL_i] within [[d1, d2]].  The composition hides
    the intermediate signals.

    Proved timing behaviour (Theorem 6.4): if [SIGNAL_0] occurs at
    [t1], a single [SIGNAL_n] follows at [t2] with
    [n·d1 <= t2 − t1 <= n·d2] (condition [U_{0,n}]).

    All timed executions of the relay are finite, so the proof goes
    through the dummification of Section 5, and — following the paper —
    through a *hierarchy* of intermediate requirement automata [B_k]
    ([time(Ã, U_k)] with [U_k = {U_{k,n}} ∪ cond(SIGNAL_0..k) ∪
    cond(NULL)]) connected by the mappings [f_k : B_k → B_{k−1}] of
    Section 6.4; the chain composes into the required mapping
    (Corollary 6.3). *)

type act = Signal of int

val pp_act : Format.formatter -> act -> unit

type dact = act Tm_core.Dummify.action
(** Actions of the dummified relay. *)

type params = {
  n : int;  (** [n >= 1]; the line has [n+1] processes *)
  d1 : Tm_base.Rational.t;  (** per-hop lower bound, [0 <= d1 <= d2] *)
  d2 : Tm_base.Rational.t;  (** per-hop upper bound, [d2 > 0] *)
  null_bounds : Tm_base.Interval.t;  (** boundmap interval of the dummy *)
}

val params :
  n:int -> d1:Tm_base.Rational.t -> d2:Tm_base.Rational.t ->
  ?null_bounds:Tm_base.Interval.t -> unit -> params
(** [null_bounds] defaults to [[1, 2]].
    @raise Invalid_argument when the side conditions fail. *)

val params_of_ints : n:int -> d1:int -> d2:int -> params

type state = bool array
(** [FLAG_0 … FLAG_n]. *)

val sig_class : int -> string
(** Partition class of [SIGNAL_i]. *)

val process : params -> int -> (bool, act) Tm_ioa.Ioa.t
(** [P_i]. *)

val line : params -> (state, act) Tm_ioa.Ioa.t
(** The composition with [SIGNAL_1 … SIGNAL_{n-1}] hidden. *)

val boundmap : params -> Tm_timed.Boundmap.t

val dsystem : params -> (state, dact) Tm_ioa.Ioa.t
(** [Ã]: the dummified line. *)

val dboundmap : params -> Tm_timed.Boundmap.t
(** [b̃]. *)

val u_cond : params -> k:int -> (state, dact) Tm_timed.Condition.t
(** [Ũ_{k,n}] for [0 <= k <= n−1]: triggered by [SIGNAL_k] steps,
    bounds [[(n−k)·d1, (n−k)·d2]], [Π = {SIGNAL_n}]. *)

val impl : params -> (state, dact) Tm_core.Time_automaton.t
(** [time(Ã, b̃)], the assumptions automaton. *)

val b_k : params -> k:int -> (state, dact) Tm_core.Time_automaton.t
(** The intermediate requirements automaton [B_k]. *)

val spec : params -> (state, dact) Tm_core.Time_automaton.t
(** [B = time(Ã, {Ũ_{0,n}})], the requirements automaton. *)

val f_k : params -> k:int -> state Tm_core.Mapping.t
(** The mapping of Section 6.4 from [B_k] to [B_{k−1}], [1 <= k <= n−1]. *)

val trivial_top : params -> state Tm_core.Mapping.t
(** [time(Ã, b̃) → B_{n−1}]: renames the components of [SIGNAL_n]'s
    class condition to [U_{n−1,n}] and checks the shared components. *)

val trivial_bottom : params -> state Tm_core.Mapping.t
(** [B_0 → B]: forgets the boundmap components. *)

val chain : params -> (state, dact) Tm_core.Mapping.level list
(** The full hierarchy [time(Ã,b̃) → B_{n−1} → … → B_0 → B]. *)

val delay_interval : params -> Tm_base.Interval.t
(** [[n·d1, n·d2]]. *)

val lemma_6_1 : state -> bool
(** At most one flag is set (the invariant of Lemma 6.1, phrased on
    states: [SIGNAL_i] enabled for at most one [i]). *)
