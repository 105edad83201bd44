(** The conclusions' chained-trigger requirement, made to fit.

    Section 8 of the paper asks whether requirements like "event [π]
    triggers a later [φ] within one interval, and [φ] triggers a later
    [ψ] within another" can be expressed with plain timing conditions.
    This system shows the affirmative answer the paper anticipates: a
    two-stage pipeline

    - [Start] (π): enabled when idle, class bounds [[p1, p2]];
    - [Mid]   (φ): within [[q1, q2]] of [Start], class bounds ditto;
    - [Done]  (ψ): within [[r1, r2]] of [Mid].

    The chained end-to-end requirement — [Done] within
    [[q1 + r1, q2 + r2]] of [Start] ({!u_end_to_end}) — is a plain
    timing condition, and is proved exactly as in Section 6: through an
    intermediate requirements automaton carrying the second-stage
    condition {!u_mid_done} and a strong possibilities mapping
    ({!stage_mapping}) whose inequalities have the same shape as the
    relay's [f_k], here with heterogeneous bounds. *)

type act = Start | Mid | Done

val pp_act : Format.formatter -> act -> unit

type phase = Idle | Wait_mid | Wait_done
type state = phase

type params = {
  p1 : Tm_base.Rational.t;  (** restart lower bound *)
  p2 : Tm_base.Rational.t;  (** restart upper bound *)
  q1 : Tm_base.Rational.t;  (** first-stage lower bound *)
  q2 : Tm_base.Rational.t;  (** first-stage upper bound *)
  r1 : Tm_base.Rational.t;  (** second-stage lower bound *)
  r2 : Tm_base.Rational.t;  (** second-stage upper bound *)
}

val params_of_ints :
  p1:int -> p2:int -> q1:int -> q2:int -> r1:int -> r2:int -> params

val system : params -> (state, act) Tm_ioa.Ioa.t
val boundmap : params -> Tm_timed.Boundmap.t
val impl : params -> (state, act) Tm_core.Time_automaton.t
(** [time(A, b)]. *)

val u_start_mid : params -> (state, act) Tm_timed.Condition.t
(** [Mid] within [[q1, q2]] of every [Start] step. *)

val u_mid_done : params -> (state, act) Tm_timed.Condition.t
(** [Done] within [[r1, r2]] of every [Mid] step. *)

val u_end_to_end : params -> (state, act) Tm_timed.Condition.t
(** [Done] within [[q1 + r1, q2 + r2]] of every [Start] step. *)

val intermediate : params -> (state, act) Tm_core.Time_automaton.t
(** [B_1 = time(A, {u_mid_done} ∪ U_b)]. *)

val spec : params -> (state, act) Tm_core.Time_automaton.t
(** [B = time(A, {u_end_to_end})]. *)

val stage_mapping : params -> state Tm_core.Mapping.t
(** From {!intermediate} to {!spec}: when waiting for [Done] the
    end-to-end deadline is bounded by the second-stage deadline; when
    waiting for [Mid] it is bounded by the [Mid]-class deadline plus
    the second stage's width. *)

val top_mapping : params -> state Tm_core.Mapping.t
(** From {!impl} to {!intermediate}: renames the [Done]-class boundmap
    components into [u_mid_done] (the relay's [trivial_top]
    analogue). *)

val chain : params -> (state, act) Tm_core.Mapping.level list
(** [impl -> intermediate -> spec]. *)

val end_to_end_interval : params -> Tm_base.Interval.t
