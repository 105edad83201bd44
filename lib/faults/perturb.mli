(** Composable fault models over boundmaps.

    A perturbation rewrites the intervals of a boundmap — wider timing
    envelopes, slower/faster clocks, replaced crash-rate bounds — and
    is the unit the robustness analysis quantifies over: {!Margin}
    searches for the largest perturbation magnitude under which a
    property still verifies.

    Widening is monotone in the timed-trace preorder: every interval of
    [widen e1 bm] is a subset of the matching interval of [widen e2 bm]
    when [e1 <= e2], so the perturbed automaton's timed executions only
    grow with [e].  Hence a property verified at [e2] is verified at
    every [e1 <= e2] — the fact the margin search and the metamorphic
    test suite both rely on.  The same holds for [drift]. *)

type spec =
  | Widen of Tm_base.Rational.t
      (** symmetric jitter on every class: [lo - e] (floored at 0),
          [hi + e] *)
  | Widen_class of string * Tm_base.Rational.t
      (** the same, on one class only *)
  | Drift of Tm_base.Rational.t
      (** relative clock drift [r >= 0] on every class:
          [lo / (1+r)], [hi * (1+r)] *)
  | Drift_class of string * Tm_base.Rational.t
  | Rebound of string * Tm_base.Interval.t
      (** replace one class's interval outright (e.g. changed crash
          rate: give a crash class finite bounds) *)
  | Seq of spec list  (** left-to-right composition *)

(** {1 Constructors} — the [Rational.t -> spec] shapes double as the
    one-parameter families {!Margin.search} bisects over. *)

val widen : Tm_base.Rational.t -> spec
val widen_class : string -> Tm_base.Rational.t -> spec
val drift : Tm_base.Rational.t -> spec
val drift_class : string -> Tm_base.Rational.t -> spec
val rebound : string -> Tm_base.Interval.t -> spec
val seq : spec list -> spec

val apply :
  spec -> Tm_timed.Boundmap.t -> (Tm_timed.Boundmap.t, string) result
(** Apply the perturbation, validating as it goes: magnitudes must be
    nonnegative, per-class specs must name a class of the map, and
    every rewritten interval must still be a legal boundmap interval
    ([0 <= lo <= hi], [hi <> 0]). *)

val pp : Format.formatter -> spec -> unit
val to_string : spec -> string
