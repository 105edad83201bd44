(** Exact robustness margins by rational bisection.

    For a one-parameter perturbation family [family : e -> spec] that
    only loosens bounds as [e] grows (e.g. {!Perturb.widen}), the set
    of magnitudes under which a property verifies is downward closed,
    so it has a single threshold

      [e* = sup { e | check (apply (family e) bm) = Sat }].

    {!search} finds [e*] exactly when it is rational, which it always
    is here: the zone engine compares clock values against boundmap
    constants, so verdict flips happen where perturbed endpoints meet,
    i.e. at small rationals.  The search first brackets [e*] between
    consecutive integers, then walks the Stern–Brocot tree of the unit
    bracket: probe the mediant of the bracket, move one endpoint,
    repeat.  Because the integer bracket is unimodular, every rational
    in it is reached by some mediant, and once a probe hits [e*]
    exactly the walk moves the *other* endpoint forever after —
    detected as [stable] consecutive one-sided moves, which also tells
    whether the supremum is attained ([check] still Sat at [e*]) or
    open (Sat strictly below only, e.g. Fischer's [a < b]).  A
    one-sided run can also come from a continued-fraction coefficient
    [>= stable] in [e*]; for the small-denominator thresholds of timing
    systems this does not occur, and a run capped by [max_probes] is
    reported with [exact = false] rather than trusted.

    Inside a run (one move or more in the same direction) the walk
    first checks the mediant the run would end at: [k] moves on, where
    the run reaches [stable] moves or the search [max_probes] steps.
    If that check goes the run's way, downward closure gives every
    mediant before it the same verdict, and the walk takes the [k]
    moves as [k] steps for one check.  If it does not — or the check is
    [Unknown], or the family rejects that magnitude — the walk moves one
    mediant at a time until the run breaks, with no second leap in that
    run.  Verdicts and step counts are those of the one-mediant-a-step
    walk, with fewer checks: fischer n=3's margins print 224 probes
    and run 91 checks.  A failed leap costs one check, so a threshold whose walk breaks many
    runs (a continued fraction of many small coefficients) can cost
    more checks than stepping ([144/233] at [stable = 12]: 26 against
    25).

    Against the one-mediant-a-step walk, outcomes differ only under a
    budget.  The walk never
    checks a mediant a leap skips, so where a step would have given up
    there ("inconclusive at e = m"), it answers; it never gives up or
    answers differently where stepping would have answered. *)

type status = Sat | Unsat | Unknown of string

type verdict = {
  threshold : Tm_base.Rational.t;  (** [e*] *)
  attained : bool;
      (** the property still holds at [e*] itself (when [false], every
          probe at or above [e*] refuted, every probe below verified) *)
  refuted_at : Tm_base.Rational.t option;
      (** tightest refuting magnitude probed; [None] when the search
          never saw a refutation (censored at [eps_max]) *)
  exact : bool;
  probes : int;
      (** steps of the search, its [e = 0] step included — also when
          {!report} answered that step from its shared base check — and
          each of a leap's [k] mediants one step: the checks of a walk
          that checks every mediant, not the checks run *)
}

type row = { cls : string; verdict : (verdict, string) result }

type report = {
  subject : string;
  overall : (verdict, string) result;  (** widening every class at once *)
  per_class : row list;  (** widening one class at a time *)
  critical : string option;
      (** class with the smallest non-censored per-class margin — the
          bound the property is most sensitive to *)
}

val search :
  ?eps_max:int ->
  ?stable:int ->
  ?max_probes:int ->
  family:(Tm_base.Rational.t -> Perturb.spec) ->
  check:(Tm_timed.Boundmap.t -> status) ->
  Tm_timed.Boundmap.t ->
  (verdict, string) result
(** [Error] when the unperturbed property already refutes, a probe
    returns [Unknown] (budget exhausted; a leap's check that does is
    not an error, the walk steps instead), or the family is invalid.
    Censored at [eps_max] (default [8]; [exact = false],
    [refuted_at = None]) when even the largest probe verifies.
    [stable] defaults to [12], [max_probes] to [96]. *)

val report :
  ?eps_max:int ->
  ?stable:int ->
  ?max_probes:int ->
  ?domains:int ->
  subject:string ->
  check:(Tm_timed.Boundmap.t -> status) ->
  Tm_timed.Boundmap.t ->
  report
(** {!search} over {!Perturb.widen} plus {!Perturb.widen_class} for
    every class of the map, and the sensitivity verdict.  Every one of
    these searches starts at the unperturbed map, so [report] runs that
    base check once, before the searches, and each search takes its
    outcome for its [e = 0] step: [check] sees the unperturbed map
    exactly once per report.  The verdicts — their [probes] counts
    included — and the [Error] texts are those of separate {!search}
    calls.  [faults.margin_probes] and the [faults.probe] events count
    checks actually run: the shared base once, a leap's check once for
    its [k] steps, a failed leap's check too.  With [domains > 1] the
    independent searches (overall + one per class) fan out over a
    [Tm_par.Pool]; the report and the [faults.margin_probes] total are
    identical at any domain count.  [check] then runs on worker domains
    and must be self-contained (the zone-engine adapters below are). *)

val probe_engine :
  name:string -> (module Tm_zones.Reach.S) -> (module Tm_zones.Reach.S)
(** The identity: every engine runs margin's non-integral mediant
    probes itself (the int engine scales them to integers), so no
    engine needs replacing.  Kept only because the perfbench probe
    (perfbench/probe/probe.ml) still calls it. *)

(** {1 Property checks} *)

val status :
  (module Tm_zones.Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  ('s, 'a) Tm_ioa.Ioa.t ->
  ('s, 'a) Tm_zones.Reach.property ->
  Tm_timed.Boundmap.t ->
  status
(** [status (module E) a prop] is a [check] for {!report}: [E.check] of
    [[prop]] under a boundmap — [Sat] if verified, [Unsat] if refuted,
    [Unknown] with the reason on an exhausted budget or an unsupported
    condition shape.  The engine is a first-class module so margins can
    be cross-checked between kernels. *)

(** {!status} of a condition and of an invariant, kept for the
    perfbench probe. *)

val condition_status :
  (module Tm_zones.Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  ('s, 'a) Tm_ioa.Ioa.t ->
  ('s, 'a) Tm_timed.Condition.t ->
  Tm_timed.Boundmap.t ->
  status

val invariant_status :
  (module Tm_zones.Reach.S) ->
  ?limit:int ->
  ?deadline_s:float ->
  ('s, 'a) Tm_ioa.Ioa.t ->
  ('s -> bool) ->
  Tm_timed.Boundmap.t ->
  status

val pp_verdict : Format.formatter -> verdict -> unit
val to_json : report -> Tm_obs.Json.t
