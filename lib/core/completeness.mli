(** The completeness construction (Section 7, Theorem 7.1).

    If every timed execution of [(A, b)] satisfies the conditions [U],
    then a strong possibilities mapping exists from [time(Ã, b̃)] to
    [time(Ã, Ũ)]; the paper constructs it from, per condition [U] and
    reachable state [s]:

    - [sup { first_U α | α ∈ Ext(s) }] — the latest, over all infinite
      extensions of [s], that an action of [Π(U)] or a state of [S(U)]
      first occurs, and
    - [inf { first_ΠU α | α ∈ Ext(s) }] — the earliest that an action
      of [Π(U)] first occurs no later than any [S(U)] state.

    On the discretized normalized graph of {!Tgraph} both quantities
    are computable by value iteration (longest/shortest
    first-occurrence paths, with divergence detected as [∞]); the
    mapping of Theorem 7.1 is then an executable predicate that can be
    re-verified with {!Mapping.check_exhaustive}.

    The same analysis yields *exact* (on the grid) envelopes of
    first-occurrence times, which the benchmark harness compares
    against the paper's closed-form bounds.

    Requirement: every node of the graph must have a successor (all
    executions extend to infinite ones) — dummify first if the system
    has finite executions. *)

type ('s, 'a) t

exception Dead_state
(** Raised by {!analyze} when some reachable discretized state has no
    outgoing move; apply {!Dummify} to the system first. *)

exception Truncated of int
(** Raised by {!analyze}, before any value iteration, when the
    discretized graph stopped at its node limit or deadline
    ([Tgraph.t.truncated]), with the number of nodes it reached: the
    graph lacks moves, so its value tables would not be the windows. *)

val analyze :
  ?params:Tgraph.params ->
  source:('s, 'a) Time_automaton.t ->
  conds:('s, 'a) Tm_timed.Condition.t array ->
  unit ->
  ('s, 'a) t
(** Build the graph of [source] and compute both value tables for every
    condition.  [conds] are the requirement conditions [U], given over
    the base states/actions of [source]. *)

val graph : ('s, 'a) t -> ('s, 'a) Tgraph.t

val sup_first : ('s, 'a) t -> cond:int -> node:int -> Tm_base.Time.t
(** [∞] when some extension avoids [Π ∪ S] forever. *)

val inf_first_pi : ('s, 'a) t -> cond:int -> node:int -> Tm_base.Time.t
(** [∞] when no extension reaches [Π] before [S]. *)

val start_bounds : ('s, 'a) t -> cond:int -> Tm_base.Time.t * Tm_base.Time.t
(** [(inf, sup)] from the (first) start node: the exact envelope of the
    first [Π]-occurrence time over all discretized executions. *)

val bounds_after :
  ('s, 'a) t ->
  trigger:('s -> 'a -> 's -> bool) ->
  cond:int ->
  (Tm_base.Time.t * Tm_base.Time.t) option
(** Envelope of the first [Π]-occurrence measured from every reachable
    edge matching [trigger] (e.g. inter-grant gaps measured from GRANT
    steps); [None] when no such edge is reachable. *)

val mapping :
  ('s, 'a) t -> spec:('s, 'a) Time_automaton.t -> 's Mapping.t
(** The mapping of Theorem 7.1: [u ∈ f(s)] iff for every condition
    index [i] of [spec], [u.lt(i) >= s.now + sup_first] and
    [u.ft(i) <= s.now + inf_first_pi] at the node of [normalize s].
    Spec conditions are matched to analysis conditions by name.
    States outside the analyzed graph are mapped to the empty set. *)
