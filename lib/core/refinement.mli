(** Mapping-free refinement checking.

    The paper's method asks the prover to *supply* a strong
    possibilities mapping; by Theorem 7.1 one exists whenever the
    refinement holds at all.  On the discretized graph the existence
    question is directly decidable: because [time(A, V)] steps are
    deterministic given the base step and the action time, the
    refinement "every (discretized) execution of [time(A, U)] is an
    execution of [time(A, V)]" holds iff the deterministic witness
    never gets stuck — which is exactly {!Mapping.check_exhaustive}
    with the full relation as its one level.

    Use this to *test* whether a timing claim holds before investing in
    a proof mapping; a [Error] refutation is genuine, an [Ok] verdict is
    exact on the grid. *)

val check :
  ?params:Tgraph.params ->
  source:('s, 'a) Time_automaton.t ->
  target:('s, 'a) Time_automaton.t ->
  unit ->
  (Mapping.stats, ('s, 'a) Mapping.failure) result
(** Discretized refinement: can the target always match the source? *)
