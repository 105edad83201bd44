(** Composition of timed automata (footnote 2 of the paper).

    The paper models each system as a single timed automaton whose
    underlying I/O automaton is a composition; [MMT88] develops the
    equivalent view of composing the timed automata themselves, with
    theorems showing the two coincide.  This module provides that
    second view: compose [(A1, b1)] and [(A2, b2)] into
    [(A1 ∥ A2, b1 ∪ b2)].  Since boundmaps attach to partition classes
    and composition keeps the classes of both components (requiring
    them disjoint), the union boundmap is the composition's boundmap —
    which is exactly why the two views coincide.  No executable
    composes timed automata, so the construction lives with its test
    ([Test_timed_compose]), which checks that the resulting timed
    semantics agree on both constructions. *)

val binary :
  name:string ->
  ('s1, 'a) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t ->
  ('s2, 'a) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t ->
  ('s1 * 's2, 'a) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t
(** @raise Tm_ioa.Compose.Incompatible on incompatible components.
    @raise Invalid_argument if the boundmaps share a class or miss one
    of their automaton's classes. *)

val array :
  name:string ->
  (('s, 'a) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t) array ->
  ('s array, 'a) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t
