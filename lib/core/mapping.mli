(** Strong possibilities mappings (Definition 3.2) and their checkers.

    A strong possibilities mapping from [time(A, U)] to [time(A, V)] is
    a multivalued map [f] such that (1) every start state of the source
    has an [f]-image among the start states of the target, (2) steps of
    the source from a reachable state can be matched by target steps
    preserving membership, and (3) the map is the identity on the
    A-state components.  By Theorem 3.4, such a mapping proves that
    every infinite timed execution of [(A, U)] is one of [(A, V)].

    Because [time(A, V)] steps are deterministic once the base step and
    the action time are fixed, step-matching reduces to: the move must
    be enabled on the target side, and the unique target successor must
    be in the image of the source successor.  The checkers below verify
    exactly this, either along a given execution (refutation on traces)
    or exhaustively over a discretized product graph.

    A hierarchical proof (Section 6.3) passes through a chain of
    intermediate requirement automata, with a strong possibilities
    mapping between each consecutive pair; the composition of the
    chain is the desired mapping (Corollary 6.3).  The checkers take
    such a chain of levels; a single mapping is a chain of one level. *)

type 's t = {
  mname : string;
  contains : 's Tstate.t -> 's Tstate.t -> bool;
      (** [contains s u] iff [u ∈ f(s)].  Implementations should only
          constrain the predictive components: the checkers separately
          enforce identity of base states and of current time. *)
}

type ('s, 'a) failure =
  | No_start_image of 's Tstate.t
      (** a source start state with no matching target start state *)
  | Move_not_enabled of {
      source_pre : 's Tstate.t;
      target_pre : 's Tstate.t;
      action : 'a;
      time : Tm_base.Rational.t;
    }  (** the matched move is not enabled in the target state *)
  | Image_lost of {
      source_post : 's Tstate.t;
      target_post : 's Tstate.t;
      action : 'a;
      time : Tm_base.Rational.t;
    }  (** the unique target successor fell outside [f(source_post)] *)

val pp_failure :
  ('s, 'a) Time_automaton.t -> Format.formatter -> ('s, 'a) failure -> unit

val start_witness :
  source:('s, 'a) Time_automaton.t ->
  target:('s, 'a) Time_automaton.t ->
  's t ->
  's Tstate.t ->
  ('s Tstate.t, ('s, 'a) failure) result
(** Condition 1 of Definition 3.2 for one source start state: find a
    target start state with the same base that lies in the image. *)

type ('s, 'a) level = {
  target : ('s, 'a) Time_automaton.t;
  map : 's t;  (** from the previous level's automaton (level 0: the source) *)
}

type ('s, 'a) chain_failure = {
  level_index : int;  (** 0 = first level above the source *)
  level_name : string;  (** the [mname] of that level's mapping *)
  failure : ('s, 'a) failure;
      (** stated between that level and the one below it: its
          [source_pre]/[source_post] are the lower level's witness (at
          level 0, the source state) *)
}

val check_exec :
  source:('s, 'a) Time_automaton.t ->
  levels:('s, 'a) level list ->
  ('s, 'a) Time_automaton.texec ->
  (unit, ('s, 'a) chain_failure) result
(** Walk an execution of the source, maintaining one deterministic
    witness per level, verifying enabledness and image membership at
    every step and every level.  A sound refutation check: any [Error]
    is a genuine counterexample to that level's mapping (on this
    execution). *)

type stats = { product_states : int; product_edges : int; truncated : bool }

val check_exhaustive :
  ?params:Tgraph.params ->
  source:('s, 'a) Time_automaton.t ->
  levels:('s, 'a) level list ->
  unit ->
  (stats, ('s, 'a) chain_failure) result
(** Exhaustive check of conditions 1–2 at every level over the product
    of the discretized, normalized source graph ({!Tgraph.search}) with
    the deterministic witnesses of all levels (see {!Tgraph} for the
    discretization caveats).  For a finite base automaton and adequate
    [params], [Ok] means every level's mapping is a strong
    possibilities mapping on the explored grid. *)
