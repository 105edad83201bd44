(** Discretized exploration of a [time(A, U)] automaton.

    Action times range over the rationals, so the raw state space of
    [time(A, U)] is uncountable.  For exhaustive checking we restrict
    moves to a rational grid [1/denominator] (which must divide every
    bound constant, so no interval endpoint falls between grid points),
    cap pure waiting at [cap] beyond the current time, and work with
    {!Tstate.normalize}d states.  For a finite base automaton the
    resulting graph is finite; the grid/clamp assumptions are the
    standard region-construction argument and are recorded in the
    result. *)

type params = {
  denominator : int;  (** grid step is [1/denominator] *)
  cap : Tm_base.Rational.t;
      (** candidate firing times are drawn from
          [[window lo, min (window hi) (now + cap)]] *)
  clamp : Tm_base.Rational.t;  (** normalization floor, see {!Tstate} *)
  limit : int;  (** maximum number of nodes *)
  deadline_s : float option;
      (** wall-clock budget for {!search}; exceeding it stops the
          exploration with [truncated = true] *)
}

val default_params : ('s, 'a) Time_automaton.t -> params
(** Grid from the denominators of all bound constants; [cap] and
    [clamp] from the largest constant.
    @raise Invalid_argument when the grid's denominator exceeds
    [max_int] ({!Tm_base.Interval.lcm_den}). *)

type ('s, 'a) t = {
  aut : ('s, 'a) Time_automaton.t;
  params : params;
  nodes : 's Tstate.t Tm_base.Hstore.t;  (** normalized states *)
  out : ('a * Tm_base.Rational.t * int) list array;
      (** [out.(v)]: the edges out of node [v] as (action, relative
          time, target), latest first; the move fired at time [Δt] from
          [v] with its clock shifted to 0 *)
  truncated : bool;
}

val moves :
  params ->
  ('s, 'a) Time_automaton.t ->
  's Tstate.t ->
  ('a * Tm_base.Rational.t) list
(** Grid moves out of a (normalized) state: every enabled action at
    every grid time in its (capped) window. *)

val search :
  params ->
  ('s, 'a) Time_automaton.t ->
  'k Tm_base.Hstore.t ->
  state:('k -> 's Tstate.t) ->
  normalize:('k -> 'k) ->
  start:('s Tstate.t -> 'k) ->
  step:('k -> 'a * Tm_base.Rational.t -> 's Tstate.t -> 'k) ->
  ('a * Tm_base.Rational.t * int) list array * bool
(** The discretized search both {!build} and the mapping checks run.
    A node is a key interned in [store] (which should start empty)
    after [normalize]; [state k] is the automaton state it explores.
    The start keys are [start s] for each start state [s]; for each
    grid move [mv] out of [state k] and each successor [s'], the
    successor key is [step k mv s'].  [start] and [step] may raise to
    stop the search.  Nodes are numbered breadth-first in the order
    they are reached.  Once [store] holds [params.limit] keys no node
    is added: each further successor is still [step]ped, then dropped
    with its edge.  Once the [params.deadline_s] budget has run out no
    further node is expanded.  Either marks the result truncated.
    Returns each node's out-edges, as in {!t.out}, and whether the
    search was truncated. *)

val build : ?params:params -> ('s, 'a) Time_automaton.t -> ('s, 'a) t

val node_count : ('s, 'a) t -> int
val edge_count : ('s, 'a) t -> int
