(** Fischer's timed mutual exclusion — the kind of timing-dependent
    algorithm the paper's conclusions propose as a target for the
    method.

    [n] processes share a variable [x ∈ {0 … n}] ([0] = free).  Process
    [i] cycles through program counters
    [Rem → Test → Set → Check → Crit → Rem]:

    - [Retry i]  ([Rem → Test], class [RETRY_i], bounds [[0, r]]);
    - [Test i]   (in [Test]: if [x = 0] go to [Set], else stay — a
      busy-wait poll; class [TEST_i], bounds [[0, t]]);
    - [Set i]    ([Set]: [x := i], go to [Check]; class [SET_i], bounds
      [[0, a]] — the write happens within [a] of passing the test);
    - [Enter i] / [Fail i] (in [Check], after waiting at least [b]:
      enter the critical section if [x = i] still, else back to [Rem];
      class [CHECK_i], bounds [[b, b2]]);
    - [Exit i]   ([Crit]: [x := 0], back to [Rem]; class [CRIT_i],
      bounds [[0, e]]).

    The shared-memory system is modelled as a single closed automaton.

    Mutual exclusion holds exactly when [a < b] or [b > e]: with
    [a < b] a process that passed the test has written [x] before any
    rival's check, and with [b > e] a rival that checks at least [b]
    after a late write finds [x] reset by the critical section's exit
    (within [e]).  The test suite pins that rule on a grid of
    [(a, b)] at [e = 2] and refutes mutual exclusion for [a >= b],
    [b <= e].  The timing property analyzed with the paper's machinery:
    an *uncontended* [Set i] step (no other process in [Set]) is
    followed by some [Enter] within [[b, b2]] ({!u_enter}). *)

type pc = Rem | Test | Set | Check | Crit

type act =
  | Retry of int
  | Test_succ of int
  | Test_fail of int
  | Set_x of int
  | Enter of int
  | Fail of int
  | Exit of int

val pp_act : Format.formatter -> act -> unit

type params = {
  n : int;  (** number of processes, [>= 2] *)
  r : Tm_base.Rational.t;  (** retry delay upper bound *)
  t : Tm_base.Rational.t;  (** test-step upper bound *)
  a : Tm_base.Rational.t;  (** set-step upper bound *)
  b : Tm_base.Rational.t;  (** check-step lower bound *)
  b2 : Tm_base.Rational.t;  (** check-step upper bound, [>= b] *)
  e : Tm_base.Rational.t;  (** critical-section upper bound *)
}

val params :
  n:int -> r:Tm_base.Rational.t -> t:Tm_base.Rational.t ->
  a:Tm_base.Rational.t -> b:Tm_base.Rational.t -> b2:Tm_base.Rational.t ->
  e:Tm_base.Rational.t -> params
(** Validates shapes only; [a < b] is *not* required (refutation runs
    deliberately violate it). *)

val params_of_ints : n:int -> r:int -> t:int -> a:int -> b:int -> b2:int ->
  e:int -> params

type state = { x : int; pcs : pc array }

val system : params -> (state, act) Tm_ioa.Ioa.t
val boundmap : params -> Tm_timed.Boundmap.t
val impl : params -> (state, act) Tm_core.Time_automaton.t

val mutual_exclusion : state -> bool
(** At most one process in [Crit]. *)

val u_enter : params -> (state, act) Tm_timed.Condition.t
(** Triggered by uncontended [Set] steps; [Π] = all [Enter] actions;
    bounds [[b, b2]]. *)

val spec : params -> (state, act) Tm_core.Time_automaton.t
(** [time(A, {u_enter})]. *)
