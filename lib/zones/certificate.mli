(** Certificates of positive zone verdicts, and their checker.

    At its fixpoint a zone exploration's stored zones are an inductive
    invariant — the machine form of the paper's proof shape, Lemma 4.1's
    invariant plus §4.3's one-step inequalities (Namjoshi, CAV 2001;
    Wimmer & von Mutius, TACAS 2020).  {!check} shares no code with
    {!Reach}: it rebuilds the MMT encoding from {!Clock_enc}, works out
    each location's live clocks itself, and replays every step on
    {!Dbm_ref}'s persistent algebra over those clocks, so a fault in the
    engine's layouts, clock maps, scaling or subsumption cannot certify
    its own output. *)

type zone = (int * int * Dbm_bound.t) list
(** Constraints [x_i - x_j <= c] ([<] if strict) in unscaled time over
    logical clocks: [0] is the reference clock, [1..n] the partition
    classes in [Ioa.classes] order, [n+1] a condition's observer clock.
    An unmentioned clock is only [x >= 0]. *)

type 's location = { state : 's; armed : bool; zones : zone list }
(** [armed] is the condition observer's phase. *)

type 's t = 's location array

(** What a certificate proves beyond being an inductive invariant;
    [Invariant (fun _ -> true)] is nothing more.  {!check} takes a list:
    one zone set proves every property of one search. *)
type ('s, 'a) property =
  | Invariant of ('s -> bool)  (** holds on every certificate state *)
  | Condition of ('s, 'a) Tm_timed.Condition.t
      (** no armed zone admits [y > b_u], no [Π]-step from an armed zone
          admits [y < b_l] *)

exception Out_of_time
(** {!check} ran past its [deadline]. *)

val check :
  ?deadline:float ->
  ('s, 'a) Tm_ioa.Ioa.t ->
  Tm_timed.Boundmap.t ->
  ('s, 'a) property list ->
  's t ->
  (int, string) result
(** [Ok n], [n] the number of zones, when the certificate proves the
    property of every timed execution of [(a, bm)]: its zones constrain
    only clocks live at their location; each start state's zone (clocks
    0, then time passes under the invariants) lies in one zone of its
    location; every step's successor — guard [x_C >= b_l(C)], reset of
    the firing and newly enabled classes' clocks, drop of disabled ones,
    the observer's move, time passing under the invariants
    [x_C <= b_u(C)], LU widening — is empty or lies in one zone at its
    target; and every property of the list holds: each invariant at
    every location's state, the condition (at most one; it sets the
    observer clock) at every armed zone and [Π]-step.  Otherwise [Error]
    names the first failing location.  @raise Out_of_time once the
    clock of [Tm_obs.Tracing.now_s] passes [deadline].
    @raise Clock_enc.Open_system like {!Reach}.
    @raise Invalid_argument when the list names two conditions. *)
