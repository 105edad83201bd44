(** Reference DBM kernel — the original copy-everything implementation
    over exact rationals, retained solely as the oracle for the
    differential test/bench harness against the packed-int
    {!Dbm_int}.  Production code should never use this module directly;
    go through {!Reach} (or {!Reach.Ref} for the reference engine).

    Beyond {!Dbm_sig.S} it keeps the persistent zone algebra below:
    the specification of the int kernel's scratch ops, which the
    differential harness replays op for op.  Its own [Scratch] is the
    literal sequence of these ops ([settle] is [up], one [constrain x 0
    b] per invariant, then [extrapolate_lu]). *)

include Dbm_sig.S

val top : int -> t
(** All clocks unconstrained (but nonnegative). *)

val constrain : t -> int -> int -> Dbm_bound.t -> t
(** [constrain z i j b] intersects with [x_i - x_j <= b] ([<] if
    strict) and re-canonicalizes incrementally. *)

val up : t -> t
(** Delay closure: let arbitrary time elapse. *)

val reset : t -> int -> t
(** [reset z x] sets clock [x] to 0. *)

val free : t -> int -> t
(** [free z x] forgets all constraints on clock [x]. *)

val remap : t -> Dbm_sig.remap -> t
(** The zone on the clocks of [remap]'s target (see {!Dbm_sig.remap}):
    what {!Dbm_sig.S.Scratch.remap} does in place. *)

val intersect : t -> t -> t
val includes : t -> t -> bool

val extrapolate_lu :
  lower:Tm_base.Rational.t option array ->
  upper:Tm_base.Rational.t option array ->
  t ->
  t
(** LU widening with the bounds of {!Dbm_sig.S.prepare_lu}, then
    re-closing.  Returns [z] itself when the widening changes no entry,
    so [extrapolate_lu ~lower ~upper z != z] tells whether a kernel that
    re-closes only after a change closes. *)
