(* Signature shared by the packed-int production kernel ({!Dbm_int})
   and the straightforward rational reference kernel ({!Dbm_ref}).
   {!Reach.Make} is a functor over this signature, so the two engines
   share one exploration discipline and differ only in DBM arithmetic —
   which is what makes op-for-op and fixpoint-for-fixpoint differential
   testing meaningful, and keeps [zones.stored] identical by
   construction.

   Clock [0] is the reference clock fixed at 0; entry [(i, j)] bounds
   the difference [x_i - x_j].  All values are canonical (shortest-path
   closed) unless empty. *)

module type S = sig
  type t
  (** A persistent zone: immutable from the caller's point of view. *)

  val name : string
  (** Short stable kernel identifier ("int", "ref", ...) — part of the
      checkpoint job fingerprint, so a snapshot is only ever resumed on
      the kernel that wrote it. *)

  val headroom : (int -> int) option
  (** [None] for a kernel with exact rational constants.  [Some h] for
      a kernel that holds integer constants only: [h dim] is the
      largest constant magnitude a [dim]-clock zone can carry without
      overflow.  {!Reach.Make} scales every job's constants to
      integers before they reach such a kernel, and refuses a job whose
      scaled max constant exceeds [h dim]. *)

  val dim : t -> int
  (** Number of clocks including the reference clock. *)

  val zero : int -> t
  (** All clocks equal to 0. *)

  val top : int -> t
  (** All clocks unconstrained (but nonnegative). *)

  val is_empty : t -> bool

  val get : t -> int -> int -> Dbm_bound.t
  (** [get z i j] is the bound on [x_i - x_j]. *)

  val constrain : t -> int -> int -> Dbm_bound.t -> t
  (** [constrain z i j b] intersects with [x_i - x_j <= b] ([<] if
      strict) and re-canonicalizes incrementally. *)

  val up : t -> t
  (** Delay closure: let arbitrary time elapse. *)

  val reset : t -> int -> t
  (** [reset z x] sets clock [x] to 0. *)

  val free : t -> int -> t
  (** [free z x] forgets all constraints on clock [x]. *)

  val intersect : t -> t -> t
  val includes : t -> t -> bool

  val extrapolate_lu :
    lower:Tm_base.Rational.t option array ->
    upper:Tm_base.Rational.t option array ->
    t ->
    t
  (** LU-bound extrapolation (Behrmann–Bouyer–Larsen–Pelánek): entry
      [(i, j)] with constant [c] becomes [Inf] when [c > lower.(i)],
      else [Lt (-upper.(j))] when [c < -upper.(j)].  [lower.(x)] /
      [upper.(x)] are the largest constants appearing in lower-bound
      (resp. upper-bound) comparisons against clock [x]; [None] means
      no such comparison exists ([-inf]), which wipes the whole
      row/column — clock-activity reduction falls out for free.  Index
      [0] is the reference clock and must carry [Some 0].  Coarser than
      (so at least as aggressive as) max-constant extrapolation when
      the arrays dominate the constraint constants, and sound for
      verdicts for the same reason. *)

  val sat : t -> int -> int -> Dbm_bound.t -> bool
  (** [sat z i j b]: is [z /\ (x_i - x_j <= b)] nonempty? *)

  val loose : t -> int
  (** Number of [Inf] entries — a cheap "largeness" proxy used to order
      waiting-list expansion (larger zones first subsume more). *)

  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit

  (** Bump arena for stored-zone payloads.  Zones frozen into an arena
      are slices of a shared chunk (grow-by-doubling, chunks large
      enough to be major-heap allocated), so storing a zone costs no
      minor-heap traffic beyond its small record.  [reset] rewinds the
      bump pointer — only safe when every zone frozen since the last
      reset is discarded speculative work (the per-domain arenas in
      {!Reach} reset at batch boundaries; the main arena never does).
      Already-handed-out slices keep their chunk alive through their
      own pointer, so a reset after a chunk swap never corrupts live
      zones. *)
  module Arena : sig
    type arena

    val create : unit -> arena
    val reset : arena -> unit
  end

  val copy_into : Arena.arena -> t -> t
  (** Re-home a zone's payload into the arena (used when a
      speculatively frozen zone is committed into the shared store). *)

  (** Minimal-constraint form (Larsen et al., RTSS'97): the
      non-redundant subset of a canonical DBM's constraints, enough to
      reconstruct the exact matrix by re-closing.  Stored alongside
      each zone in the waiting/passed lists so subsumption probes scan
      O(active constraints) instead of O(n²).  Construction is
      deterministic, so structural [equal] is exact. *)
  module Min : sig
    type min

    val of_zone : t -> min
    val to_zone : min -> t
    (** Re-closes the kept constraints; round-trips to the identical
        canonical matrix. *)

    val subsumes : min -> t -> bool
    (** [subsumes m z]: does the zone [m] came from include [z]?
        Exact — equivalent to [includes (to_zone m) z]. *)

    val equal : min -> min -> bool

    val count : min -> int
    (** Number of kept constraints (diagnostic / bench column). *)
  end

  (** Destructive operations on a reusable scratch matrix.  One scratch
      lives for a whole exploration; each edge loads a stored zone,
      applies the guard/reset/delay/invariant pipeline in place, and
      freezes the result only if it survives. *)
  module Scratch : sig
    type scratch

    val create : int -> scratch
    (** [create n] allocates a scratch matrix for [n] clocks. *)

    val load : scratch -> t -> unit
    (** Copy a persistent zone into the scratch. *)

    val constrain : scratch -> int -> int -> Dbm_bound.t -> unit
    val up : scratch -> unit
    val reset : scratch -> int -> unit
    val free : scratch -> int -> unit

    val extrapolate_lu :
      lower:Tm_base.Rational.t option array ->
      upper:Tm_base.Rational.t option array ->
      scratch ->
      unit
    (** In-place LU-bound extrapolation; see the persistent
        [extrapolate_lu]. *)

    val is_empty : scratch -> bool

    val sat : scratch -> int -> int -> Dbm_bound.t -> bool
    (** Satisfiability of one extra constraint, without mutating. *)

    val freeze : scratch -> t
    (** Snapshot the scratch as a persistent zone.  When the scratch is
        still byte-equal to the zone it was loaded from, returns that
        original (already-interned) zone instead of copying. *)

    val hash : scratch -> int
    (** The hash [freeze] 's result would have — same formula as the
        persistent [hash], computed over the scratch in place. *)

    val equal_zone : scratch -> t -> bool
    (** Would [freeze] 's result be [equal] to this stored zone?
        Compared in place, no allocation. *)

    val freeze_into : ?hash:int -> Arena.arena -> scratch -> t
    (** Like [freeze] (including the loaded-zone short-circuit) but a
        genuine copy lands in the arena instead of the minor heap.
        [?hash] seeds the zone's hash memo when the caller already
        computed {!hash}. *)
  end
end
