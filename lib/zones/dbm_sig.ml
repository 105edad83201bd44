(* Signature shared by the packed-int production kernel ({!Dbm_int})
   and the straightforward rational reference kernel ({!Dbm_ref}), its
   only two implementations.  {!Reach.Make} is a functor over this
   signature, so the two engines share one exploration discipline and
   differ only in DBM arithmetic — which is what makes op-for-op and
   fixpoint-for-fixpoint differential testing meaningful, and keeps
   [zones.stored] identical by construction.  The paranoid engine adds
   no kernel: it runs {!Dbm_int} and checks the finished zone set with
   {!Certificate}, which computes on {!Dbm_ref}'s persistent algebra.

   The signature is exactly what {!Reach.Make} calls, plus the
   read-only accessors [dim] and [is_empty]: zones are built from
   [zero] and transformed only in a {!Scratch} (load, guard
   [constrain], [remap], [settle], freeze).  The int kernel is
   scratch-only; the persistent zone algebra ([top], [constrain], [up],
   [reset], [free], [intersect], [includes], [extrapolate_lu]) is
   {!Dbm_ref}'s own API, the specification the differential harness
   holds the int scratch to.

   Clock [0] is the reference clock fixed at 0; entry [(i, j)] bounds
   the difference [x_i - x_j].  All values are canonical (shortest-path
   closed) unless empty. *)

(* A clock map for [Scratch.remap]: the source zone's clocks become the
   target zone's, [Array.length src] of them.  Target clock [k] takes
   - [src.(k) = j >= 1]: source clock [j], with its bounds against
     every other kept clock (a kept clock);
   - [src.(k) = 0]: clock 0's row and column, i.e. it starts at 0 (a
     reset clock; [src.(0)] is always [0], the reference clock);
   - [src.(k) = -1]: no constraint at all beyond [x_k >= 0] (a freed
     clock, as after [free]).
   A source clock no target takes is dropped: projected away.  [frees]
   is the number of logical [free] operations the map stands for; it
   feeds the [dbm.ops] counter only, next to one [reset] per [0]. *)
type remap = { src : int array; frees : int }

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

  val compact : bool
  (** [true] for a kernel that stores each zone over its location's live
      clocks only: {!Reach} then runs every pipeline at dimension
      1 + |live| and moves between locations with {!Scratch.remap}.
      [false] for a full-width kernel ({!Dbm_ref}, so that the int-vs-ref
      differential checks the compaction), whose zones keep a row for
      every logical clock.  It stores the cylinder of the compact
      zone — every clock outside the live set unconstrained — so the
      two kinds are differential-testable entry for entry: {!Reach}
      frees the dropped clocks in the location-change map, and frees
      them again after widening, since letting time pass advances a
      freed clock and widening may then leave bounds on it that the
      compact zone does not have.  A clock outside the live set carries
      no information: it is reset before it is next read. *)

  val dim : t -> int
  (** Number of clocks including the reference clock. *)

  val zero : int -> t
  (** All clocks equal to 0. *)

  val is_empty : t -> bool

  val get : t -> int -> int -> Dbm_bound.t
  (** [get z i j] is the bound on [x_i - x_j]. *)

  type lu
  (** A layout's timing tail, prepared for {!Scratch.settle}: its
      invariants and LU bounds, converted (and checked) once, applied
      on every pipeline that ends at a location with this layout. *)

  val prepare_lu :
    invs:(int * Dbm_bound.t) array ->
    lower:Tm_base.Rational.t option array ->
    upper:Tm_base.Rational.t option array ->
    lu
  (** The tail of a zone of [Array.length lower] clocks: the invariants
      [x - 0 <= b] ([<] if strict), one per [(x, b)] with [x >= 1], and
      LU bounds: entry [(i, j)] with constant [c] becomes [Inf] when
      [c > lower.(i)], else [Lt (-upper.(j))] when [c < -upper.(j)]
      (Behrmann–Bouyer–Larsen–Pelánek).  [lower.(x)] / [upper.(x)] are
      the largest constants appearing in lower-bound (resp. upper-bound)
      comparisons against clock [x]; [None] means no such comparison
      exists ([-inf]), which wipes the whole row/column — clock-activity
      reduction falls out for free.  Index [0] is the reference clock
      and must carry [Some 0].  Raises [Invalid_argument] on a
      clock out of range, and on a constant a kernel cannot hold. *)

  val sat : t -> int -> int -> Dbm_bound.t -> bool
  (** [sat z i j b]: is [z /\ (x_i - x_j <= b)] nonempty? *)

  val loose : t -> int
  (** Number of [Inf] entries — a cheap "largeness" proxy used to order
      waiting-list expansion (larger zones first subsume more). *)

  val equal : t -> t -> bool
  val hash : t -> int

  (** Bump arena for stored-zone payloads.  Zones frozen into an arena
      are slices of a shared chunk (grow-by-doubling, chunks large
      enough to be major-heap allocated), so storing a zone costs no
      minor-heap traffic beyond its small record.  An arena only grows:
      {!Reach} freezes stored zones alone into its one arena, and a
      full chunk stays alive through the zones pointing into it. *)
  module Arena : sig
    type arena

    val create : unit -> arena
  end

  (** Minimal-constraint form (Larsen et al., RTSS'97): the
      non-redundant subset of a canonical DBM's constraints, enough to
      reconstruct the exact matrix by re-closing.  {!Reach} interns
      each distinct stored matrix together with its form, reduced once
      from the scratch ({!Scratch.minimize}) when the matrix is first
      stored and shared by every later entry that stores the same
      matrix, so subsumption probes scan O(active constraints) instead
      of O(n²).  Construction is deterministic: the kept constraints
      are {!Dbm_min}'s, in its order, so equal matrices have
      structurally equal forms.  A checkpoint marshals [min] as it is,
      without its zone, which a resume rebuilds with {!zone}: changing
      [min]'s layout changes the snapshot format. *)
  module Min : sig
    type min

    val of_zone : t -> min
    (** On a kernel that counts [dbm.ops] ({!Dbm_int}), one
        [minimize] per nonempty zone. *)

    val subsumes : min -> t -> bool
    (** [subsumes m z]: does the zone [m] came from include [z]?
        Exact — the dense inclusion test on the zone [m] came from. *)

    val zone : min -> t
    (** The canonical zone [m] came from, [equal] to it with the same
        [hash], rebuilt by re-closing the kept constraints.  Counts no
        [dbm.ops]: a resume rebuilds zones its first leg counted.
        @raise Invalid_argument on the form of an empty zone. *)
  end

  (** Destructive operations on a reusable scratch matrix.  One scratch
      lives for a whole exploration; each edge loads a stored zone,
      applies the guard/reset/delay/invariant pipeline in place, and
      freezes the result only if it survives. *)
  module Scratch : sig
    type scratch

    val create : int -> scratch
    (** [create n] allocates a scratch matrix for zones of up to [n]
        clocks. *)

    val load : scratch -> t -> unit
    (** Make a persistent zone the scratch's zone; the scratch takes
        the zone's dimension.  {!Dbm_int} copies nothing here: until
        the first write the scratch reads the zone in place.  A
        [constrain] that tightens and [settle] copy it in first, and
        [remap] builds its target from it, so the zone itself never
        changes.  Every read-only op, and [freeze_into], works on the
        zone where it is. *)

    val remap : scratch -> remap -> unit
    (** Move the scratch zone to the clocks of [remap]'s target (see
        {!Dbm_sig.remap}) in one pass: kept clocks copy, reset clocks
        take clock 0's row and column, freed clocks lose every bound,
        dropped clocks go.  A canonical zone stays canonical, and an
        empty one empty.  The scratch takes the target's dimension, and
        [dbm.ops] counts the logical resets and frees of the map. *)

    val constrain : scratch -> int -> int -> Dbm_bound.t -> unit

    val settle : lu -> scratch -> unit
    (** The end of every successor pipeline, in place: let time elapse
        ([up]), intersect with each invariant of [lu] ([constrain x 0 b]
        in turn), then widen with [lu]'s LU bounds ([extrapolate_lu]).
        The result is the zone of that sequence of {!Dbm_ref}'s
        persistent ops, and [dbm.ops] counts that sequence's ops: one
        [up], one [constrain] per invariant, one [extrapolate], and one
        [canonicalize] when the widening changed a nonempty zone.
        {!Dbm_int} re-closes only the entries the widening loosened,
        the only ones that can close tighter; the [canonicalize] count
        is the logical op's, whatever that closure had to do. *)

    val is_empty : scratch -> bool

    val sat : scratch -> int -> int -> Dbm_bound.t -> bool
    (** Satisfiability of one extra constraint, without mutating. *)

    val subsumed_by : scratch -> Min.min -> bool
    (** [subsumed_by s m] is [Min.subsumes m z] for the zone [z]
        [freeze_into] would make of [s], read in place, so a successor
        that a stored zone covers is dropped before it is hashed,
        interned or frozen.  Same verdict and the same [dbm.ops] count
        as [Min.subsumes]. *)

    val minimize : scratch -> Min.min
    (** [Min.of_zone] of the zone [freeze_into] would make of [s], read
        in place with work arrays the scratch owns, so the minimal form
        is all it allocates.  Same result and the same [dbm.ops] count
        as [Min.of_zone]. *)

    val hash : scratch -> int
    (** The hash [freeze_into] 's result would have — same formula as
        the persistent [hash], computed over the scratch in place. *)

    val equal_zone : scratch -> t -> bool
    (** Would [freeze_into] 's result be [equal] to this stored zone?
        Compared in place, no allocation. *)

    val freeze_into : ?hash:int -> Arena.arena -> scratch -> t
    (** Snapshot the scratch as a persistent zone, its payload copied
        into the arena.  When the scratch is still byte-equal to the
        zone it was loaded from, returns that original (already
        interned) zone instead of copying.  [?hash] seeds the zone's
        hash memo when the caller already computed {!hash}. *)
  end
end
