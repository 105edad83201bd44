(** Zone-graph reachability for boundmap timed automata, with
    timing-condition monitors.

    This is the classic MMT-automaton encoding into a (diagonal-free)
    clock automaton: one clock per partition class, reset whenever the
    class fires or becomes (re-)enabled; an action of class [C] is
    guarded by [x_C >= b_l(C)]; every location carries the invariant
    [x_C <= b_u(C)] for each enabled class.  Zones are explored as
    DBMs with extrapolation and inclusion subsumption — exact
    verification, no time discretization.

    {b Widening.}  Zones are widened with LU-bound extrapolation: each
    clock carries the largest constant it is compared against from
    below (its guard constant [b_l]) and from above (its invariant
    constant [b_u], plus the inverted condition-probe constants for the
    observer clock), and entries beyond those per-clock bounds are
    discarded.  LU is coarser than the classic max-constant widening —
    the zone graph is smaller, often dramatically so on systems like
    fischer — while verdicts are unchanged, because the per-clock
    bounds dominate every constraint and probe the engine evaluates.  A
    clock compared against nothing on a side is unbounded there, which
    erases inactive clocks from zones entirely (clock-activity
    reduction).  Every zone, initial or successor, passes through one
    successor pipeline that ends in this widening, whatever the kernel,
    so [zones.stored] stays kernel-independent.  LU is the only widening: there is no
    max-constant fallback mode.  Its soundness is checked independently
    of this engine by the Alur–Dill region construction ({!Region}),
    which test/ runs against the zone verdicts.  The checkpoint
    fingerprint carries the constant field [widen=lu], kept so that
    existing fingerprints and snapshots stay valid.

    {b Live clocks.}  A zone is stored over its location's live clocks
    only: the reference clock, the clocks of the classes enabled there,
    and the observer clock while it is armed.  A dead clock carries no
    information.  A disabled class's bounds do not constrain it
    (Defs 2.1/2.2 bound a class only while it is enabled), and its
    clock is reset when the class is next enabled, before any guard or
    invariant reads it; the observer clock is freed whenever the
    observer disarms and reset when it arms.  So the zone over the live
    clocks determines everything the exploration can observe (Daws &
    Yovine, RTSS'96, in its dynamic per-location form).  On the
    production kernel the whole successor pipeline runs at dimension
    1 + |live|, and a location change is one kernel [remap]: kept
    clocks copy, newly enabled and firing clocks start at 0, disabled
    ones drop.  In fischer n=5 that is at most 7 of 27 rows.  The
    reference kernel stays full-width and stores the cylinder — the
    same zone with every dead clock unconstrained — so the int-vs-ref
    differential also checks the compaction; the waiting list orders a
    batch by the cylinder's [Inf] count on both, so both expand it in
    the same order.  Layouts, with their LU bounds and invariants, are
    built once per live set.  The fingerprint keeps the logical clock
    count.

    {b State and location tables.}  The discrete part of a location —
    its actions, successor states, enabled classes and so its layout —
    depends on the automaton state only.  The engine keeps one record
    per state, built when it first meets the state: it calls [delta]
    once per action there and never again, so [delta] runs at most
    once per (state, action).  Locations are numbered in the order they store their
    first zone and kept in an array indexed by that number, so the
    per-edge path indexes records instead of hashing states.

    A timing condition is checked by an observer with one extra clock
    [y], armed by the condition's triggers and disarmed by [Π]-actions
    and [S]-states:
    - a reachable armed zone admitting [y > b_u] witnesses an
      upper-bound violation;
    - a [Π]-transition from an armed zone admitting [y < b_l] (with no
      intervening disarm) witnesses a lower-bound violation.
    A violation carries the stats of the search at the witness, which
    are deterministic.

    Supported condition shapes: a trigger step that fires while the
    observer is already armed must itself be a [Π]-action (then the
    observer re-arms); other overlapping-trigger shapes would need the
    paper's [min] merge of deadlines and are reported as
    [Unsupported].  Both example systems and all conditions in this
    repository are of the supported shape.

    {b Kernels and time-unit scaling.}  The engine is a functor over
    the DBM kernel ({!Dbm_sig.S}).  The production engine runs on the
    packed-int {!Dbm_int}; {!Ref} runs the identical exploration on the
    exact-rational reference {!Dbm_ref}.  Because the two share every
    policy decision (subsumption-aware waiting list bucketed by
    discrete location, largest-zone-first expansion, hash-consed zone
    store), their [stats] agree exactly — the differential harness in
    test/ and bench/ checks this.  {!Paranoid} adds no kernel: it runs
    the production exploration and checks each verdict afterwards, a
    positive one through its certificate ({!Certificate}).

    The int kernel holds integer constants only, so every job it runs
    is first scaled: all boundmap endpoints and condition bounds are
    multiplied by [k], the LCM of their denominators.  A common change
    of time unit maps timed executions one to one, so verdicts,
    [stats] and every zone counter are unchanged (the zone graph scales
    with its LU bounds and max constant; Alur & Dill 1994).  An
    integral job has [k = 1] and runs unscaled.  Scaling uses checked
    arithmetic, and a job whose scaled max constant exceeds the
    kernel's headroom ([max_int / (4 * DBM dimension)]) is refused with
    [Invalid_argument] naming the scale and the constant; there is no
    fallback kernel.  {!Ref} never scales, so every int-vs-ref
    comparison also checks the scaling.

    {b Checkpointing.}  Every entry point can write a checkpoint — a
    versioned, checksummed, atomically replaced snapshot
    ([Tm_recover.Snapshot], format version 3) of the search's own
    tables — and resume from one.  The snapshot is the hash-consing
    zone store's records (one per distinct stored matrix), in id order,
    and each location's stored and waiting entries, which point at
    those records; it is marshaled in one call, which keeps that
    sharing.  A record is written as its minimal form alone: the
    matrix is the form's closure, rebuilt at resume
    ({!Dbm_sig.S.Min.zone}), so no matrix and no arena chunk reaches
    the file.  Snapshots are taken only at batch boundaries, where the
    frontier is self-contained.  A resume re-interns every record in
    id order — the store's whole key set, matrices whose entries were
    all pruned included — so the
    resumed run replays the identical sequence of stores, hash-consing
    hits and reductions: verdict, reachable set (as a set), every
    [zones.*] counter, and [dbm.ops{op=minimize}] summed over both
    legs, all equal the uninterrupted run.  A file of another format
    version, version 2 included, is refused.  Resuming requires the
    same kernel, entry point, automaton and bounds — a job fingerprint
    embedded in the snapshot is checked before any state is trusted,
    and automaton states must be marshalable (no closures).  The
    fingerprint is built from the caller's unscaled bounds, so a job
    and its scaled copy never share a checkpoint. *)

type stats = {
  locations : int;  (** distinct (state, observer-phase) pairs *)
  zones : int;  (** zones stored after subsumption *)
  edges : int;  (** symbolic transitions processed *)
}

type exhausted = {
  reason : string;  (** which budget ran out, human-readable *)
  partial : stats;  (** how far the search got before exhaustion *)
  checkpoint : string option;
      (** final snapshot written on the way out, when checkpointing was
          enabled — resume from here to keep the partial work *)
}

type outcome =
  | Verified of stats
  | Lower_violation of stats
  | Upper_violation of stats
  | Unknown of exhausted
      (** The search exhausted its zone or wall-clock budget (or was
          interrupted) before reaching a fixpoint — neither a proof nor
          a refutation.  Exhaustion is never reported as [Verified]. *)
  | Unsupported of string

exception Open_system of string
(** Raised when the automaton has input actions (the encoding needs a
    closed system) or a locally controlled action without bounds. *)

exception Out_of_budget of exhausted
(** Raised by the adapters {!S.reachable} and {!S.check_state_invariant}
    alone, when a budget is exhausted before the fixpoint. *)

(** A state invariant (Lemma 4.1) or a timing condition (Def 3.1): both
    are proved by one inductive invariant, the stored zones. *)
type ('s, 'a) property = ('s, 'a) Certificate.property =
  | Invariant of ('s -> bool)
  | Condition of ('s, 'a) Tm_timed.Condition.t

(** What a zone engine offers, whatever its kernel.  The CLI selects an
    engine as a first-class module of this type.

    Every entry point takes a graceful-degradation budget: [limit]
    bounds stored zones (default [1_000_000]) and [deadline_s] bounds
    wall-clock seconds.  Running out of either yields an {!exhausted}
    carrying partial {!stats} — [Unknown] from [check], {!Out_of_budget}
    from two of its adapters — rather than a truncated (unsound)
    verdict.
    The zone budget acts at batch boundaries (so a run can finish at
    most one location batch beyond [limit], and a completed fixpoint is
    reported [Verified] only when it stayed within [limit]); it is
    deterministic and agrees exactly across kernels.
    On [~resume], an explicit [limit] counts the zones stored {e after}
    the restored point (the exhaustion reason prints the absolute bound
    [restored + limit]); the default [1_000_000] stays absolute.
    The wall-clock deadline is probed before every successor pipeline,
    so one expensive pipeline cannot overshoot it by more than a single
    zone expansion — but which zone it stops at, necessarily, is not
    deterministic.

    [?checkpoint:(path, every)] snapshots the frontier to [path] after
    every [every] newly stored zones ([every <= 0]: only final
    snapshots), and always on budget exhaustion or a cooperative
    interrupt ([Tm_recover.Supervisor]) — the resulting
    {!exhausted.checkpoint} tells the caller where.  A checkpoint left
    behind by a run that then answers — a fixpoint, a refutation, a
    violated invariant or an unsupported shape — is removed.
    [?resume:path]
    restores a snapshot instead of seeding from the initial states and
    continues the fixpoint exactly; it raises
    [Tm_recover.Snapshot.Bad_snapshot] on a corrupt, truncated,
    wrong-version or wrong-job file — a bad snapshot can never produce
    a wrong verdict. *)
module type S = sig
  val check :
    ?limit:int -> ?deadline_s:float -> ?checkpoint:string * int ->
    ?resume:string -> ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t ->
    ('s, 'a) property list -> (outcome, 's) result
  (** Exact verification that every timed execution of [(A, b)] has
      every property of the list, in one search, under one verdict
      convention: [Ok (Verified _)] proves them all; [Error s] is a
      state reachable under timing that violates one of the invariants;
      [Ok (Lower_violation _ | Upper_violation _)] refutes the
      condition; [Ok (Unknown _)] is an exhausted budget or an
      interrupt; [Ok (Unsupported _)] a condition shape the observer
      does not handle.  A budget raises nothing.

      {b Shared search.}  The list names at most one condition, whose
      observer the search runs; each invariant is an extra test on
      every stored (state, zone).  The observer never blocks a step, so
      the condition's search stores a zone at every state an
      invariant's own search reaches (every execution of [time(A, U)]
      projects onto one of [A], Lemmas 3.2/3.3): at the fixpoint the
      invariants hold everywhere, and [Verified]'s stats are the
      condition's own.  A search the condition stops (a refutation,
      [Unsupported]) says nothing of the invariants, and one an
      invariant stops says nothing of the condition.  A one-element
      list is exactly that property's own search, fingerprint included.
      @raise Invalid_argument on an empty list or two conditions. *)

  (** The adapters below are [check] under the conventions of callers
      that predate it (the perfbench probe, bench/, tests).  Each
      ignores [?domains]: zone search is sequential. *)

  val reachable :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> stats * 's list
  (** [check] of the trivial invariant under its own span and
      fingerprint kind: the stats and the base states reachable under
      timing, in the order each first stored a zone (after a resume
      too).  @raise Out_of_budget when a budget is exhausted. *)

  val check_state_invariant :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> ('s -> bool) ->
    (stats, 's) result
  (** [check] of an [Invariant].
      @raise Out_of_budget when a budget is exhausted. *)

  val check_condition :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t ->
    ('s, 'a) Tm_timed.Condition.t -> outcome
  (** [check] of a [Condition], [Unknown] included. *)

  val fingerprint :
    ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> ('s, 'a) property list ->
    string
  (** The job fingerprint [check] embeds in its checkpoints; the CLI
      routes a [--resume] file and the daemon keys its cache by it.  Its
      [kind] names every property in list order, joined by ["+"]
      (["invariant+condition:U_enter:[2, 3]"]), so a shared search's
      snapshot is never resumed as one of its properties' own. *)

  val fingerprint_reachable :
    ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t -> string
  (** The same for {!reachable}. *)
end

module Make (K : Dbm_sig.S) : S
(** Build an engine from a kernel; both engines below come from this
    functor, so they share one exploration discipline.  Jobs are
    scaled to integers exactly when the kernel declares a
    {!Dbm_sig.S.headroom}. *)

module Auto : S
(** The production engine and the CLI's default: {!Make} over the
    packed-int {!Dbm_int}, every job scaled to integers first (see
    {i Kernels and time-unit scaling} above).  Fingerprints read
    [kernel=int]. *)

module Ref : S
(** The same exploration, unscaled, on the exact-rational {!Dbm_ref}
    reference kernel — for the differential test/bench harness and for
    cross-checking a suspicious verdict. *)

module Paranoid : S
(** {!Auto}'s exploration, its verdict checked after the fact.  It
    implements [check] alone, and the int verdict decides the check.  A
    proof of every property of the list is checked by one
    {!Certificate.check} on its certificate: the
    stored zones, an inductive invariant — each location in id order,
    each zone lifted to the logical clocks live there, unscaled, in
    minimal constraints — read off the location table after the search
    ([recover.selfcheck_total] counts the zones).  A refutation is
    confirmed by a fresh {!Ref} run: an [equal_state] violating state
    for an invariant, the same outcome for a condition (counted once).
    [Unknown] and [Unsupported] claim nothing.  A failed check counts
    [recover.selfcheck_mismatch] and [recover.degraded], logs why, and
    answers with {!Ref}'s verdict.  [?deadline_s] bounds the whole
    call: the check and any {!Ref} run get what the exploration left of
    it, a {!Ref} run writes no checkpoint, and a check or confirming
    run the budget cuts short ends [Unknown], not a mismatch.
    Fingerprints read [kernel=int+cert]. *)

(** Test hooks, in the style of [Tm_recover.Snapshot.For_testing]. *)
module For_testing : sig
  val corrupt_certificate : bool ref
  (** While set, {!Paranoid} drops the zone the first start state seeded
      from every certificate before checking it. *)

  val reset : unit -> unit

  val certificate :
    [ `Int | `Ref ] -> ('s, 'a) Tm_ioa.Ioa.t -> Tm_timed.Boundmap.t ->
    ('s, 'a) property list -> 's Certificate.t option
  (** The certificate {!Auto} ([`Int]) or {!Ref} reads off its fixpoint
      after checking the properties in one search; [None] unless the
      verdict is positive. *)
end

include S
(** The production engine's ({!Auto}'s) operations, available
    unqualified. *)
