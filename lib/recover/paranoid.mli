(** Configuration for paranoid mode: a sampled in-flight self-check of
    the packed-int DBM kernel against the reference kernel.

    When {!set_every} is given [k > 0], the paranoid kernel
    ([Tm_zones.Dbm_paranoid]) re-executes every [k]-th successor-zone
    pipeline on the reference kernel and compares every observable
    result — emptiness, satisfiability probes, and the frozen zone,
    entry by entry.  A disagreement means the int kernel (or the
    memory under it) produced a corrupt zone; the kernel records a
    [recover.selfcheck_mismatch] and raises {!Mismatch}, and the
    paranoid engine ([Tm_zones.Reach.Paranoid]) degrades the whole run
    to the reference kernel rather than reporting a possibly corrupt
    verdict.

    This module only holds the knobs and the exception; it lives here
    (below [lib/zones]) so both the kernels and the CLI can share them
    without a dependency cycle. *)

exception Mismatch of string
(** The int and reference kernels disagreed on a checked pipeline.
    The message says which operation diverged. *)

val set_every : int -> unit
(** Check every [k]-th pipeline; [k <= 0] disables checking (the
    default).  [k = 1] checks everything. *)

val every : unit -> int

val set_corrupt : bool -> unit
(** Test hook: while set, the paranoid kernel deliberately corrupts
    the int result of each checked pipeline before comparing, so the
    tests can prove the self-check actually detects corruption.  Never
    set outside tests. *)

val corrupt : unit -> bool
