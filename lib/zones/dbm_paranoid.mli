(** Self-checking DBM kernel: {!Dbm_int} arithmetic, with every [k]-th
    successor pipeline re-executed on {!Dbm_ref} and compared.

    Zones, arenas and minimal-constraint forms are exactly
    {!Dbm_int}'s ([type t = Dbm_int.t]), and like it the kernel is
    scratch-only: the persistent algebra it is checked against is
    {!Dbm_ref}'s.  Unlike {!Dbm_int} the kernel is full-width
    ([compact = false]): it stores the cylinders {!Dbm_ref} stores, so
    both halves of a checked pipeline run the same clock maps.  Its
    verdicts and zone counts are the int engine's — the self-check is
    pure overhead, never a behaviour change.  The sampling period comes from
    [Tm_recover.Paranoid.every]; each {!Dbm_sig.S.Scratch} arena counts
    its own pipeline loads, so under a pool every domain samples
    independently.

    On any divergence the kernel records [recover.selfcheck_mismatch]
    and raises [Tm_recover.Paranoid.Mismatch]; {!Reach.Paranoid}
    catches it and degrades the run to the reference engine. *)

include Dbm_sig.S with type t = Dbm_int.t
