(** Reference DBM kernel — the original copy-everything implementation
    over exact rationals, retained solely as the oracle for the
    differential test/bench harness against the packed-int
    {!Dbm_int}.  Production code should
    never use this module directly; go through {!Reach} (or {!Reach.Ref}
    for the reference engine). *)

include Dbm_sig.S
