(** Versioned, checksummed, atomically written snapshot blobs.

    A snapshot is an opaque payload (produced by the caller, typically
    with [Marshal]) wrapped in a self-describing envelope:

    - a fixed magic string and a format version, so stale or foreign
      files are rejected with a clear message instead of a marshal
      segfault;
    - a caller-supplied {e fingerprint} identifying the job the payload
      belongs to (engine kernel, entry point, automaton shape, bounds);
      {!read} hands it back so the caller can refuse to resume the
      wrong job;
    - a short human-readable {e info} string (progress so far) that can
      be shown without decoding the payload;
    - a CRC-32 of the fingerprint, info and payload together, so a torn
      or bit-flipped file fails loudly rather than resuming from
      garbage (or posing as a different job).

    Writes are atomic: the envelope is written to a fresh temporary
    file in the destination directory, fsynced, and renamed over the
    target, so a concurrent reader always sees either the old snapshot,
    the new one, or no file — never a partial write. *)

exception Bad_snapshot of string
(** Raised by {!read}/{!inspect} on any malformed snapshot: missing or
    truncated file, wrong magic, unsupported version, checksum
    mismatch.  The message says which check failed.  A bad snapshot
    never yields a payload, so it can never yield a wrong verdict. *)

val format_version : int
(** The version of the zone engine's checkpoint payload, the default
    [version] below.  A payload of another kind changes layout on its
    own schedule and passes its own version — the daemon's verdict
    cache does — so a checkpoint format change leaves its files
    readable. *)

val write :
  ?version:int -> path:string -> fingerprint:string -> info:string -> bytes ->
  unit
(** Atomically (re)write the snapshot at [path], its envelope stamped
    with the payload's [version] (default {!format_version}).
    Increments the [recover.snapshot_written] counter. *)

val read : ?version:int -> string -> string * string * bytes
(** [read path] is [(fingerprint, info, payload)] after full envelope
    validation, which refuses an envelope stamped with any version but
    [version] (default {!format_version}).
    @raise Bad_snapshot when any validation fails. *)

val inspect : string -> string * string
(** [(fingerprint, info)] of a checkpoint, with the same validation as
    {!read} at {!format_version} — used to route a [--resume] file to
    the right job without decoding the payload. *)

val crc32 : bytes -> int
(** IEEE CRC-32 (the zlib/PNG polynomial), exposed for tests. *)

val sweep_temps : string -> int
(** Remove orphaned snapshot temp files ([.tmckpt*.tmp]) left in [dir]
    by a crash between the temp write and the publishing rename, and
    return how many were removed.  Temp files are never adopted as
    snapshots — this is hygiene for long-lived state directories, run
    by the serve daemon on startup.  A missing/unreadable directory is
    0, not an error. *)

(** Injectable write faults — tests only.  {!write} consults these on
    every call; both default to off and {!For_testing.reset} restores
    that. *)
module For_testing : sig
  val truncate_write_to : int option ref
  (** Persist only the first [n] bytes of the envelope (a short write
      the kernel never reported): the published file must then read as
      {!Bad_snapshot}, never as a snapshot. *)

  val fail_before_rename : exn option ref
  (** Raise this exception after the temp file is written but before
      the rename publishes it (ENOSPC at fsync, media failure): the
      temp must be unlinked and a pre-existing snapshot at the target
      path left untouched. *)

  val reset : unit -> unit
end
