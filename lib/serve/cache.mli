(** Content-addressed verdict cache.

    Verdicts are memoized under the job's {e fingerprint} — the exact
    string [Tm_zones.Reach] embeds in its checkpoints (kernel, widening
    mode, boundmap, condition), extended by the catalog for margin and
    simulation jobs — so a duplicate request is answered in O(1)
    without touching the pool, and the answer is byte-identical to a
    fresh computation by construction: the cache stores the rendered
    verdict JSON itself.

    With a [dir], entries also persist as {!Tm_recover.Snapshot} files
    named by {!digest}: atomically written, CRC-checksummed, carrying
    the full fingerprint.  A daemon killed with [kill -9] and restarted
    therefore recovers every verdict it ever computed; a torn or
    corrupt entry reads as a miss (and is deleted), never as a wrong
    answer, and a digest collision is detected by comparing the stored
    fingerprint and also reads as a miss.  The envelope carries the
    verdict payload's own version, not the zone checkpoint format's, so
    a build with a new checkpoint format still reads every verdict an
    older one cached. *)

type t

val create : ?dir:string -> unit -> t
(** In-memory cache; with [dir] (created if missing) entries are also
    written through to disk and faulted back in on miss. *)

val digest : string -> string
(** Stable, filesystem-safe name for a fingerprint.  Not
    collision-free — {!find} re-checks the full fingerprint — just
    collision-unlikely. *)

val find : t -> fingerprint:string -> string option
(** The cached verdict document, if any.  Counts [serve.cache_hit] /
    [serve.cache_miss]. *)

val store : t -> fingerprint:string -> string -> unit
(** Memoize (and persist, when backed by a directory).  Counts
    [serve.cache_store].  I/O failures degrade to memory-only — the
    daemon never dies because the cache disk filled up. *)

val size : t -> int
(** Entries currently held in memory. *)
