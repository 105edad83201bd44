(** Polymorphic hash store with caller-supplied equality and hashing.

    Automaton states come from arbitrary OCaml types whose structural
    equality/hash functions are carried in the automaton record rather
    than derived from the type, so [Hashtbl.Make] does not apply.  This
    store is an open-addressed table over the caller hash (linear
    probing; each slot keeps the id and the full hash, so a probe calls
    the caller equality only on a full hash match); each key is
    assigned a dense integer id on first insertion (ids are handy as
    graph-node indices).

    A store belongs to the domain that created it: {!find}, {!add} and
    {!intern} raise [Invalid_argument] (naming the owning and the
    calling domain) when used from another domain.  Parallel callers —
    the zone searches a margin report fans out over domains, each with
    its own tables — create one store per domain rather than sharing
    one. *)

type 'k t

val create : equal:('k -> 'k -> bool) -> hash:('k -> int) -> int -> 'k t
(** [create ~equal ~hash initial_size]. *)

val length : 'k t -> int

val find : 'k t -> 'k -> int option
(** The id of a previously added key. *)

val add : 'k t -> 'k -> [ `Added of int | `Present of int ]
(** Insert a key; returns its fresh id, or the existing id. *)

val intern : 'k t -> 'k -> 'k
(** [intern t k] is the canonical representative of [k]: the stored key
    equal to [k] if one exists (so callers can rely on physical
    equality of interned values), otherwise [k] itself after adding it.
    This is what makes hash-consing work: two structurally equal zones
    interned through the same store are the same pointer. *)

val intern_scratch :
  'k t ->
  hash:int ->
  equal:('k -> bool) ->
  freeze:(unit -> 'k) ->
  [ `Hit of 'k | `Miss of 'k ]
(** Copy-on-intern: probe the store for a key still sitting in a
    mutable scratch buffer without materializing it.  [hash] is the
    hash the frozen key would have; [equal k] compares the scratch
    contents against a stored key [k]; [freeze] is called only on a
    miss to build the immutable key that is then added under [hash].
    [`Hit k] returns the stored representative (no allocation);
    [`Miss k] returns the freshly frozen-and-added key.  The caller
    must guarantee [t.hash (freeze ()) = hash] and that [equal]
    agrees with [t.equal] on the frozen key. *)

val key_of_id : 'k t -> int -> 'k
(** @raise Invalid_argument if the id was never assigned. *)

val iter : (int -> 'k -> unit) -> 'k t -> unit
(** Iterates in id order. *)

val to_list : 'k t -> 'k list
(** Keys in id order. *)
