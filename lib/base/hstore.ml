(* Open addressing with linear probing over two int arrays: [slots]
   maps a slot to the id stored there ([-1] when empty), [hashes] to
   that key's caller hash, so a probe compares ints first and calls
   [equal] only on a full hash match, and growing rehashes without
   calling [hash] again.  Keys are never removed, so a probe stops at
   the first empty slot.  The table is at most half full. *)
type 'k t = {
  equal : 'k -> 'k -> bool;
  hash : 'k -> int;
  mutable slots : int array;
  mutable hashes : int array;
  mutable keys : 'k array;
  mutable count : int;
  owner : int;  (* Domain.id of the creating domain *)
}

(* Stores are single-domain by design: each zone search builds its own
   tables on the domain it runs on (margin's pooled searches run on
   several) instead of locking a shared one.  Every operation asserts
   ownership so a cross-domain access fails loudly (naming both
   domains) instead of corrupting the table. *)
let check_owner t =
  let d = (Domain.self () :> int) in
  if d <> t.owner then
    invalid_arg
      (Printf.sprintf
         "Hstore: store owned by domain %d used from domain %d (stores are \
          single-domain; create one per domain)"
         t.owner d)

let create ~equal ~hash n =
  let cap = ref 16 in
  while !cap < n do
    cap := 2 * !cap
  done;
  {
    equal;
    hash;
    slots = Array.make !cap (-1);
    hashes = Array.make !cap 0;
    keys = [||];
    count = 0;
    owner = (Domain.self () :> int);
  }

let length t = t.count

(* The home slot of a hash: a multiplicative mix, so that hashes that
   differ only in their high bits, or small consecutive ints, still
   spread over the low bits the mask keeps. *)
let home h mask =
  let h = h * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land mask

(* The slot holding a key with hash [h] that [eq] accepts, or the empty
   slot where such a key would go. *)
let probe t h eq =
  let slots = t.slots and hashes = t.hashes in
  let mask = Array.length slots - 1 in
  let i = ref (home h mask) in
  while
    let id = slots.(!i) in
    id >= 0 && not (hashes.(!i) = h && eq t.keys.(id))
  do
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let slots = t.slots and hashes = t.hashes in
  let cap = 2 * Array.length slots in
  let mask = cap - 1 in
  let nslots = Array.make cap (-1) and nhashes = Array.make cap 0 in
  for i = 0 to Array.length slots - 1 do
    let id = slots.(i) in
    if id >= 0 then begin
      let h = hashes.(i) in
      let j = ref (home h mask) in
      while nslots.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      nslots.(!j) <- id;
      nhashes.(!j) <- h
    end
  done;
  t.slots <- nslots;
  t.hashes <- nhashes

(* Store [k] under hash [h] in the empty slot [i] found by [probe]. *)
let insert t i h k =
  let id = t.count in
  let cap = Array.length t.keys in
  if id >= cap then begin
    let keys = Array.make (if cap = 0 then 16 else cap * 2) k in
    Array.blit t.keys 0 keys 0 cap;
    t.keys <- keys
  end;
  t.keys.(id) <- k;
  t.slots.(i) <- id;
  t.hashes.(i) <- h;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then grow t;
  id

let find t k =
  check_owner t;
  let i = probe t (t.hash k) (t.equal k) in
  let id = t.slots.(i) in
  if id < 0 then None else Some id

let add t k =
  check_owner t;
  let h = t.hash k in
  let i = probe t h (t.equal k) in
  let id = t.slots.(i) in
  if id >= 0 then `Present id else `Added (insert t i h k)

let intern t k =
  match add t k with `Added _ -> k | `Present id -> t.keys.(id)

(* Probe-in-place interning: the candidate key lives in a mutable
   scratch buffer, so hashing and equality run against the buffer
   directly and the immutable key is only materialized (via [freeze])
   on a genuine miss.  The caller promises [t.hash (freeze ()) = hash]
   and [equal k <=> t.equal (freeze ()) k] — the differential harness
   checks both ways. *)
let intern_scratch t ~hash ~equal ~freeze =
  check_owner t;
  let i = probe t hash equal in
  let id = t.slots.(i) in
  if id >= 0 then `Hit t.keys.(id)
  else
    let k = freeze () in
    ignore (insert t i hash k);
    `Miss k

let key_of_id t id =
  if id < 0 || id >= t.count then invalid_arg "Hstore.key_of_id";
  t.keys.(id)

let iter f t =
  for id = 0 to t.count - 1 do
    f id t.keys.(id)
  done

let to_list t =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    acc := t.keys.(id) :: !acc
  done;
  !acc
