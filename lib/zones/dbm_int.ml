(* Integer DBM kernel — the production kernel: an unboxed flat
   [int array] with the strictness packed in the low bit.

   Every job reaches this kernel with integer constants: {!Reach.Make}
   multiplies a rational job's boundmap and condition bounds by the LCM
   of their denominators first (a change of time unit, which preserves
   verdicts and the zone graph), so margin's mediant probes run here
   too.  A bound is packed as

     Lt c  ->  2c          Le c  ->  2c + 1          Inf  ->  max_int

   which makes the tightness order ([Lt c < Le c < Inf]) the native
   integer order, bound addition two adds and a mask, and the whole
   Scratch pipeline allocation-free.  Feeding a non-integer bound to
   [constrain]/[sat]/[prepare_lu] is a scaling bug, never a truncation:
   it raises [Invalid_argument] so the differential wall notices
   immediately.  Overflow is excluded up front by {!headroom}.

   The kernel is scratch-only: a zone is born as [zero] and changes
   only in a {!Scratch}, through the ops {!Reach} runs.  Every scratch
   op must land on the zone the persistent op of the exact-rational
   reference kernel {!Dbm_ref} computes; test/test_dbm_diff.ml checks
   that after every op of random scripts, run here scaled to integers
   and divided back. *)

module Rational = Tm_base.Rational
module Metrics = Tm_obs.Metrics

let op name = Metrics.counter "dbm.ops" ~labels:[ ("op", name) ]
let c_canonicalize = op "canonicalize"
let c_constrain = op "constrain"
let c_up = op "up"
let c_reset = op "reset"
let c_free = op "free"
let c_extrapolate = op "extrapolate"
let c_sat = op "sat"
let c_minimize = op "minimize"
let c_min_subsumes = op "min_subsumes"

(* Packed bounds.  No operation below checks for overflow; {!headroom}
   bounds the constants so that none can occur. *)
let inf = max_int
let le_zero = 1 (* Le 0 *)

let pack = function
  | Dbm_bound.Inf -> inf
  | Dbm_bound.Le q ->
      if q.Rational.den <> 1 then
        invalid_arg "Dbm_int: non-integer bound (kernel misdispatched)";
      (q.Rational.num lsl 1) lor 1
  | Dbm_bound.Lt q ->
      if q.Rational.den <> 1 then
        invalid_arg "Dbm_int: non-integer bound (kernel misdispatched)";
      q.Rational.num lsl 1

let unpack p =
  if p = inf then Dbm_bound.Inf
  else if p land 1 = 1 then Dbm_bound.Le (Rational.of_int (p asr 1))
  else Dbm_bound.Lt (Rational.of_int (p asr 1))

(* Le x + Le y keeps the weak bit; any strict operand clears it:
   (2x+1) + (2y+1) - 1 = 2(x+y) + 1, and with a strict operand the
   subtracted [(a lor b) land 1] is exactly the surviving weak bit.
   Inlined: it is the inner step of every closure and reduction loop,
   and ocamlopt without flambda would otherwise call it. *)
let[@inline] bnd_add a b =
  if a = inf || b = inf then inf else a + b - ((a lor b) land 1)

(* Does the bound admit 0?  Le 0 = 1, Lt 0 = 0, so the test is a sign
   check — this is why the weak bit lives in the LOW bit. *)
let bnd_neg_ok p = p > 0

(* [off] is the start of this zone's n*n slice inside [m]: arena zones
   share one large chunk array, heap zones own an exactly-sized array
   at offset 0. *)
type t = { n : int; m : int array; off : int; empty : bool; mutable hmemo : int }

let name = "int"
let compact = true

(* Headroom.  Every finite entry of a stored zone lies in [-c, c] for
   the job's max constant [c] (guards, invariants, resets to 0 and LU
   clamps never exceed it), and a canonical entry of a [dim]-clock
   zone is a shortest path over fewer than [dim] such edges, so its
   magnitude is below [dim * c].  Closure adds two entries before
   comparing, and packing doubles: every intermediate value stays
   within [4 * dim * c + 1].  Requiring [c <= max_int / (4 * dim)]
   keeps all of it inside the native range, below the [Inf] sentinel. *)
let headroom = Some (fun dim -> max_int / (4 * max 1 dim))
let dim z = z.n
let get z i j = unpack z.m.(z.off + (i * z.n) + j)
let is_empty z = z.empty
let mk n m empty = { n; m; off = 0; empty; hmemo = min_int }

(* Payload copies are typed [int array] loops, never [Array.blit] /
   [Array.sub]: those do not know the elements are immediate, so into
   a major-heap destination (arena chunks, scratches, any matrix over
   256 words) they pay a write barrier per word. *)
let copy_words (src : int array) soff (dst : int array) doff len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst (doff + k) (Array.unsafe_get src (soff + k))
  done

let sub_words src off len =
  let dst = Array.make len inf in
  copy_words src off dst 0 len;
  dst

(* ------------------------------------------------------------------ *)
(* In-place core.                                                     *)

(* Close a matrix none of whose cycles is negative: Floyd–Warshall,
   which cannot empty the zone and checks nothing for it.  Only
   {!Min.zone} runs it, when a resume rebuilds the stored zones; the
   successor tail closes just the entries widening loosened
   ({!close_listed}). *)
let close_arr n m =
  for k = 0 to n - 1 do
    let rowk = k * n in
    for i = 0 to n - 1 do
      let rowi = i * n in
      let ik = m.(rowi + k) in
      if ik <> inf then
        for j = 0 to n - 1 do
          let kj = m.(rowk + j) in
          if kj <> inf then begin
            let via = bnd_add ik kj in
            if via < m.(rowi + j) then m.(rowi + j) <- via
          end
        done
    done
  done

(* [b] is a genuinely tightening bound, hence finite — so [via] below
   is finite too and the branchless blend only has to mask the
   [jy = inf] wrap-around: packing makes tightness native int order,
   so "keep the min" is a select. *)
let tighten_arr n m i j b =
  let rowj = j * n in
  for x = 0 to n - 1 do
    let x_to_i = m.((x * n) + i) in
    if x_to_i <> inf then begin
      let via = bnd_add x_to_i b in
      let rowx = x * n in
      for y = 0 to n - 1 do
        let jy = Array.unsafe_get m (rowj + y) in
        let cur = Array.unsafe_get m (rowx + y) in
        let cand = via + jy - ((via lor jy) land 1) in
        let take = Bool.to_int (jy <> inf) land Bool.to_int (cand < cur) in
        let mask = -take in
        Array.unsafe_set m (rowx + y) ((cand land mask) lor (cur land lnot mask))
      done
    end
  done

let unsat_with n m off i j b =
  not (bnd_neg_ok (bnd_add b m.(off + (j * n) + i)))

(* LU relaxation on packed entries: entry (i, j) with constant c goes
   to Inf when c > L_i, else to Lt (-U_j) when c < -U_j; a [None] bound
   is -inf and wipes unconditionally.  Comparisons are on the constant
   only (strictness does not matter), exactly as in {!Dbm_ref}, so on
   integral inputs both kernels extrapolate to the same zone.  The
   per-clock thresholds are hoisted into int rows up front:
   [lceil.(i) = L_i] (a [None] lower bound is -inf, encoded [min_int]
   so every constant exceeds it) and [nuc.(j) = -U_j] ([None] upper
   encoded [max_int], meaning wipe).  Jobs are scaled to integers
   before they get here, so a non-integer bound is a scaling bug: like
   [pack], raise rather than round. *)
let lu_thresholds n lower upper =
  let bound q =
    if not (Rational.is_integer q) then
      invalid_arg "Dbm_int.prepare_lu: non-integer LU bound";
    q.Rational.num
  in
  let lceil = Array.make n min_int in
  let nuc = Array.make n max_int in
  for k = 0 to n - 1 do
    (match lower.(k) with None -> () | Some l -> lceil.(k) <- bound l);
    match upper.(k) with None -> () | Some u -> nuc.(k) <- -bound u
  done;
  (lceil, nuc)

(* The rule for one packed entry [p] at (i, j), [i <> j], with
   [li = lceil.(i)] and [nu = nuc.(j)]. *)
let[@inline] widen li nu p =
  if p = inf then inf
  else
    let c = p asr 1 in
    if c > li || nu = max_int then inf else if c < nu then nu lsl 1 else p

(* Wipe row [i]: every off-diagonal entry becomes [Inf], as widening
   does to the row of a clock with no lower bound.  [true] iff an entry
   of columns [1..] was finite.  Column 0 still holds its value from
   before [up], so it is not looked at: the caller judges the new one,
   [col i], itself. *)
let wipe_row n m i =
  let row = i * n in
  let had = ref false in
  Array.unsafe_set m row inf;
  for j = 1 to n - 1 do
    if j <> i then begin
      if Array.unsafe_get m (row + j) <> inf then had := true;
      Array.unsafe_set m (row + j) inf
    end
  done;
  !had

(* [min_x m(row + x) + b_x] over the invariants: the shortest way from
   the row's clock to clock 0 through one invariant edge. *)
let[@inline] col m row ix ib =
  let c = ref inf in
  for e = 0 to Array.length ix - 1 do
    let v =
      bnd_add (Array.unsafe_get m (row + Array.unsafe_get ix e))
        (Array.unsafe_get ib e)
    in
    if v < !c then c := v
  done;
  !c

(* A listed entry is one word: its row offset above [col_bits] bits of
   column.  Both fit while [n <= 2 ^ col_bits]: the row offset is below
   [n * n <= 2 ^ 40], so the word stays below [2 ^ 60]. *)
let col_bits = 20
let col_mask = (1 lsl col_bits) - 1

(* Close a matrix whose entries are shortest paths except the [nw]
   entries listed in [w].  Floyd–Warshall that relaxes only the listed
   entries: an entry outside the list is a shortest path already, so it
   neither changes nor needs to, and the relaxation order keeps
   Floyd–Warshall's invariant for the listed ones.  Pivot 0 is skipped:
   LU widening loosens (i, 0) whenever it loosens (i, j) to [Inf], and
   (0, j) whenever it loosens (i, j) to [Lt (-U_j)], so the path through
   clock 0 is never shorter than a listed entry (test_dbm_diff's
   "settle: pivot 0 never tightens a widened entry").  O(n * |w|). *)
let close_listed n m w nw =
  for k = 1 to n - 1 do
    let rowk = k * n in
    for e = 0 to nw - 1 do
      let x = Array.unsafe_get w e in
      let rowi = x lsr col_bits and j = x land col_mask in
      let ik = Array.unsafe_get m (rowi + k)
      and kj = Array.unsafe_get m (rowk + j) in
      if ik <> inf && kj <> inf then begin
        let via = ik + kj - ((ik lor kj) land 1) in
        if via < Array.unsafe_get m (rowi + j) then
          Array.unsafe_set m (rowi + j) via
      end
    done
  done

(* List entry (row offset [row], column [j]) at word [nw] of [w]; the
   next free word. *)
let[@inline] listed w nw row j =
  Array.unsafe_set w nw ((row lsl col_bits) lor j);
  nw + 1

(* [up], the invariants [x - 0 <= b] ([ix.(e)], packed [ib.(e)]), LU
   widening and the closure after it, of a canonical nonempty zone, in
   place.  After [up] column 0 is [Inf] below row 0, and every
   invariant edge ends at clock 0, so a shortest path uses at most one
   of them: row [i]'s new entry against clock 0 is
   [col i = min_x m(i,x) + b_x], and entry (i, j) becomes
   [min m(i,j) (col i + m(0,j))].  Row 0 keeps its entries, and the
   zone is empty iff [col 0 < Le 0], a negative cycle through clock 0.
   LU widening is entry-wise, so each entry is widened as soon as its
   final value is known; row 0 is widened last, after every other row
   has read it.

   The matrix before widening is canonical, so widening leaves every
   entry it does not loosen a shortest path, and only the loosened ones
   can close tighter.  Those are listed in [w], one word each and at
   most [n * (n - 1)] of them, and closed by {!close_listed}.  A row whose
   lower bound is [None] is wiped whatever it holds, and a wiped row
   cannot be tightened again (no path leaves it), so its entries are
   not listed; nor is it tightened first: it changes iff [col i] or an
   entry of the old row is finite, which is only worked out while no
   other change is known.  When an entry changed, the closure counts
   one [canonicalize], the logical op of {!Dbm_ref}'s [extrapolate_lu]
   followed by a closure.  [true] iff the zone is empty (the matrix is
   then left as it was). *)
let settle_arr n m ix ib lceil nuc w =
  if not (bnd_neg_ok (col m 0 ix ib)) then true
  else begin
    (* [wiped]: a wiped row changed; [nw]: entries listed in [w] so far *)
    let wiped = ref false and nw = ref 0 in
    for i = 1 to n - 1 do
      let row = i * n and li = Array.unsafe_get lceil i in
      if li = min_int then begin
        if (not !wiped) && !nw = 0 && col m row ix ib <> inf then
          wiped := true;
        if wipe_row n m i then wiped := true
      end
      else begin
        let ci = col m row ix ib in
        (* [up] left [Inf] at (i, 0), and [Le 0] is at (0, 0) *)
        let w0 = widen li (Array.unsafe_get nuc 0) ci in
        if w0 <> ci then nw := listed w !nw row 0;
        Array.unsafe_set m row w0;
        for j = 1 to n - 1 do
          if j <> i then begin
            let cur = Array.unsafe_get m (row + j) in
            let via = bnd_add ci (Array.unsafe_get m j) in
            let p = if via < cur then via else cur in
            let wp = widen li (Array.unsafe_get nuc j) p in
            if wp <> p then nw := listed w !nw row j;
            Array.unsafe_set m (row + j) wp
          end
        done
      end
    done;
    let l0 = Array.unsafe_get lceil 0 in
    for j = 1 to n - 1 do
      let p = Array.unsafe_get m j in
      let wp = widen l0 (Array.unsafe_get nuc j) p in
      if wp <> p then begin
        nw := listed w !nw 0 j;
        Array.unsafe_set m j wp
      end
    done;
    if !wiped || !nw > 0 then begin
      Metrics.incr c_canonicalize;
      close_listed n m w !nw
    end;
    false
  end

(* ------------------------------------------------------------------ *)
(* Zones.                                                             *)

let zero n =
  if n < 1 then invalid_arg "Dbm_int.zero";
  mk n (Array.make (n * n) le_zero) false

(* A layout's tail for [Scratch.settle]: the invariants as clock
   indices [ix] and packed bounds [ib], and the LU thresholds.  Every
   constant is checked here, once per layout, not on every edge. *)
type lu = { ix : int array; ib : int array; lceil : int array; nuc : int array }

let prepare_lu ~invs ~lower ~upper =
  let n = Array.length lower in
  let lceil, nuc = lu_thresholds n lower upper in
  let ix =
    Array.map
      (fun (x, _) ->
        if x < 1 || x >= n then invalid_arg "Dbm_int.prepare_lu: clock";
        x)
      invs
  in
  let ib =
    Array.map
      (fun (_, b) ->
        match b with
        | Dbm_bound.(Le q | Lt q) when not (Rational.is_integer q) ->
            invalid_arg "Dbm_int.prepare_lu: non-integer invariant"
        | b -> pack b)
      invs
  in
  { ix; ib; lceil; nuc }

let sat z i j b =
  Metrics.incr c_sat;
  if i < 0 || i >= z.n || j < 0 || j >= z.n then invalid_arg "Dbm_int.sat";
  (not z.empty) && not (unsat_with z.n z.m z.off i j (pack b))

let loose z =
  if z.empty then 0
  else begin
    let acc = ref 0 in
    for k = z.off to z.off + (z.n * z.n) - 1 do
      if z.m.(k) = inf then incr acc
    done;
    !acc
  end

(* One hash recurrence for persistent zones and in-place scratches;
   [Scratch.hash] must match the frozen zone's memo exactly or the
   hash-consed store misses duplicates. *)
let hash_arr n m off =
  let h = ref n in
  for k = off to off + (n * n) - 1 do
    let p = m.(k) in
    h := (!h * 31) + if p = inf then 7 else p
  done;
  if !h = min_int then min_int + 1 else !h

(* Memoized structural hash over the packed entries: the
   cost is once per distinct zone and [min_int] is the "uncomputed"
   sentinel (shifted if the fold lands on it). *)
let hash z =
  if z.empty then 0
  else if z.hmemo <> min_int then z.hmemo
  else begin
    let h = hash_arr z.n z.m z.off in
    z.hmemo <- h;
    h
  end

let equal a b =
  a == b
  || a.n = b.n && a.empty = b.empty
     && (a.empty
        || (a.hmemo = min_int || b.hmemo = min_int || a.hmemo = b.hmemo)
           &&
           let len = a.n * a.n in
           let ao = a.off and bo = b.off in
           let k = ref 0 in
           let eq = ref true in
           while !eq && !k < len do
             if a.m.(ao + !k) <> b.m.(bo + !k) then eq := false;
             incr k
           done;
           !eq)

(* ------------------------------------------------------------------ *)
(* Arena: bump allocation for stored-zone payloads.  Chunks start at
   512 words so they land on the major heap directly — freezing a zone
   into the arena costs no minor-heap words beyond its record.  When
   the current chunk is full, the arena starts a fresh one, twice the
   size of the last but at most [arena_chunk_max] words, and leaves the
   old one to the zones already pointing into it.  The cap bounds the
   slack: a fresh chunk is written in full when it is made, so an
   uncapped doubled chunk, mostly empty at the end of a run, would
   commit up to half the payload again in pages nobody reads.  The cap
   is 2^17 words (1 MB): on verify -S fischer -n 5 it gave the lowest
   peak RSS of the caps 2^14 .. 2^18.  A zone larger than the cap gets
   a chunk of its own size. *)

let arena_chunk_min = 512
let arena_chunk_max = 1 lsl 17

module Arena = struct
  type arena = { mutable buf : int array; mutable pos : int }

  let create () = { buf = [||]; pos = 0 }

  let alloc a size =
    if a.pos + size > Array.length a.buf then begin
      let grown = min arena_chunk_max (2 * Array.length a.buf) in
      a.buf <- Array.make (max size (max grown arena_chunk_min)) inf;
      a.pos <- 0
    end;
    let off = a.pos in
    a.pos <- a.pos + size;
    (a.buf, off)
end

(* ------------------------------------------------------------------ *)
(* Minimal-constraint form: the {!Dbm_min} reduction hand-specialized
   to packed ints so the waiting/passed-list subsumption probe is a
   tight loop over one int array — no closures, no boxing.  Same
   class-cycle + representative-edge construction, in the same
   deterministic order, so [equal] is structural here too.             *)

module Min = struct
  (* [mc] holds the kept constraints as (index, bound) pairs: constraint
     [e]'s row-major offset [i * mn + j] at [2e] and its packed bound at
     [2e + 1], so a probe reads one block per stored zone. *)
  type min = { mn : int; mempty : bool; mc : int array }

  (* The reduction's work arrays, for zones of up to [Array.length rep]
     clocks: [rep.(i)] is clock [i]'s class representative, and [out]
     collects the kept (index, bound) pairs, at most [n * n] of them. *)
  type work = { rep : int array; out : int array }

  let work n = { rep = Array.make n 0; out = Array.make (2 * n * n) 0 }

  (* Keep entry [ij] of the zone at offset [o] of [m] as pair [e / 2]
     of [out]; the next pair's position. *)
  let[@inline] keep out e m o ij =
    out.(e) <- ij;
    out.(e + 1) <- m.(o + ij);
    e + 2

  (* The minimal form of the [n]-clock zone at offset [o] of [m]
     ([empty] if it is empty), built in [w] and copied out: the result
     is all it allocates.  Both {!of_zone} and {!Scratch.minimize} are
     this loop, and count one [minimize] per nonempty zone. *)
  let reduce w n m o empty =
    if empty then { mn = n; mempty = true; mc = [||] }
    else begin
      Metrics.incr c_minimize;
      let rep = w.rep and out = w.out in
      (* Zero-equivalence: the 2-cycle adds up to exactly Le 0 = 1.
         Transitivity lets [i] be compared with earlier
         representatives only. *)
      rep.(0) <- 0;
      for i = 1 to n - 1 do
        let rowi = o + (i * n) in
        let j = ref 0 in
        while
          !j < i
          && not
               (rep.(!j) = !j
               && bnd_add m.(o + (!j * n) + i) m.(rowi + !j) = le_zero)
        do
          incr j
        done;
        rep.(i) <- (if !j < i then !j else i)
      done;
      let e = ref 0 in
      (* Class cycles first, classes in representative order, members
         ascending: a class of [s >= 2] clocks keeps its [s]-edge
         cycle. *)
      for c = 0 to n - 1 do
        if rep.(c) = c then begin
          let prev = ref c in
          for i = c + 1 to n - 1 do
            if rep.(i) = c then begin
              e := keep out !e m o ((!prev * n) + i);
              prev := i
            end
          done;
          if !prev <> c then e := keep out !e m o ((!prev * n) + c)
        end
      done;
      (* Then the non-redundant representative edges, row-major. *)
      for i = 0 to n - 1 do
        let rowi = o + (i * n) in
        if rep.(i) = i then
          for j = 0 to n - 1 do
            let b = m.(rowi + j) in
            if j <> i && b <> inf && rep.(j) = j then begin
              let k = ref 0 in
              while
                !k < n
                && (rep.(!k) <> !k || !k = i || !k = j
                   || bnd_add m.(rowi + !k) m.(o + (!k * n) + j) > b)
              do
                incr k
              done;
              if !k = n then e := keep out !e m o ((i * n) + j)
            end
          done
      done;
      { mn = n; mempty = false; mc = sub_words out 0 !e }
    end

  let of_zone z = reduce (work z.n) z.n z.m z.off z.empty

  (* Does the zone [mn] was reduced from include the [n]-clock zone at
     offset [o] of [m] ([empty] if it is empty)?  Checking the kept
     constraints suffices: every reconstructed entry is a path sum of
     kept bounds, and a canonical zone satisfies the triangle
     inequality along that path.  Both {!subsumes} and
     {!Scratch.subsumed_by} are this loop, and count one
     [min_subsumes]. *)
  let covers mn n m o empty =
    Metrics.incr c_min_subsumes;
    if mn.mempty then empty
    else if empty then true
    else begin
      if n <> mn.mn then invalid_arg "Dbm_int.Min.subsumes";
      let mc = mn.mc in
      let ne = Array.length mc in
      let e = ref 0 in
      while
        !e < ne
        && m.(o + Array.unsafe_get mc !e) <= Array.unsafe_get mc (!e + 1)
      do
        e := !e + 2
      done;
      !e >= ne
    end

  let subsumes mn z = covers mn z.n z.m z.off z.empty

  (* The kept constraints over an unconstrained skeleton, closed: the
     canonical zone [mn] was reduced from. *)
  let zone mn =
    if mn.mempty then invalid_arg "Dbm_int.Min.zone: empty form";
    let n = mn.mn and mc = mn.mc in
    let m = Array.make (n * n) inf in
    for i = 0 to n - 1 do
      m.((i * n) + i) <- le_zero
    done;
    for e = 0 to (Array.length mc / 2) - 1 do
      m.(mc.(2 * e)) <- mc.((2 * e) + 1)
    done;
    close_arr n m;
    mk n m false
end

(* ------------------------------------------------------------------ *)
(* Scratch: allocation-free between [load] and [freeze_into].  [ssrc]
   remembers the zone last loaded so a no-op pipeline freezes to the
   already-interned original.                                          *)

module Scratch = struct
  (* The current zone is the [sn * sn] words at offset [co] of [cm], row
     stride [sn].  [load] copies nothing: [cm] is the loaded zone's own
     slice until the first write, which takes the zone into [sm]
     (offset 0) — {!own}, or [remap], which builds its target in [sbuf]
     and swaps the two.  Stored zones are never written, so reading one
     in place is safe.  Outside [remap], [sbuf] holds nothing: [settle]
     lists the entries widening loosened there.  [swork] is
     [minimize]'s workspace. *)
  type scratch = {
    cap : int;  (** largest dimension the buffers hold *)
    mutable sn : int;
    mutable sm : int array;
    mutable sbuf : int array;
    mutable cm : int array;
    mutable co : int;
    mutable sempty : bool;
    mutable ssrc : t option;
    swork : Min.work;
  }

  let create n =
    if n < 1 || n > 1 lsl col_bits then invalid_arg "Dbm_int.Scratch.create";
    let sm = Array.make (n * n) inf in
    {
      cap = n;
      sn = n;
      sm;
      sbuf = Array.make (n * n) inf;
      cm = sm;
      co = 0;
      sempty = true;
      ssrc = None;
      swork = Min.work n;
    }

  let load s z =
    if z.n > s.cap then invalid_arg "Dbm_int.Scratch.load";
    s.sn <- z.n;
    s.cm <- z.m;
    s.co <- z.off;
    s.sempty <- z.empty;
    s.ssrc <- Some z

  (* Make the current zone the scratch's own before writing to it. *)
  let own s =
    if s.cm != s.sm then begin
      copy_words s.cm s.co s.sm 0 (s.sn * s.sn);
      s.cm <- s.sm;
      s.co <- 0
    end

  let is_empty s = s.sempty

  let constrain s i j b =
    Metrics.incr c_constrain;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm_int.Scratch.constrain";
    let b = pack b in
    if (not s.sempty) && b < s.cm.(s.co + (i * s.sn) + j) then
      if unsat_with s.sn s.cm s.co i j b then s.sempty <- true
      else begin
        own s;
        tighten_arr s.sn s.sm i j b
      end

  (* Target entry (k, l) is source entry (src k, src l): a reset clock
     reads clock 0's row and column, as {!Dbm_ref.reset} does.  A freed
     target row is [Inf] and a freed target column copies the row's
     entry against clock 0, as {!Dbm_ref.free} does.  Every diagonal is
     [Le 0].  The source is read where it is, so a loaded zone is
     copied once, as the target. *)
  let remap s (r : Dbm_sig.remap) =
    let src = r.Dbm_sig.src in
    let n = s.sn and n' = Array.length src in
    if n' < 1 || n' > s.cap || src.(0) <> 0 then
      invalid_arg "Dbm_int.Scratch.remap";
    for k = 1 to n' - 1 do
      let sk = src.(k) in
      if sk < -1 || sk >= n then invalid_arg "Dbm_int.Scratch.remap";
      if sk = 0 then Metrics.incr c_reset
    done;
    Metrics.add c_free r.Dbm_sig.frees;
    let d = s.sbuf in
    if not s.sempty then begin
      let m = s.cm and o = s.co in
      for k = 0 to n' - 1 do
        let sk = Array.unsafe_get src k in
        let row = k * n' in
        if sk < 0 then
          for l = 0 to n' - 1 do
            Array.unsafe_set d (row + l) inf
          done
        else begin
          let srow = o + (sk * n) in
          for l = 0 to n' - 1 do
            let sl = Array.unsafe_get src l in
            Array.unsafe_set d (row + l)
              (Array.unsafe_get m (srow + if sl < 0 then 0 else sl))
          done
        end;
        Array.unsafe_set d (row + k) le_zero
      done
    end;
    s.sbuf <- s.sm;
    s.sm <- d;
    s.cm <- d;
    s.co <- 0;
    s.sn <- n'

  let settle lu s =
    Metrics.incr c_up;
    Metrics.add c_constrain (Array.length lu.ix);
    Metrics.incr c_extrapolate;
    if Array.length lu.lceil <> s.sn then invalid_arg "Dbm_int.Scratch.settle";
    if not s.sempty then begin
      own s;
      if settle_arr s.sn s.sm lu.ix lu.ib lu.lceil lu.nuc s.sbuf then
        s.sempty <- true
    end

  let sat s i j b =
    Metrics.incr c_sat;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm_int.Scratch.sat";
    (not s.sempty) && not (unsat_with s.sn s.cm s.co i j (pack b))

  (* Is the current zone (structurally) [z]?  Empty zones match on the
     flag alone — their entries are never read. *)
  let equal_zone s z =
    s.sn = z.n && s.sempty = z.empty
    && (s.sempty
       || (s.cm == z.m && s.co = z.off)
       ||
       let len = s.sn * s.sn in
       let m = s.cm and o = s.co and zo = z.off in
       let k = ref 0 in
       let eq = ref true in
       while !eq && !k < len do
         if m.(o + !k) <> z.m.(zo + !k) then eq := false;
         incr k
       done;
       !eq)

  let subsumed_by s mn = Min.covers mn s.sn s.cm s.co s.sempty
  let minimize s = Min.reduce s.swork s.sn s.cm s.co s.sempty
  let hash s = if s.sempty then 0 else hash_arr s.sn s.cm s.co

  (* A scratch still (structurally) the zone it was loaded from freezes
     to that original. *)
  let freeze_into ?hash a s =
    match s.ssrc with
    | Some z when equal_zone s z -> z
    | _ ->
        let len = s.sn * s.sn in
        if s.sempty then mk s.sn (sub_words s.cm s.co len) true
        else begin
          let buf, off = Arena.alloc a len in
          copy_words s.cm s.co buf off len;
          let hmemo = match hash with Some h -> h | None -> min_int in
          { n = s.sn; m = buf; off; empty = false; hmemo }
        end
end
