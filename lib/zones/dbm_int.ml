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
   subtracted [(a lor b) land 1] is exactly the surviving weak bit. *)
let bnd_add a b = if a = inf || b = inf then inf else a + b - ((a lor b) land 1)

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

(* Does row [k] have a finite off-diagonal entry?  A row that does not
   is dead: the clock of a disabled class after [free] on a full-width
   zone, or any row LU widening wiped — on a compact zone, the clock of
   an enabled class whose lower bound is 0, which no guard reads.  No
   path leaves a dead row, and no operation of the closure can give it
   a finite entry. *)
let row_live n m k =
  let rowk = k * n in
  let j = ref 0 in
  while !j < n && (!j = k || Array.unsafe_get m (rowk + !j) = inf) do
    incr j
  done;
  !j < n

(* Re-close a matrix that LU widening loosened.  Every entry is at
   least the canonical nonempty zone's it was widened from, so no cycle
   is negative: the closure cannot empty the zone, and checks nothing
   for it. *)
let canonicalize_arr n m =
  Metrics.incr c_canonicalize;
  (* Floyd–Warshall that does work in proportion to live rows.  A dead
     pivot [k] (see [row_live]) is skipped outright: every [k -> j] hop
     is [inf], so no path through [k] can tighten anything.  For a live
     pivot, the [i -> k] hop is hoisted out of the inner loop and a row
     with [m.(i,k) = inf] is skipped, which skips every dead row [i]
     too.  The cost is thus about (live rows)^2 * n plus an O(n)
     liveness scan per dead pivot, instead of (live rows) * n^2.
     Compaction already leaves out the disabled classes' rows, but in
     fischer most enabled classes have lower bound 0, so LU widening
     still wipes most rows of a compact zone.  This is the kernel's
     hottest loop, re-run after every per-edge extrapolation.

     The inner loop is branchless: packing makes tightness native int
     order, so "keep the min" is a select, expressed as masked blends
     flambda can keep in registers and unroll.  [via] wraps around
     when [kj = inf], but [take] is forced to 0 in exactly that case,
     so the blend writes back [cur] untouched.  Bounds are in range by
     construction ([rowi + j], [rowk + j] < n*n), hence the unsafe
     accesses. *)
  for k = 0 to n - 1 do
    let rowk = k * n in
    if row_live n m k then
      for i = 0 to n - 1 do
        let rowi = i * n in
        let ik = m.(rowi + k) in
        if ik <> inf && k <> i then
          for j = 0 to n - 1 do
            let kj = Array.unsafe_get m (rowk + j) in
            let cur = Array.unsafe_get m (rowi + j) in
            let via = ik + kj - ((ik lor kj) land 1) in
            let take = Bool.to_int (kj <> inf) land Bool.to_int (via < cur) in
            let mask = -take in
            Array.unsafe_set m (rowi + j)
              ((via land mask) lor (cur land lnot mask))
          done
      done
  done

(* [b] is a genuinely tightening bound, hence finite — so [via] below
   is finite too and the branchless blend only has to mask the
   [jy = inf] wrap-around, mirroring the closure loop. *)
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

(* Widen row [i] in place; [true] iff an entry changed. *)
let widen_row n m i lceil nuc =
  let row = i * n and li = Array.unsafe_get lceil i in
  let changed = ref false in
  for j = 0 to n - 1 do
    if j <> i then begin
      let p = Array.unsafe_get m (row + j) in
      let w = widen li (Array.unsafe_get nuc j) p in
      if w <> p then begin
        changed := true;
        Array.unsafe_set m (row + j) w
      end
    end
  done;
  !changed

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

(* [up], the invariants [x - 0 <= b] ([ix.(e)], packed [ib.(e)]) and
   LU widening of a canonical nonempty zone, in one sweep.  After [up]
   column 0 is [Inf] below row 0, and every invariant edge ends at clock
   0, so a shortest path uses at most one of them: row [i]'s new entry
   against clock 0 is [col i = min_x m(i,x) + b_x], and entry (i, j)
   becomes [min m(i,j) (col i + m(0,j))].  Row 0 keeps its entries, and
   the zone is empty iff [col 0 < Le 0], a negative cycle through clock
   0.  LU widening is entry-wise, so each entry is widened as soon as
   its final value is known; row 0 is widened last, after every other
   row has read it.  A row whose lower bound is [None] is wiped whatever
   it holds, so it is not tightened first: it changes iff [col i] or an
   entry of the old row is finite.  Returns [-1] when the zone is empty
   (the matrix is then left as it was), [1] when the widening changed
   an entry, so the caller must close again, and [0] otherwise. *)
let settle_arr n m ix ib lceil nuc =
  if not (bnd_neg_ok (col m 0 ix ib)) then -1
  else begin
    let changed = ref false in
    for i = 1 to n - 1 do
      let row = i * n and li = Array.unsafe_get lceil i in
      let ci = col m row ix ib in
      if li = min_int then begin
        if ci <> inf then changed := true;
        Array.unsafe_set m row inf;
        if widen_row n m i lceil nuc then changed := true
      end
      else begin
        (* [up] left [Inf] at (i, 0), and [Le 0] is at (0, 0) *)
        let w = widen li (Array.unsafe_get nuc 0) ci in
        if w <> ci then changed := true;
        Array.unsafe_set m row w;
        for j = 1 to n - 1 do
          if j <> i then begin
            let cur = Array.unsafe_get m (row + j) in
            let via = bnd_add ci (Array.unsafe_get m j) in
            let p = if via < cur then via else cur in
            let w = widen li (Array.unsafe_get nuc j) p in
            if w <> p then changed := true;
            Array.unsafe_set m (row + j) w
          end
        done
      end
    done;
    if widen_row n m 0 lceil nuc then changed := true;
    Bool.to_int !changed
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

let detach z =
  let len = z.n * z.n in
  if z.off = 0 && Array.length z.m = len then z
  else { z with m = sub_words z.m z.off len; off = 0 }

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

  (* Checkpoint format 2's layout: positions and bounds in two arrays. *)
  type stored = {
    smn : int;
    smempty : bool;
    sidx : int array;
    sbnd : int array;
  }

  let to_stored m =
    let half r =
      Array.init (Array.length m.mc / 2) (fun e -> m.mc.((2 * e) + r))
    in
    { smn = m.mn; smempty = m.mempty; sidx = half 0; sbnd = half 1 }

  let of_stored s =
    let pair p = (if p land 1 = 0 then s.sidx else s.sbnd).(p / 2) in
    let mc = Array.init (2 * Array.length s.sidx) pair in
    { mn = s.smn; mempty = s.smempty; mc }
end

(* ------------------------------------------------------------------ *)
(* Scratch: allocation-free between [load] and [freeze_into].  [ssrc]
   remembers the zone last loaded so a no-op pipeline freezes to the
   already-interned original.                                          *)

module Scratch = struct
  (* The current zone is the first [sn * sn] words of [sm], row stride
     [sn]; [remap] builds its target in [sbuf] and swaps the two.
     [swork] is [minimize]'s workspace. *)
  type scratch = {
    cap : int;  (** largest dimension the buffers hold *)
    mutable sn : int;
    mutable sm : int array;
    mutable sbuf : int array;
    mutable sempty : bool;
    mutable ssrc : t option;
    swork : Min.work;
  }

  let create n =
    if n < 1 then invalid_arg "Dbm_int.Scratch.create";
    {
      cap = n;
      sn = n;
      sm = Array.make (n * n) inf;
      sbuf = Array.make (n * n) inf;
      sempty = true;
      ssrc = None;
      swork = Min.work n;
    }

  let load s z =
    if z.n > s.cap then invalid_arg "Dbm_int.Scratch.load";
    s.sn <- z.n;
    copy_words z.m z.off s.sm 0 (z.n * z.n);
    s.sempty <- z.empty;
    s.ssrc <- Some z

  let is_empty s = s.sempty

  let constrain s i j b =
    Metrics.incr c_constrain;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm_int.Scratch.constrain";
    let b = pack b in
    if (not s.sempty) && b < s.sm.((i * s.sn) + j) then
      if unsat_with s.sn s.sm 0 i j b then s.sempty <- true
      else tighten_arr s.sn s.sm i j b

  (* Target entry (k, l) is source entry (src k, src l): a reset clock
     reads clock 0's row and column, as {!Dbm_ref.reset} does.  A freed
     target row is [Inf] and a freed target column copies the row's
     entry against clock 0, as {!Dbm_ref.free} does.  Every diagonal is
     [Le 0]. *)
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
    if not s.sempty then begin
      let m = s.sm and d = s.sbuf in
      for k = 0 to n' - 1 do
        let sk = Array.unsafe_get src k in
        let row = k * n' in
        if sk < 0 then
          for l = 0 to n' - 1 do
            Array.unsafe_set d (row + l) inf
          done
        else begin
          let srow = sk * n in
          for l = 0 to n' - 1 do
            let sl = Array.unsafe_get src l in
            Array.unsafe_set d (row + l)
              (Array.unsafe_get m (srow + if sl < 0 then 0 else sl))
          done
        end;
        Array.unsafe_set d (row + k) le_zero
      done;
      s.sm <- d;
      s.sbuf <- m
    end;
    s.sn <- n'

  let settle lu s =
    Metrics.incr c_up;
    Metrics.add c_constrain (Array.length lu.ix);
    Metrics.incr c_extrapolate;
    if Array.length lu.lceil <> s.sn then invalid_arg "Dbm_int.Scratch.settle";
    if not s.sempty then
      match settle_arr s.sn s.sm lu.ix lu.ib lu.lceil lu.nuc with
      | -1 -> s.sempty <- true
      | 0 -> ()
      | _ -> canonicalize_arr s.sn s.sm

  let sat s i j b =
    Metrics.incr c_sat;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm_int.Scratch.sat";
    (not s.sempty) && not (unsat_with s.sn s.sm 0 i j (pack b))

  (* Is the scratch still (structurally) the zone it was loaded from?
     Empty zones match on the flag alone — their entries are never
     read. *)
  let unchanged s =
    match s.ssrc with
    | None -> None
    | Some z ->
        if z.n <> s.sn || z.empty <> s.sempty then None
        else if s.sempty then Some z
        else begin
          let len = s.sn * s.sn in
          let zo = z.off in
          let k = ref 0 in
          let eq = ref true in
          while !eq && !k < len do
            if s.sm.(!k) <> z.m.(zo + !k) then eq := false;
            incr k
          done;
          if !eq then Some z else None
        end

  let subsumed_by s mn = Min.covers mn s.sn s.sm 0 s.sempty
  let minimize s = Min.reduce s.swork s.sn s.sm 0 s.sempty
  let hash s = if s.sempty then 0 else hash_arr s.sn s.sm 0

  let equal_zone s z =
    s.sn = z.n && s.sempty = z.empty
    && (s.sempty
       ||
       let len = s.sn * s.sn in
       let zo = z.off in
       let k = ref 0 in
       let eq = ref true in
       while !eq && !k < len do
         if s.sm.(!k) <> z.m.(zo + !k) then eq := false;
         incr k
       done;
       !eq)

  let freeze_into ?hash a s =
    match unchanged s with
    | Some z -> z
    | None ->
        let len = s.sn * s.sn in
        if s.sempty then mk s.sn (sub_words s.sm 0 len) true
        else begin
          let buf, off = Arena.alloc a len in
          copy_words s.sm 0 buf off len;
          let hmemo = match hash with Some h -> h | None -> min_int in
          { n = s.sn; m = buf; off; empty = false; hmemo }
        end
end
