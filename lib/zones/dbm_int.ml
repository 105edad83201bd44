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
   [constrain]/[sat]/[extrapolate_lu] is a scaling bug, never a
   truncation: it raises [Invalid_argument] so the differential wall
   notices immediately.  Overflow is excluded up front by {!headroom}.

   Every operation must land on the zone the exact-rational reference
   kernel {!Dbm_ref} computes; test/test_dbm_diff.ml checks that after
   every op of random scripts, run here scaled to integers and divided
   back. *)

module Rational = Tm_base.Rational
module Metrics = Tm_obs.Metrics

let op name = Metrics.counter "dbm.ops" ~labels:[ ("op", name) ]
let c_canonicalize = op "canonicalize"
let c_constrain = op "constrain"
let c_up = op "up"
let c_reset = op "reset"
let c_free = op "free"
let c_intersect = op "intersect"
let c_includes = op "includes"
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

let dup z = sub_words z.m z.off (z.n * z.n)

(* ------------------------------------------------------------------ *)
(* In-place core.                                                     *)

(* Does row [k] have a finite off-diagonal entry?  A row that does not
   is dead: the clock of a disabled class after [free], or any row LU
   widening wiped.  No path leaves a dead row, and no operation of the
   closure can give it a finite entry. *)
let row_live n m off k =
  let rowk = off + (k * n) in
  let j = ref 0 in
  while !j < n && (!j = k || Array.unsafe_get m (rowk + !j) = inf) do
    incr j
  done;
  !j < n

let canonicalize_arr n m =
  Metrics.incr c_canonicalize;
  (* Floyd–Warshall that does work in proportion to live rows.  A dead
     pivot [k] (see [row_live]) is skipped outright: every [k -> j] hop
     is [inf], so no path through [k] can tighten anything — only its
     own diagonal is checked, since a negative one still means empty.
     For a live pivot, the [i -> k] hop is hoisted out of the inner
     loop and a row with [m.(i,k) = inf] is skipped, which skips every
     dead row [i] too.  The cost is thus about (live rows)^2 * n plus an
     O(n) liveness scan per dead pivot, instead of (live rows) * n^2:
     in fischer n=5, 6 of the 26 rows are live.  This is the kernel's
     hottest loop, re-run after every per-edge extrapolation.

     The inner loop is branchless: packing makes tightness native int
     order, so "keep the min" is a select, expressed as masked blends
     flambda can keep in registers and unroll.  [via] wraps around
     when [kj = inf], but [take] is forced to 0 in exactly that case,
     so the blend writes back [cur] untouched.  Bounds are in range by
     construction ([rowi + j], [rowk + j] < n*n), hence the unsafe
     accesses. *)
  (try
     for k = 0 to n - 1 do
       let rowk = k * n in
       if not (row_live n m 0 k) then begin
         if m.(rowk + k) <= 0 then raise Exit
       end
       else
         for i = 0 to n - 1 do
           let rowi = i * n in
           let ik = m.(rowi + k) in
           if ik <> inf && k <> i then
             for j = 0 to n - 1 do
               let kj = Array.unsafe_get m (rowk + j) in
               let cur = Array.unsafe_get m (rowi + j) in
               let via = ik + kj - ((ik lor kj) land 1) in
               let take =
                 Bool.to_int (kj <> inf) land Bool.to_int (via < cur)
               in
               let mask = -take in
               Array.unsafe_set m (rowi + j)
                 ((via land mask) lor (cur land lnot mask))
             done;
           if m.(rowi + i) <= 0 then raise Exit
         done
     done
   with Exit -> m.(0) <- 0 (* Lt 0 *));
  not (bnd_neg_ok m.(0))

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

let up_arr n m =
  for i = 1 to n - 1 do
    m.(i * n) <- inf
  done

let reset_arr n m x =
  for j = 0 to n - 1 do
    if j <> x then begin
      m.((x * n) + j) <- m.(j);
      m.((j * n) + x) <- m.(j * n)
    end
  done;
  m.((x * n) + x) <- le_zero

let free_arr n m x =
  for j = 0 to n - 1 do
    if j <> x then begin
      m.((x * n) + j) <- inf;
      m.((j * n) + x) <- m.(j * n)
    end
  done

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
let lu_thresholds ~where n lower upper =
  let bound q =
    if not (Rational.is_integer q) then
      invalid_arg (Printf.sprintf "Dbm_int.%s: non-integer LU bound" where);
    q.Rational.num
  in
  let lceil = Array.make n min_int in
  let nuc = Array.make n max_int in
  for k = 0 to n - 1 do
    (match lower.(k) with None -> () | Some l -> lceil.(k) <- bound l);
    match upper.(k) with None -> () | Some u -> nuc.(k) <- -bound u
  done;
  (lceil, nuc)

let extrapolate_lu_packed n m lceil nuc =
  let changed = ref false in
  for i = 0 to n - 1 do
    let row = i * n in
    let li = lceil.(i) in
    for j = 0 to n - 1 do
      if i <> j then begin
        let p = m.(row + j) in
        if p <> inf then begin
          let c = p asr 1 in
          if c > li then begin
            m.(row + j) <- inf;
            changed := true
          end
          else begin
            let nu = nuc.(j) in
            if nu = max_int then begin
              m.(row + j) <- inf;
              changed := true
            end
            else if c < nu then begin
              m.(row + j) <- nu lsl 1;
              changed := true
            end
          end
        end
      end
    done
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Persistent API.                                                     *)

let zero n =
  if n < 1 then invalid_arg "Dbm_int.zero";
  mk n (Array.make (n * n) le_zero) false

let top n =
  if n < 1 then invalid_arg "Dbm_int.top";
  let m = Array.make (n * n) inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- le_zero;
    m.(i) <- le_zero
  done;
  mk n m false

let constrain z i j b =
  Metrics.incr c_constrain;
  if i < 0 || i >= z.n || j < 0 || j >= z.n then
    invalid_arg "Dbm_int.constrain";
  let b = pack b in
  if z.empty then z
  else if b >= z.m.(z.off + (i * z.n) + j) then z
  else if unsat_with z.n z.m z.off i j b then
    { n = z.n; m = z.m; off = z.off; empty = true; hmemo = 0 }
  else begin
    let m = dup z in
    tighten_arr z.n m i j b;
    mk z.n m false
  end

let up z =
  Metrics.incr c_up;
  if z.empty then z
  else begin
    let m = dup z in
    up_arr z.n m;
    mk z.n m false
  end

let reset z x =
  Metrics.incr c_reset;
  if x < 1 || x >= z.n then invalid_arg "Dbm_int.reset";
  if z.empty then z
  else begin
    let m = dup z in
    reset_arr z.n m x;
    mk z.n m false
  end

let free z x =
  Metrics.incr c_free;
  if x < 1 || x >= z.n then invalid_arg "Dbm_int.free";
  if z.empty then z
  else begin
    let m = dup z in
    free_arr z.n m x;
    mk z.n m false
  end

let includes big small =
  Metrics.incr c_includes;
  if big.n <> small.n then invalid_arg "Dbm_int.includes";
  if big == small then true
  else if small.empty then true
  else if big.empty then false
  else begin
    let len = big.n * big.n in
    let bo = big.off and so = small.off in
    let k = ref 0 in
    let ok = ref true in
    while !ok && !k < len do
      if small.m.(so + !k) > big.m.(bo + !k) then ok := false;
      incr k
    done;
    !ok
  end

let intersect a b =
  Metrics.incr c_intersect;
  if a.n <> b.n then invalid_arg "Dbm_int.intersect";
  if a == b then a
  else if a.empty then a
  else if b.empty then b
  else begin
    let m =
      Array.init (a.n * a.n) (fun k -> min a.m.(a.off + k) b.m.(b.off + k))
    in
    let empty = canonicalize_arr a.n m in
    mk a.n m empty
  end

let extrapolate_lu ~lower ~upper z =
  Metrics.incr c_extrapolate;
  if z.empty then z
  else begin
    let m = dup z in
    let lceil, nuc =
      lu_thresholds ~where:"extrapolate_lu" z.n lower upper
    in
    if not (extrapolate_lu_packed z.n m lceil nuc) then z
    else begin
      ignore (canonicalize_arr z.n m);
      mk z.n m false
    end
  end

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

let pp fmt z =
  if z.empty then Format.pp_print_string fmt "empty"
  else begin
    Format.fprintf fmt "@[<v>";
    for i = 0 to z.n - 1 do
      for j = 0 to z.n - 1 do
        Format.fprintf fmt "%a " Dbm_bound.pp (get z i j)
      done;
      Format.fprintf fmt "@,"
    done;
    Format.fprintf fmt "@]"
  end

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
   a chunk of its own size.  [reset] rewinds only the current chunk,
   which is exactly right for the per-domain speculative arenas
   (everything since the last reset is discarded or was copied out by
   the commit loop); the main arena never resets.                     *)

let arena_chunk_min = 512
let arena_chunk_max = 1 lsl 17

module Arena = struct
  type arena = { mutable buf : int array; mutable pos : int }

  let create () = { buf = [||]; pos = 0 }
  let reset a = a.pos <- 0

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

let copy_into a z =
  if z.empty then z
  else begin
    let len = z.n * z.n in
    let buf, off = Arena.alloc a len in
    copy_words z.m z.off buf off len;
    { n = z.n; m = buf; off; empty = false; hmemo = z.hmemo }
  end

(* ------------------------------------------------------------------ *)
(* Minimal-constraint form: the {!Dbm_min} reduction hand-specialized
   to packed ints so the waiting/passed-list subsumption probe is a
   tight loop over two int arrays — no closures, no boxing.  Same
   class-cycle + representative-edge construction, in the same
   deterministic order, so [equal] is structural here too.             *)

module Min = struct
  type min = { mn : int; mempty : bool; midx : int array; mbnd : int array }

  let of_zone z =
    if z.empty then { mn = z.n; mempty = true; midx = [||]; mbnd = [||] }
    else begin
      Metrics.incr c_minimize;
      let n = z.n and m = z.m and o = z.off in
      (* Zero-equivalence: the 2-cycle adds up to exactly Le 0 = 1. *)
      let rep = Array.init n (fun i -> i) in
      for i = 1 to n - 1 do
        let rowi = o + (i * n) in
        try
          for j = 0 to i - 1 do
            if rep.(j) = j && bnd_add m.(o + (j * n) + i) m.(rowi + j) = le_zero
            then begin
              rep.(i) <- j;
              raise Exit
            end
          done
        with Exit -> ()
      done;
      (* Live representatives.  Only their rows can hold a kept
         representative edge, and only they can make one redundant: a
         dead row [k] has [m(k, j) = inf] for every [j <> k]. *)
      let live = Array.make n 0 and nlive = ref 0 in
      for k = 0 to n - 1 do
        if rep.(k) = k && row_live n m o k then begin
          live.(!nlive) <- k;
          incr nlive
        end
      done;
      let nlive = !nlive in
      (* Mark the non-redundant representative edges. *)
      let kept = Bytes.make (n * n) '\000' and nkept = ref 0 in
      for a = 0 to nlive - 1 do
        let i = live.(a) in
        let rowi = o + (i * n) in
        for j = 0 to n - 1 do
          let b = m.(rowi + j) in
          if j <> i && b <> inf && rep.(j) = j then begin
            let redundant = ref false and c = ref 0 in
            while (not !redundant) && !c < nlive do
              let k = live.(!c) in
              if k <> i && k <> j
                 && bnd_add m.(rowi + k) m.(o + (k * n) + j) <= b
              then redundant := true;
              incr c
            done;
            if not !redundant then begin
              Bytes.unsafe_set kept ((i * n) + j) '\001';
              incr nkept
            end
          end
        done
      done;
      (* A class of [s >= 2] clocks keeps its [s]-edge cycle. *)
      let size = Array.make n 0 in
      Array.iter (fun c -> size.(c) <- size.(c) + 1) rep;
      let ncyc = ref 0 in
      Array.iter (fun s -> if s >= 2 then ncyc := !ncyc + s) size;
      let total = !ncyc + !nkept in
      let midx = Array.make total 0 and mbnd = Array.make total 0 in
      let e = ref 0 in
      let keep ij =
        midx.(!e) <- ij;
        mbnd.(!e) <- m.(o + ij);
        incr e
      in
      (* Class cycles first, classes in representative order, members
         ascending; then representative edges in row-major order. *)
      for c = 0 to n - 1 do
        if rep.(c) = c && size.(c) >= 2 then begin
          let prev = ref c in
          for i = c + 1 to n - 1 do
            if rep.(i) = c then begin
              keep ((!prev * n) + i);
              prev := i
            end
          done;
          keep ((!prev * n) + c)
        end
      done;
      for ij = 0 to (n * n) - 1 do
        if Bytes.unsafe_get kept ij <> '\000' then keep ij
      done;
      { mn = n; mempty = false; midx; mbnd }
    end

  let to_zone mn =
    if mn.mempty then
      { n = mn.mn; m = Array.make (mn.mn * mn.mn) inf; off = 0; empty = true;
        hmemo = 0 }
    else begin
      let n = mn.mn in
      let m = Array.make (n * n) inf in
      for i = 0 to n - 1 do
        m.((i * n) + i) <- le_zero
      done;
      Array.iteri (fun e ij -> m.(ij) <- mn.mbnd.(e)) mn.midx;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let via = bnd_add m.((i * n) + k) m.((k * n) + j) in
            if via < m.((i * n) + j) then m.((i * n) + j) <- via
          done
        done
      done;
      mk n m false
    end

  (* [subsumes mn z]: does the zone [mn] was reduced from include [z]?
     Checking the kept constraints suffices: every reconstructed entry
     is a path sum of kept bounds, and canonical [z] satisfies the
     triangle inequality along that path. *)
  let subsumes mn z =
    Metrics.incr c_min_subsumes;
    if mn.mempty then z.empty
    else if z.empty then true
    else begin
      if z.n <> mn.mn then invalid_arg "Dbm_int.Min.subsumes";
      let m = z.m and o = z.off in
      let midx = mn.midx and mbnd = mn.mbnd in
      let ne = Array.length midx in
      let ok = ref true in
      let e = ref 0 in
      while !ok && !e < ne do
        if m.(o + Array.unsafe_get midx !e) > Array.unsafe_get mbnd !e then
          ok := false;
        incr e
      done;
      !ok
    end

  let equal a b =
    a.mn = b.mn && a.mempty = b.mempty && a.midx = b.midx && a.mbnd = b.mbnd

  let count mn = Array.length mn.midx
end

(* ------------------------------------------------------------------ *)
(* Scratch: allocation-free between [load] and [freeze].  [ssrc]
   remembers the zone last loaded so a no-op pipeline freezes to the
   already-interned original.                                          *)

module Scratch = struct
  type scratch = {
    sn : int;
    sm : int array;
    mutable sempty : bool;
    mutable ssrc : t option;
    (* LU thresholds, cached under the physical identity of the bound
       arrays: an exploration extrapolates every pipeline with the same
       two arrays, so the rational-to-int conversion runs once per
       exploration instead of once per edge. *)
    mutable slu_lower : Rational.t option array;
    mutable slu_upper : Rational.t option array;
    mutable slu_lceil : int array;
    mutable slu_nuc : int array;
  }

  let create n =
    if n < 1 then invalid_arg "Dbm_int.Scratch.create";
    {
      sn = n;
      sm = Array.make (n * n) inf;
      sempty = true;
      ssrc = None;
      slu_lower = [||];
      slu_upper = [||];
      slu_lceil = [||];
      slu_nuc = [||];
    }

  let load s z =
    if s.sn <> z.n then invalid_arg "Dbm_int.Scratch.load";
    copy_words z.m z.off s.sm 0 (s.sn * s.sn);
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

  let up s =
    Metrics.incr c_up;
    if not s.sempty then up_arr s.sn s.sm

  let reset s x =
    Metrics.incr c_reset;
    if x < 1 || x >= s.sn then invalid_arg "Dbm_int.Scratch.reset";
    if not s.sempty then reset_arr s.sn s.sm x

  let free s x =
    Metrics.incr c_free;
    if x < 1 || x >= s.sn then invalid_arg "Dbm_int.Scratch.free";
    if not s.sempty then free_arr s.sn s.sm x

  let extrapolate_lu ~lower ~upper s =
    Metrics.incr c_extrapolate;
    if not s.sempty then begin
      if s.slu_lower != lower || s.slu_upper != upper then begin
        let lceil, nuc =
          lu_thresholds ~where:"Scratch.extrapolate_lu" s.sn lower upper
        in
        s.slu_lower <- lower;
        s.slu_upper <- upper;
        s.slu_lceil <- lceil;
        s.slu_nuc <- nuc
      end;
      if extrapolate_lu_packed s.sn s.sm s.slu_lceil s.slu_nuc then
        ignore (canonicalize_arr s.sn s.sm)
    end

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

  let freeze s =
    match unchanged s with
    | Some z -> z
    | None -> mk s.sn (sub_words s.sm 0 (s.sn * s.sn)) s.sempty

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
