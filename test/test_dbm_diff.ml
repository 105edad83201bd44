(* Differential harness for the DBM kernels.

   Every random operation script runs through the destructive
   [Scratch] API of the scratch-only packed-int kernel
   ({!Tm_zones.Dbm_int}) and through the persistent algebra of the
   exact-rational reference kernel ({!Tm_zones.Dbm_ref}), op for op,
   and both must produce identical canonical matrices, emptiness flags,
   [sat] verdicts and pairwise inclusion verdicts (the int kernel's
   [Min.subsumes] against the reference [includes]) after every single
   op.  The int scratch must also count exactly the [dbm.ops] of the
   script's literal op sequence.  Scripts have rational constants: the
   int kernel runs them scaled by the LCM of their denominators, and
   its matrices are divided back before the comparison.  Random
   location-change maps ([Scratch.remap]) after a script check that the
   int kernel's compact zone is the projection of the reference
   kernel's full-width cylinder.  Random boundmap automata with
   half-unit bounds then check the engines fixpoint for fixpoint:
   {!Tm_zones.Reach.Auto} (int kernel, scaled) and
   {!Tm_zones.Reach.Ref} (reference, unscaled) share one exploration
   discipline, so their stats and reachable state sets must agree
   exactly. *)

module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Bnd = Tm_zones.Dbm_bound
module Dbm_ref = Tm_zones.Dbm_ref
module Dbm_int = Tm_zones.Dbm_int
module Reach = Tm_zones.Reach
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module F = Tm_systems.Fischer

(* Normalize raw generated indices into valid kernel arguments for a
   zone of [n] clocks. *)
let norm_constraint n (c : Gen.dbm_constraint) =
  let i = c.ci mod n in
  let j = c.cj mod n in
  let j = if i = j then (j + 1) mod n else j in
  let q = Rational.make c.cnum c.cden in
  (i, j, if c.cstrict then Bnd.Lt q else Bnd.Le q)

let norm_clock n x = 1 + (x mod (n - 1))
let lu_bounds l = Array.of_list (List.map (Option.map Rational.of_int) l)
let norm_lu n l = lu_bounds (List.filteri (fun i _ -> i < n) l)

let norm_inv n (i : Gen.dbm_inv) =
  let q = Rational.make i.inum i.iden in
  (norm_clock n i.ix, if i.istrict then Bnd.Lt q else Bnd.Le q)

(* The clock map that resets ([0]) or frees ([-1]) clock [x] of an
   [n]-clock zone and keeps every other clock: how a scratch resets or
   frees one clock. *)
let one_clock n x v =
  {
    Tm_zones.Dbm_sig.src = Array.init n (fun k -> if k = x then v else k);
    frees = (if v < 0 then 1 else 0);
  }

(* The map of a [Gen.Remap] on an [n]-clock zone (see {!Gen.dbm_op}).
   It stands for one [free] per source clock no target keeps and per
   freed target clock. *)
let remap_of_codes n codes =
  let taken = Array.make n false in
  let src =
    List.map
      (fun c ->
        let j = (c mod (n + 1)) - 1 in
        if j < 1 then j
        else if taken.(j) then 0
        else begin
          taken.(j) <- true;
          j
        end)
      codes
  in
  let kept = Array.fold_left (fun k t -> if t then k + 1 else k) 0 taken in
  {
    Tm_zones.Dbm_sig.src = Array.of_list (0 :: src);
    frees = n - 1 - kept + List.length (List.filter (fun j -> j < 0) src);
  }

(* [top n] of a scratch-only kernel: [zero n] with every clock freed. *)
let scratch_top (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) n : z
    =
  let scr = K.Scratch.create n in
  K.Scratch.load scr (K.zero n);
  K.Scratch.remap scr
    {
      Tm_zones.Dbm_sig.src = Array.init n (fun k -> if k = 0 then 0 else -1);
      frees = n - 1;
    };
  K.Scratch.freeze_into (K.Arena.create ()) scr

(* The reference reading of [Scratch.settle]: [up], one
   [constrain x 0 b] per invariant, then [extrapolate_lu].  Also says
   whether the widening changed the zone, when the int kernel closes
   it again. *)
let settle_ref z invs lower upper =
  let z =
    List.fold_left
      (fun z (x, b) -> Dbm_ref.constrain z x 0 b)
      (Dbm_ref.up z) invs
  in
  let w = Dbm_ref.extrapolate_lu ~lower ~upper z in
  (w, w != z)

(* The [dbm.ops] counters a script touches, in this order. *)
let op_names =
  [ "canonicalize"; "constrain"; "up"; "reset"; "free"; "extrapolate"; "sat" ]

(* What a script's literal op sequence adds to each of [op_names]. *)
type ops = {
  mutable canonicalize : int;
  mutable constrain : int;
  mutable up : int;
  mutable reset : int;
  mutable free : int;
  mutable extrapolate : int;
  mutable sat : int;
}

let ops_list o =
  [ o.canonicalize; o.constrain; o.up; o.reset; o.free; o.extrapolate; o.sat ]

let count_remap o (r : Tm_zones.Dbm_sig.remap) =
  Array.iteri (fun k j -> if k > 0 && j = 0 then o.reset <- o.reset + 1) r.src;
  o.free <- o.free + r.frees

(* One op of a script on the reference kernel's persistent algebra:
   the zone after it and the [sat] verdict probed before a Constrain,
   with the op's [dbm.ops] added to [o]. *)
let step_ref o z op =
  let n = Dbm_ref.dim z in
  match op with
  | Gen.Constrain c ->
      let i, j, b = norm_constraint n c in
      o.constrain <- o.constrain + 1;
      o.sat <- o.sat + 1;
      (Dbm_ref.constrain z i j b, Some (Dbm_ref.sat z i j b))
  | Gen.Reset x ->
      o.reset <- o.reset + 1;
      (Dbm_ref.reset z (norm_clock n x), None)
  | Gen.Free x ->
      o.free <- o.free + 1;
      (Dbm_ref.free z (norm_clock n x), None)
  | Gen.Remap cs ->
      let r = remap_of_codes n cs in
      count_remap o r;
      (Dbm_ref.remap z r, None)
  | Gen.Settle (invs, l, u) ->
      let invs = List.map (norm_inv n) invs in
      let z, closes = settle_ref z invs (norm_lu n l) (norm_lu n u) in
      o.up <- o.up + 1;
      o.constrain <- o.constrain + List.length invs;
      o.extrapolate <- o.extrapolate + 1;
      if closes then o.canonicalize <- o.canonicalize + 1;
      (z, None)

(* A script run: the zone after each op (the start, [top], first) and
   the [sat] verdicts. *)
type 'z run = { zones : 'z list; sats : bool list }

let no_ops () =
  {
    canonicalize = 0;
    constrain = 0;
    up = 0;
    reset = 0;
    free = 0;
    extrapolate = 0;
    sat = 0;
  }

(* Interpret a script with the reference kernel's persistent algebra,
   adding the [dbm.ops] of its literal op sequence to [ops]. *)
let run_ref ?(ops = no_ops ()) (s : Gen.dbm_script) =
  let zones, sats =
    List.fold_left
      (fun (zs, ss) op ->
        let z, sat = step_ref ops (List.hd zs) op in
        (z :: zs, match sat with Some v -> v :: ss | None -> ss))
      ([ Dbm_ref.top s.Gen.ds_clocks ], [])
      s.Gen.ds_ops
  in
  { zones = List.rev zones; sats = List.rev sats }

(* Interpret a script with a kernel's Scratch API: one scratch, each
   zone frozen into an arena after its op. *)
let run_scratch (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : z run =
  let module Sc = K.Scratch in
  let arena = K.Arena.create () in
  let scr = Sc.create (max s.Gen.ds_clocks Gen.dbm_max_clocks) in
  let step n = function
    | Gen.Constrain c ->
        let i, j, b = norm_constraint n c in
        let sat = Sc.sat scr i j b in
        Sc.constrain scr i j b;
        Some sat
    | Gen.Reset x ->
        Sc.remap scr (one_clock n (norm_clock n x) 0);
        None
    | Gen.Free x ->
        Sc.remap scr (one_clock n (norm_clock n x) (-1));
        None
    | Gen.Remap cs ->
        Sc.remap scr (remap_of_codes n cs);
        None
    | Gen.Settle (invs, l, u) ->
        Sc.settle
          (K.prepare_lu
             ~invs:(Array.of_list (List.map (norm_inv n) invs))
             ~lower:(norm_lu n l) ~upper:(norm_lu n u))
          scr;
        None
  in
  let top = scratch_top (module K) s.Gen.ds_clocks in
  Sc.load scr top;
  let zones, sats =
    List.fold_left
      (fun (zs, ss) op ->
        let sat = step (K.dim (List.hd zs)) op in
        let z = Sc.freeze_into arena scr in
        (* the next op starts from the zone it is given, as in [Reach] *)
        Sc.load scr z;
        (z :: zs, match sat with Some v -> v :: ss | None -> ss))
      ([ top ], []) s.Gen.ds_ops
  in
  { zones = List.rev zones; sats = List.rev sats }

(* [f ()] and the [dbm.ops] counts it adds, in [op_names] order. *)
let counted f =
  let counters =
    List.map
      (fun o -> Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", o) ])
      op_names
  in
  let before = List.map Tm_obs.Metrics.value counters in
  let r = f () in
  (r, List.map2 ( - ) (List.map Tm_obs.Metrics.value counters) before)

let snapshot (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) (z : z)
    =
  if K.is_empty z then None
  else
    let n = K.dim z in
    Some (Array.init (n * n) (fun k -> K.get z (k / n) (k mod n)))

(* A matrix recorded in a time unit [1/k] as fine, read back in the
   original unit: every entry divided by [k]. *)
let unscale k =
  let div q = Rational.div q (Rational.of_int k) in
  Option.map
    (Array.map (function
      | Bnd.Le q -> Bnd.Le (div q)
      | Bnd.Lt q -> Bnd.Lt (div q)
      | Bnd.Inf -> Bnd.Inf))

let mats_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun m1 m2 ->
         match (m1, m2) with
         | None, None -> true
         | Some a1, Some a2 ->
             Array.length a1 = Array.length a2
             && Array.for_all2 (fun x y -> Bnd.compare x y = 0) a1 a2
         | _ -> false)
       a b

(* [incl zi zj] over every ordered pair of same-dimension zones. *)
let inclusions dim incl zones =
  List.concat_map
    (fun zi ->
      List.filter_map
        (fun zj -> if dim zi = dim zj then Some (incl zi zj) else None)
        zones)
    zones

let int_incl zi =
  let m = Dbm_int.Min.of_zone zi in
  Dbm_int.Min.subsumes m

(* The int scratch on the scaled script lands on the reference zone
   after every op: entries (divided back), emptiness, [sat] probes and
   inclusion verdicts. *)
let int_agrees_with_ref s =
  let k, scaled = Gen.scale_dbm_script s in
  let ri = run_scratch (module Dbm_int) scaled and rr = run_ref s in
  mats_equal
    (List.map (fun z -> unscale k (snapshot (module Dbm_int) z)) ri.zones)
    (List.map (snapshot (module Dbm_ref)) rr.zones)
  && ri.sats = rr.sats
  && inclusions Dbm_int.dim int_incl ri.zones
     = inclusions Dbm_ref.dim Dbm_ref.includes rr.zones

(* The int scratch counts one [dbm.ops] entry per op of the script's
   literal sequence: a constrain and its [sat] probe per guard, one
   [reset] per [0] and the map's [frees] per remap, and per settle one
   [up], one [constrain] per invariant, one [extrapolate] and one
   [canonicalize] iff the reference widening changed the zone.  The
   start, [top], is [zero] with every clock freed. *)
let int_counts_script_ops s =
  let _, scaled = Gen.scale_dbm_script s in
  let _, by_int = counted (fun () -> run_scratch (module Dbm_int) scaled) in
  let want = no_ops () in
  ignore (run_ref ~ops:want s);
  want.free <- want.free + s.Gen.ds_clocks - 1;
  by_int = ops_list want

let script_diff_int_vs_ref =
  Gen.check_holds "script: int kernel (scaled) == ref kernel" ~count:500
    ~print:Gen.print_dbm_script Gen.dbm_script int_agrees_with_ref

let script_diff_ref_scratch =
  Gen.check_holds "script: ref scratch replay == persistent ref" ~count:300
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let rs = run_scratch (module Dbm_ref) s and rr = run_ref s in
      let snap = snapshot (module Dbm_ref) in
      mats_equal (List.map snap rs.zones) (List.map snap rr.zones)
      && rs.sats = rr.sats)

let script_ops_int =
  Gen.check_holds "script: int scratch replay == script's dbm.ops"
    ~count:300 ~print:Gen.print_dbm_script Gen.dbm_script
    int_counts_script_ops

(* Most clocks freed before every settle, as in a fischer successor
   pipeline: the settle leaves wiped rows out of its closure and the
   minimization skips dead rows there, so the int kernel must still
   land on the reference zone, emptiness included, after every op, and
   count the script's [dbm.ops]. *)
let dead_rows_int_vs_ref =
  Gen.check_holds "dead rows: int kernel (scaled) == ref kernel" ~count:300
    ~print:Gen.print_dbm_script Gen.dead_row_script (fun s ->
      int_agrees_with_ref s && int_counts_script_ops s)

(* ------------------------------------------------------------------ *)
(* The closure after widening.                                         *)

let le_con i j c =
  Gen.Constrain { Gen.ci = i; cj = j; cnum = c; cden = 1; cstrict = false }

(* Zones where the closure over the loosened entries has a corner to
   get right, each a script (its last zone is the corner) with the
   settle that shows it.  x2 >= 5 against U(x2) = 3: widening loosens
   row 0 only, to x2 > 3, and nothing closes it back.  The same zone
   with x1 = x2 and U(x1) = 10: the closure takes x2 > 3 back to
   x2 >= 5 through x1. *)
let closure_corners =
  let settle =
    Gen.Settle ([], [ Some 0; Some 10; Some 10 ], [ Some 0; Some 10; Some 3 ])
  in
  List.map
    (fun ops -> ({ Gen.ds_clocks = 3; ds_ops = ops }, settle))
    [ [ le_con 0 2 (-5) ]; [ le_con 0 1 (-5); le_con 1 2 0; le_con 2 1 0 ] ]

(* A settle of zones of up to [n] clocks whose LU bounds make the
   closure work: lower bounds mix [None] (a wiped row, before or after
   the first loosened entry) with small ones (entries going to [Inf])
   and ones above every constant (rows that stay live); upper bounds
   mix small ones (entries loosened to [Lt (-U)], which paths through
   columns with a large bound can take back) with large ones and
   [None] (a wiped column). *)
let closure_settle ?wide n =
  QCheck2.Gen.(
    let bound small large =
      frequency
        [
          (1, pure None);
          (small, map Option.some (int_range 0 6));
          (large, map Option.some (int_range 13 24));
        ]
    in
    map2
      (fun op (l, u) ->
        match op with
        | Gen.Settle (invs, _, _) ->
            Gen.Settle (invs, Some 0 :: l, Some 0 :: u)
        | op -> op)
      (Gen.settle_op ?wide n)
      (pair
         (list_repeat (n - 1) (bound 1 2))
         (list_repeat (n - 1) (bound 2 2))))

(* Guards and resets on 5-8 clocks, any pair of them: zones with many
   finite entries, so that long paths through high pivots can close a
   loosened entry back. *)
let dense_script =
  QCheck2.Gen.(
    int_range 5 8 >>= fun n ->
    let clock = int_range 0 (n - 1) in
    let guard =
      map
        (fun (ci, cj, cnum, (cden, cstrict)) ->
          Gen.Constrain { Gen.ci; cj; cnum; cden; cstrict })
        (quad clock clock (int_range (-12) 12) (pair (int_range 1 4) bool))
    in
    map
      (fun ds_ops -> { Gen.ds_clocks = n; ds_ops })
      (list_size (int_range 1 12)
         (frequency [ (5, guard); (1, map (fun x -> Gen.Reset x) clock) ])))

(* A script and one more settle, applied to every zone it passes
   through. *)
let settle_case =
  QCheck2.Gen.(
    frequency
      [
        (3, pair Gen.dbm_script (closure_settle Gen.dbm_max_clocks));
        (4, pair dense_script (closure_settle 8));
        (2, pair Gen.dead_row_script (closure_settle ~wide:15 16));
        (1, oneofl closure_corners);
      ])

let print_settle_case (s, op) =
  Printf.sprintf "%s, then %s" (Gen.print_dbm_script s) (Gen.print_dbm_op op)

let settle_args n = function
  | Gen.Settle (invs, l, u) ->
      (Array.of_list (List.map (norm_inv n) invs), norm_lu n l, norm_lu n u)
  | _ -> invalid_arg "settle_args"

(* The int scratch's settle of [zi] (a zone of the script scaled by
   [k], settled by [int_op]) against the reference scratch's settle of
   [zr] by [ref_op]: the same zone entry by entry once divided back,
   and the [dbm.ops] of the reference sequence, one [canonicalize] iff
   the reference widening changed the zone. *)
let settles_agree k int_op ref_op zi zr =
  let n = Dbm_ref.dim zr in
  let invs, lower, upper = settle_args n int_op in
  let scr = Dbm_int.Scratch.create n in
  Dbm_int.Scratch.load scr zi;
  let fused, by_int =
    counted (fun () ->
        Dbm_int.Scratch.settle (Dbm_int.prepare_lu ~invs ~lower ~upper) scr;
        Dbm_int.Scratch.freeze_into (Dbm_int.Arena.create ()) scr)
  in
  let invs, lower, upper = settle_args n ref_op in
  let rscr = Dbm_ref.Scratch.create n in
  Dbm_ref.Scratch.load rscr zr;
  Dbm_ref.Scratch.settle (Dbm_ref.prepare_lu ~invs ~lower ~upper) rscr;
  let want = Dbm_ref.Scratch.freeze_into (Dbm_ref.Arena.create ()) rscr in
  let _, closes = settle_ref zr (Array.to_list invs) lower upper in
  mats_equal
    [ unscale k (snapshot (module Dbm_int) fused) ]
    [ snapshot (module Dbm_ref) want ]
  && by_int = [ Bool.to_int closes; Array.length invs; 1; 0; 0; 1; 0 ]

let settle_closes_widened =
  Gen.check_holds "settle: closing only the widened entries == Dbm_ref"
    ~count:500 ~print:print_settle_case settle_case (fun (s, op) ->
      let k, scaled =
        Gen.scale_dbm_script { s with Gen.ds_ops = s.Gen.ds_ops @ [ op ] }
      in
      let nops = List.length s.Gen.ds_ops in
      let int_op = List.nth scaled.Gen.ds_ops nops in
      let prefix =
        {
          scaled with
          Gen.ds_ops = List.filteri (fun i _ -> i < nops) scaled.Gen.ds_ops;
        }
      in
      List.for_all2 (settles_agree k int_op op)
        (run_scratch (module Dbm_int) prefix).zones (run_ref s).zones)

(* LU widening of a canonical zone's matrix, entry by entry and not
   closed again: (i, j) goes to [Inf] when its constant exceeds L_i or
   either bound is [None], and to [Lt (-U_j)] when it is below -U_j. *)
let widened n lower upper z =
  Array.init (n * n) (fun e ->
      let i = e / n and j = e mod n in
      let b = Dbm_ref.get z i j in
      match b with
      | Bnd.Inf -> b
      | _ when i = j -> b
      | Bnd.Le c | Bnd.Lt c -> (
          match (lower.(i), upper.(j)) with
          | None, _ | _, None -> Bnd.Inf
          | Some l, _ when Rational.compare c l > 0 -> Bnd.Inf
          | _, Some u when Rational.compare c (Rational.neg u) < 0 ->
              Bnd.Lt (Rational.neg u)
          | _ -> b))

(* Why [close_listed] may skip pivot 0: in the widened matrix, before
   any closure step, the path through clock 0 is never shorter than an
   entry the widening loosened, m(i,0) + m(0,j) >= m(i,j), over every
   zone the settle differential settles. *)
let pivot0_never_tightens =
  Gen.check_holds "settle: pivot 0 never tightens a widened entry"
    ~count:500 ~print:print_settle_case settle_case (fun (s, op) ->
      List.for_all
        (fun z ->
          let n = Dbm_ref.dim z in
          let invs, lower, upper = settle_args n op in
          let z =
            Array.fold_left
              (fun z (x, b) -> Dbm_ref.constrain z x 0 b)
              (Dbm_ref.up z) invs
          in
          Dbm_ref.is_empty z
          ||
          let w = widened n lower upper z in
          let at i j = w.((i * n) + j) in
          List.for_all
            (fun e ->
              let i = e / n and j = e mod n in
              Bnd.compare (at i j) (Dbm_ref.get z i j) = 0
              || Bnd.compare (Bnd.add (at i 0) (at 0 j)) (at i j) >= 0)
            (List.init (n * n) Fun.id))
        (run_ref s).zones)

(* ------------------------------------------------------------------ *)
(* Location-change maps ([Scratch.remap]).                             *)

(* What happens to each non-reference clock of a script's final zone:
   kept, reset (a newly enabled or firing class), dropped (a disabled
   class, projected away), or freed in place (a full-width kernel's
   dead clock). *)
type fate = Keep | New | Drop | Freed

let fate_of = function 0 -> Keep | 1 -> New | 2 -> Drop | _ -> Freed

let print_fate = function
  | Keep -> "keep"
  | New -> "new"
  | Drop -> "drop"
  | Freed -> "free"

(* The target clocks, in ascending source order (clock 0 first), and
   the [Dbm_sig.remap] that takes a zone to them. *)
let remap_of n fates =
  let fate x = fate_of (List.nth fates (x - 1)) in
  let targets =
    0 :: List.filter (fun x -> fate x <> Drop) (List.init (n - 1) succ)
  in
  let src x =
    if x = 0 then 0
    else match fate x with Keep -> x | New -> 0 | Drop | Freed -> -1
  in
  let frees =
    List.length
      (List.filter
         (fun x ->
           match fate x with Drop | Freed -> true | Keep | New -> false)
         (List.init (n - 1) succ))
  in
  ( targets,
    { Tm_zones.Dbm_sig.src = Array.of_list (List.map src targets); frees } )

(* The full-width reference zone with the dropped and freed clocks
   freed and the new ones reset, read at the target clocks. *)
let projected n fates z =
  let z =
    List.fold_left
      (fun z x ->
        match fate_of (List.nth fates (x - 1)) with
        | Keep -> z
        | New -> Dbm_ref.reset z x
        | Drop | Freed -> Dbm_ref.free z x)
      z
      (List.init (n - 1) succ)
  in
  let targets, _ = remap_of n fates in
  if Dbm_ref.is_empty z then None
  else
    let t = Array.of_list targets in
    let n' = Array.length t in
    Some
      (Array.init (n' * n') (fun e -> Dbm_ref.get z t.(e / n') t.(e mod n')))

let remap_gen =
  QCheck2.Gen.(
    pair Gen.dbm_script
      (list_repeat (Gen.dbm_max_clocks - 1) (int_range 0 3)))

let print_remap (s, fates) =
  Printf.sprintf "%s then [%s]" (Gen.print_dbm_script s)
    (String.concat "," (List.map (fun f -> print_fate (fate_of f)) fates))

let last l = List.nth l (List.length l - 1)

let remapped (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) z r =
  let scr = K.Scratch.create (K.dim z) in
  K.Scratch.load scr z;
  K.Scratch.remap scr r;
  snapshot (module K) (K.Scratch.freeze_into (K.Arena.create ()) scr)

(* A random script, then a random keep/new/drop/free map: the compact
   int zone (scaled, divided back) and the reference kernel's own
   [remap] must both equal, entry by entry, the projection of the
   full-width reference zone with the dropped clocks freed and the new
   clocks reset — the cylinder rule the full-width kernels rely on. *)
let remap_int_vs_ref =
  Gen.check_holds "remap: compact int zone == projected ref cylinder"
    ~count:500 ~print:print_remap remap_gen (fun (s, fates) ->
      let k, scaled = Gen.scale_dbm_script s in
      let ref_zone = last (run_ref s).zones in
      let int_zone = last (run_scratch (module Dbm_int) scaled).zones in
      let n = Dbm_ref.dim ref_zone in
      let _, r = remap_of n fates in
      let want = projected n fates ref_zone in
      mats_equal [ unscale k (remapped (module Dbm_int) int_zone r) ] [ want ]
      && mats_equal [ remapped (module Dbm_ref) ref_zone r ] [ want ])

(* [Scratch.settle] on hand-picked zones, one per corner of the one
   sweep: the int scratch and the reference sequence ([up], each
   invariant, [extrapolate_lu]) must land on one zone, the scratch must
   count exactly the [dbm.ops] of that sequence (the closure iff the
   reference widening changed the zone), and the zone must show the
   corner. *)
let unit_settle_cases () =
  let le c = Bnd.Le (Gen.q c) and lt c = Bnd.Lt (Gen.q c) in
  let case name ~shows n zone invs l u =
    let scr = Dbm_int.Scratch.create n in
    Dbm_int.Scratch.load scr (scratch_top (module Dbm_int) n);
    List.iter (fun (i, j, c) -> Dbm_int.Scratch.constrain scr i j (le c)) zone;
    let lu =
      Dbm_int.prepare_lu ~invs:(Array.of_list invs) ~lower:(lu_bounds l)
        ~upper:(lu_bounds u)
    in
    let fused, by_settle =
      counted (fun () ->
          Dbm_int.Scratch.settle lu scr;
          Dbm_int.Scratch.freeze_into (Dbm_int.Arena.create ()) scr)
    in
    let reference, closes =
      settle_ref
        (List.fold_left
           (fun z (i, j, c) -> Dbm_ref.constrain z i j (le c))
           (Dbm_ref.top n) zone)
        invs (lu_bounds l) (lu_bounds u)
    in
    Alcotest.(check bool)
      (name ^ ": scratch == ref") true
      (mats_equal
         [ snapshot (module Dbm_int) fused ]
         [ snapshot (module Dbm_ref) reference ]);
    Alcotest.(check (list int))
      (name ^ ": dbm.ops")
      [ Bool.to_int closes; List.length invs; 1; 0; 0; 1; 0 ]
      by_settle;
    Alcotest.(check bool) (name ^ ": shows the corner") true (shows fused)
  in
  let get z i j = Dbm_int.get z i j in
  let wide = [ Some 0; Some 10; Some 10 ] in
  (* x2 - x1 <= -4 and the invariant x1 <= 3 force x2 <= -1: the cycle
     0 -> x2 -> x1 -> 0 is negative, through the invariant's edge. *)
  case "invariant empties through clock 0" 3 [ (2, 1, -4) ]
    [ (1, le 3) ] wide wide ~shows:Dbm_int.is_empty;
  (* With x2 <= x1, the strict x1 < 4 beats the weak x2 <= 4 on x2's
     own row: col 2 is min over both invariants. *)
  case "strict invariants" 3 [ (2, 1, 0) ]
    [ (1, lt 4); (2, le 4) ]
    wide wide
    ~shows:(fun z -> get z 1 0 = lt 4 && get z 2 0 = lt 4);
  case "no invariants" 3 [ (1, 0, 2) ] [] wide wide
    ~shows:(fun z -> get z 1 0 = Bnd.Inf && get z 0 1 = le 0);
  (* [None] on both sides of clock 1 wipes its row and its column. *)
  case "LU wipes a whole row" 3 [ (1, 0, 2) ]
    [ (1, le 5); (2, le 6) ]
    [ Some 0; None; Some 10 ] [ Some 0; None; Some 10 ]
    ~shows:(fun z ->
      List.for_all (fun (i, j) -> get z i j = Bnd.Inf)
        [ (1, 0); (1, 2); (0, 1); (2, 1) ]
      && get z 2 0 = le 6);
  (* U(x1) = 3 loosens x1 >= 5 to x1 > 3, and only that entry. *)
  case "LU loosens single entries" 3 [ (0, 1, -5) ] [ (1, le 8) ]
    [ Some 0; Some 10; Some 10 ] [ Some 0; Some 3; Some 10 ]
    ~shows:(fun z -> get z 0 1 = lt (-3) && get z 1 0 = le 8);
  (* U(x2) = 3 loosens x2 >= 5 to x2 > 3 in row 0, the only widened
     entry; with x1 = x2 and U(x1) = 10 the closure tightens it back
     to x2 >= 5 through x1. *)
  case "LU loosens row 0 only" 3 [ (0, 2, -5) ] [] wide
    [ Some 0; Some 10; Some 3 ]
    ~shows:(fun z -> get z 0 2 = lt (-3));
  case "the closure re-tightens a loosened entry" 3
    [ (0, 1, -5); (1, 2, 0); (2, 1, 0) ]
    [] wide [ Some 0; Some 10; Some 3 ]
    ~shows:(fun z -> get z 0 2 = le (-5))

(* The successor tail runs once per edge, so the int kernel's settle
   must not allocate: a thousand calls cost no more minor words than
   ten.  The zone has a live row, a wiped row and invariants, so every
   branch of the sweep runs, and the widening re-closes every time. *)
let unit_settle_allocates_nothing () =
  let n = 4 in
  let scr = Dbm_int.Scratch.create n in
  Dbm_int.Scratch.load scr (scratch_top (module Dbm_int) n);
  Dbm_int.Scratch.constrain scr 0 1 (Bnd.Le (Gen.q (-5)));
  let lu =
    Dbm_int.prepare_lu
      ~invs:[| (1, Bnd.Le (Gen.q 8)); (2, Bnd.Lt (Gen.q 6)) |]
      ~lower:(lu_bounds [ Some 0; Some 9; None; Some 9 ])
      ~upper:(lu_bounds [ Some 0; Some 3; Some 9; Some 9 ])
  in
  let words calls =
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      Dbm_int.Scratch.settle lu scr
    done;
    Gc.minor_words () -. before
  in
  ignore (words 10);
  let few = words 10 in
  let many = words 1000 in
  Alcotest.(check bool) "scratch still nonempty" false
    (Dbm_int.Scratch.is_empty scr);
  Alcotest.(check (float 0.)) "minor words of 990 more calls" few many

(* Remapping to the same live set is the identity: the zone is
   unchanged entry for entry (so [freeze_into] hands back the loaded
   zone itself), and the map counts no reset and no free. *)
let unit_remap_same_live_set () =
  let ops name = Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", name) ] in
  let c_reset = ops "reset" and c_free = ops "free" in
  let check (type z) name (module K : Tm_zones.Dbm_sig.S with type t = z)
      (z : z) =
    let n = K.dim z in
    let scr = K.Scratch.create n in
    K.Scratch.load scr z;
    let r0 = Tm_obs.Metrics.value c_reset
    and f0 = Tm_obs.Metrics.value c_free in
    K.Scratch.remap scr
      { Tm_zones.Dbm_sig.src = Array.init n Fun.id; frees = 0 };
    Alcotest.(check bool)
      (name ^ ": same zone") true
      (K.Scratch.freeze_into (K.Arena.create ()) scr == z);
    Alcotest.(check (pair int int))
      (name ^ ": no logical op counted")
      (r0, f0)
      (Tm_obs.Metrics.value c_reset, Tm_obs.Metrics.value c_free)
  in
  (* x2 >= 1 after a delay (without one it empties the zone), x3
     reset, x1 < 6, x2 freed *)
  let nines = lu_bounds [ Some 0; Some 9; Some 9; Some 9 ] in
  let zone (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) ~empty =
    let scr = K.Scratch.create 4 in
    K.Scratch.load scr (K.zero 4);
    if not empty then
      K.Scratch.settle (K.prepare_lu ~invs:[||] ~lower:nines ~upper:nines) scr;
    K.Scratch.constrain scr 0 2 (Bnd.Le (Gen.q (-1)));
    K.Scratch.remap scr (one_clock 4 3 0);
    K.Scratch.constrain scr 1 0 (Bnd.Lt (Gen.q 6));
    K.Scratch.remap scr (one_clock 4 2 (-1));
    K.Scratch.freeze_into (K.Arena.create ()) scr
  in
  let nonempty = zone (module Dbm_int) ~empty:false in
  Alcotest.(check bool) "int zone nonempty" false (Dbm_int.is_empty nonempty);
  check "int" (module Dbm_int) nonempty;
  check "int, empty" (module Dbm_int) (zone (module Dbm_int) ~empty:true);
  check "ref" (module Dbm_ref) (zone (module Dbm_ref) ~empty:false)

(* ------------------------------------------------------------------ *)
(* Engine-level differential on random boundmap automata.              *)

let sorted_states l = List.sort compare l

let reach_outcome ?(limit = 2000) (module E : Reach.S) aut bm =
  match E.reachable ~limit aut bm with
  | stats, states -> Ok (stats, sorted_states states)
  | exception Reach.Open_system m -> Error (`Open m)
  | exception Reach.Out_of_budget e ->
      Error (`Budget (e.Reach.reason, e.Reach.partial))

let fixpoint_diff =
  Gen.check_holds "automaton: engines agree on reachable fixpoint"
    ~count:120 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      reach_outcome (module Reach.Auto) aut bm
      = reach_outcome (module Reach.Ref) aut bm)

(* Both kernels run the one shared exploration, so running out of the
   zone budget must be deterministic: same reason, same partial stats,
   zone for zone.  A tiny limit makes most random automata exhaust. *)
let budget_diff =
  Gen.check_holds
    "automaton: engines agree on budget exhaustion and partial stats"
    ~count:120 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      reach_outcome ~limit:8 (module Reach.Auto) aut bm
      = reach_outcome ~limit:8 (module Reach.Ref) aut bm)

let cond_outcome (module E : Reach.S) aut bm c =
  match E.check_condition ~limit:2000 aut bm c with
  | o -> Ok o
  | exception Reach.Open_system m -> Error m

let condition_diff =
  Gen.check_holds "automaton: engines agree on condition verdicts"
    ~count:100 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      (* Trigger and Pi are both action 0, a supported re-arming
         shape; the [0, 3] window makes all three verdicts and the
         Unsupported error reachable across random automata. *)
      let c =
        Condition.make ~name:"D"
          ~t_step:(fun _ a _ -> a = 0)
          ~bounds:(Interval.make Rational.zero (Tm_base.Time.Fin (Gen.q 3)))
          ~in_pi:(fun a -> a = 0)
          ()
      in
      cond_outcome (module Reach.Auto) aut bm c
      = cond_outcome (module Reach.Ref) aut bm c)

(* Margin reports are built from many engine verdicts, so any kernel
   divergence is amplified; the full report (thresholds, refutation
   bounds, critical class) must be identical under both kernels. *)
let margin_diff =
  let module Margin = Tm_faults.Margin in
  let margin_report (module E : Reach.S) aut bm c =
    Margin.report ~eps_max:2 ~stable:5 ~max_probes:24 ~subject:"m"
      ~check:(fun bm' ->
        Margin.condition_status (module E) ~limit:2000 aut c bm')
      bm
  in
  Gen.check_holds "automaton: engines agree on robustness margins"
    ~count:40 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let c =
        Condition.make ~name:"D"
          ~t_step:(fun _ a _ -> a = 0)
          ~bounds:(Interval.make Rational.zero (Tm_base.Time.Fin (Gen.q 3)))
          ~in_pi:(fun a -> a = 0)
          ()
      in
      margin_report (module Reach.Auto) aut bm c
      = margin_report (module Reach.Ref) aut bm c)

(* ------------------------------------------------------------------ *)
(* Time-unit scaling.                                                  *)

let double bm = Boundmap.map (fun _ iv -> Interval.scale 2 iv) bm

(* [bm] and [2·bm] are one job in two time units: identical stats and
   reachable sets on both engines, but never one fingerprint — a cache
   key or checkpoint of one must not serve the other. *)
let unit_scaled_jobs () =
  let p = Gen.quarter_fischer () in
  let sys = F.system p and bm = F.boundmap p in
  let base = reach_outcome (module Reach.Ref) sys bm in
  Alcotest.(check bool) "int engine agrees with ref" true
    (reach_outcome (module Reach.Auto) sys bm = base);
  Alcotest.(check bool) "2·bm explores the same graph" true
    (reach_outcome (module Reach.Auto) sys (double bm) = base);
  Alcotest.(check bool) "kernel=int on a fractional job" true
    (Gen.contains (Reach.Auto.fingerprint_reachable sys bm) "|kernel=int|");
  Alcotest.(check bool) "reachable fingerprints differ" false
    (Reach.Auto.fingerprint_reachable sys bm
    = Reach.Auto.fingerprint_reachable sys (double bm));
  Alcotest.(check bool) "invariant fingerprints differ" false
    (Reach.Auto.fingerprint sys bm [ Reach.Invariant F.mutual_exclusion ]
    = Reach.Auto.fingerprint sys (double bm)
        [ Reach.Invariant F.mutual_exclusion ])

(* Integral jobs keep their fingerprints byte for byte, so existing
   serve caches and int checkpoints stay valid. *)
let unit_integral_fingerprints_stable () =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let fp kind nclocks =
    Printf.sprintf
      "tmjob1|kernel=int|widen=lu|kind=%s|nclocks=%d|maxc=3|alpha=21|\
       CHECK_1:[2, 3],CHECK_2:[2, 3],CHECK_3:[2, 3],CRIT_1:[0, 2],\
       CRIT_2:[0, 2],CRIT_3:[0, 2],RETRY_1:[0, 2],RETRY_2:[0, 2],\
       RETRY_3:[0, 2],SET_1:[0, 1],SET_2:[0, 1],SET_3:[0, 1],TEST_1:[0, 1],\
       TEST_2:[0, 1],TEST_3:[0, 1]"
      kind nclocks
  in
  Alcotest.(check string) "reachable" (fp "reachable" 16)
    (Reach.Auto.fingerprint_reachable sys bm);
  Alcotest.(check string) "invariant" (fp "invariant" 16)
    (Reach.Auto.fingerprint sys bm [ Reach.Invariant F.mutual_exclusion ]);
  Alcotest.(check string) "condition" (fp "condition:U_enter:[2, 3]" 17)
    (Reach.Auto.fingerprint sys bm [ Reach.Condition (F.u_enter p) ])

(* Scaling never wraps around: an LCM, a scaled constant or a scaled
   max constant beyond the packed range is refused with
   [Invalid_argument], on the production and the paranoid engine. *)
let unit_overflow_guard () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p in
  let with_bounds l =
    Boundmap.map
      (fun c iv -> Option.value (List.assoc_opt c l) ~default:iv)
      (F.boundmap p)
  in
  let upto q = Interval.make Rational.zero (Tm_base.Time.Fin q) in
  let raises name bm ~naming =
    List.iter
      (fun (ename, (module E : Reach.S)) ->
        match E.reachable sys bm with
        | _ -> Alcotest.failf "%s [%s]: accepted" name ename
        | exception Invalid_argument m ->
            Alcotest.(check bool)
              (Printf.sprintf "%s [%s]: %S names the scale and %s" name ename
                 m naming)
              true
              (Gen.contains m "time scale" && Gen.contains m naming))
      [ ("auto", (module Reach.Auto)); ("paranoid", (module Reach.Paranoid)) ]
  in
  raises "denominator LCM"
    (with_bounds
       [
         ("CRIT_1", upto (Rational.make 1 1_000_000_007));
         ("CRIT_2", upto (Rational.make 1 998_244_353));
         ("RETRY_1", upto (Rational.make 1 1_000_000_009));
       ])
    ~naming:"1/";
  raises "scaled constant"
    (with_bounds
       [
         ("CRIT_1", upto (Rational.of_int (max_int - 1)));
         ("CRIT_2", upto (Rational.make 1 2));
       ])
    ~naming:(string_of_int (max_int - 1));
  raises "headroom"
    (with_bounds [ ("CRIT_1", upto (Rational.of_int (max_int / 8))) ])
    ~naming:(string_of_int (max_int / 8))

(* The int engine's time scale, the region construction's
   ([Clock_enc.scale]) and the discretized graph's grid
   ([Tgraph.default_params]) are one checked LCM of denominators: four
   coprime denominators near 10^9 overflow it, and each refuses rather
   than returning a wrapped-around scale. *)
let unit_lcm_checked_everywhere () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p in
  let dens =
    [
      ("CRIT_1", 1_000_000_007);
      ("CRIT_2", 998_244_353);
      ("RETRY_1", 1_000_000_009);
      ("RETRY_2", 999_999_937);
    ]
  in
  let bm =
    Boundmap.map
      (fun c iv ->
        match List.assoc_opt c dens with
        | Some d ->
            Interval.make Rational.zero (Tm_base.Time.Fin (Rational.make 1 d))
        | None -> iv)
      (F.boundmap p)
  in
  let refused name scale =
    match scale () with
    | k -> Alcotest.failf "%s: returned %d" name k
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the scale" name m)
          true (Gen.contains m "time scale")
  in
  refused "Clock_enc.scale" (fun () ->
      Tm_zones.Clock_enc.(scale (make sys bm)));
  refused "Tgraph.default_params" (fun () ->
      (Tm_core.Tgraph.default_params
         (Tm_core.Time_automaton.of_boundmap sys bm))
        .Tm_core.Tgraph.denominator);
  refused "Reach" (fun () -> (fst (Reach.reachable sys bm)).Reach.zones)

(* A couple of deterministic regressions pinning kernel corner cases
   the random scripts found valuable to keep explicit. *)
let unit_empty_freeze () =
  let scr = Dbm_int.Scratch.create 3 in
  Dbm_int.Scratch.load scr (Dbm_int.zero 3);
  (* x1 - 0 <= -1 is unsatisfiable at the origin *)
  Dbm_int.Scratch.constrain scr 1 0 (Bnd.Le (Gen.q (-1)));
  Alcotest.(check bool) "scratch empty" true (Dbm_int.Scratch.is_empty scr);
  Alcotest.(check bool) "frozen empty" true
    (Dbm_int.is_empty
       (Dbm_int.Scratch.freeze_into (Dbm_int.Arena.create ()) scr))

let unit_sat_is_o1_consistent () =
  (* sat must agree with the constrain-then-check definition on a
     canonical zone; the constants are the sixths-valued corners
     7/2, -5/3, -11/2, -31/6, 2, -7/2, 0 scaled by 6. *)
  let scr = Dbm_int.Scratch.create 3 in
  Dbm_int.Scratch.load scr (scratch_top (module Dbm_int) 3);
  Dbm_int.Scratch.constrain scr 1 0 (Bnd.Lt (Gen.q 21));
  Dbm_int.Scratch.constrain scr 0 2 (Bnd.Le (Gen.q (-10)));
  let z = Dbm_int.Scratch.freeze_into (Dbm_int.Arena.create ()) scr in
  List.iter
    (fun (i, j, b) ->
      Dbm_int.Scratch.load scr z;
      Dbm_int.Scratch.constrain scr i j b;
      Alcotest.(check bool)
        (Printf.sprintf "sat %d %d" i j)
        (not (Dbm_int.Scratch.is_empty scr))
        (Dbm_int.sat z i j b))
    [
      (2, 1, Bnd.Le (Gen.q (-33)));
      (2, 1, Bnd.Lt (Gen.q (-31)));
      (1, 2, Bnd.Le (Gen.q 12));
      (0, 1, Bnd.Lt (Gen.q (-21)));
      (2, 0, Bnd.Le (Gen.q 0));
    ]

(* A fractional L/U bound or invariant can only come from a scaling
   bug: the preparation of a layout's tail, which packs the invariants
   and LU bounds once per layout, refuses it instead of rounding it. *)
let unit_lu_rejects_fractions () =
  let half = Some (Rational.make 1 2) and two = Some (Gen.q 2) in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "prepare_lu: half-unit %s accepted" what
    | exception Invalid_argument m ->
        Alcotest.(check string) what
          ("Dbm_int.prepare_lu: non-integer " ^ what)
          m
  in
  refused "LU bound" (fun () ->
      Dbm_int.prepare_lu ~invs:[||] ~lower:[| two; two; two |]
        ~upper:[| two; two; half |]);
  refused "invariant" (fun () ->
      Dbm_int.prepare_lu
        ~invs:[| (1, Bnd.Le (Gen.q 1)); (2, Bnd.Lt (Rational.make 3 2)) |]
        ~lower:[| two; two; two |] ~upper:[| two; two; two |]);
  (* integral bounds still go through *)
  ignore
    (Dbm_int.prepare_lu ~invs:[| (1, Bnd.Lt (Gen.q 3)) |]
       ~lower:[| two; two; two |] ~upper:[| two; None; two |])

let suite =
  [
    script_diff_int_vs_ref;
    script_diff_ref_scratch;
    script_ops_int;
    dead_rows_int_vs_ref;
    remap_int_vs_ref;
    fixpoint_diff;
    budget_diff;
    condition_diff;
    margin_diff;
    Alcotest.test_case "scaling: bm and 2·bm agree, fingerprints differ" `Quick
      unit_scaled_jobs;
    Alcotest.test_case "scaling: integral fingerprints unchanged" `Quick
      unit_integral_fingerprints_stable;
    Alcotest.test_case "scaling: overflow refused loudly" `Quick
      unit_overflow_guard;
    Alcotest.test_case "scratch: unsat constrain empties and freezes" `Quick
      unit_empty_freeze;
    Alcotest.test_case "sat: O(1) formula matches definition" `Quick
      unit_sat_is_o1_consistent;
    Alcotest.test_case "lu: fractional bounds refused by prepare_lu" `Quick
      unit_lu_rejects_fractions;
    Alcotest.test_case "remap: same live set leaves the zone unchanged"
      `Quick unit_remap_same_live_set;
    Alcotest.test_case "settle: one sweep == up, invariants, LU on corners"
      `Quick unit_settle_cases;
    Alcotest.test_case "settle: no allocation per call" `Quick
      unit_settle_allocates_nothing;
    settle_closes_widened;
    pivot0_never_tightens;
    Alcotest.test_case "scaling: every denominator LCM is checked" `Quick
      unit_lcm_checked_everywhere;
  ]
