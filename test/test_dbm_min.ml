(* Minimal-constraint storage and arena interning.

   The kernels' [Min] modules keep the non-redundant constraint subset
   of each stored zone (Larsen et al., RTSS'97); {!Tm_zones.Reach} uses
   them for waiting/passed subsumption.  These tests pin them to the
   dense semantics: {!Tm_zones.Dbm_min}'s reduction rebuilds the
   identical canonical matrix of every reference zone a script passes
   through, [subsumes] agrees with the reference kernel's dense
   [includes] on every snapshot pair (the int kernel on scripts scaled
   to integer constants), the in-place [Scratch.subsumed_by] agrees
   with both and counts what [subsumes] counts, and on every script
   zone, dead-row zones included, the int reduction keeps exactly the
   constraint list of {!Tm_zones.Dbm_min}, in the same order, and the
   in-place [Scratch.minimize] builds the same form as [Min.of_zone].

   The arena tests pin the zero-copy storage discipline: [freeze_into]
   round-trips zone payloads through bump arenas (across chunk growth
   and past the int kernel's chunk cap), and a no-op edge pipeline
   still freezes to the original interned zone. *)

module Rational = Tm_base.Rational
module Bnd = Tm_zones.Dbm_bound
module Dbm_ref = Tm_zones.Dbm_ref
module Dbm_int = Tm_zones.Dbm_int
module Dbm_min = Tm_zones.Dbm_min
module D = Test_dbm_diff

let snapshot = D.snapshot

let finite_offdiag = function
  | None -> 0
  | Some m ->
      let n = int_of_float (sqrt (float_of_int (Array.length m))) in
      let c = ref 0 in
      Array.iteri
        (fun k b ->
          if k / n <> k mod n && b <> Bnd.Inf then incr c)
        m;
      !c

(* Reducing a nonempty reference zone and rebuilding it gives the
   identical canonical matrix; the reduction is deterministic
   (re-reducing the rebuilt matrix gives a structurally equal value)
   and never keeps more constraints than the matrix has finite
   off-diagonal entries. *)
let roundtrip_ref =
  Gen.check_holds "min: Dbm_min reduce |> to_matrix is identity (ref)"
    ~count:200 ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      List.for_all
        (fun z ->
          Dbm_ref.is_empty z
          ||
          let n = Dbm_ref.dim z in
          let r = Dbm_min.reduce n (Dbm_ref.get z) in
          let m = Dbm_min.to_matrix r in
          D.mats_equal [ Some m ] [ snapshot (module Dbm_ref) z ]
          && Dbm_min.equal r (Dbm_min.reduce n (fun i j -> m.((i * n) + j)))
          && Dbm_min.count r <= finite_offdiag (Some m))
        (D.run_ref s).zones)

(* The sparse probe must equal the dense verdict on every ordered pair
   of same-dimension zones a script produces — including empty
   operands on both sides. *)
let subsumes_ref =
  Gen.check_holds "min: subsumes == dense includes (ref)" ~count:150
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let zs = (D.run_ref s).zones in
      let probe zi = Dbm_ref.Min.subsumes (Dbm_ref.Min.of_zone zi) in
      D.inclusions Dbm_ref.dim probe zs
      = D.inclusions Dbm_ref.dim Dbm_ref.includes zs)

(* The int probe on the scaled script against the reference kernel's
   dense verdict on the original one. *)
let subsumes_int =
  Gen.check_holds "min: subsumes == dense includes (int vs ref)" ~count:150
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let scaled = snd (Gen.scale_dbm_script s) in
      let zi = (D.run_scratch (module Dbm_int) scaled).zones in
      D.inclusions Dbm_int.dim D.int_incl zi
      = D.inclusions Dbm_ref.dim Dbm_ref.includes (D.run_ref s).zones)

(* [Scratch.subsumed_by], the in-place inclusion test {!Tm_zones.Reach}
   runs before it interns a successor, on every ordered pair of
   same-dimension zones a script produces plus one empty zone of each
   dimension (so empty operands occur on both sides): the candidate
   [zj] loaded in a scratch, the stored zone [zi] in minimal form.  It
   must return [Min.subsumes]'s verdict on the frozen [zj] and count
   the same [dbm.ops{op=min_subsumes}], and both must equal the
   reference kernel's dense [includes] on the unscaled script — on
   random scripts and fischer-shaped ones, where most rows are dead. *)
let c_min_subsumes =
  Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", "min_subsumes") ]

let min_subsumes_delta f =
  let before = Tm_obs.Metrics.value c_min_subsumes in
  let r = f () in
  (r, Tm_obs.Metrics.value c_min_subsumes - before)

(* The zones of a script run on [K], then an empty zone of every
   dimension among them, built by a scratch as [Reach] builds one. *)
let with_empties (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (zones : z list) =
  let dims = List.sort_uniq compare (List.map K.dim zones) in
  let arena = K.Arena.create () in
  let empty n =
    let scr = K.Scratch.create n in
    K.Scratch.load scr (K.zero n);
    K.Scratch.constrain scr 1 0 (Bnd.Lt Rational.zero);
    K.Scratch.freeze_into arena scr
  in
  zones @ List.map empty (List.filter (fun n -> n >= 2) dims)

(* Over every ordered same-dimension pair, candidate-major: [subsumed_by]
   with the candidate in a scratch, [Min.subsumes] on the frozen
   candidate, each with its [min_subsumes] count. *)
let probe_pairs (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (zones : z list) =
  let mins = List.map (fun zi -> (K.dim zi, K.Min.of_zone zi)) zones in
  let scr =
    K.Scratch.create (List.fold_left (fun n z -> max n (K.dim z)) 1 zones)
  in
  let over probe =
    min_subsumes_delta (fun () ->
        List.concat_map
          (fun zj ->
            List.filter_map
              (fun (n, m) -> if n = K.dim zj then Some (probe m zj) else None)
              mins)
          zones)
  in
  let in_place =
    over (fun m zj ->
        K.Scratch.load scr zj;
        K.Scratch.subsumed_by scr m)
  in
  (in_place, over K.Min.subsumes)

(* The reference verdicts in [probe_pairs]'s order. *)
let dense_pairs zones =
  List.concat_map
    (fun zj ->
      List.filter_map
        (fun zi ->
          if Dbm_ref.dim zi = Dbm_ref.dim zj then
            Some (Dbm_ref.includes zi zj)
          else None)
        zones)
    zones

let subsumed_by_agrees =
  Gen.check_holds "min: Scratch.subsumed_by == Min.subsumes == includes"
    ~count:300 ~print:Gen.print_dbm_script
    (QCheck2.Gen.oneof [ Gen.dbm_script; Gen.dead_row_script ])
    (fun s ->
      let scaled = snd (Gen.scale_dbm_script s) in
      let zr = with_empties (module Dbm_ref) (D.run_ref s).zones in
      let zi =
        with_empties (module Dbm_int)
          (D.run_scratch (module Dbm_int) scaled).zones
      in
      let dense = dense_pairs zr in
      let (vi, ci), (vi', ci') = probe_pairs (module Dbm_int) zi in
      let (vr, cr), (vr', cr') = probe_pairs (module Dbm_ref) zr in
      List.exists Fun.id dense
      && List.exists not dense
      && vi = dense && vi' = dense && ci = ci' && ci = List.length dense
      && vr = dense && vr' = dense && cr = cr')

(* The int kernel's hand-specialized reduction (direct indexing, live
   pivots only) must keep exactly the constraints {!Tm_zones.Dbm_min}
   keeps on the reference zone: same count, same positions, same bounds
   once divided back to the script's unit, same order, laid out as
   (position, bound) pairs with nothing after the last — on every zone
   of random scripts and of fischer-shaped ones, where most rows are
   dead. *)
let min_int_matches_dbm_min =
  Gen.check_holds "min: int reduction == Dbm_min on every script zone"
    ~count:300 ~print:Gen.print_dbm_script
    (QCheck2.Gen.oneof [ Gen.dbm_script; Gen.dead_row_script ])
    (fun s ->
      let k, scaled = Gen.scale_dbm_script s in
      let unscale p =
        match Dbm_int.unpack p with
        | Bnd.Le q -> Bnd.Le (Rational.div q (Rational.of_int k))
        | Bnd.Lt q -> Bnd.Lt (Rational.div q (Rational.of_int k))
        | Bnd.Inf -> Bnd.Inf
      in
      List.for_all2
        (fun zr zi ->
          Dbm_ref.is_empty zr = Dbm_int.is_empty zi
          && (Dbm_ref.is_empty zr
             ||
             let r = Dbm_min.reduce (Dbm_ref.dim zr) (Dbm_ref.get zr) in
             let mc = (Dbm_int.Min.of_zone zi).Dbm_int.Min.mc in
             let kept = Array.length r.Dbm_min.midx in
             Array.length mc = 2 * kept
             && Array.init kept (fun e -> mc.(2 * e)) = r.Dbm_min.midx
             && Array.for_all2
                  (fun b p -> Bnd.compare b (unscale p) = 0)
                  r.Dbm_min.mbnd
                  (Array.init kept (fun e -> mc.((2 * e) + 1)))))
        (D.run_ref s).zones
        (D.run_scratch (module Dbm_int) scaled).zones)

(* [Scratch.minimize], the reduction {!Tm_zones.Reach} runs on a
   successor whose matrix it stores for the first time, must build the
   form [Min.of_zone] builds from the frozen zone, and count the same
   [dbm.ops{op=minimize}]: one per nonempty zone on the int kernel,
   none on the reference kernel, which counts no ops.  One scratch per
   kernel serves every case, random scripts (2-6 clocks) and
   fischer-shaped ones (9-16 clocks) alike, so a reduction that read a
   work-array entry left by a larger zone would show. *)
let c_minimize =
  Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", "minimize") ]

let minimize_delta f =
  let before = Tm_obs.Metrics.value c_minimize in
  let r = f () in
  (r, Tm_obs.Metrics.value c_minimize - before)

let minimize_matches (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    ~counted =
  let scr = K.Scratch.create 16 in
  List.for_all (fun z ->
      K.Scratch.load scr z;
      let in_place, c = minimize_delta (fun () -> K.Scratch.minimize scr) in
      let frozen, c' = minimize_delta (fun () -> K.Min.of_zone z) in
      in_place = frozen && c = c'
      && c = if counted && not (K.is_empty z) then 1 else 0)

let minimize_int = minimize_matches (module Dbm_int) ~counted:true
let minimize_ref = minimize_matches (module Dbm_ref) ~counted:false

let minimize_agrees =
  Gen.check_holds "min: Scratch.minimize == Min.of_zone of the frozen zone"
    ~count:300 ~print:Gen.print_dbm_script
    (QCheck2.Gen.oneof [ Gen.dbm_script; Gen.dead_row_script ])
    (fun s ->
      let scaled = snd (Gen.scale_dbm_script s) in
      minimize_int
        (with_empties (module Dbm_int)
           (D.run_scratch (module Dbm_int) scaled).zones)
      && minimize_ref (with_empties (module Dbm_ref) (D.run_ref s).zones))

(* [Min.zone] rebuilds the zone a form was reduced from — equal, with
   the same hash — on every nonempty script zone of both kernels,
   dead-row zones included, and counts no [minimize] or
   [canonicalize]: a checkpoint holds each stored matrix as its form
   alone, and the resume rebuilds the store from it. *)
let c_canonicalize =
  Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", "canonicalize") ]

let rebuilds (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) zones =
  List.for_all
    (fun z ->
      K.is_empty z
      ||
      let mn = K.Min.of_zone z in
      let c0 = Tm_obs.Metrics.value c_canonicalize in
      let z', m = minimize_delta (fun () -> K.Min.zone mn) in
      K.equal z' z && K.hash z' = K.hash z && m = 0
      && Tm_obs.Metrics.value c_canonicalize = c0)
    zones

let zone_rebuilds =
  Gen.check_holds "min: Min.zone rebuilds the zone, uncounted" ~count:300
    ~print:Gen.print_dbm_script
    (QCheck2.Gen.oneof [ Gen.dbm_script; Gen.dead_row_script ])
    (fun s ->
      let scaled = snd (Gen.scale_dbm_script s) in
      rebuilds (module Dbm_int) (D.run_scratch (module Dbm_int) scaled).zones
      && rebuilds (module Dbm_ref) (D.run_ref s).zones)

(* [Scratch.load] copies nothing: until the first write the int
   scratch reads the loaded zone where it is.  On every zone of a
   script run on the int kernel (all frozen into one arena), plus an
   empty zone of each dimension:
   - with no write after [load], [freeze_into] hands back the zone
     itself, and [hash], [equal_zone] (against every zone, most of
     them in the same arena chunk), [sat], [subsumed_by] and
     [minimize] answer as they do on the zone;
   - [load z1; load z2; remap] reads [z2];
   - an empty zone stays empty through [remap] and [settle];
   - a load/settle/freeze and a load/constrain/remap/settle/freeze
     pipeline leave the zone's arena chunk as it was, word for word. *)
let lazy_load_holds zones =
  let mins =
    List.map (fun z -> (Dbm_int.dim z, Dbm_int.Min.of_zone z)) zones
  in
  let scr = Dbm_int.Scratch.create 16 in
  let arena = Dbm_int.Arena.create () in
  let nines n =
    Dbm_int.prepare_lu ~invs:[||]
      ~lower:(D.lu_bounds (Some 0 :: List.init (n - 1) (fun _ -> Some 9)))
      ~upper:(D.lu_bounds (Some 0 :: List.init (n - 1) (fun _ -> Some 9)))
  in
  let remapped ?before z =
    Option.iter (Dbm_int.Scratch.load scr) before;
    Dbm_int.Scratch.load scr z;
    Dbm_int.Scratch.remap scr (D.one_clock (Dbm_int.dim z) 1 0);
    Dbm_int.Scratch.freeze_into arena scr
  in
  let untouched z pipeline =
    let payload = Array.copy z.Dbm_int.m in
    Dbm_int.Scratch.load scr z;
    pipeline ();
    ignore (Dbm_int.Scratch.freeze_into arena scr);
    z.Dbm_int.m = payload
  in
  let prev = ref (List.hd zones) in
  List.for_all
    (fun z ->
      let n = Dbm_int.dim z and empty = Dbm_int.is_empty z in
      let loaded f =
        Dbm_int.Scratch.load scr z;
        f ()
      in
      let sats =
        List.concat_map
          (fun i ->
            List.concat_map
              (fun j ->
                if i = j then []
                else
                  List.map
                    (fun b -> (i, j, Bnd.Le (Gen.q b)))
                    [ -3; 0; 2 ])
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let in_place =
        loaded (fun () -> Dbm_int.Scratch.freeze_into arena scr == z)
        && loaded (fun () -> Dbm_int.Scratch.hash scr = Dbm_int.hash z)
        && List.for_all
             (fun z' ->
               loaded (fun () -> Dbm_int.Scratch.equal_zone scr z')
               = Dbm_int.equal z z')
             zones
        && loaded (fun () ->
               Dbm_int.Scratch.minimize scr = Dbm_int.Min.of_zone z)
        && List.for_all
             (fun (i, j, b) ->
               loaded (fun () -> Dbm_int.Scratch.sat scr i j b)
               = Dbm_int.sat z i j b)
             sats
        && List.for_all
             (fun (d, m) ->
               d <> n
               || loaded (fun () -> Dbm_int.Scratch.subsumed_by scr m)
                  = Dbm_int.Min.subsumes m z)
             mins
      in
      let reads_last = Dbm_int.equal (remapped ~before:!prev z) (remapped z) in
      prev := z;
      let stays_empty =
        (not empty)
        || loaded (fun () ->
               Dbm_int.Scratch.remap scr (D.one_clock n 1 0);
               Dbm_int.Scratch.is_empty scr
               && (Dbm_int.Scratch.settle (nines n) scr;
                   Dbm_int.Scratch.is_empty scr)
               && Dbm_int.is_empty (Dbm_int.Scratch.freeze_into arena scr))
      in
      in_place && reads_last && stays_empty
      && untouched z (fun () -> Dbm_int.Scratch.settle (nines n) scr)
      && untouched z (fun () ->
             Dbm_int.Scratch.constrain scr 1 0 (Bnd.Le (Gen.q 1));
             Dbm_int.Scratch.remap scr (D.one_clock n 1 0);
             Dbm_int.Scratch.settle (nines n) scr))
    zones

let lazy_load =
  Gen.check_holds
    "scratch: load reads the zone in place until the first write" ~count:200
    ~print:Gen.print_dbm_script
    (QCheck2.Gen.oneof [ Gen.dbm_script; Gen.dead_row_script ])
    (fun s ->
      let scaled = snd (Gen.scale_dbm_script s) in
      lazy_load_holds
        (with_empties (module Dbm_int)
           (D.run_scratch (module Dbm_int) scaled).zones))

(* ------------------------------------------------------------------ *)
(* Arena unit tests (int and ref kernels; ref keeps the arena API but
   allocates every zone on the heap).                                  *)

(* Zones from [up (zero n)], on any kernel's scratch. *)
module Up_zero (K : Tm_zones.Dbm_sig.S) = struct
  (* [up (zero n)]: a settle with no invariants, whose LU bounds leave
     the zone's 0 constants alone. *)
  let load scr n =
    K.Scratch.load scr (K.zero n);
    let zeros = Array.make n (Some Rational.zero) in
    K.Scratch.settle (K.prepare_lu ~invs:[||] ~lower:zeros ~upper:zeros) scr

  (* [up (zero n)] and then [x_1 - 0 <= b], frozen into [arena]. *)
  let constrained arena n b =
    let scr = K.Scratch.create n in
    load scr n;
    Option.iter (K.Scratch.constrain scr 1 0) b;
    K.Scratch.freeze_into arena scr
end

module Up_zero_int = Up_zero (Dbm_int)

let unit_freeze_into (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  let module U = Up_zero (K) in
  let via_arena =
    U.constrained (K.Arena.create ()) 3 (Some (Bnd.Le (Gen.q 5)))
  in
  let persistent =
    Dbm_ref.constrain (Dbm_ref.up (Dbm_ref.zero 3)) 1 0 (Bnd.Le (Gen.q 5))
  in
  Alcotest.(check bool) "freeze_into equals the persistent pipeline" true
    (D.mats_equal
       [ snapshot (module K) via_arena ]
       [ snapshot (module Dbm_ref) persistent ])

let unit_short_circuit (type z)
    (module K : Tm_zones.Dbm_sig.S with type t = z) () =
  let module U = Up_zero (K) in
  let z = U.constrained (K.Arena.create ()) 3 None in
  let a = K.Arena.create () in
  let scr = K.Scratch.create 3 in
  K.Scratch.load scr z;
  Alcotest.(check bool) "no-op pipeline freezes to the original zone" true
    (K.Scratch.freeze_into a scr == z)

(* Int arena chunks stop doubling at [Dbm_int.arena_chunk_max] words.
   Zone [c] of [n] clocks: all clocks equal, at most [c + 1], above
   [c mod 7] — pairwise different.  [freeze_zone] builds it with a
   scratch frozen into [arena]; [heap_zone] builds it alone, in an
   arena of its own. *)
let zone_bounds n c =
  ((1 + (c mod (n - 1)), 0, Bnd.Le (Gen.q (c + 1))),
   (0, 1 + (c / (n - 1) mod (n - 1)), Bnd.Lt (Gen.q (-(c mod 7)))))

let freeze_zone arena scr n c =
  let (i, j, b), (i', j', b') = zone_bounds n c in
  Up_zero_int.load scr n;
  Dbm_int.Scratch.constrain scr i j b;
  Dbm_int.Scratch.constrain scr i' j' b';
  Dbm_int.Scratch.freeze_into arena scr

let heap_zone n c =
  freeze_zone (Dbm_int.Arena.create ()) (Dbm_int.Scratch.create n) n c

let freeze_range arena n lo hi =
  let scr = Dbm_int.Scratch.create n in
  List.init (hi - lo) (fun c -> freeze_zone arena scr n (lo + c))

let heap_range n lo hi = List.init (hi - lo) (fun c -> heap_zone n (lo + c))

(* Enough zones for several capped chunks: every frozen zone must still
   equal its heap copy once all of them are frozen. *)
let unit_capped_growth () =
  let n = 20 in
  let count = 5 * (Dbm_int.arena_chunk_max / (n * n)) in
  let frozen = freeze_range (Dbm_int.Arena.create ()) n 0 count in
  Alcotest.(check bool) "every frozen zone equals its heap copy" true
    (List.for_all2 Dbm_int.equal (heap_range n 0 count) frozen)

let suite =
  [
    roundtrip_ref;
    subsumes_ref;
    subsumes_int;
    subsumed_by_agrees;
    min_int_matches_dbm_min;
    minimize_agrees;
    Alcotest.test_case "arena: freeze_into matches persistent (ref)" `Quick
      (unit_freeze_into (module Dbm_ref));
    Alcotest.test_case "arena: freeze_into matches persistent (int)" `Quick
      (unit_freeze_into (module Dbm_int));
    Alcotest.test_case "arena: no-op freeze returns the original (ref)"
      `Quick
      (unit_short_circuit (module Dbm_ref));
    Alcotest.test_case "arena: no-op freeze returns the original (int)"
      `Quick
      (unit_short_circuit (module Dbm_int));
    Alcotest.test_case "arena: growth past the chunk cap (int)" `Quick
      unit_capped_growth;
    zone_rebuilds;
    lazy_load;
  ]
