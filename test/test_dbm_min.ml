(* Minimal-constraint storage and arena interning.

   The kernels' [Min] modules keep the non-redundant constraint subset
   of each stored zone (Larsen et al., RTSS'97); {!Tm_zones.Reach} uses
   them for waiting/passed subsumption.  These tests pin both kernels
   to the dense semantics (the int kernel on scripts scaled to integer
   constants): [of_zone |> to_zone] must rebuild
   the identical canonical matrix, [subsumes] must agree with dense
   [includes] on every snapshot pair, and reductions of equal zones
   must be structurally equal (the construction is deterministic).  On
   zones with most rows dead, the int reduction must keep exactly the
   constraint list of {!Tm_zones.Dbm_min}, in the same order.

   The arena tests pin the zero-copy storage discipline:
   [copy_into]/[freeze_into] round-trip zone payloads through bump
   arenas (across chunk growth, past the int kernel's chunk cap, and
   across a rewind of an arena that grew past it), a no-op edge
   pipeline still freezes to the original interned zone, and an
   engine-level regression holds verdicts fixed across domain counts —
   a worker arena reset must discard exactly the speculative zones and
   nothing else. *)

module Rational = Tm_base.Rational
module Bnd = Tm_zones.Dbm_bound
module Dbm_ref = Tm_zones.Dbm_ref
module Dbm_int = Tm_zones.Dbm_int
module Reach = Tm_zones.Reach
module F = Tm_systems.Fischer

(* Normalize raw generated indices into valid kernel arguments —
   mirrors the differential harness so both draw the same zones from
   one script. *)
let norm_constraint n (c : Gen.dbm_constraint) =
  let i = c.ci mod n in
  let j = c.cj mod n in
  let j = if i = j then (j + 1) mod n else j in
  let q = Rational.make c.cnum c.cden in
  (i, j, if c.cstrict then Bnd.Lt q else Bnd.Le q)

let norm_clock n x = 1 + (x mod (n - 1))
let lu l = Array.of_list (List.map (Option.map Rational.of_int) l)

(* Every zone a script's persistent interpretation passes through,
   including [top] and any empties. *)
let zones_of_script (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : z list =
  let n = s.Gen.ds_clocks in
  let step z op =
    match op with
    | Gen.Constrain c ->
        let i, j, b = norm_constraint n c in
        K.constrain z i j b
    | Gen.Up -> K.up z
    | Gen.Reset x -> K.reset z (norm_clock n x)
    | Gen.Free x -> K.free z (norm_clock n x)
    | Gen.Intersect cs ->
        K.intersect z
          (List.fold_left
             (fun acc c ->
               let i, j, b = norm_constraint n c in
               K.constrain acc i j b)
             (K.top n) cs)
    | Gen.Extrapolate_lu (l, u) -> K.extrapolate_lu ~lower:(lu l) ~upper:(lu u) z
    | Gen.Settle (invs, l, u) ->
        let inv z (i : Gen.dbm_inv) =
          let q = Rational.make i.inum i.iden in
          K.constrain z (norm_clock n i.ix) 0
            (if i.istrict then Bnd.Lt q else Bnd.Le q)
        in
        K.extrapolate_lu ~lower:(lu l) ~upper:(lu u)
          (List.fold_left inv (K.up z) invs)
  in
  let zs, _ =
    List.fold_left
      (fun (zs, z) op ->
        let z' = step z op in
        (z' :: zs, z'))
      ([ K.top n ], K.top n)
      s.Gen.ds_ops
  in
  List.rev zs

let snapshot (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) (z : z)
    =
  if K.is_empty z then None
  else
    let n = K.dim z in
    Some (Array.init (n * n) (fun k -> K.get z (k / n) (k mod n)))

let snap_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun u v -> Bnd.compare u v = 0) x y
  | _ -> false

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

(* of_zone |> to_zone rebuilds the identical canonical matrix; the
   reduction is deterministic (re-reducing the rebuilt zone gives a
   structurally equal value) and never keeps more constraints than the
   matrix has finite off-diagonal entries. *)
let roundtrip (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) s =
  List.for_all
    (fun z ->
      let m = K.Min.of_zone z in
      let z' = K.Min.to_zone m in
      K.equal z z'
      && snap_equal (snapshot (module K) z) (snapshot (module K) z')
      && K.Min.equal m (K.Min.of_zone z')
      && K.Min.count m <= finite_offdiag (snapshot (module K) z))
    (zones_of_script (module K) s)

let roundtrip_ref =
  Gen.check_holds "min: of_zone |> to_zone is identity (ref)" ~count:200
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      roundtrip (module Dbm_ref) s)

let roundtrip_int =
  Gen.check_holds "min: of_zone |> to_zone is identity (int)" ~count:200
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      roundtrip (module Dbm_int) (snd (Gen.scale_dbm_script s)))

(* The sparse probe must equal the dense verdict on every ordered pair
   of zones a script produces — including empty operands on both
   sides. *)
let subsumes_agrees (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    s =
  let zs = Array.of_list (zones_of_script (module K) s) in
  let ok = ref true in
  Array.iter
    (fun zi ->
      let m = K.Min.of_zone zi in
      Array.iter
        (fun zj -> if K.Min.subsumes m zj <> K.includes zi zj then ok := false)
        zs)
    zs;
  !ok

let subsumes_ref =
  Gen.check_holds "min: subsumes == dense includes (ref)" ~count:150
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      subsumes_agrees (module Dbm_ref) s)

let subsumes_int =
  Gen.check_holds "min: subsumes == dense includes (int)" ~count:150
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      subsumes_agrees (module Dbm_int) (snd (Gen.scale_dbm_script s)))

(* On fischer-shaped zones, where most rows are dead, the int kernel's
   hand-specialized reduction (direct indexing, live pivots only) must
   keep exactly the constraints {!Tm_zones.Dbm_min} keeps on the
   reference zone: same count, same positions, same bounds once divided
   back to the script's unit, same order. *)
let min_int_matches_dbm_min =
  Gen.check_holds "min: int reduction == Dbm_min on dead-row zones"
    ~count:150 ~print:Gen.print_dbm_script Gen.dead_row_script (fun s ->
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
             let r = Tm_zones.Dbm_min.reduce (Dbm_ref.dim zr) (Dbm_ref.get zr) in
             let m = Dbm_int.Min.of_zone zi in
             r.Tm_zones.Dbm_min.midx = m.Dbm_int.Min.midx
             && Array.for_all2
                  (fun b p -> Bnd.compare b (unscale p) = 0)
                  r.Tm_zones.Dbm_min.mbnd m.Dbm_int.Min.mbnd))
        (zones_of_script (module Dbm_ref) s)
        (zones_of_script (module Dbm_int) scaled))

(* ------------------------------------------------------------------ *)
(* Arena unit tests (int and ref kernels; paranoid delegates to int,
   ref keeps the arena API but allocates every zone on the heap).      *)

let unit_copy_into (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  let z = K.constrain (K.up (K.zero 4)) 1 0 (Bnd.Lt (Gen.q 7)) in
  let a = K.Arena.create () in
  Alcotest.(check bool) "copy_into preserves the zone" true
    (K.equal z (K.copy_into a z));
  (* enough copies to force chunk growth; every slice must stay intact *)
  let copies = List.init 300 (fun _ -> K.copy_into a z) in
  Alcotest.(check bool) "all slices equal after chunk growth" true
    (List.for_all (K.equal z) copies)

let unit_freeze_into (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  let a = K.Arena.create () in
  let scr = K.Scratch.create 3 in
  K.Scratch.load scr (K.up (K.zero 3));
  K.Scratch.constrain scr 1 0 (Bnd.Le (Gen.q 5));
  let via_arena = K.Scratch.freeze_into a scr in
  let persistent = K.constrain (K.up (K.zero 3)) 1 0 (Bnd.Le (Gen.q 5)) in
  Alcotest.(check bool) "freeze_into equals the persistent pipeline" true
    (K.equal via_arena persistent)

let unit_short_circuit (type z)
    (module K : Tm_zones.Dbm_sig.S with type t = z) () =
  let z = K.up (K.zero 3) in
  let a = K.Arena.create () in
  let scr = K.Scratch.create 3 in
  K.Scratch.load scr z;
  Alcotest.(check bool) "no-op pipeline freezes to the original zone" true
    (K.Scratch.freeze_into a scr == z)

let unit_reset_reuse (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  (* Speculative freeze, discard, rewind — zones frozen after the
     reset land on the recycled space and must be exactly right. *)
  let a = K.Arena.create () in
  let scr = K.Scratch.create 3 in
  K.Scratch.load scr (K.up (K.zero 3));
  ignore (K.Scratch.freeze_into a scr);
  K.Arena.reset a;
  K.Scratch.load scr (K.top 3);
  K.Scratch.remap scr { Tm_zones.Dbm_sig.src = [| 0; 0; 2 |]; frees = 0 };
  let after = K.Scratch.freeze_into a scr in
  Alcotest.(check bool) "post-reset freeze is exact" true
    (K.equal after (K.reset (K.top 3) 1))

(* Int arena chunks stop doubling at [Dbm_int.arena_chunk_max] words.
   Zone [c] of [n] clocks: all clocks equal, at most [c + 1], above
   [c mod 7] — pairwise different.  [heap_zone] builds it with the
   persistent API, [freeze_zone] with a scratch frozen into [arena]. *)
let zone_bounds n c =
  ((1 + (c mod (n - 1)), 0, Bnd.Le (Gen.q (c + 1))),
   (0, 1 + (c / (n - 1) mod (n - 1)), Bnd.Lt (Gen.q (-(c mod 7)))))

let heap_zone n c =
  let (i, j, b), (i', j', b') = zone_bounds n c in
  Dbm_int.constrain (Dbm_int.constrain (Dbm_int.up (Dbm_int.zero n)) i j b) i' j' b'

let freeze_zone arena scr n c =
  let (i, j, b), (i', j', b') = zone_bounds n c in
  Dbm_int.Scratch.load scr (Dbm_int.up (Dbm_int.zero n));
  Dbm_int.Scratch.constrain scr i j b;
  Dbm_int.Scratch.constrain scr i' j' b';
  Dbm_int.Scratch.freeze_into arena scr

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

(* The commit loop's discipline past the cap: a worker arena fills
   several capped chunks, the survivors are copied into the main arena,
   the worker arena is rewound and refilled with other zones.  The
   copies must not change. *)
let unit_rewind_past_cap () =
  let n = 20 in
  let half = 3 * (Dbm_int.arena_chunk_max / (n * n)) in
  let worker = Dbm_int.Arena.create () and main = Dbm_int.Arena.create () in
  let committed =
    List.map (Dbm_int.copy_into main) (freeze_range worker n 0 half)
  in
  Dbm_int.Arena.reset worker;
  let again = freeze_range worker n half (2 * half) in
  Alcotest.(check bool) "copied-out zones unchanged by the rewind" true
    (List.for_all2 Dbm_int.equal (heap_range n 0 half) committed);
  Alcotest.(check bool) "zones frozen after the rewind are exact" true
    (List.for_all2 Dbm_int.equal (heap_range n half (2 * half)) again)

(* ------------------------------------------------------------------ *)
(* Engine regression: a worker arena reset discards exactly the
   speculative zones.  Any leak of recycled payloads into the shared
   store would perturb the verdict, the zone count or the reachable
   state set somewhere across domain counts. *)

let domains_agree () =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let run d =
    let st, states = Reach.reachable ~domains:d sys bm in
    (st, List.sort compare states)
  in
  let base = run 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d matches domains=1" d)
        true
        (run d = base))
    [ 2; 4 ]

let suite =
  [
    roundtrip_ref;
    roundtrip_int;
    subsumes_ref;
    subsumes_int;
    min_int_matches_dbm_min;
    Alcotest.test_case "arena: copy_into round-trips (ref)" `Quick
      (unit_copy_into (module Dbm_ref));
    Alcotest.test_case "arena: copy_into round-trips (int)" `Quick
      (unit_copy_into (module Dbm_int));
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
    Alcotest.test_case "arena: reset recycles space exactly (ref)" `Quick
      (unit_reset_reuse (module Dbm_ref));
    Alcotest.test_case "arena: reset recycles space exactly (int)" `Quick
      (unit_reset_reuse (module Dbm_int));
    Alcotest.test_case "arena: growth past the chunk cap (int)" `Quick
      unit_capped_growth;
    Alcotest.test_case "arena: rewind past the chunk cap keeps copies (int)"
      `Quick unit_rewind_past_cap;
    Alcotest.test_case "engine: domains 1/2/4 agree" `Quick domains_agree;
  ]
