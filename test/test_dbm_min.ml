(* Minimal-constraint storage and arena interning.

   The kernels' [Min] modules keep the non-redundant constraint subset
   of each stored zone (Larsen et al., RTSS'97); {!Tm_zones.Reach} uses
   them for waiting/passed subsumption.  These tests pin them to the
   dense semantics: {!Tm_zones.Dbm_min}'s reduction rebuilds the
   identical canonical matrix of every reference zone a script passes
   through, [subsumes] agrees with the reference kernel's dense
   [includes] on every snapshot pair (the int kernel on scripts scaled
   to integer constants), and on every script zone, dead-row zones
   included, the int reduction keeps exactly the constraint list of
   {!Tm_zones.Dbm_min}, in the same order.

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
module Dbm_min = Tm_zones.Dbm_min
module Reach = Tm_zones.Reach
module F = Tm_systems.Fischer
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

(* The int kernel's hand-specialized reduction (direct indexing, live
   pivots only) must keep exactly the constraints {!Tm_zones.Dbm_min}
   keeps on the reference zone: same count, same positions, same bounds
   once divided back to the script's unit, same order — on every zone
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
             let m = Dbm_int.Min.of_zone zi in
             r.Dbm_min.midx = m.Dbm_int.Min.midx
             && Array.for_all2
                  (fun b p -> Bnd.compare b (unscale p) = 0)
                  r.Dbm_min.mbnd m.Dbm_int.Min.mbnd))
        (D.run_ref s).zones
        (D.run_scratch (module Dbm_int) scaled).zones)

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

let unit_copy_into (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  let module U = Up_zero (K) in
  let a = K.Arena.create () in
  let z = U.constrained (K.Arena.create ()) 4 (Some (Bnd.Lt (Gen.q 7))) in
  Alcotest.(check bool) "copy_into preserves the zone" true
    (K.equal z (K.copy_into a z));
  (* enough copies to force chunk growth; every slice must stay intact *)
  let copies = List.init 300 (fun _ -> K.copy_into a z) in
  Alcotest.(check bool) "all slices equal after chunk growth" true
    (List.for_all (K.equal z) copies)

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

let unit_reset_reuse (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    () =
  (* Speculative freeze, discard, rewind — zones frozen after the
     reset land on the recycled space and must be exactly right. *)
  let module U = Up_zero (K) in
  let a = K.Arena.create () in
  let scr = K.Scratch.create 3 in
  U.load scr 3;
  ignore (K.Scratch.freeze_into a scr);
  K.Arena.reset a;
  K.Scratch.load scr (D.scratch_top (module K) 3);
  K.Scratch.remap scr { Tm_zones.Dbm_sig.src = [| 0; 0; 2 |]; frees = 0 };
  let after = K.Scratch.freeze_into a scr in
  Alcotest.(check bool) "post-reset freeze is exact" true
    (D.mats_equal
       [ snapshot (module K) after ]
       [ snapshot (module Dbm_ref) (Dbm_ref.reset (Dbm_ref.top 3) 1) ])

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
