(* Differential harness for the DBM kernels.

   Every random operation script runs through several interpreters —
   the persistent and destructive [Scratch] APIs of the packed-int
   kernel ({!Tm_zones.Dbm_int}) and of the exact-rational reference
   kernel ({!Tm_zones.Dbm_ref}) — and must produce identical canonical
   matrices, emptiness flags, [sat] verdicts and pairwise inclusion
   verdicts after every single op.  Scripts have rational constants:
   the int kernel runs them scaled by the LCM of their denominators,
   and its matrices are divided back before the comparison.  Random
   location-change maps ([Scratch.remap]) after a script check that the
   int kernel's compact zone is the projection of the reference
   kernel's full-width cylinder.  Random
   boundmap automata with half-unit bounds then check the engines
   fixpoint for fixpoint: {!Tm_zones.Reach.Auto} (int kernel, scaled)
   and {!Tm_zones.Reach.Ref} (reference, unscaled) share one
   exploration discipline, so their stats and reachable state sets must
   agree exactly. *)

module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Bnd = Tm_zones.Dbm_bound
module Dbm_ref = Tm_zones.Dbm_ref
module Dbm_int = Tm_zones.Dbm_int
module Reach = Tm_zones.Reach
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module F = Tm_systems.Fischer

(* Normalize raw generated indices into valid kernel arguments. *)
let norm_constraint n (c : Gen.dbm_constraint) =
  let i = c.ci mod n in
  let j = c.cj mod n in
  let j = if i = j then (j + 1) mod n else j in
  let q = Rational.make c.cnum c.cden in
  (i, j, if c.cstrict then Bnd.Lt q else Bnd.Le q)

let norm_clock n x = 1 + (x mod (n - 1))
let lu_bounds l = Array.of_list (List.map (Option.map Rational.of_int) l)

let norm_inv n (i : Gen.dbm_inv) =
  let q = Rational.make i.inum i.iden in
  (norm_clock n i.ix, if i.istrict then Bnd.Lt q else Bnd.Le q)

(* The persistent reading of [Scratch.settle]: [up], one
   [constrain x 0 b] per invariant, then [extrapolate_lu]. *)
let settle_persistent (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (z : z) invs l u =
  let z = List.fold_left (fun z (x, b) -> K.constrain z x 0 b) (K.up z) invs in
  K.extrapolate_lu ~lower:(lu_bounds l) ~upper:(lu_bounds u) z

(* A kernel-independent record of everything observable about a run. *)
type trace = {
  empties : bool list;
  mats : Bnd.t array option list;  (** canonical matrix after each op *)
  sats : bool list;  (** [sat] verdict probed before each Constrain *)
  incl : bool list;  (** pairwise inclusion verdicts over all snapshots *)
}

let snapshot (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) (z : z)
    =
  if K.is_empty z then None
  else
    let n = K.dim z in
    Some (Array.init (n * n) (fun k -> K.get z (k / n) (k mod n)))

(* One op of an [n]-clock script on the persistent API of any kernel,
   with the [sat] verdict probed before a Constrain. *)
let step_persistent (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    n (z : z) op =
  match op with
  | Gen.Constrain c ->
      let i, j, b = norm_constraint n c in
      (K.constrain z i j b, Some (K.sat z i j b))
  | Gen.Up -> (K.up z, None)
  | Gen.Reset x -> (K.reset z (norm_clock n x), None)
  | Gen.Free x -> (K.free z (norm_clock n x), None)
  | Gen.Intersect cs ->
      let other =
        List.fold_left
          (fun acc c ->
            let i, j, b = norm_constraint n c in
            K.constrain acc i j b)
          (K.top n) cs
      in
      (K.intersect z other, None)
  | Gen.Extrapolate_lu (l, u) ->
      (K.extrapolate_lu ~lower:(lu_bounds l) ~upper:(lu_bounds u) z, None)
  | Gen.Settle (invs, l, u) ->
      (settle_persistent (module K) z (List.map (norm_inv n) invs) l u, None)

(* Interpret a script with the persistent API of any kernel. *)
let run_persistent (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : trace =
  let n = s.Gen.ds_clocks in
  let snap = snapshot (module K) in
  let _, zones_rev, empties, mats, sats =
    List.fold_left
      (fun (z, zs, es, ms, ss) op ->
        let z', sat = step_persistent (module K) n z op in
        ( z',
          z' :: zs,
          K.is_empty z' :: es,
          snap z' :: ms,
          match sat with Some v -> v :: ss | None -> ss ))
      (K.top n, [], [], [], [])
      s.Gen.ds_ops
  in
  let zones = Array.of_list (List.rev zones_rev) in
  let incl = ref [] in
  for i = Array.length zones - 1 downto 0 do
    for j = Array.length zones - 1 downto 0 do
      incl := K.includes zones.(i) zones.(j) :: !incl
    done
  done;
  {
    empties = List.rev empties;
    mats = List.rev mats;
    sats = List.rev sats;
    incl = !incl;
  }

(* The clock map that resets ([0]) or frees ([-1]) clock [x] of an
   [n]-clock zone and keeps every other clock: how a scratch resets or
   frees one clock. *)
let one_clock n x v =
  {
    Tm_zones.Dbm_sig.src = Array.init n (fun k -> if k = x then v else k);
    frees = (if v < 0 then 1 else 0);
  }

(* Interpret the same script with a kernel's destructive Scratch API
   (intersect, up and extrapolate_lu, which Scratch does not provide on
   their own, round-trip through freeze, the persistent op and load;
   reset and free are one-clock [remap]s). *)
let run_scratch (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : trace =
  let n = s.Gen.ds_clocks in
  let module Sc = K.Scratch in
  let scr = Sc.create n in
  Sc.load scr (K.top n);
  let step op =
    match op with
    | Gen.Constrain c ->
        let i, j, b = norm_constraint n c in
        let sat = Sc.sat scr i j b in
        Sc.constrain scr i j b;
        Some sat
    | Gen.Up ->
        Sc.load scr (K.up (Sc.freeze scr));
        None
    | Gen.Reset x ->
        Sc.remap scr (one_clock n (norm_clock n x) 0);
        None
    | Gen.Free x ->
        Sc.remap scr (one_clock n (norm_clock n x) (-1));
        None
    | Gen.Intersect cs ->
        let other =
          List.fold_left
            (fun acc c ->
              let i, j, b = norm_constraint n c in
              K.constrain acc i j b)
            (K.top n) cs
        in
        Sc.load scr (K.intersect (Sc.freeze scr) other);
        None
    | Gen.Extrapolate_lu (l, u) ->
        Sc.load scr
          (K.extrapolate_lu ~lower:(lu_bounds l) ~upper:(lu_bounds u)
             (Sc.freeze scr));
        None
    | Gen.Settle (invs, l, u) ->
        Sc.settle
          (K.prepare_lu
             ~invs:(Array.of_list (List.map (norm_inv n) invs))
             ~lower:(lu_bounds l) ~upper:(lu_bounds u))
          scr;
        None
  in
  let zones_rev, empties, mats, sats =
    List.fold_left
      (fun (zs, es, ms, ss) op ->
        let sat = step op in
        let z = Sc.freeze scr in
        ( z :: zs,
          K.is_empty z :: es,
          snapshot (module K) z :: ms,
          match sat with Some v -> v :: ss | None -> ss ))
      ([], [], [], [])
      s.Gen.ds_ops
  in
  let zones = Array.of_list (List.rev zones_rev) in
  let incl = ref [] in
  for i = Array.length zones - 1 downto 0 do
    for j = Array.length zones - 1 downto 0 do
      incl := K.includes zones.(i) zones.(j) :: !incl
    done
  done;
  {
    empties = List.rev empties;
    mats = List.rev mats;
    sats = List.rev sats;
    incl = !incl;
  }

(* [f ()] and the [dbm.ops] counts it adds, op by op. *)
let counted f =
  let counters =
    List.map
      (fun o -> Tm_obs.Metrics.counter "dbm.ops" ~labels:[ ("op", o) ])
      [ "canonicalize"; "constrain"; "up"; "reset"; "free"; "intersect";
        "includes"; "extrapolate"; "sat" ]
  in
  let before = List.map Tm_obs.Metrics.value counters in
  let r = f () in
  (r, List.map2 ( - ) (List.map Tm_obs.Metrics.value counters) before)

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

let traces_equal t1 t2 =
  t1.empties = t2.empties && t1.sats = t2.sats && t1.incl = t2.incl
  && mats_equal t1.mats t2.mats

(* A trace recorded in a time unit [1/k] as fine, read back in the
   original unit: every matrix entry divided by [k], every boolean
   verdict unchanged. *)
let unscale k t =
  let div q = Rational.div q (Rational.of_int k) in
  let bnd = function
    | Bnd.Le q -> Bnd.Le (div q)
    | Bnd.Lt q -> Bnd.Lt (div q)
    | Bnd.Inf -> Bnd.Inf
  in
  { t with mats = List.map (Option.map (Array.map bnd)) t.mats }

let script_diff_int_vs_ref =
  Gen.check_holds "script: int kernel (scaled) == ref kernel" ~count:500
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let k, scaled = Gen.scale_dbm_script s in
      traces_equal
        (unscale k (run_persistent (module Dbm_int) scaled))
        (run_persistent (module Dbm_ref) s))

let script_diff_ref_scratch =
  Gen.check_holds "script: ref scratch replay == persistent ref" ~count:300
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      traces_equal
        (run_scratch (module Dbm_ref) s)
        (run_persistent (module Dbm_ref) s))

(* The int scratch also counts the persistent replay's [dbm.ops]: a
   settle counts the up, constrains, extrapolate and closure of the
   sequence it fuses. *)
let script_diff_int_scratch =
  Gen.check_holds "script: int scratch replay == persistent int" ~count:300
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let _, scaled = Gen.scale_dbm_script s in
      let scratch, by_scratch =
        counted (fun () -> run_scratch (module Dbm_int) scaled)
      in
      let persistent, by_persistent =
        counted (fun () -> run_persistent (module Dbm_int) scaled)
      in
      traces_equal scratch persistent && by_scratch = by_persistent)

(* Most clocks freed before every LU extrapolation, as in a fischer
   successor pipeline: the closure and the minimization skip dead rows
   there, so the int kernel must still land on the reference zone,
   emptiness included, after every op — on both of its APIs, which
   count the same [dbm.ops]. *)
let dead_rows_int_vs_ref =
  Gen.check_holds "dead rows: int kernel (scaled) == ref kernel" ~count:300
    ~print:Gen.print_dbm_script Gen.dead_row_script (fun s ->
      let k, scaled = Gen.scale_dbm_script s in
      let int_trace, by_persistent =
        counted (fun () -> run_persistent (module Dbm_int) scaled)
      in
      let scratch_trace, by_scratch =
        counted (fun () -> run_scratch (module Dbm_int) scaled)
      in
      traces_equal (unscale k int_trace) (run_persistent (module Dbm_ref) s)
      && traces_equal scratch_trace int_trace
      && by_scratch = by_persistent)

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
  QCheck2.Gen.(pair Gen.dbm_script (list_repeat 4 (int_range 0 3)))

let print_remap (s, fates) =
  Printf.sprintf "%s then [%s]" (Gen.print_dbm_script s)
    (String.concat ","
       (List.filteri
          (fun i _ -> i < s.Gen.ds_clocks - 1)
          (List.map (fun f -> print_fate (fate_of f)) fates)))

let final_zone (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) s =
  let n = s.Gen.ds_clocks in
  List.fold_left
    (fun z op -> fst (step_persistent (module K) n z op))
    (K.top n) s.Gen.ds_ops

let remapped (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) z r =
  let scr = K.Scratch.create (K.dim z) in
  K.Scratch.load scr z;
  K.Scratch.remap scr r;
  snapshot (module K) (K.Scratch.freeze scr)

(* A random script, then a random keep/new/drop/free map: the compact
   int zone (scaled, divided back) and the reference kernel's own
   [remap] must both equal, entry by entry, the projection of the
   full-width reference zone with the dropped clocks freed and the new
   clocks reset — the cylinder rule the full-width kernels rely on. *)
let remap_int_vs_ref =
  Gen.check_holds "remap: compact int zone == projected ref cylinder"
    ~count:500 ~print:print_remap remap_gen (fun (s, fates) ->
      let n = s.Gen.ds_clocks in
      let k, scaled = Gen.scale_dbm_script s in
      let _, r = remap_of n fates in
      let want = projected n fates (final_zone (module Dbm_ref) s) in
      let unscaled m =
        (unscale k { empties = []; mats = [ m ]; sats = []; incl = [] }).mats
      in
      let int_zone = final_zone (module Dbm_int) scaled in
      let ref_zone = final_zone (module Dbm_ref) s in
      mats_equal (unscaled (remapped (module Dbm_int) int_zone r)) [ want ]
      && mats_equal [ remapped (module Dbm_ref) ref_zone r ] [ want ])

(* [Scratch.settle] on hand-picked zones, one per corner of the one
   sweep: the int scratch, the int persistent sequence ([up], each
   invariant, [extrapolate_lu]) and the reference kernel must land on
   one zone, the scratch must count exactly the [dbm.ops] of the
   persistent sequence, and the zone must show the corner. *)
let unit_settle_cases () =
  let le c = Bnd.Le (Gen.q c) and lt c = Bnd.Lt (Gen.q c) in
  let constr (i, j, c) =
    Gen.Constrain { ci = i; cj = j; cnum = c; cden = 1; cstrict = false }
  in
  let case name ~shows n zone invs l u =
    let s = { Gen.ds_clocks = n; ds_ops = List.map constr zone } in
    let zi = final_zone (module Dbm_int) s in
    let persistent, by_ops =
      counted (fun () -> settle_persistent (module Dbm_int) zi invs l u)
    in
    let scr = Dbm_int.Scratch.create n in
    Dbm_int.Scratch.load scr zi;
    let lu =
      Dbm_int.prepare_lu ~invs:(Array.of_list invs) ~lower:(lu_bounds l)
        ~upper:(lu_bounds u)
    in
    let fused, by_settle =
      counted (fun () ->
          Dbm_int.Scratch.settle lu scr;
          Dbm_int.Scratch.freeze scr)
    in
    let reference =
      settle_persistent (module Dbm_ref) (final_zone (module Dbm_ref) s) invs
        l u
    in
    let snap_int = snapshot (module Dbm_int) in
    Alcotest.(check bool)
      (name ^ ": scratch == persistent") true
      (mats_equal [ snap_int fused ] [ snap_int persistent ]);
    Alcotest.(check bool)
      (name ^ ": persistent == ref") true
      (mats_equal [ snap_int persistent ]
         [ snapshot (module Dbm_ref) reference ]);
    Alcotest.(check (list int)) (name ^ ": dbm.ops") by_ops by_settle;
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
    ~shows:(fun z -> get z 0 1 = lt (-3) && get z 1 0 = le 8)

(* The successor tail runs once per edge, so the int kernel's settle
   must not allocate: a thousand calls cost no more minor words than
   ten.  The zone has a live row, a wiped row and invariants, so every
   branch of the sweep runs, and the widening re-closes every time. *)
let unit_settle_allocates_nothing () =
  let n = 4 in
  let scr = Dbm_int.Scratch.create n in
  Dbm_int.Scratch.load scr
    (Dbm_int.constrain (Dbm_int.top n) 0 1 (Bnd.Le (Gen.q (-5))));
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
   unchanged entry for entry (so [freeze] hands back the loaded zone
   itself), and the map counts no reset and no free. *)
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
      (K.Scratch.freeze scr == z);
    Alcotest.(check (pair int int))
      (name ^ ": no logical op counted")
      (r0, f0)
      (Tm_obs.Metrics.value c_reset, Tm_obs.Metrics.value c_free)
  in
  let zone (type z) (module K : Tm_zones.Dbm_sig.S with type t = z) =
    let z = K.up (K.constrain (K.zero 4) 0 2 (Bnd.Le (Gen.q (-1)))) in
    let z = K.constrain (K.reset z 3) 1 0 (Bnd.Lt (Gen.q 6)) in
    K.free z 2
  in
  check "int" (module Dbm_int) (zone (module Dbm_int));
  check "int, empty" (module Dbm_int)
    (Dbm_int.constrain (Dbm_int.zero 3) 1 0 (Bnd.Lt (Gen.q 0)));
  check "ref" (module Dbm_ref) (zone (module Dbm_ref))

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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

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
    (contains (Reach.Auto.fingerprint_reachable sys bm) "|kernel=int|");
  Alcotest.(check bool) "reachable fingerprints differ" false
    (Reach.Auto.fingerprint_reachable sys bm
    = Reach.Auto.fingerprint_reachable sys (double bm));
  Alcotest.(check bool) "invariant fingerprints differ" false
    (Reach.Auto.fingerprint_invariant sys bm
    = Reach.Auto.fingerprint_invariant sys (double bm))

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
    (Reach.Auto.fingerprint_invariant sys bm);
  Alcotest.(check string) "condition" (fp "condition:U_enter:[2, 3]" 17)
    (Reach.Auto.fingerprint_condition sys bm (F.u_enter p))

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
              (contains m "time scale" && contains m naming))
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

(* A couple of deterministic regressions pinning kernel corner cases
   the random scripts found valuable to keep explicit. *)
let unit_empty_freeze () =
  let scr = Dbm_int.Scratch.create 3 in
  Dbm_int.Scratch.load scr (Dbm_int.zero 3);
  (* x1 - 0 <= -1 is unsatisfiable at the origin *)
  Dbm_int.Scratch.constrain scr 1 0 (Bnd.Le (Gen.q (-1)));
  Alcotest.(check bool) "scratch empty" true (Dbm_int.Scratch.is_empty scr);
  Alcotest.(check bool) "frozen empty" true
    (Dbm_int.is_empty (Dbm_int.Scratch.freeze scr))

(* A negative cycle among live clocks, with dead rows before, between
   and after them: the closure skips the dead pivots, and must still
   find the cycle.  Clocks 1 and 4 are live, 2, 3 and 5 are dead (rows
   of [top] off the reference clock are all [Inf]); the intersection
   demands x1 - x4 <= -1 and x4 - x1 <= 0. *)
let unit_dead_pivot_negative_cycle () =
  let check (type z) name (module K : Tm_zones.Dbm_sig.S with type t = z) =
    let a = K.constrain (K.top 6) 4 1 (Bnd.Le (Gen.q 0)) in
    let a = K.constrain a 1 0 (Bnd.Le (Gen.q 3)) in
    let b = K.constrain (K.top 6) 1 4 (Bnd.Le (Gen.q (-1))) in
    Alcotest.(check bool) (name ^ ": operands nonempty") false
      (K.is_empty a || K.is_empty b);
    Alcotest.(check bool) (name ^ ": intersection empty") true
      (K.is_empty (K.intersect a b))
  in
  check "int" (module Dbm_int);
  check "ref" (module Dbm_ref)

let unit_sat_is_o1_consistent () =
  (* sat must agree with the constrain-then-check definition on a
     canonical zone; the constants are the sixths-valued corners
     7/2, -5/3, -11/2, -31/6, 2, -7/2, 0 scaled by 6. *)
  let z = Dbm_int.constrain (Dbm_int.top 3) 1 0 (Bnd.Lt (Gen.q 21)) in
  let z = Dbm_int.constrain z 0 2 (Bnd.Le (Gen.q (-10))) in
  List.iter
    (fun (i, j, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "sat %d %d" i j)
        (not (Dbm_int.is_empty (Dbm_int.constrain z i j b)))
        (Dbm_int.sat z i j b))
    [
      (2, 1, Bnd.Le (Gen.q (-33)));
      (2, 1, Bnd.Lt (Gen.q (-31)));
      (1, 2, Bnd.Le (Gen.q 12));
      (0, 1, Bnd.Lt (Gen.q (-21)));
      (2, 0, Bnd.Le (Gen.q 0));
    ]

(* A fractional L/U bound or invariant can only come from a scaling
   bug: both LU entry points — the persistent one and the preparation
   of a layout's tail, which packs the invariants once per layout —
   refuse it instead of rounding it. *)
let unit_lu_rejects_fractions () =
  let half = Some (Rational.make 1 2) and two = Some (Gen.q 2) in
  let z = Dbm_int.top 3 in
  let refused ?(what = "LU bound") where f =
    match f () with
    | () -> Alcotest.failf "%s: half-unit %s accepted" where what
    | exception Invalid_argument m ->
        Alcotest.(check string) where
          ("Dbm_int." ^ where ^ ": non-integer " ^ what)
          m
  in
  refused "extrapolate_lu" (fun () ->
      ignore
        (Dbm_int.extrapolate_lu ~lower:[| two; half; two |]
           ~upper:[| two; two; two |] z));
  refused "prepare_lu" (fun () ->
      ignore
        (Dbm_int.prepare_lu ~invs:[||] ~lower:[| two; two; two |]
           ~upper:[| two; two; half |]));
  refused ~what:"invariant" "prepare_lu" (fun () ->
      ignore
        (Dbm_int.prepare_lu
           ~invs:[| (1, Bnd.Le (Gen.q 1)); (2, Bnd.Lt (Rational.make 3 2)) |]
           ~lower:[| two; two; two |] ~upper:[| two; two; two |]));
  (* integral bounds still go through *)
  ignore
    (Dbm_int.extrapolate_lu ~lower:[| two; two; two |]
       ~upper:[| two; None; two |] z)

let suite =
  [
    script_diff_int_vs_ref;
    script_diff_ref_scratch;
    script_diff_int_scratch;
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
    Alcotest.test_case "closure: negative cycle past dead pivots is empty"
      `Quick unit_dead_pivot_negative_cycle;
    Alcotest.test_case "sat: O(1) formula matches definition" `Quick
      unit_sat_is_o1_consistent;
    Alcotest.test_case "lu: fractional bounds refused on both entry points"
      `Quick unit_lu_rejects_fractions;
    Alcotest.test_case "remap: same live set leaves the zone unchanged"
      `Quick unit_remap_same_live_set;
    Alcotest.test_case "settle: one sweep == up, invariants, LU on corners"
      `Quick unit_settle_cases;
    Alcotest.test_case "settle: no allocation per call" `Quick
      unit_settle_allocates_nothing;
  ]
