(* Differential harness for the DBM kernels.

   Every random operation script runs through several interpreters —
   the persistent and destructive [Scratch] APIs of the packed-int
   kernel ({!Tm_zones.Dbm_int}) and of the exact-rational reference
   kernel ({!Tm_zones.Dbm_ref}) — and must produce identical canonical
   matrices, emptiness flags, [sat] verdicts and pairwise inclusion
   verdicts after every single op.  Scripts have rational constants:
   the int kernel runs them scaled by the LCM of their denominators,
   and its matrices are divided back before the comparison.  Random
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

(* Interpret a script with the persistent API of any kernel. *)
let run_persistent (type z) (module K : Tm_zones.Dbm_sig.S with type t = z)
    (s : Gen.dbm_script) : trace =
  let n = s.Gen.ds_clocks in
  let snap = snapshot (module K) in
  let step (z : z) op =
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
  in
  let _, zones_rev, empties, mats, sats =
    List.fold_left
      (fun (z, zs, es, ms, ss) op ->
        let z', sat = step z op in
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

(* Interpret the same script with a kernel's destructive Scratch API
   (intersect round-trips through freeze, the one operation Scratch
   does not provide). *)
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
        Sc.up scr;
        None
    | Gen.Reset x ->
        Sc.reset scr (norm_clock n x);
        None
    | Gen.Free x ->
        Sc.free scr (norm_clock n x);
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
        Sc.extrapolate_lu ~lower:(lu_bounds l) ~upper:(lu_bounds u) scr;
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

let script_diff_int_scratch =
  Gen.check_holds "script: int scratch replay == persistent int" ~count:300
    ~print:Gen.print_dbm_script Gen.dbm_script (fun s ->
      let _, scaled = Gen.scale_dbm_script s in
      traces_equal
        (run_scratch (module Dbm_int) scaled)
        (run_persistent (module Dbm_int) scaled))

(* Most clocks freed before every LU extrapolation, as in a fischer
   successor pipeline: the closure and the minimization skip dead rows
   there, so the int kernel must still land on the reference zone,
   emptiness included, after every op — on both of its APIs. *)
let dead_rows_int_vs_ref =
  Gen.check_holds "dead rows: int kernel (scaled) == ref kernel" ~count:300
    ~print:Gen.print_dbm_script Gen.dead_row_script (fun s ->
      let k, scaled = Gen.scale_dbm_script s in
      let int_trace = run_persistent (module Dbm_int) scaled in
      traces_equal (unscale k int_trace) (run_persistent (module Dbm_ref) s)
      && traces_equal (run_scratch (module Dbm_int) scaled) int_trace)

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

(* A fractional L/U bound can only come from a scaling bug: both LU
   entry points refuse it instead of rounding it. *)
let unit_lu_rejects_fractions () =
  let half = Some (Rational.make 1 2) and two = Some (Gen.q 2) in
  let z = Dbm_int.top 3 in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: half-unit LU bound accepted" what
    | exception Invalid_argument m ->
        Alcotest.(check string) what
          ("Dbm_int." ^ what ^ ": non-integer LU bound")
          m
  in
  refused "extrapolate_lu" (fun () ->
      ignore
        (Dbm_int.extrapolate_lu ~lower:[| two; half; two |]
           ~upper:[| two; two; two |] z));
  refused "Scratch.extrapolate_lu" (fun () ->
      let scr = Dbm_int.Scratch.create 3 in
      Dbm_int.Scratch.load scr z;
      Dbm_int.Scratch.extrapolate_lu ~lower:[| two; two; two |]
        ~upper:[| two; two; half |] scr);
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
  ]
