module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Condition = Tm_timed.Condition
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Reach = Tm_zones.Reach
module Clock_enc = Tm_zones.Clock_enc
module Registry = Tm_systems.Registry
module RM = Tm_systems.Resource_manager
module IM = Tm_systems.Interrupt_manager
module SR = Tm_systems.Signal_relay
module RG = Tm_systems.Request_grant
module F = Tm_systems.Fischer
open Gen

let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1
let sys = RM.system p
let bm = RM.boundmap p

let is_verified = function Reach.Verified _ -> true | _ -> false
let is_upper = function Reach.Upper_violation _ -> true | _ -> false
let is_lower = function Reach.Lower_violation _ -> true | _ -> false

let g1_with lo hi =
  Condition.make ~name:"G1x"
    ~t_start:(fun _ -> true)
    ~bounds:(Interval.make lo hi)
    ~in_pi:(fun a -> a = RM.Grant)
    ()

let test_manager_bounds_verified () =
  Alcotest.(check bool) "G1" true
    (is_verified (Reach.check_condition sys bm (RM.g1 p)));
  Alcotest.(check bool) "G2" true
    (is_verified (Reach.check_condition sys bm (RM.g2 p)))

let test_manager_tight_bounds_refuted () =
  Alcotest.(check bool) "upper 9 < 10 refuted" true
    (is_upper (Reach.check_condition sys bm (g1_with (q 6) (Time.of_int 9))));
  Alcotest.(check bool) "lower 7 > 6 refuted" true
    (is_lower (Reach.check_condition sys bm (g1_with (q 7) (Time.of_int 10))))

let test_manager_bounds_are_tight () =
  (* the proved interval is exactly [6, 10]: both one-sided
     tightenings fail, and the interval itself verifies *)
  Alcotest.(check bool) "exact interval verifies" true
    (is_verified
       (Reach.check_condition sys bm (g1_with (q 6) (Time.of_int 10))));
  Alcotest.(check bool) "cannot shave the upper" true
    (is_upper
       (Reach.check_condition sys bm (g1_with (q 6) (Time.Fin (qq 19 2)))));
  Alcotest.(check bool) "cannot raise the lower" true
    (is_lower
       (Reach.check_condition sys bm (g1_with (qq 13 2) (Time.of_int 10))))

let test_interrupt_manager () =
  let ip = IM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  Alcotest.(check bool) "G1 verified" true
    (is_verified
       (Reach.check_condition (IM.system ip) (IM.boundmap ip) (IM.g1 ip)));
  Alcotest.(check bool) "G2 verified" true
    (is_verified
       (Reach.check_condition (IM.system ip) (IM.boundmap ip) (IM.g2 ip)));
  (* l >= c1 also analyzable for the interrupt variant *)
  let ip2 = IM.params_of_ints ~k:2 ~c1:2 ~c2:3 ~l:3 in
  Alcotest.(check bool) "G2 verified with l >= c1" true
    (is_verified
       (Reach.check_condition (IM.system ip2) (IM.boundmap ip2) (IM.g2 ip2)))

let test_relay () =
  let rp = SR.params_of_ints ~n:5 ~d1:1 ~d2:2 in
  let line = SR.line rp and rbm = SR.boundmap rp in
  let u lo hi =
    Condition.make ~name:"U"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:(Interval.make lo hi)
      ~in_pi:(fun a -> a = SR.Signal rp.SR.n)
      ()
  in
  Alcotest.(check bool) "[5,10] verified" true
    (is_verified (Reach.check_condition line rbm (u (q 5) (Time.of_int 10))));
  Alcotest.(check bool) "[5,9] refuted" true
    (is_upper (Reach.check_condition line rbm (u (q 5) (Time.of_int 9))));
  Alcotest.(check bool) "[6,10] refuted" true
    (is_lower (Reach.check_condition line rbm (u (q 6) (Time.of_int 10))))

let test_reachable_prunes_untimed_states () =
  (* under timing, the polling manager TIMER never drops below 0
     (Lemma 4.1); untimed exploration reaches negative timers *)
  let _, states = Reach.reachable sys bm in
  Alcotest.(check bool) "timer nonnegative in timed reachable set" true
    (List.for_all (fun s -> RM.timer s >= 0) states)

let test_state_invariant () =
  (match Reach.check_state_invariant sys bm (fun s -> RM.timer s >= 0) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Lemma 4.1 part 1 should hold");
  match Reach.check_state_invariant sys bm (fun s -> RM.timer s > 0) with
  | Error s -> Alcotest.(check int) "violated at timer 0" 0 (RM.timer s)
  | Ok _ -> Alcotest.fail "timer reaches 0"

let test_request_grant_disabling () =
  let rgp = RG.params_of_ints ~r1:2 ~r2:5 ~w1:1 ~w2:3 in
  let rsys = RG.system rgp and rbm = RG.boundmap rgp in
  Alcotest.(check bool) "with S verified" true
    (is_verified (Reach.check_condition rsys rbm (RG.u_response rgp)));
  Alcotest.(check bool) "without S refuted" true
    (is_upper
       (Reach.check_condition rsys rbm (RG.u_response_no_disable rgp)));
  (* when requests are spaced out, S is never needed *)
  let spaced = RG.params_of_ints ~r1:4 ~r2:6 ~w1:1 ~w2:3 in
  Alcotest.(check bool) "spaced without S verified" true
    (is_verified
       (Reach.check_condition (RG.system spaced) (RG.boundmap spaced)
          (RG.u_response_no_disable spaced)))

let test_open_system_rejected () =
  (* the bare manager has TICK as an input: must be rejected *)
  let m = RM.manager p in
  let mbm =
    Tm_timed.Boundmap.of_list
      [ (RM.local_class, Interval.make Rational.zero (Time.Fin (q 1))) ]
  in
  Alcotest.(check bool) "open system" true
    (match Reach.reachable m mbm with
    | exception Reach.Open_system _ -> true
    | _ -> false)

let test_uncovered_class_rejected () =
  let bad = Tm_timed.Boundmap.of_list [] in
  Alcotest.(check bool) "uncovered class" true
    (match Reach.reachable sys bad with
    | exception Reach.Open_system _ -> true
    | _ -> false)

let test_fractional_constants () =
  (* exactness with non-integer bounds: k=2, c1=3/2, c2=5/2, l=1/2
     gives first grant in [3, 11/2] *)
  let pf = RM.params ~k:2 ~c1:(qq 3 2) ~c2:(qq 5 2) ~l:(qq 1 2) in
  let fsys = RM.system pf and fbm = RM.boundmap pf in
  Alcotest.(check bool) "exact fractional bound verified" true
    (is_verified (Reach.check_condition fsys fbm (RM.g1 pf)));
  let tighter =
    Condition.make ~name:"t"
      ~t_start:(fun _ -> true)
      ~bounds:(Interval.make (q 3) (Time.Fin (qq 21 4)))
      ~in_pi:(fun a -> a = RM.Grant)
      ()
  in
  Alcotest.(check bool) "21/4 < 11/2 refuted" true
    (is_upper (Reach.check_condition fsys fbm tighter))

(* --- LU-widening tests ----------------------------------------------
   LU extrapolation is a pure state-space reduction: it may merge or
   drop zones but must never change a verdict or the reachable base
   states.  Its soundness is checked against the Alur–Dill region
   construction in test_region.ml and test_oracle.ml; here every case
   is pinned to the verdict the paper predicts, on the int engine and
   on the rational reference engine, which must also agree zone for
   zone. *)

let verdict_tag = function
  | Reach.Verified _ -> "verified"
  | Reach.Lower_violation _ -> "lower"
  | Reach.Upper_violation _ -> "upper"
  | Reach.Unknown _ -> "unknown"
  | Reach.Unsupported m -> "unsupported:" ^ m

let zones_of = function
  | Reach.Verified st | Reach.Lower_violation st | Reach.Upper_violation st
    ->
      st.Reach.zones
  | Reach.Unknown e -> e.Reach.partial.Reach.zones
  | Reach.Unsupported _ -> -1

let test_lu_metamorphic_verdicts () =
  let check name expected sys bm c =
    let auto = Reach.Auto.check_condition sys bm c in
    let rf = Reach.Ref.check_condition sys bm c in
    Alcotest.(check string) (name ^ ": verdict") expected (verdict_tag auto);
    Alcotest.(check string) (name ^ ": verdict [ref]") expected
      (verdict_tag rf);
    Alcotest.(check int) (name ^ ": zones [ref]") (zones_of auto)
      (zones_of rf)
  in
  check "manager G1" "verified" sys bm (RM.g1 p);
  check "manager G2" "verified" sys bm (RM.g2 p);
  check "manager upper tightened" "upper" sys bm
    (g1_with (q 6) (Time.of_int 9));
  check "manager lower raised" "lower" sys bm
    (g1_with (q 7) (Time.of_int 10));
  let rp = SR.params_of_ints ~n:5 ~d1:1 ~d2:2 in
  let u lo hi =
    Condition.make ~name:"U"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:(Interval.make lo hi)
      ~in_pi:(fun a -> a = SR.Signal rp.SR.n)
      ()
  in
  check "relay verified" "verified" (SR.line rp) (SR.boundmap rp)
    (u (q 5) (Time.of_int 10));
  check "relay refuted" "upper" (SR.line rp) (SR.boundmap rp)
    (u (q 5) (Time.of_int 9));
  (* non-integral bounds exercise the scaled int path and the rational
     reference kernel's LU path *)
  let pf = RM.params ~k:2 ~c1:(qq 3 2) ~c2:(qq 5 2) ~l:(qq 1 2) in
  check "fractional manager" "verified" (RM.system pf) (RM.boundmap pf)
    (RM.g1 pf);
  check "fractional manager tightened" "upper" (RM.system pf)
    (RM.boundmap pf)
    (g1_with (q 3) (Time.Fin (qq 21 4)))

let test_lu_metamorphic_reachable () =
  (* the rational reference kernel agrees with the int one, stat for
     stat *)
  let norm states = List.sort compare states in
  let st_lu, r_lu = Reach.reachable sys bm in
  let st_ref, r_ref = Reach.Ref.reachable sys bm in
  Alcotest.(check bool) "ref kernel: same stats" true (st_ref = st_lu);
  Alcotest.(check bool) "ref kernel: same states" true
    (norm r_ref = norm r_lu)

(* The discrete part of a location depends on its state only, so the
   engine asks [delta] once per (state, action), however many zones it
   expands there. *)
let test_delta_once_per_state_action () =
  let fp = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let fsys = F.system fp and fbm = F.boundmap fp in
  let counted () =
    let calls = Hashtbl.create 256 in
    let delta s act =
      let k = (s, act) in
      Hashtbl.replace calls k
        (1 + Option.value (Hashtbl.find_opt calls k) ~default:0);
      fsys.Tm_ioa.Ioa.delta s act
    in
    let most () = Hashtbl.fold (fun _ n m -> max n m) calls 0 in
    ({ fsys with Tm_ioa.Ioa.delta }, most, fun () -> Hashtbl.length calls)
  in
  let wrapped, most, pairs = counted () in
  let st, states = Reach.reachable wrapped fbm in
  Alcotest.(check bool) "reachable unchanged" true
    ((st, states) = Reach.reachable fsys fbm);
  Alcotest.(check bool) "delta was called" true (pairs () > 0);
  Alcotest.(check int) "reachable: calls per (state, action)" 1 (most ());
  let wrapped, most, _ = counted () in
  Alcotest.(check string) "U_enter verdict" "verified"
    (verdict_tag (Reach.check_condition wrapped fbm (F.u_enter fp)));
  Alcotest.(check int) "U_enter: calls per (state, action)" 1 (most ())

(* Clock_enc.make resolves each action's class in one pass over the
   alphabet; its tables must equal the per-class-filter definition
   (members by filtering the alphabet per class, class and guard by
   the first class of that name), with at most one [class_of] call per
   action. *)
let enc_matches_filter_definition (type s a) (aut : (s, a) Ioa.t) bm =
  let calls = ref 0 in
  let counted =
    { aut with Ioa.class_of = (fun act -> incr calls; aut.Ioa.class_of act) }
  in
  let enc = Clock_enc.make counted bm in
  let classes = Array.of_list aut.Ioa.classes in
  let members =
    Array.map
      (fun c ->
        Array.of_list
          (List.filter (fun act -> aut.Ioa.class_of act = Some c)
             aut.Ioa.alphabet))
      classes
  in
  let index c =
    let rec go i = if String.equal classes.(i) c then i else go (i + 1) in
    go 0
  in
  let class_index act = Option.map index (aut.Ioa.class_of act) in
  let guard act =
    match aut.Ioa.class_of act with
    | None -> None
    | Some c ->
        let bl = Boundmap.lower bm c in
        if Rational.sign bl = 0 then None else Some (index c + 1, bl)
  in
  !calls <= List.length aut.Ioa.alphabet
  && enc.Clock_enc.members = members
  && List.for_all Fun.id
       (List.mapi
          (fun k act ->
            Clock_enc.class_index enc k = class_index act
            && Clock_enc.guard enc k = guard act)
          aut.Ioa.alphabet)

let test_clock_enc_registry () =
  List.iter
    (fun (e : Registry.entry) ->
      let model = Result.get_ok (Registry.instantiate e []) in
      let (Registry.Verified v) = model.Registry.verified in
      Alcotest.(check bool)
        (e.Registry.name ^ ": tables and class_of calls")
        true
        (enc_matches_filter_definition v.Registry.system v.Registry.boundmap))
    Registry.entries

let clock_enc_generated =
  check_holds "clock_enc: tables equal the per-class filter (generated)"
    ~count:100 ~print:print_raut boundmap_automaton (fun r ->
      let aut, bm = build_boundmap_automaton r in
      enc_matches_filter_definition aut bm)

(* Fingerprints key the daemon's verdict cache and every checkpoint,
   so they are pinned byte for byte on each engine: the registry
   defaults of fischer (both checks), rm (G1, G2) and rg (U_response),
   plus each system's reachability job. *)
let test_fingerprints_pinned () =
  let fischer =
    "CHECK_1:[2, 3],CHECK_2:[2, 3],CHECK_3:[2, 3],CHECK_4:[2, 3],\
     CRIT_1:[0, 2],CRIT_2:[0, 2],CRIT_3:[0, 2],CRIT_4:[0, 2],\
     RETRY_1:[0, 2],RETRY_2:[0, 2],RETRY_3:[0, 2],RETRY_4:[0, 2],\
     SET_1:[0, 1],SET_2:[0, 1],SET_3:[0, 1],SET_4:[0, 1],\
     TEST_1:[0, 1],TEST_2:[0, 1],TEST_3:[0, 1],TEST_4:[0, 1]"
  and rm = "LOCAL:[0, 1],TICK:[2, 3]"
  and rg = "REQ:[2, 5],RESP:[1, 3]" in
  let expected =
    [
      ( "fischer",
        [
          ("invariant", "nclocks=21|maxc=3|alpha=28|" ^ fischer);
          ( "condition:U_enter:[2, 3]",
            "nclocks=22|maxc=3|alpha=28|" ^ fischer );
          ("reachable", "nclocks=21|maxc=3|alpha=28|" ^ fischer);
        ] );
      ( "rm",
        [
          ("condition:G1:[6, 10]", "nclocks=4|maxc=10|alpha=3|" ^ rm);
          ("condition:G2:[5, 10]", "nclocks=4|maxc=10|alpha=3|" ^ rm);
          ("reachable", "nclocks=3|maxc=3|alpha=3|" ^ rm);
        ] );
      ( "rg",
        [
          ("condition:U_response:[1, 3]", "nclocks=4|maxc=5|alpha=2|" ^ rg);
          ("reachable", "nclocks=3|maxc=5|alpha=2|" ^ rg);
        ] );
    ]
  in
  let engines =
    [
      ("int", (module Reach.Auto : Reach.S));
      ("ref", (module Reach.Ref));
      ("int+cert", (module Reach.Paranoid));
    ]
  in
  List.iter
    (fun (name, jobs) ->
      let entry = Result.get_ok (Registry.find name) in
      let model = Result.get_ok (Registry.instantiate entry []) in
      let (Registry.Verified v) = model.Registry.verified in
      let sys = v.Registry.system and bm = v.Registry.boundmap in
      List.iter
        (fun (kernel, (module E : Reach.S)) ->
          let got =
            List.filter_map
              (function
                | Registry.Cond c ->
                    Some (E.fingerprint sys bm (Reach.Condition c))
                | Registry.Inv { pred; _ } ->
                    Some (E.fingerprint sys bm (Reach.Invariant pred))
                | Registry.Note _ -> None)
              v.Registry.checks
            @ [ E.fingerprint_reachable sys bm ]
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s on %s" name kernel)
            (List.map
               (fun (kind, rest) ->
                 Printf.sprintf "tmjob1|kernel=%s|widen=lu|kind=%s|%s" kernel
                   kind rest)
               jobs)
            got)
        engines)
    expected

let suite =
  [
    Alcotest.test_case "manager bounds verified" `Quick
      test_manager_bounds_verified;
    Alcotest.test_case "tight manager bounds refuted" `Quick
      test_manager_tight_bounds_refuted;
    Alcotest.test_case "manager bounds are tight" `Quick
      test_manager_bounds_are_tight;
    Alcotest.test_case "interrupt manager" `Quick test_interrupt_manager;
    Alcotest.test_case "relay" `Quick test_relay;
    Alcotest.test_case "timed reachability prunes states" `Quick
      test_reachable_prunes_untimed_states;
    Alcotest.test_case "state invariants" `Quick test_state_invariant;
    Alcotest.test_case "request-grant disabling set" `Quick
      test_request_grant_disabling;
    Alcotest.test_case "open system rejected" `Quick
      test_open_system_rejected;
    Alcotest.test_case "uncovered class rejected" `Quick
      test_uncovered_class_rejected;
    Alcotest.test_case "fractional constants exact" `Quick
      test_fractional_constants;
    Alcotest.test_case "LU metamorphic: verdicts" `Quick
      test_lu_metamorphic_verdicts;
    Alcotest.test_case "LU metamorphic: reachable set" `Quick
      test_lu_metamorphic_reachable;
    Alcotest.test_case "delta once per (state, action)" `Quick
      test_delta_once_per_state_action;
    Alcotest.test_case "clock_enc: tables equal the per-class filter" `Quick
      test_clock_enc_registry;
    clock_enc_generated;
    Alcotest.test_case "fingerprints pinned across engines" `Quick
      test_fingerprints_pinned;
  ]
