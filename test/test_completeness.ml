module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module TA = Tm_core.Time_automaton
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module RM = Tm_systems.Resource_manager
module IM = Tm_systems.Interrupt_manager
module SR = Tm_systems.Signal_relay
module D = Tm_core.Dummify
module Reach = Tm_zones.Reach
module Region = Tm_zones.Region
open Gen

let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1
let impl = RM.impl p
let analysis = Completeness.analyze ~source:impl ~conds:[| RM.g1 p; RM.g2 p |] ()

let test_exact_first_grant () =
  let lo, hi = Completeness.start_bounds analysis ~cond:0 in
  Alcotest.(check time_t) "inf = k c1" (Time.of_int 6) lo;
  Alcotest.(check time_t) "sup = k c2 + l" (Time.of_int 10) hi

let test_exact_inter_grant () =
  match
    Completeness.bounds_after analysis
      ~trigger:(fun _ act _ -> act = RM.Grant)
      ~cond:1
  with
  | Some (lo, hi) ->
      Alcotest.(check time_t) "inf = k c1 - l" (Time.of_int 5) lo;
      Alcotest.(check time_t) "sup = k c2 + l" (Time.of_int 10) hi
  | None -> Alcotest.fail "no grant edges reachable"

let test_exact_interrupt_variant () =
  let ip = IM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:3 in
  let a =
    Completeness.analyze ~source:(IM.impl ip)
      ~conds:[| IM.g1 ip; IM.g2 ip |] ()
  in
  let lo, hi = Completeness.start_bounds a ~cond:0 in
  Alcotest.(check time_t) "first inf" (Time.of_int 6) lo;
  Alcotest.(check time_t) "first sup" (Time.of_int 12) hi;
  match
    Completeness.bounds_after a ~trigger:(fun _ act _ -> act = IM.Grant)
      ~cond:1
  with
  | Some (lo, hi) ->
      (* l >= c1: lower degrades to (k-1) c1 *)
      Alcotest.(check time_t) "between inf" (Time.of_int 4) lo;
      Alcotest.(check time_t) "between sup" (Time.of_int 12) hi
  | None -> Alcotest.fail "no grant edges"

let test_thm_7_1_manager () =
  let f = Completeness.mapping analysis ~spec:(RM.spec p) in
  match
    Mapping.check_exhaustive ~source:impl
      ~levels:[ { Mapping.target = RM.spec p; map = f } ]
      ()
  with
  | Ok st -> Alcotest.(check bool) "nonempty" true (st.Mapping.product_states > 0)
  | Error e -> Alcotest.failf "%a" (Mapping.pp_failure impl) e.Mapping.failure

let test_thm_7_1_relay () =
  let rp = SR.params_of_ints ~n:2 ~d1:1 ~d2:2 in
  let rimpl = SR.impl rp in
  let a =
    Completeness.analyze ~source:rimpl ~conds:[| SR.u_cond rp ~k:0 |] ()
  in
  let f = Completeness.mapping a ~spec:(SR.spec rp) in
  match
    Mapping.check_exhaustive ~source:rimpl
      ~levels:[ { Mapping.target = SR.spec rp; map = f } ]
      ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" (Mapping.pp_failure rimpl) e.Mapping.failure

let test_relay_exact_delay () =
  let rp = SR.params_of_ints ~n:4 ~d1:1 ~d2:3 in
  let a =
    Completeness.analyze ~source:(SR.impl rp) ~conds:[| SR.u_cond rp ~k:0 |] ()
  in
  match
    Completeness.bounds_after a
      ~trigger:(fun _ act _ -> act = D.Base (SR.Signal 0))
      ~cond:0
  with
  | Some (lo, hi) ->
      Alcotest.(check time_t) "n d1" (Time.of_int 4) lo;
      Alcotest.(check time_t) "n d2" (Time.of_int 12) hi
  | None -> Alcotest.fail "no SIGNAL_0 edges"

(* The completeness analysis derives the relay window from the region
   construction; the packed-int zone kernel (running under LU
   widening) is an independent decision procedure and must certify the
   very same window as tight, and agree with the region engine on the
   reachable base states. *)
let test_relay_window_matches_int_kernel () =
  let rp = SR.params_of_ints ~n:4 ~d1:1 ~d2:3 in
  let a =
    Completeness.analyze ~source:(SR.impl rp) ~conds:[| SR.u_cond rp ~k:0 |] ()
  in
  (match
     Completeness.bounds_after a
       ~trigger:(fun _ act _ -> act = D.Base (SR.Signal 0))
       ~cond:0
   with
  | None -> Alcotest.fail "no SIGNAL_0 edges"
  | Some (lo, hi) -> (
      match (lo, hi) with
      | Time.Fin lo_q, Time.Fin hi_q ->
          let line = SR.line rp and rbm = SR.boundmap rp in
          let u bounds =
            Tm_timed.Condition.make ~name:"U"
              ~t_step:(fun _ act _ -> act = SR.Signal 0)
              ~bounds
              ~in_pi:(fun act -> act = SR.Signal rp.SR.n)
              ()
          in
          (* whole-unit tightenings: the int kernel rejects non-integer
             bounds, and the window is tight at integer granularity *)
          let one = q 1 in
          let v bounds = Reach.Auto.check_condition line rbm (u bounds) in
          Alcotest.(check bool) "analysis window verified by int kernel" true
            (match v (Interval.make lo_q hi) with
            | Reach.Verified _ -> true
            | _ -> false);
          Alcotest.(check bool) "upper - 1 refuted" true
            (match
               v (Interval.make lo_q (Time.Fin (Rational.sub hi_q one)))
             with
            | Reach.Upper_violation _ -> true
            | _ -> false);
          Alcotest.(check bool) "lower + 1 refuted" true
            (match v (Interval.make (Rational.add lo_q one) hi) with
            | Reach.Lower_violation _ -> true
            | _ -> false)
      | _ -> Alcotest.fail "relay window should be finite"));
  let rp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  let line = SR.line rp and rbm = SR.boundmap rp in
  let _, zstates = Reach.Auto.reachable line rbm in
  let _, rstates = Region.reachable line rbm in
  Alcotest.(check bool) "regions agree with the int kernel" true
    (List.sort compare (List.map Array.to_list zstates)
    = List.sort compare (List.map Array.to_list rstates))

(* Theorem 7.1 is stated under the hypothesis that the conditions hold;
   with a condition the system violates, the constructed mapping must
   fail against that spec. *)
let test_completeness_needs_truth () =
  let tight =
    Tm_timed.Condition.make ~name:"G1"
      ~t_start:(fun _ -> true)
      ~bounds:(Interval.of_ints 6 9) (* true bound is 10 *)
      ~in_pi:(fun a -> a = RM.Grant)
      ()
  in
  let a = Completeness.analyze ~source:impl ~conds:[| tight |] () in
  let spec = TA.make (RM.system p) [ tight ] in
  let f = Completeness.mapping a ~spec in
  match
    Mapping.check_exhaustive ~source:impl
      ~levels:[ { Mapping.target = spec; map = f } ]
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "false spec must not admit a mapping"

let test_dead_state_detected () =
  (* the raw (un-dummified) relay deadlocks: analyze must refuse *)
  let rp = SR.params_of_ints ~n:2 ~d1:1 ~d2:2 in
  let raw = TA.of_boundmap (SR.line rp) (SR.boundmap rp) in
  let base_cond =
    Tm_timed.Condition.make ~name:"u"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:(SR.delay_interval rp)
      ~in_pi:(fun a -> a = SR.Signal rp.SR.n)
      ()
  in
  Alcotest.check_raises "Dead_state" Completeness.Dead_state (fun () ->
      ignore (Completeness.analyze ~source:raw ~conds:[| base_cond |] ()))

(* A graph cut short by its node limit is refused before value
   iteration, even where every node it kept has a move. *)
let test_truncated_refused () =
  let params =
    { (Tm_core.Tgraph.default_params impl) with Tm_core.Tgraph.limit = 10 }
  in
  Alcotest.check_raises "Truncated" (Completeness.Truncated 10) (fun () ->
      ignore
        (Completeness.analyze ~params ~source:impl ~conds:[| RM.g1 p |] ()))

let test_sup_infinite_when_unreachable () =
  (* a condition whose Pi action never occurs: sup = inf = infinity *)
  let never =
    Tm_timed.Condition.make ~name:"never"
      ~t_start:(fun _ -> true)
      ~bounds:(Interval.unbounded_above Rational.zero)
      ~in_pi:(fun _ -> false)
      ()
  in
  let a = Completeness.analyze ~source:impl ~conds:[| never |] () in
  let lo, hi = Completeness.start_bounds a ~cond:0 in
  Alcotest.(check time_t) "inf" Time.Inf lo;
  Alcotest.(check time_t) "sup" Time.Inf hi

(* Theorem 4.4's closed forms hold across random parameter draws. *)
let prop_closed_forms_random_params =
  Gen.check_holds ~count:40 "closed forms across random manager parameters"
    QCheck2.Gen.(
      quad (int_range 1 4) (int_range 2 4) (int_range 0 3) (int_range 1 3))
    (fun (k, c1, dc, l) ->
      let c2 = c1 + dc in
      QCheck2.assume (l < c1);
      let p = RM.params_of_ints ~k ~c1 ~c2 ~l in
      let a =
        Completeness.analyze ~source:(RM.impl p)
          ~conds:[| RM.g1 p; RM.g2 p |] ()
      in
      let lo, hi = Completeness.start_bounds a ~cond:0 in
      let iv = RM.grant_interval_first p in
      Time.equal lo (Time.Fin (Interval.lo iv))
      && Time.equal hi (Interval.hi iv)
      &&
      match
        Completeness.bounds_after a
          ~trigger:(fun _ act _ -> act = RM.Grant)
          ~cond:1
      with
      | Some (lo, hi) ->
          let iv = RM.grant_interval_between p in
          Time.equal lo (Time.Fin (Interval.lo iv))
          && Time.equal hi (Interval.hi iv)
      | None -> false)

let suite =
  [
    Alcotest.test_case "exact first-grant window" `Quick
      test_exact_first_grant;
    Alcotest.test_case "exact inter-grant window" `Quick
      test_exact_inter_grant;
    Alcotest.test_case "interrupt variant exact windows" `Quick
      test_exact_interrupt_variant;
    Alcotest.test_case "Theorem 7.1 on the manager" `Quick
      test_thm_7_1_manager;
    Alcotest.test_case "Theorem 7.1 on the relay" `Quick test_thm_7_1_relay;
    Alcotest.test_case "relay exact delay" `Quick test_relay_exact_delay;
    Alcotest.test_case "relay window certified by int kernel" `Quick
      test_relay_window_matches_int_kernel;
    Alcotest.test_case "false spec rejected" `Quick
      test_completeness_needs_truth;
    Alcotest.test_case "dead states detected" `Quick test_dead_state_detected;
    Alcotest.test_case "truncated graph refused" `Quick test_truncated_refused;
    Alcotest.test_case "unreachable Pi gives infinity" `Quick
      test_sup_infinite_when_unreachable;
    prop_closed_forms_random_params;
  ]
