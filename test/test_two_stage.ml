module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Prng = Tm_base.Prng
module Semantics = Tm_timed.Semantics
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module Reach = Tm_zones.Reach
module TS = Tm_systems.Two_stage
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
open Gen

let p = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4
let impl = TS.impl p

let test_intervals () =
  Alcotest.(check interval_t) "end-to-end [3,6]"
    (Tm_base.Interval.of_ints 3 6)
    (TS.end_to_end_interval p)

let test_protocol () =
  let sys = TS.system p in
  (match sys.Tm_ioa.Ioa.delta TS.Idle TS.Start with
  | [ TS.Wait_mid ] -> ()
  | _ -> Alcotest.fail "start");
  Alcotest.(check bool) "Mid disabled when idle" true
    (sys.Tm_ioa.Ioa.delta TS.Idle TS.Mid = []);
  Alcotest.(check bool) "Done disabled when idle" true
    (sys.Tm_ioa.Ioa.delta TS.Idle TS.Done = [])

let all_conds = [ TS.u_start_mid p; TS.u_mid_done p; TS.u_end_to_end p ]

let test_zone_verdicts () =
  let sys = TS.system p and bm = TS.boundmap p in
  List.iter
    (fun c ->
      match Reach.check_condition sys bm c with
      | Reach.Verified _ -> ()
      | _ -> Alcotest.failf "%s should verify" c.Tm_timed.Condition.cname)
    all_conds;
  (* tightened end-to-end bounds refuted in both directions *)
  let tighten bounds =
    { (TS.u_end_to_end p) with Tm_timed.Condition.bounds }
  in
  (match
     Reach.check_condition sys bm
       (tighten (Tm_base.Interval.of_ints 3 5))
   with
  | Reach.Upper_violation _ -> ()
  | _ -> Alcotest.fail "upper 5 < 6 must be refuted");
  match
    Reach.check_condition sys bm (tighten (Tm_base.Interval.of_ints 4 6))
  with
  | Reach.Lower_violation _ -> ()
  | _ -> Alcotest.fail "lower 4 > 3 must be refuted"

let test_chain_exhaustive () =
  match Mapping.check_exhaustive ~source:impl ~levels:(TS.chain p) () with
  | Ok st ->
      Alcotest.(check bool) "nonempty" true (st.Mapping.product_states > 0)
  | Error e ->
      Alcotest.failf "chain failed at level %d (%s)" e.Mapping.level_index
        e.Mapping.level_name

let test_exact_window () =
  let a =
    Completeness.analyze ~source:impl ~conds:[| TS.u_end_to_end p |] ()
  in
  match
    Completeness.bounds_after a
      ~trigger:(fun _ act _ -> act = TS.Start)
      ~cond:0
  with
  | Some (lo, hi) ->
      Alcotest.(check time_t) "inf = q1+r1" (Time.of_int 3) lo;
      Alcotest.(check time_t) "sup = q2+r2" (Time.of_int 6) hi
  | None -> Alcotest.fail "no Start edges"

let test_broken_stage_mapping () =
  (* claim the second stage takes at most r2 - 1: too tight *)
  let broken =
    let good = TS.stage_mapping p in
    {
      good with
      Mapping.contains =
        (fun s u ->
          match s.Tm_core.Tstate.base with
          | TS.Wait_mid ->
              Time.(
                u.Tm_core.Tstate.lt.(0)
                >= Time.add_q s.Tm_core.Tstate.lt.(2)
                     (Rational.add p.TS.r2 Rational.one))
          | TS.Idle | TS.Wait_done -> good.Mapping.contains s u);
    }
  in
  let levels =
    [
      { Mapping.target = TS.intermediate p; map = TS.top_mapping p };
      { Mapping.target = TS.spec p; map = broken };
    ]
  in
  match Mapping.check_exhaustive ~source:impl ~levels () with
  | Error e -> Alcotest.(check int) "fails at stage level" 1 e.Mapping.level_index
  | Ok _ -> Alcotest.fail "broken stage mapping must be rejected"

let prop_traces_satisfy =
  check_holds "simulated traces satisfy all three conditions"
    QCheck2.Gen.(int_range 0 300)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:80
          ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
          impl
      in
      Semantics.semi_satisfies_all (Simulator.project run) all_conds = [])

let suite =
  [
    Alcotest.test_case "intervals" `Quick test_intervals;
    Alcotest.test_case "protocol" `Quick test_protocol;
    Alcotest.test_case "zone verdicts" `Quick test_zone_verdicts;
    Alcotest.test_case "hierarchy exhaustive" `Quick test_chain_exhaustive;
    Alcotest.test_case "exact end-to-end window" `Quick test_exact_window;
    Alcotest.test_case "broken stage mapping rejected" `Quick
      test_broken_stage_mapping;
    prop_traces_satisfy;
  ]
