module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Prng = Tm_base.Prng
module Semantics = Tm_timed.Semantics
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module Reach = Tm_zones.Reach
module TR = Tm_systems.Token_ring
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
open Gen

let p = TR.params_of_ints ~n:4 ~d1:1 ~d2:2
let impl = TR.impl p

let test_structure () =
  let sys = TR.system p in
  Alcotest.(check int) "alphabet" 4 (List.length sys.Tm_ioa.Ioa.alphabet);
  (* token moves around the ring *)
  (match sys.Tm_ioa.Ioa.delta 3 (TR.Pass 3) with
  | [ 0 ] -> ()
  | _ -> Alcotest.fail "wraparound");
  Alcotest.(check bool) "only holder can pass" true
    (sys.Tm_ioa.Ioa.delta 1 (TR.Pass 2) = [])

let test_rotation_interval () =
  Alcotest.(check interval_t) "[4,8]" (Tm_base.Interval.of_ints 4 8)
    (TR.rotation_interval p)

let test_zone_verified () =
  (match Reach.check_condition (TR.system p) (TR.boundmap p) (TR.u_rotation p) with
  | Reach.Verified _ -> ()
  | _ -> Alcotest.fail "rotation should verify");
  (* tightness *)
  let tighten bounds = { (TR.u_rotation p) with Tm_timed.Condition.bounds } in
  (match
     Reach.check_condition (TR.system p) (TR.boundmap p)
       (tighten (Tm_base.Interval.of_ints 4 7))
   with
  | Reach.Upper_violation _ -> ()
  | _ -> Alcotest.fail "upper must be tight");
  match
    Reach.check_condition (TR.system p) (TR.boundmap p)
      (tighten (Tm_base.Interval.of_ints 5 8))
  with
  | Reach.Lower_violation _ -> ()
  | _ -> Alcotest.fail "lower must be tight"

let test_chain_exhaustive () =
  List.iter
    (fun n ->
      let p = TR.params_of_ints ~n ~d1:1 ~d2:2 in
      match
        Mapping.check_exhaustive ~source:(TR.impl p) ~levels:(TR.chain p) ()
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "n=%d failed at level %d (%s)" n
            e.Mapping.level_index e.Mapping.level_name)
    [ 2; 3; 4; 5 ]

let test_exact_rotation () =
  let a = Completeness.analyze ~source:impl ~conds:[| TR.u_rotation p |] () in
  match
    Completeness.bounds_after a
      ~trigger:(fun _ act _ -> act = TR.Pass 0)
      ~cond:0
  with
  | Some (lo, hi) ->
      Alcotest.(check time_t) "n d1" (Time.of_int 4) lo;
      Alcotest.(check time_t) "n d2" (Time.of_int 8) hi
  | None -> Alcotest.fail "no rotations"

let test_intermediate_conditions () =
  let u2 = TR.u_from p ~k:2 in
  Alcotest.(check interval_t) "U(from 2) = [2,4]"
    (Tm_base.Interval.of_ints 2 4) u2.Tm_timed.Condition.bounds;
  Alcotest.(check bool) "bad k" true
    (match TR.u_from p ~k:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_broken_close_mapping () =
  (* a close mapping claiming one hop fewer must be caught *)
  let broken =
    let good = TR.f_close p in
    {
      good with
      Mapping.contains =
        (fun s u ->
          if s.Tm_core.Tstate.base = 1 then
            Time.(
              u.Tm_core.Tstate.lt.(0)
              >= Time.add_q s.Tm_core.Tstate.lt.(1)
                   (Rational.mul_int p.TR.n p.TR.d2))
          else good.Mapping.contains s u);
    }
  in
  let levels =
    List.mapi
      (fun i lv ->
        if i = List.length (TR.chain p) - 1 then
          { lv with Mapping.map = broken }
        else lv)
      (TR.chain p)
  in
  match Mapping.check_exhaustive ~source:impl ~levels () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken close mapping must be rejected"

let prop_rotations_in_bounds =
  check_holds "measured rotations within [n d1, n d2]"
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:60
          ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
          impl
      in
      let seq = Simulator.project run in
      let t0s = Measure.occurrence_times (fun a -> a = TR.Pass 0) seq in
      List.for_all
        (fun gap -> Tm_base.Interval.mem gap (TR.rotation_interval p))
        (Measure.gaps t0s))

let prop_traces_satisfy_u_rotation =
  check_holds "traces satisfy the rotation condition"
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:60
          ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
          impl
      in
      Semantics.semi_satisfies (Simulator.project run) (TR.u_rotation p) = [])

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "rotation interval" `Quick test_rotation_interval;
    Alcotest.test_case "zone verified and tight" `Quick test_zone_verified;
    Alcotest.test_case "hierarchy across sizes" `Quick test_chain_exhaustive;
    Alcotest.test_case "exact rotation window" `Quick test_exact_rotation;
    Alcotest.test_case "intermediate conditions" `Quick
      test_intermediate_conditions;
    Alcotest.test_case "broken close mapping rejected" `Quick
      test_broken_close_mapping;
    prop_rotations_in_bounds;
    prop_traces_satisfy_u_rotation;
  ]
