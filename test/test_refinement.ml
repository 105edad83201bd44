module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module TA = Tm_core.Time_automaton
module Refinement = Tm_core.Refinement
module Mapping = Tm_core.Mapping
module RM = Tm_systems.Resource_manager
module SR = Tm_systems.Signal_relay
module TS = Tm_systems.Two_stage
open Gen

let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1

let test_true_claims_refine () =
  (* the paper's specs hold, so refinement must succeed without any
     user-supplied mapping *)
  (match Refinement.check ~source:(RM.impl p) ~target:(RM.spec p) () with
  | Ok st -> Alcotest.(check bool) "nonempty" true (st.Mapping.product_states > 0)
  | Error _ -> Alcotest.fail "manager refinement should hold");
  let sp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  (match Refinement.check ~source:(SR.impl sp) ~target:(SR.spec sp) () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "relay refinement should hold");
  let tp = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
  match Refinement.check ~source:(TS.impl tp) ~target:(TS.spec tp) () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "two-stage refinement should hold"

let tight_spec hi =
  TA.make (RM.system p)
    [
      Tm_timed.Condition.make ~name:"G1"
        ~t_start:(fun _ -> true)
        ~bounds:(Interval.make (q 6) hi)
        ~in_pi:(fun a -> a = RM.Grant)
        ();
    ]

let test_false_claims_refuted () =
  (* shaving the proved bound: no mapping can exist, and the checker
     finds the violation without being given one *)
  match Refinement.check ~source:(RM.impl p) ~target:(tight_spec (Time.of_int 9)) () with
  | Error (Mapping.Move_not_enabled _) -> ()
  | Error _ -> Alcotest.fail "expected a Move_not_enabled refutation"
  | Ok _ -> Alcotest.fail "false claim must be refuted"

let test_refinement_agrees_with_mapping () =
  (* on the exact proved bound, both the explicit Lemma 4.3 mapping and
     the mapping-free refinement succeed, exploring comparable spaces *)
  match
    ( Refinement.check ~source:(RM.impl p) ~target:(RM.spec p) (),
      Mapping.check_exhaustive ~source:(RM.impl p)
        ~levels:[ { Mapping.target = RM.spec p; map = RM.mapping p } ]
        () )
  with
  | Ok r, Ok m ->
      Alcotest.(check int) "same product states" m.Mapping.product_states
        r.Mapping.product_states
  | _ -> Alcotest.fail "both should succeed"

let test_boundary_exact () =
  (* the exact bound refines; one grid step tighter does not *)
  (match Refinement.check ~source:(RM.impl p) ~target:(tight_spec (Time.of_int 10)) () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "[6,10] must refine");
  match
    Refinement.check ~source:(RM.impl p)
      ~target:(tight_spec (Time.Fin (qq 39 4)))
      ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "[6,39/4] must be refuted"

let suite =
  [
    Alcotest.test_case "true claims refine" `Quick test_true_claims_refine;
    Alcotest.test_case "false claims refuted" `Quick
      test_false_claims_refuted;
    Alcotest.test_case "agrees with the explicit mapping" `Quick
      test_refinement_agrees_with_mapping;
    Alcotest.test_case "boundary exactness" `Quick test_boundary_exact;
  ]
