module Rational = Tm_base.Rational
module Prng = Tm_base.Prng
module Ioa = Tm_ioa.Ioa
module Semantics = Tm_timed.Semantics
module Reach = Tm_zones.Reach
module F = Tm_systems.Fischer
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
open Gen

let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2

let test_params () =
  Alcotest.(check bool) "n=1 rejected" true
    (match F.params_of_ints ~n:1 ~r:1 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "b2 < b rejected" true
    (match F.params_of_ints ~n:2 ~r:1 ~t:1 ~a:1 ~b:3 ~b2:2 ~e:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a >= b allowed: used in refutation runs *)
  ignore (F.params_of_ints ~n:2 ~r:1 ~t:1 ~a:5 ~b:2 ~b2:3 ~e:1)

let test_structure () =
  let sys = F.system p in
  Alcotest.(check int) "alphabet" 14 (List.length sys.Ioa.alphabet);
  Alcotest.(check int) "classes" 10 (List.length sys.Ioa.classes);
  Alcotest.(check int) "no inputs" 0 (List.length (Ioa.input_actions sys));
  match Tm_timed.Boundmap.covers (F.boundmap p) sys with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_steps () =
  let sys = F.system p in
  let s0 = List.hd sys.Ioa.start in
  (* only retries enabled initially *)
  Alcotest.(check int) "two retries" 2
    (List.length (Ioa.enabled_actions sys s0));
  match sys.Ioa.delta s0 (F.Retry 1) with
  | [ s1 ] -> (
      Alcotest.(check bool) "pc1 = Test" true (s1.F.pcs.(0) = F.Test);
      match sys.Ioa.delta s1 (F.Test_succ 1) with
      | [ s2 ] -> (
          Alcotest.(check bool) "pc1 = Set" true (s2.F.pcs.(0) = F.Set);
          match sys.Ioa.delta s2 (F.Set_x 1) with
          | [ s3 ] ->
              Alcotest.(check int) "x = 1" 1 s3.F.x;
              Alcotest.(check bool) "pc1 = Check" true
                (s3.F.pcs.(0) = F.Check)
          | _ -> Alcotest.fail "set")
      | _ -> Alcotest.fail "test")
  | _ -> Alcotest.fail "retry"

let test_mutual_exclusion_zones () =
  match
    Reach.check_state_invariant (F.system p) (F.boundmap p)
      F.mutual_exclusion
  with
  | Ok _ -> ()
  | Error s ->
      Alcotest.failf "MX violated at %a" (F.system p).Ioa.pp_state s

let test_mutual_exclusion_refuted_when_a_ge_b () =
  let bad = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:3 ~b:2 ~b2:3 ~e:2 in
  match
    Reach.check_state_invariant (F.system bad) (F.boundmap bad)
      F.mutual_exclusion
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a >= b must break mutual exclusion"

let test_boundary_a_eq_b_refuted () =
  (* the classic subtlety: a = b already breaks the algorithm (the
     check may fire exactly when the other write lands) *)
  let bad = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:2 ~b:2 ~b2:3 ~e:2 in
  match
    Reach.check_state_invariant (F.system bad) (F.boundmap bad)
      F.mutual_exclusion
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a = b must break mutual exclusion"

let test_u_enter_verified () =
  match Reach.check_condition (F.system p) (F.boundmap p) (F.u_enter p) with
  | Reach.Verified _ -> ()
  | Reach.Lower_violation _ -> Alcotest.fail "lower violated"
  | Reach.Upper_violation _ -> Alcotest.fail "upper violated"
  | Reach.Unsupported m -> Alcotest.fail m
  | Reach.Unknown e -> Alcotest.fail e.Reach.reason

let test_u_enter_tight_refuted () =
  let tight =
    {
      (F.u_enter p) with
      Tm_timed.Condition.bounds =
        Tm_base.Interval.make p.F.b (Tm_base.Time.Fin (qq 5 2));
    }
  in
  match Reach.check_condition (F.system p) (F.boundmap p) tight with
  | Reach.Upper_violation _ -> ()
  | _ -> Alcotest.fail "tightened upper must be refuted"

let test_three_processes_mx () =
  let p3 = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:1 in
  match
    Reach.check_state_invariant ~limit:500_000 (F.system p3)
      (F.boundmap p3) F.mutual_exclusion
  with
  | Ok _ -> ()
  | Error s ->
      Alcotest.failf "MX violated at %a" (F.system p3).Ioa.pp_state s

let prop_simulated_mx =
  check_holds "simulated traces keep mutual exclusion"
    QCheck2.Gen.(int_range 0 150)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:120
          ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
          (F.impl p)
      in
      List.for_all
        (fun s -> F.mutual_exclusion s.Tm_core.Tstate.base)
        (Tm_ioa.Execution.states run.Simulator.exec))

let prop_simulated_u_enter =
  check_holds "simulated traces satisfy U_enter"
    QCheck2.Gen.(int_range 0 150)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:120
          ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
          (F.impl p)
      in
      Semantics.semi_satisfies (Simulator.project run) (F.u_enter p) = [])

(* The exact safety rule at the CLI's [e = 2]: mutual exclusion holds
   iff [a < b] (the write lands before any rival's check) or [b > e]
   (a rival checking [b] after a late write finds [x] reset by the
   critical section's exit).  Pinned on a grid that has cells of every
   kind, including [a >= b > e]. *)
let test_safety_rule_grid () =
  let e = 2 in
  for a = 1 to 4 do
    for b = 1 to 4 do
      let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a ~b ~b2:(b + 1) ~e in
      let safe =
        match
          Reach.check_state_invariant (F.system p) (F.boundmap p)
            F.mutual_exclusion
        with
        | Ok _ -> true
        | Error _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "a=%d b=%d e=%d: safe iff a<b || b>e" a b e)
        (a < b || b > e) safe
    done
  done

let suite =
  [
    Alcotest.test_case "mutual exclusion iff a<b || b>e (n=2 grid)" `Quick
      test_safety_rule_grid;
    Alcotest.test_case "params" `Quick test_params;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "protocol steps" `Quick test_steps;
    Alcotest.test_case "mutual exclusion (zones, a<b)" `Slow
      test_mutual_exclusion_zones;
    Alcotest.test_case "mutual exclusion refuted (a>b)" `Slow
      test_mutual_exclusion_refuted_when_a_ge_b;
    Alcotest.test_case "mutual exclusion refuted (a=b)" `Slow
      test_boundary_a_eq_b_refuted;
    Alcotest.test_case "U_enter verified" `Slow test_u_enter_verified;
    Alcotest.test_case "U_enter tightened refuted" `Slow
      test_u_enter_tight_refuted;
    Alcotest.test_case "three-process mutual exclusion" `Slow
      test_three_processes_mx;
    prop_simulated_mx;
    prop_simulated_u_enter;
  ]
