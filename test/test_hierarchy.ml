module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Tstate = Tm_core.Tstate
module Mapping = Tm_core.Mapping
module Condition = Tm_timed.Condition
module Reach = Tm_zones.Reach
module SR = Tm_systems.Signal_relay
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
module D = Tm_core.Dummify
open Gen

let rp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2
let impl = SR.impl rp

let random_exec seed steps =
  let prng = Prng.create seed in
  (Simulator.simulate ~steps
     ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
     impl)
    .Simulator.exec

let test_chain_structure () =
  (* n = 3: impl -> B2 -> B1 -> B0 -> B = 4 levels *)
  Alcotest.(check int) "levels" 4 (List.length (SR.chain rp))

let test_check_exec () =
  for seed = 0 to 20 do
    match
      Mapping.check_exec ~source:impl ~levels:(SR.chain rp)
        (random_exec seed 50)
    with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "seed %d failed at level %d (%s)" seed
          e.Mapping.level_index e.Mapping.level_name
  done

let test_check_exhaustive () =
  match Mapping.check_exhaustive ~source:impl ~levels:(SR.chain rp) () with
  | Ok st ->
      Alcotest.(check bool) "nonempty" true (st.Mapping.product_states > 0);
      Alcotest.(check bool) "not truncated" false st.Mapping.truncated
  | Error e ->
      Alcotest.failf "failed at level %d (%s)" e.Mapping.level_index
        e.Mapping.level_name

let test_n1_chain () =
  (* n = 1 degenerates to impl -> B0 -> B with no f_k levels *)
  let rp1 = SR.params_of_ints ~n:1 ~d1:1 ~d2:2 in
  Alcotest.(check int) "two levels" 2 (List.length (SR.chain rp1));
  match
    Mapping.check_exhaustive ~source:(SR.impl rp1) ~levels:(SR.chain rp1) ()
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "n=1 chain failed (%s)" e.Mapping.level_name

let test_larger_n_exec () =
  let rp6 = SR.params_of_ints ~n:6 ~d1:1 ~d2:3 in
  let impl6 = SR.impl rp6 in
  let prng = Prng.create 7 in
  let e =
    (Simulator.simulate ~steps:60
       ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
       impl6)
      .Simulator.exec
  in
  match Mapping.check_exec ~source:impl6 ~levels:(SR.chain rp6) e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "n=6 failed (%s)" err.Mapping.level_name

(* Failure injection: break one middle mapping (wrong hop count) and
   check the failure is localized to that level. *)
let test_broken_level_detected () =
  let broken_f1 =
    let good = SR.f_k rp ~k:1 in
    {
      good with
      Mapping.contains =
        (fun s u ->
          (* claim one hop more than reality: a tighter image that the
             real successors fall outside of *)
          let flags = s.Tstate.base in
          if flags.(1) then
            Time.(
              u.Tstate.lt.(0)
              >= Time.add_q s.Tstate.lt.(2) (Rational.mul_int 3 rp.SR.d2))
          else good.Mapping.contains s u);
    }
  in
  let levels =
    List.mapi
      (fun i lv ->
        if i = 2 then { lv with Mapping.map = broken_f1 } else lv)
      (SR.chain rp)
  in
  match Mapping.check_exhaustive ~source:impl ~levels () with
  | Error e -> Alcotest.(check int) "failure at level 2" 2 e.Mapping.level_index
  | Ok _ -> Alcotest.fail "broken level must be detected"

(* The mapping chain proves the end-to-end bound abstractly; the
   packed-int zone kernel (running under LU widening) and the
   simulator are two independent oracles for the same claim.  The int
   kernel must certify exactly the chain's [n d1, n d2] window —
   refuting both half-unit tightenings, so agreement is on the tight
   interval — and every sampled execution must land inside it. *)
let test_int_kernel_agrees_with_chain () =
  let line = SR.line rp and rbm = SR.boundmap rp in
  let iv = SR.delay_interval rp in
  let u bounds =
    Condition.make ~name:"U0n"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds
      ~in_pi:(fun a -> a = SR.Signal rp.SR.n)
      ()
  in
  (* the int kernel rejects non-integer bounds outright, so the
     tightenings are whole units — still refuted, since the window is
     tight at integer granularity *)
  let one = q 1 in
  let hi_q = match Interval.hi iv with Time.Fin q -> q | Time.Inf -> assert false in
  let v bounds = Reach.Auto.check_condition line rbm (u bounds) in
  Alcotest.(check bool) "int kernel verifies [n d1, n d2]" true
    (match v iv with Reach.Verified _ -> true | _ -> false);
  Alcotest.(check bool) "upper - 1 refuted" true
    (match
       v (Interval.make (Interval.lo iv) (Time.Fin (Rational.sub hi_q one)))
     with
    | Reach.Upper_violation _ -> true
    | _ -> false);
  Alcotest.(check bool) "lower + 1 refuted" true
    (match
       v (Interval.make (Rational.add (Interval.lo iv) one) (Interval.hi iv))
     with
    | Reach.Lower_violation _ -> true
    | _ -> false);
  let delays = ref [] in
  for seed = 0 to 29 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps:40
        ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
        impl
    in
    let seq = Simulator.project run in
    let at i =
      Measure.occurrence_times (fun a -> a = D.Base (SR.Signal i)) seq
    in
    match (at 0, at rp.SR.n) with
    | [ t0 ], [ tn ] -> delays := Rational.sub tn t0 :: !delays
    | _ -> ()
  done;
  match Measure.envelope !delays with
  | None -> Alcotest.fail "no complete relay traversals sampled"
  | Some env ->
      Alcotest.(check bool) "sampled delays within the verified window" true
        (Measure.within iv env)

let prop_chain_on_random_traces =
  check_holds "hierarchy holds on random traces"
    QCheck2.Gen.(int_range 0 150)
    (fun seed ->
      match
        Mapping.check_exec ~source:impl ~levels:(SR.chain rp)
          (random_exec seed 40)
      with
      | Ok () -> true
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "chain structure" `Quick test_chain_structure;
    Alcotest.test_case "check_exec" `Quick test_check_exec;
    Alcotest.test_case "check_exhaustive" `Quick test_check_exhaustive;
    Alcotest.test_case "n=1 chain" `Quick test_n1_chain;
    Alcotest.test_case "n=6 on a trace" `Quick test_larger_n_exec;
    Alcotest.test_case "broken level detected" `Quick
      test_broken_level_detected;
    Alcotest.test_case "int kernel + simulator agree with the chain" `Quick
      test_int_kernel_agrees_with_chain;
    prop_chain_on_random_traces;
  ]
