module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Prng = Tm_base.Prng
module Tstate = Tm_core.Tstate
module TA = Tm_core.Time_automaton
module Mapping = Tm_core.Mapping
module RM = Tm_systems.Resource_manager
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
open Gen

let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1
let impl = RM.impl p
let spec = RM.spec p
let f = RM.mapping p

(* one mapping is a one-level chain *)
let one target map = [ { Mapping.target; map } ]

let random_exec seed steps =
  let prng = Prng.create seed in
  (Simulator.simulate ~steps
     ~strategy:(Strategy.random ~prng ~denominator:3 ~cap:(q 2))
     impl)
    .Simulator.exec

let test_start_witness () =
  match Mapping.start_witness ~source:impl ~target:spec f (List.hd impl.TA.start) with
  | Ok u0 ->
      Alcotest.(check rational_t) "witness Ct" Rational.zero u0.Tstate.now
  | Error _ -> Alcotest.fail "start witness should exist"

let test_check_exec_ok () =
  for seed = 0 to 20 do
    match
      Mapping.check_exec ~source:impl ~levels:(one spec f) (random_exec seed 60)
    with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "seed %d: %a" seed (Mapping.pp_failure impl)
          e.Mapping.failure
  done

let test_check_exec_lazy_and_eager () =
  List.iter
    (fun strategy ->
      let e = (Simulator.simulate ~steps:100 ~strategy impl).Simulator.exec in
      match Mapping.check_exec ~source:impl ~levels:(one spec f) e with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%a" (Mapping.pp_failure impl) e.Mapping.failure)
    [ Strategy.eager; Strategy.lazy_ ~cap:Rational.one () ]

let test_check_exhaustive_ok () =
  match Mapping.check_exhaustive ~source:impl ~levels:(one spec f) () with
  | Ok st ->
      Alcotest.(check bool) "nonempty product" true
        (st.Mapping.product_states > 0);
      Alcotest.(check bool) "not truncated" false st.Mapping.truncated
  | Error e -> Alcotest.failf "%a" (Mapping.pp_failure impl) e.Mapping.failure

(* Failure injection: a mapping that claims tighter deadlines than the
   spec can honour must be rejected. *)
let test_broken_mapping_rejected () =
  let broken =
    {
      Mapping.mname = "broken";
      contains =
        (fun _s u ->
          (* requires the spec to promise a grant within 1 of now —
             false at the start state where Lt(G1) = k c2 + l *)
          Time.(u.Tstate.lt.(0) <= Time.add_q (Time.Fin u.Tstate.now) (q 1)));
    }
  in
  match Mapping.check_exhaustive ~source:impl ~levels:(one spec broken) () with
  | Error { Mapping.failure = Mapping.No_start_image _; _ } -> ()
  | Error _ -> Alcotest.fail "expected a start-image failure"
  | Ok _ -> Alcotest.fail "broken mapping must fail"

(* A mapping that is fine at the start but not preserved by steps. *)
let test_unpreserved_mapping_rejected () =
  let i_tick = TA.cond_index impl "cond(TICK)" in
  let shallow =
    {
      Mapping.mname = "unpreserved";
      contains =
        (fun s u ->
          (* holds with equality at the start state but ignores the
             TIMER, so it breaks as soon as a tick is consumed *)
          Time.(
            u.Tstate.lt.(0)
            >= Time.add_q s.Tstate.lt.(i_tick)
                 (Rational.add
                    (Rational.mul_int (p.RM.k - 1) p.RM.c2)
                    p.RM.l)));
    }
  in
  match Mapping.check_exhaustive ~source:impl ~levels:(one spec shallow) () with
  | Error { Mapping.failure = Mapping.Image_lost _; _ } -> ()
  | Error e ->
      Alcotest.failf "expected Image_lost, got %a" (Mapping.pp_failure impl)
        e.Mapping.failure
  | Ok _ -> Alcotest.fail "unpreserved mapping must fail"

(* Against a spec with a too-tight upper bound, the paper mapping must
   fail with a Move_not_enabled or Image_lost (the property is false). *)
let test_tight_spec_rejected () =
  let tight =
    TA.make (RM.system p)
      [
        Tm_timed.Condition.make ~name:"G1"
          ~t_start:(fun _ -> true)
          ~bounds:
            (Tm_base.Interval.make
               (Rational.mul_int p.RM.k p.RM.c1)
               (Time.Fin (Rational.mul_int p.RM.k p.RM.c2)))
          (* paper bound is k c2 + l; drop the + l *)
          ~in_pi:(fun a -> a = RM.Grant)
          ();
        RM.g2 p;
      ]
  in
  match Mapping.check_exhaustive ~source:impl ~levels:(one tight f) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tight spec must be refuted"

let test_check_exec_detects_on_trace () =
  (* the same tight spec refuted along a lazy trace, which realizes the
     worst-case first grant *)
  let tight_g1 =
    Tm_timed.Condition.make ~name:"G1"
      ~t_start:(fun _ -> true)
      ~bounds:
        (Tm_base.Interval.make
           (Rational.mul_int p.RM.k p.RM.c1)
           (Time.Fin (Rational.mul_int p.RM.k p.RM.c2)))
      ~in_pi:(fun a -> a = RM.Grant)
      ()
  in
  let tight = TA.make (RM.system p) [ tight_g1; RM.g2 p ] in
  let e =
    (Simulator.simulate ~steps:60 ~strategy:(Strategy.lazy_ ~cap:Rational.one ())
       impl)
      .Simulator.exec
  in
  match Mapping.check_exec ~source:impl ~levels:(one tight f) e with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lazy trace should refute the tight spec"

(* A two-level chain whose level-0 target (G1's upper bound shaved
   from 10 to 8) cannot follow the manager: level 0 fails with a move
   the target cannot fire, and the failure names the source's
   pre-state of that move (the state the target witness stands
   beside), not its post-state. *)
let full = { Mapping.mname = "full relation"; contains = (fun _ _ -> true) }

let tight_chain =
  let tight =
    TA.make (RM.system p)
      [
        Tm_timed.Condition.make ~name:"G1"
          ~t_start:(fun _ -> true)
          ~bounds:(Tm_base.Interval.of_ints 6 8)
          ~in_pi:(fun a -> a = RM.Grant)
          ();
        RM.g2 p;
      ]
  in
  [
    { Mapping.target = tight; map = full }; { Mapping.target = spec; map = full };
  ]

let level0_not_enabled = function
  | Error
      {
        Mapping.level_index = 0;
        failure =
          Mapping.Move_not_enabled { source_pre; target_pre; action; time };
        _;
      } ->
      (source_pre, target_pre, action, time)
  | Error e ->
      Alcotest.failf "expected Move_not_enabled at level 0, got level %d: %a"
        e.Mapping.level_index (Mapping.pp_failure impl) e.Mapping.failure
  | Ok _ -> Alcotest.fail "the tight level must fail"

(* the source pre-state and the target witness are the same moment of
   the same run, and the move is one the source can take from it *)
let check_pre_state (source_pre, target_pre, action, time) =
  Alcotest.(check rational_t) "same now" target_pre.Tstate.now
    source_pre.Tstate.now;
  Alcotest.(check bool) "same base" true
    (impl.TA.base.Tm_ioa.Ioa.equal_state target_pre.Tstate.base
       source_pre.Tstate.base);
  Alcotest.(check bool) "a source move from it" true
    (TA.fire impl source_pre action time <> [])

let test_chain_exec_reports_pre_state () =
  (* the lazy adversary's first grant comes at 9 *)
  let e =
    (Simulator.simulate ~steps:60
       ~strategy:(Strategy.lazy_ ~cap:Rational.one ())
       impl)
      .Simulator.exec
  in
  let ((source_pre, _, _, _) as failed) =
    level0_not_enabled (Mapping.check_exec ~source:impl ~levels:tight_chain e)
  in
  check_pre_state failed;
  (* the failing step is the last one of the shortest failing prefix *)
  let rec first_failing i =
    match
      Mapping.check_exec ~source:impl ~levels:tight_chain
        (Tm_ioa.Execution.prefix i e)
    with
    | Ok () -> first_failing (i + 1)
    | Error _ -> i
  in
  let pre, _, _ =
    List.nth (Tm_ioa.Execution.steps e) (first_failing 0 - 1)
  in
  Alcotest.(check bool) "the failing step's pre-state" true
    (TA.equal_state impl pre source_pre)

let test_chain_exhaustive_reports_pre_state () =
  check_pre_state
    (level0_not_enabled
       (Mapping.check_exhaustive ~source:impl ~levels:tight_chain ()))

let prop_random_exec_mapped =
  check_holds "mapping holds along random executions"
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      match
        Mapping.check_exec ~source:impl ~levels:(one spec f)
          (random_exec seed 40)
      with
      | Ok () -> true
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "start witness" `Quick test_start_witness;
    Alcotest.test_case "check_exec ok (random)" `Quick test_check_exec_ok;
    Alcotest.test_case "check_exec ok (lazy/eager)" `Quick
      test_check_exec_lazy_and_eager;
    Alcotest.test_case "check_exhaustive ok" `Quick test_check_exhaustive_ok;
    Alcotest.test_case "broken mapping rejected" `Quick
      test_broken_mapping_rejected;
    Alcotest.test_case "unpreserved mapping rejected" `Quick
      test_unpreserved_mapping_rejected;
    Alcotest.test_case "tight spec refuted exhaustively" `Quick
      test_tight_spec_rejected;
    Alcotest.test_case "tight spec refuted on a lazy trace" `Quick
      test_check_exec_detects_on_trace;
    Alcotest.test_case "chain failure names the pre-state (trace)" `Quick
      test_chain_exec_reports_pre_state;
    Alcotest.test_case "chain failure names the pre-state (exhaustive)" `Quick
      test_chain_exhaustive_reports_pre_state;
    prop_random_exec_mapped;
  ]
