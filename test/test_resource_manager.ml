module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Hstore = Tm_base.Hstore
module Prng = Tm_base.Prng
module Tstate = Tm_core.Tstate
module TA = Tm_core.Time_automaton
module Tgraph = Tm_core.Tgraph
module Semantics = Tm_timed.Semantics
module RM = Tm_systems.Resource_manager
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
open Gen

let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1
let impl = RM.impl p

let test_params_validation () =
  let bad f = Alcotest.(check bool) "rejected" true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  bad (fun () -> RM.params_of_ints ~k:0 ~c1:2 ~c2:3 ~l:1);
  bad (fun () -> RM.params_of_ints ~k:1 ~c1:0 ~c2:3 ~l:1);
  bad (fun () -> RM.params_of_ints ~k:1 ~c1:3 ~c2:2 ~l:1);
  bad (fun () -> RM.params_of_ints ~k:1 ~c1:2 ~c2:3 ~l:0);
  bad (fun () -> RM.params_of_ints ~k:1 ~c1:2 ~c2:3 ~l:2)

let test_intervals () =
  Alcotest.(check interval_t) "first" (Tm_base.Interval.of_ints 6 10)
    (RM.grant_interval_first p);
  Alcotest.(check interval_t) "between" (Tm_base.Interval.of_ints 5 10)
    (RM.grant_interval_between p)

(* Lemma 4.1 checked exhaustively over the discretized reachable
   states of time(A, b). *)
let test_lemma_4_1_exhaustive () =
  let g = Tgraph.build impl in
  Alcotest.(check bool) "graph complete" false g.Tgraph.truncated;
  Hstore.iter
    (fun _ s ->
      if not (RM.lemma_4_1 p impl s) then
        Alcotest.failf "Lemma 4.1 violated at %a" (TA.pp_state impl) s)
    g.Tgraph.nodes

(* Lemma 4.2: no reachable discretized state is deadlocked. *)
let test_lemma_4_2_no_deadlock () =
  let g = Tgraph.build impl in
  let params = g.Tgraph.params in
  Hstore.iter
    (fun _ s ->
      if Tgraph.moves params impl s = [] then
        Alcotest.failf "deadlocked state %a" (TA.pp_state impl) s)
    g.Tgraph.nodes

let grants seq = Measure.occurrence_times (fun a -> a = RM.Grant) seq

(* Theorem 4.4 measured: envelopes of simulated grant times lie inside
   the proved intervals. *)
let measured_envelopes n_runs =
  let firsts = ref [] and gaps = ref [] in
  for seed = 0 to n_runs do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps:150
        ~strategy:(Strategy.random ~prng ~denominator:4 ~cap:(q 1))
        impl
    in
    let ts = grants (Simulator.project run) in
    (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
    gaps := Measure.gaps ts @ !gaps
  done;
  (!firsts, !gaps)

let test_theorem_4_4_measured () =
  let firsts, gaps = measured_envelopes 80 in
  (match Measure.envelope firsts with
  | Some e ->
      Alcotest.(check bool) "first grants within [6,10]" true
        (Measure.within (RM.grant_interval_first p) e)
  | None -> Alcotest.fail "no first grants measured");
  match Measure.envelope gaps with
  | Some e ->
      Alcotest.(check bool) "gaps within [5,10]" true
        (Measure.within (RM.grant_interval_between p) e)
  | None -> Alcotest.fail "no gaps measured"

(* The procrastinating adversary — fire everything at its deadline,
   idling (ELSE) before ticking when both are due — realizes the
   worst-case first grant k·c2 + l exactly. *)
let test_lazy_hits_upper_bound () =
  let strategy = Strategy.lazy_ ~prefer:(fun a -> a = RM.Else) ~cap:(q 1) () in
  let run = Simulator.simulate ~steps:100 ~strategy impl in
  match grants (Simulator.project run) with
  | t :: _ -> Alcotest.(check rational_t) "first grant at 10" (q 10) t
  | [] -> Alcotest.fail "no grants";;

(* Plain lazy (deadline scheduling, oldest first) stays within bounds
   but orders TICK before ELSE at shared instants, granting at k·c2. *)
let test_plain_lazy_within_bounds () =
  let run =
    Simulator.simulate ~steps:100 ~strategy:(Strategy.lazy_ ~cap:(q 1) ()) impl
  in
  match grants (Simulator.project run) with
  | t :: _ ->
      Alcotest.(check rational_t) "first grant at k c2" (q 9) t;
      Alcotest.(check bool) "within the proved interval" true
        (Tm_base.Interval.mem t (RM.grant_interval_first p))
  | [] -> Alcotest.fail "no grants"

(* Traces satisfy G1 and G2 (semi-satisfaction, via the conditions). *)
let prop_traces_meet_requirements =
  check_holds "simulated traces satisfy G1, G2"
    QCheck2.Gen.(int_range 0 300)
    (fun seed ->
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:100
          ~strategy:(Strategy.random ~prng ~denominator:3 ~cap:(q 1))
          impl
      in
      Semantics.semi_satisfies_all (Simulator.project run)
        [ RM.g1 p; RM.g2 p ]
      = [])

(* The mapping validates across a parameter sweep. *)
let test_mapping_parameter_sweep () =
  List.iter
    (fun (k, c1, c2, l) ->
      let p = RM.params_of_ints ~k ~c1 ~c2 ~l in
      match
        Tm_core.Mapping.check_exhaustive ~source:(RM.impl p)
          ~levels:[ { Tm_core.Mapping.target = RM.spec p; map = RM.mapping p } ]
          ()
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "k=%d c1=%d c2=%d l=%d: %a" k c1 c2 l
            (Tm_core.Mapping.pp_failure (RM.impl p))
            e.Tm_core.Mapping.failure)
    [ (1, 2, 2, 1); (2, 2, 3, 1); (3, 3, 5, 2); (5, 2, 3, 1); (4, 4, 4, 3) ]

let test_structure () =
  let sys = RM.system p in
  Alcotest.(check (list string)) "classes" [ "TICK"; "LOCAL" ]
    sys.Tm_ioa.Ioa.classes;
  (match Tm_ioa.Ioa.validate sys ~states:[ ((), 0); ((), 1); ((), 3) ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "timer accessor" 3 (RM.timer ((), 3))

let suite =
  [
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "paper intervals" `Quick test_intervals;
    Alcotest.test_case "Lemma 4.1 exhaustive" `Quick
      test_lemma_4_1_exhaustive;
    Alcotest.test_case "Lemma 4.2 no deadlock" `Quick
      test_lemma_4_2_no_deadlock;
    Alcotest.test_case "Theorem 4.4 measured envelopes" `Slow
      test_theorem_4_4_measured;
    Alcotest.test_case "adversary hits the upper bound" `Quick
      test_lazy_hits_upper_bound;
    Alcotest.test_case "plain lazy within bounds" `Quick
      test_plain_lazy_within_bounds;
    Alcotest.test_case "mapping across parameters" `Slow
      test_mapping_parameter_sweep;
    Alcotest.test_case "structure" `Quick test_structure;
    prop_traces_meet_requirements;
  ]
