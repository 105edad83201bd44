(* Fault-injection and robustness-margin subsystem.

   The load-bearing properties are metamorphic: widening a boundmap
   only grows the timed language, so verification verdicts must be
   monotone in the perturbation magnitude, and the margin search built
   on that monotonicity must land exactly on the hand-computable
   thresholds of the paper's systems (failure detector: accuracy flips
   when the heartbeat upper bound h2 is pushed past the poll gap g1).
   Budget exhaustion is pinned as a first-class outcome: a run that
   gives up must never surface as Verified. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module TA = Tm_core.Time_automaton
module Simulator = Tm_sim.Simulator
module Reach = Tm_zones.Reach
module Perturb = Tm_faults.Perturb
module Margin = Tm_faults.Margin
module FD = Tm_systems.Failure_detector

let q = Gen.q
let qq = Gen.qq

(* The shared condition of the engine-differential suite: trigger and
   Pi are both action 0, bounds [0, 3]. *)
let cond0 =
  Condition.make ~name:"D"
    ~t_step:(fun _ a _ -> a = 0)
    ~bounds:(Interval.make Rational.zero (Time.Fin (q 3)))
    ~in_pi:(fun a -> a = 0)
    ()

(* ------------------------------------------------------------------ *)
(* Perturb: structural properties, driven by Gen.perturbation.         *)

let classes3 = [ "k0"; "k1"; "k2" ]

(* A fixed three-class boundmap the random perturbations act on. *)
let bm3 =
  Boundmap.of_list
    [
      ("k0", Interval.make (q 1) (Time.Fin (q 2)));
      ("k1", Interval.make Rational.zero (Time.Fin (qq 3 2)));
      ("k2", Interval.unbounded_above (q 2));
    ]

let perturb_preserves_classes =
  Gen.check_holds "perturb: class set preserved, intervals stay legal"
    ~count:300 ~print:Gen.print_perturbation
    (Gen.perturbation ~classes:classes3)
    (fun spec ->
      match Perturb.apply spec bm3 with
      | Error _ -> true (* validation refused it, nothing to check *)
      | Ok bm' ->
          Boundmap.classes bm' = Boundmap.classes bm3
          && List.for_all
               (fun (_, iv) ->
                 Rational.sign (Interval.lo iv) >= 0
                 && Time.le_q (Interval.lo iv) (Interval.hi iv))
               (Boundmap.to_list bm'))

let widen_grows_pointwise =
  Gen.check_holds "perturb: widen contains the original interval"
    ~count:200 ~print:Rational.to_string
    QCheck2.Gen.(
      map2 (fun n d -> Rational.make n d) (int_range 0 12) (int_range 1 4))
    (fun e ->
      match Perturb.apply (Perturb.widen e) bm3 with
      | Error _ -> false
      | Ok bm' ->
          List.for_all
            (fun (c, iv) ->
              let iv' = Boundmap.find bm' c in
              Rational.(Interval.lo iv' <= Interval.lo iv)
              && Time.(Interval.hi iv <= Interval.hi iv'))
            (Boundmap.to_list bm3))

(* ------------------------------------------------------------------ *)
(* Metamorphic: widening is monotone in the verification preorder.     *)

let status aut bm e =
  match Perturb.apply (Perturb.widen e) bm with
  | Error _ -> Margin.Unknown "inapplicable"
  | Ok bm' ->
      Margin.condition_status (module Reach.Auto) ~limit:2000 aut cond0
        bm'

let widen_monotone =
  let gen =
    QCheck2.Gen.(
      triple Gen.boundmap_automaton
        (map2 (fun n d -> Rational.make n d) (int_range 0 6) (int_range 1 3))
        (map2 (fun n d -> Rational.make n d) (int_range 0 6) (int_range 1 3)))
  in
  Gen.check_holds
    "margin: verified at e2 implies verified at every e1 <= e2" ~count:80
    ~print:(fun (r, e1, e2) ->
      Printf.sprintf "%s e1=%s e2=%s" (Gen.print_raut r)
        (Rational.to_string e1) (Rational.to_string e2))
    gen
    (fun (r, ea, eb) ->
      let e1 = Rational.min ea eb and e2 = Rational.max ea eb in
      let aut, bm = Gen.build_boundmap_automaton r in
      match (status aut bm e1, status aut bm e2) with
      | Margin.Unsat, Margin.Sat -> false
      | _ -> true)

(* A report shares one unperturbed check among its searches; its
   verdicts — probe counts and error texts included — must be those of
   separate searches that each probe [e = 0] themselves. *)
let report_equals_separate_searches =
  Gen.check_holds
    "margin: report equals separate searches with their own e = 0 probes"
    ~count:40 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let check bm' =
        Margin.condition_status (module Reach.Auto) ~limit:2000 aut cond0
          bm'
      in
      let search family =
        Margin.search ~eps_max:2 ~stable:5 ~max_probes:24 ~family ~check bm
      in
      let rep =
        Margin.report ~eps_max:2 ~stable:5 ~max_probes:24 ~subject:"m"
          ~check bm
      in
      rep.Margin.overall = search Perturb.widen
      && rep.Margin.per_class
         = List.map
             (fun cls ->
               { Margin.cls; verdict = search (Perturb.widen_class cls) })
             (Boundmap.classes bm))

(* ------------------------------------------------------------------ *)
(* Exhaustion is never Verified (the budget discipline).               *)

let budget_never_verified =
  Gen.check_holds
    "budget: a run that could exhaust never reports Verified beyond it"
    ~count:150 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      match Reach.Auto.check_condition ~limit:6 aut bm cond0 with
      | Reach.Verified st -> st.Reach.zones <= 6
      | Reach.Unknown e ->
          (* partial stats must reflect a genuinely exhausted store *)
          e.Reach.partial.Reach.zones > 6
      | Reach.Lower_violation _ | Reach.Upper_violation _
      | Reach.Unsupported _ ->
          true
      | exception Reach.Open_system _ -> true)

(* ------------------------------------------------------------------ *)
(* Failure detector: the accuracy margin is exactly g1 - h2.           *)

let fd_margin_is_g1_minus_h2 () =
  (* Single-miss detector (m=1): a false suspicion needs a heartbeat
     gap > g1, so widening the HB class upper bound h2=2 by e breaks
     accuracy exactly when 2 + e >= g1 = 3 (at e = g1 - h2 the
     perturbed gap can equal the poll gap and fool the detector), i.e.
     e* = 1, supremum not attained. *)
  let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:3 ~g2:4 ~m:1 in
  let sys = FD.system p and bm = FD.boundmap p in
  let check bm' =
    Margin.invariant_status
      (module Reach.Auto)
      sys FD.no_false_suspicion bm'
  in
  match
    Margin.search ~family:(Perturb.widen_class FD.hb_class) ~check bm
  with
  | Error m -> Alcotest.fail m
  | Ok v ->
      Alcotest.(check bool) "exact" true v.Margin.exact;
      Alcotest.check Gen.rational_t "threshold = g1 - h2" (q 1)
        v.Margin.threshold;
      Alcotest.(check bool) "open (refuted at e*)" false v.Margin.attained;
      (match v.Margin.refuted_at with
      | Some r -> Alcotest.check Gen.rational_t "refuted at g1 - h2" (q 1) r
      | None -> Alcotest.fail "expected a refutation bound")

let fd_margin_report_names_critical () =
  let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:3 ~g2:4 ~m:1 in
  let sys = FD.system p and bm = FD.boundmap p in
  let r =
    Margin.report ~subject:"fd accuracy"
      ~check:(fun bm' ->
        Margin.invariant_status
          (module Reach.Auto)
          sys FD.no_false_suspicion bm')
      bm
  in
  match r.Margin.critical with
  | Some c -> Alcotest.(check string) "critical class" FD.hb_class c
  | None -> Alcotest.fail "expected a critical class"

(* ------------------------------------------------------------------ *)
(* Simulator watchdog.                                                 *)

(* One state, one action in class k0, self-loop. *)
let loop_raut =
  {
    Gen.ra_states = 1;
    ra_nclasses = 1;
    ra_delta = [| [| [ 0 ] |] |];
    ra_bounds = [| ((1, 1), Some (1, 1)) |];
  }

let watchdog_stops_run () =
  let aut, bm = Gen.build_boundmap_automaton loop_raut in
  let taut = TA.of_boundmap aut bm in
  (* An already-expired deadline must stop the run deterministically
     before the first step, as Watchdog — not hang, not Step_limit. *)
  let run =
    Simulator.simulate ~deadline_s:(-1.0) ~steps:1_000_000
      ~strategy:Tm_sim.Strategy.eager taut
  in
  Alcotest.(check bool) "watchdog fired" true
    (run.Simulator.reason = Simulator.Watchdog);
  Alcotest.(check int) "no steps taken" 0
    (List.length run.Simulator.exec.Tm_ioa.Execution.moves)

let suite =
  [
    perturb_preserves_classes;
    widen_grows_pointwise;
    widen_monotone;
    report_equals_separate_searches;
    budget_never_verified;
    Alcotest.test_case "fd: accuracy margin is exactly g1 - h2" `Quick
      fd_margin_is_g1_minus_h2;
    Alcotest.test_case "fd: report names HB as the critical class" `Quick
      fd_margin_report_names_critical;
    Alcotest.test_case "simulator: watchdog stops an expired run" `Quick
      watchdog_stops_run;
  ]
