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
(* The mediant walk against its one-at-a-time oracle.                  *)

(* The search whose mediant walk checks every mediant it steps to, one
   check a step: the oracle [Margin.search] is held to, kept only here.
   Besides the verdict it returns its step count (every step ran a
   check) and the walk's moves in order ([true]: the mediant verified),
   from which [leaping_checks] predicts the checks the search runs. *)
let reference_search ~eps_max ~stable ~max_probes ~family ~check bm =
  let ( let* ) = Result.bind in
  let probes = ref 0 and moves = ref [] in
  let probe e =
    match Perturb.apply (family e) bm with
    | Error m -> Error m
    | Ok bm' -> (
        incr probes;
        match check bm' with
        | Margin.Sat -> Ok true
        | Margin.Unsat -> Ok false
        | Margin.Unknown m ->
            Error
              (Printf.sprintf "inconclusive at e = %s: %s"
                 (Rational.to_string e) m))
  in
  let verdict threshold attained refuted_at exact =
    { Margin.threshold; attained; refuted_at; exact; probes = !probes }
  in
  let result =
    let* sat0 = probe Rational.zero in
    if not sat0 then Error "refuted with no perturbation (e = 0)"
    else
      let* sat_top = probe (q eps_max) in
      if sat_top then Ok (verdict (q eps_max) true None false)
      else
        let rec int_bracket ilo ihi =
          if ihi - ilo <= 1 then Ok (ilo, ihi)
          else
            let mid = ilo + ((ihi - ilo) / 2) in
            let* sat = probe (q mid) in
            if sat then int_bracket mid ihi else int_bracket ilo mid
        in
        let* ilo, ihi = int_bracket 0 eps_max in
        let rec walk lo hi sat_run unsat_run =
          if unsat_run >= stable then Ok (verdict lo true (Some hi) true)
          else if sat_run >= stable then Ok (verdict hi false (Some hi) true)
          else if !probes >= max_probes then
            Ok (verdict lo true (Some hi) false)
          else
            let m =
              Rational.make
                (lo.Rational.num + hi.Rational.num)
                (lo.Rational.den + hi.Rational.den)
            in
            let* sat = probe m in
            moves := sat :: !moves;
            if sat then walk m hi (sat_run + 1) 0
            else walk lo m 0 (unsat_run + 1)
        in
        walk (q ilo) (q ihi) 0 0
  in
  (result, !probes, List.rev !moves)

(* The checks [Margin.search] runs for a search the reference ended with
   a verdict, given the reference's step count and walk moves: the
   bracket's checks, then per walk step one check, except inside a run
   (with [leap] still set), where one check [k] moves on either takes
   all [k] moves, when all [k] go the run's way, or clears [leap] until
   the run breaks. *)
let leaping_checks ~stable ~max_probes ~probes moves =
  let moves = Array.of_list moves in
  let n = Array.length moves in
  let bracket = probes - n in
  let rec go i run leap checks =
    if i >= n then checks
    else
      let k = min (stable - run) (max_probes - bracket - i) in
      if leap && run > 0 && k >= 2 then
        let along j = j < n && moves.(j) = moves.(i - 1) in
        if List.for_all along (List.init k (( + ) i)) then
          go (i + k) (run + k) true (checks + 1)
        else go i run false (checks + 1)
      else if i > 0 && moves.(i) = moves.(i - 1) then
        go (i + 1) (run + 1) leap (checks + 1)
      else go (i + 1) 1 true (checks + 1)
  in
  bracket + go 0 0 true 0

(* One class, [0, 1]: widening it by [e] reads back as [e] from the
   upper bound, so a check can verify exactly below a chosen threshold
   [t] (at [t] too when [attained]) and answer [Unknown] at chosen
   magnitudes — a monotone check with any rational threshold. *)
let bm1 =
  Boundmap.of_list [ ("k", Interval.make Rational.zero (Time.Fin (q 1))) ]

let threshold_check ?(unknown_at = []) t attained bm' =
  match Interval.hi (Boundmap.find bm' "k") with
  | Time.Inf -> assert false
  | Time.Fin h ->
      let e = Rational.(h - one) in
      let c = Rational.compare e t in
      if List.exists (Rational.equal e) unknown_at then Margin.Unknown "fault"
      else if c < 0 || (c = 0 && attained) then Margin.Sat
      else Margin.Unsat

(* [search] over a counting [check]: the verdict and the checks run. *)
let counted_search ~eps_max ~stable ~max_probes ~family ~check bm =
  let checks = ref 0 in
  let check bm' =
    incr checks;
    check bm'
  in
  let v = Margin.search ~eps_max ~stable ~max_probes ~family ~check bm in
  (v, !checks)

(* A threshold from its continued fraction [a0; a1, ..., an].  Mostly
   small coefficients, so the walk's runs break often; now and then one
   at or above [stable], a run the walk takes for the end of the
   search. *)
let cf_threshold =
  QCheck2.Gen.(
    let coeff =
      frequency [ (4, return 1); (3, int_range 2 4); (1, int_range 5 16) ]
    in
    map2
      (fun a0 rest ->
        match List.rev rest with
        | [] -> q a0
        | last :: inner ->
            let frac =
              List.fold_left
                (fun x a -> Rational.(q a + inv x))
                (q last) inner
            in
            Rational.(q a0 + inv frac))
      (int_range 0 8) (list_size (int_range 0 7) coeff))

let walk_params =
  QCheck2.Gen.(triple (int_range 1 8) (int_range 2 14) (int_range 2 80))

let leaping_walk_matches_reference =
  Gen.check_holds
    "margin: leaping walk gives the one-at-a-time verdict, its checks as \
     predicted"
    ~count:600
    ~print:(fun ((t, attained), (eps_max, stable, max_probes)) ->
      Printf.sprintf "t=%s attained=%b eps_max=%d stable=%d max_probes=%d"
        (Rational.to_string t) attained eps_max stable max_probes)
    QCheck2.Gen.(pair (pair cf_threshold bool) walk_params)
    (fun ((t, attained), (eps_max, stable, max_probes)) ->
      let family = Perturb.widen and check = threshold_check t attained in
      let expected, probes, moves =
        reference_search ~eps_max ~stable ~max_probes ~family ~check bm1
      in
      let got, checks =
        counted_search ~eps_max ~stable ~max_probes ~family ~check bm1
      in
      got = expected
      &&
      match expected with
      | Ok _ -> checks = leaping_checks ~stable ~max_probes ~probes moves
      | Error _ -> true)

(* The same over zone-engine checks of random automata, per family of a
   report.  Where a reference step ran out of budget the leaping walk
   may have skipped that mediant: it answers, or gives up at a mediant
   of its own; any other outcome must be the reference's. *)
let leaping_walk_matches_reference_on_engines =
  Gen.check_holds "margin: leaping walk = one-at-a-time walk on zone checks"
    ~count:40
    ~print:(fun (r, (stable, max_probes)) ->
      Printf.sprintf "%s stable=%d max_probes=%d" (Gen.print_raut r) stable
        max_probes)
    QCheck2.Gen.(
      pair Gen.boundmap_automaton (pair (int_range 2 8) (int_range 4 40)))
    (fun (r, (stable, max_probes)) ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let check bm' =
        Margin.condition_status (module Reach.Auto) ~limit:2000 aut cond0
          bm'
      in
      let inconclusive m =
        String.starts_with ~prefix:"inconclusive at e = " m
      in
      List.for_all
        (fun family ->
          let expected, probes, moves =
            reference_search ~eps_max:2 ~stable ~max_probes ~family ~check bm
          in
          let got, checks =
            counted_search ~eps_max:2 ~stable ~max_probes ~family ~check bm
          in
          match (expected, got) with
          | Ok _, _ ->
              got = expected
              && checks = leaping_checks ~stable ~max_probes ~probes moves
          | Error m, (Ok _ | Error _) when inconclusive m -> (
              match got with Ok _ -> true | Error m' -> inconclusive m')
          | Error _, _ -> got = expected)
        (Perturb.widen
        :: List.map Perturb.widen_class (Boundmap.classes bm)))

(* Threshold 1/2, attained, at the defaults: the bracket is [0, 1]
   after five checks (e = 0, 8, 4, 2, 1).  The walk verifies 1/2, leaps
   to 12/13 (eleven moves on toward 1; refuted, so it steps), refutes
   2/3, leaps to 13/25 (eleven moves on toward 1/2; refuted, so all
   eleven moves are taken): nine checks for eighteen steps. *)
let half_verdict =
  {
    Margin.threshold = qq 1 2;
    attained = true;
    refuted_at = Some (qq 13 25);
    exact = true;
    probes = 18;
  }

let half_search ?unknown_at () =
  let family = Perturb.widen
  and check = threshold_check ?unknown_at (qq 1 2) true in
  let reference, _, _ =
    reference_search ~eps_max:8 ~stable:12 ~max_probes:96 ~family ~check bm1
  in
  let got, checks =
    counted_search ~eps_max:8 ~stable:12 ~max_probes:96 ~family ~check bm1
  in
  (reference, got, checks)

let verdict_t =
  Alcotest.testable
    (fun fmt -> function
      | Ok v -> Margin.pp_verdict fmt v
      | Error m -> Format.pp_print_string fmt m)
    ( = )

let leap_counts_checks () =
  let reference, got, checks = half_search () in
  Alcotest.check verdict_t "reference verdict" (Ok half_verdict) reference;
  Alcotest.check verdict_t "leaping verdict" (Ok half_verdict) got;
  Alcotest.(check int) "checks run" 9 checks

(* [Unknown] at a leap's target: the walk steps instead, and ends where
   the reference does — with its verdict when the reference never
   reaches the target (12/13, past where the run breaks), with its
   error when it does (13/25, the end of the last run). *)
let leap_target_unknown_steps () =
  let reference, got, checks = half_search ~unknown_at:[ qq 12 13 ] () in
  Alcotest.check verdict_t "12/13: reference verdict" (Ok half_verdict)
    reference;
  Alcotest.check verdict_t "12/13: leaping = reference" reference got;
  Alcotest.(check int) "12/13: checks run" 9 checks;
  let reference, got, _ = half_search ~unknown_at:[ qq 13 25 ] () in
  Alcotest.check verdict_t "13/25: reference gives up"
    (Error "inconclusive at e = 13/25: fault")
    reference;
  Alcotest.check verdict_t "13/25: leaping = reference" reference got

(* [Unknown] only at a mediant the leap skips (3/5, the second of the
   last run's eleven): the reference gives up there, the leaping walk
   never checks it and answers.  The one way the two walks differ. *)
let skipped_unknown_answers () =
  let reference, got, _ = half_search ~unknown_at:[ qq 3 5 ] () in
  Alcotest.check verdict_t "reference gives up"
    (Error "inconclusive at e = 3/5: fault")
    reference;
  Alcotest.check verdict_t "leaping walk answers" (Ok half_verdict) got

(* [margin -S fischer -n 3], the benchmark's margin workload: the
   checks it runs are pinned (200 when every step ran one), and the
   probes its reports print are those of the one-at-a-time walk. *)
let fischer3_margin_checks () =
  let module Registry = Tm_systems.Registry in
  let model =
    Result.get_ok
      (Registry.instantiate ~margin:true
         (Result.get_ok (Registry.find "fischer"))
         [ ("n", 3) ])
  in
  let c = Tm_obs.Metrics.counter "faults.margin_probes" in
  let before = Tm_obs.Metrics.value c in
  let reports =
    Tm_serve.Catalog.margin_reports (module Reach.Auto) ~domains:1 model
  in
  let printed =
    List.fold_left
      (fun acc (r : Margin.report) ->
        List.fold_left
          (fun acc v ->
            match v with Ok v -> acc + v.Margin.probes | Error _ -> acc)
          acc
          (r.Margin.overall
          :: List.map (fun (row : Margin.row) -> row.Margin.verdict)
               r.Margin.per_class))
      0 reports
  in
  Alcotest.(check int) "checks run" 91 (Tm_obs.Metrics.value c - before);
  Alcotest.(check int) "printed probes" 224 printed

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
    leaping_walk_matches_reference;
    leaping_walk_matches_reference_on_engines;
    Alcotest.test_case "margin: a leap counts k steps for one check" `Quick
      leap_counts_checks;
    Alcotest.test_case "margin: Unknown at a leap target steps instead"
      `Quick leap_target_unknown_steps;
    Alcotest.test_case "margin: Unknown at a skipped mediant is not seen"
      `Quick skipped_unknown_answers;
    Alcotest.test_case "margin: fischer n=3 runs 91 checks, prints 224 probes"
      `Quick fischer3_margin_checks;
    budget_never_verified;
    Alcotest.test_case "fd: accuracy margin is exactly g1 - h2" `Quick
      fd_margin_is_g1_minus_h2;
    Alcotest.test_case "fd: report names HB as the critical class" `Quick
      fd_margin_report_names_critical;
    Alcotest.test_case "simulator: watchdog stops an expired run" `Quick
      watchdog_stops_run;
  ]
