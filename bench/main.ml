(* Benchmark / experiment harness.

   The paper (Lynch & Attiya 1989/PODC'90) is pure theory and has no
   experimental tables; the experiments E1-E8 regenerate its formal
   claims as defined in DESIGN.md / EXPERIMENTS.md:

     E1  first-GRANT window of the Section 4 resource manager
     E2  inter-GRANT window of the Section 4 resource manager
     E3  relay delay vs line length (Section 6)
     E4  mapping verification (Lemma 4.3 / Lemma 6.2 / Corollary 6.3)
     E5  completeness construction (Theorem 7.1)
     E6  zone-based exact oracle (all systems, incl. refutations)
     E7  Bechamel microbenchmarks of the machinery
     E8  Fischer mutual exclusion (the conclusions' future work)
     E9  extension systems: token ring, chained trigger, failure detector
     E10 independent exact engines (zones vs regions) and liveness
     E11 packed-int DBM kernel vs reference kernel (differential)
     E12 exact robustness margins (fault-injection subsystem)
     E14 checkpoint overhead and exhaust-and-resume discipline
     E16 serving layer: verdict-cache duplicate suppression, admission
     E17 zero-copy zone storage: allocation per stored zone
     E18 worker-process pool: throughput and verdict agreement

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- e1 e3 e7 *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Semantics = Tm_timed.Semantics
module TA = Tm_core.Time_automaton
module Tgraph = Tm_core.Tgraph
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module D = Tm_core.Dummify
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
module RM = Tm_systems.Resource_manager
module IM = Tm_systems.Interrupt_manager
module SR = Tm_systems.Signal_relay
module F = Tm_systems.Fischer
module RG = Tm_systems.Request_grant
module TS = Tm_systems.Two_stage
module TR = Tm_systems.Token_ring
module FD = Tm_systems.Failure_detector
module Region = Tm_zones.Region
module Progress = Tm_core.Progress
open Bench_util

let q = Rational.of_int

(* TM_DOMAINS spreads E12's margin searches over that many domains
   (default 1 = sequential); zone exploration is sequential and never
   sees it.  Every counter in the committed baseline is identical at
   any domain count — CI re-runs the drift guard with TM_DOMAINS=2. *)
let bench_domains =
  match Sys.getenv_opt "TM_DOMAINS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* ------------------------------------------------------------------ *)
(* Shared measurement machinery                                        *)

let rm_measured p ~runs ~steps =
  let impl = RM.impl p in
  let firsts = ref [] and gaps = ref [] in
  for seed = 0 to runs - 1 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps
        ~strategy:(Strategy.random ~prng ~denominator:4 ~cap:(q 1))
        impl
    in
    let ts =
      Measure.occurrence_times (fun a -> a = RM.Grant) (Simulator.project run)
    in
    (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
    gaps := Measure.gaps ts @ !gaps
  done;
  (* the procrastinating adversary adds the worst-case corner *)
  let lazy_run =
    Simulator.simulate ~steps
      ~strategy:
        (Strategy.lazy_ ~prefer:(fun a -> a = RM.Else) ~cap:(q 1) ())
      impl
  in
  let ts =
    Measure.occurrence_times (fun a -> a = RM.Grant)
      (Simulator.project lazy_run)
  in
  (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
  gaps := Measure.gaps ts @ !gaps;
  (Measure.envelope !firsts, Measure.envelope !gaps)

let im_measured p ~runs ~steps =
  let impl = IM.impl p in
  let firsts = ref [] and gaps = ref [] in
  for seed = 0 to runs - 1 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps
        ~strategy:(Strategy.random ~prng ~denominator:4 ~cap:(q 1))
        impl
    in
    let ts =
      Measure.occurrence_times (fun a -> a = IM.Grant) (Simulator.project run)
    in
    (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
    gaps := Measure.gaps ts @ !gaps
  done;
  (Measure.envelope !firsts, Measure.envelope !gaps)

(* ------------------------------------------------------------------ *)
(* E1 / E2: resource manager grant windows                             *)

let rm_sweep =
  [
    (1, 2, 3, 1);
    (2, 2, 3, 1);
    (3, 2, 3, 1);
    (5, 2, 3, 1);
    (10, 2, 3, 1);
    (3, 3, 5, 2);
    (5, 4, 4, 3);
  ]

let e1 () =
  section
    "E1: first GRANT window — paper [k*c1, k*c2+l] vs exact grid vs measured";
  row "%-18s %-12s %-14s %-40s %s\n" "(k,c1,c2,l)" "paper" "exact(grid)"
    "measured (random+lazy sim)" "verdict";
  List.iter
    (fun (k, c1, c2, l) ->
      let p = RM.params_of_ints ~k ~c1 ~c2 ~l in
      let iv = RM.grant_interval_first p in
      let a =
        Completeness.analyze ~source:(RM.impl p)
          ~conds:[| RM.g1 p; RM.g2 p |] ()
      in
      let exact = Completeness.start_bounds a ~cond:0 in
      let first_env, _ = rm_measured p ~runs:60 ~steps:(40 * k) in
      let ok = exact_matches iv exact && check_in iv first_env in
      row "%-18s %-12s %-14s %-40s %s\n"
        (Printf.sprintf "(%d,%d,%d,%d)" k c1 c2 l)
        (pp_interval iv) (pp_bounds exact) (pp_env first_env) (verdict ok))
    rm_sweep

let e2 () =
  section
    "E2: inter-GRANT window — paper [k*c1-l, k*c2+l] vs exact grid vs measured";
  row "%-18s %-12s %-14s %-40s %s\n" "(k,c1,c2,l)" "paper" "exact(grid)"
    "measured" "verdict";
  List.iter
    (fun (k, c1, c2, l) ->
      let p = RM.params_of_ints ~k ~c1 ~c2 ~l in
      let iv = RM.grant_interval_between p in
      let a =
        Completeness.analyze ~source:(RM.impl p)
          ~conds:[| RM.g1 p; RM.g2 p |] ()
      in
      let exact =
        match
          Completeness.bounds_after a
            ~trigger:(fun _ act _ -> act = RM.Grant)
            ~cond:1
        with
        | Some b -> b
        | None -> (Time.Inf, Time.Inf)
      in
      let _, gap_env = rm_measured p ~runs:60 ~steps:(60 * k) in
      let ok = exact_matches iv exact && check_in iv gap_env in
      row "%-18s %-12s %-14s %-40s %s\n"
        (Printf.sprintf "(%d,%d,%d,%d)" k c1 c2 l)
        (pp_interval iv) (pp_bounds exact) (pp_env gap_env) (verdict ok))
    rm_sweep;
  (* ablation: interrupt-driven manager (footnote 7) *)
  row "\n-- ablation: interrupt-driven manager (footnote 7), no ELSE --\n";
  row "%-18s %-12s %-40s %s\n" "(k,c1,c2,l)" "predicted" "measured" "verdict";
  List.iter
    (fun (k, c1, c2, l) ->
      let p = IM.params_of_ints ~k ~c1 ~c2 ~l in
      let iv = IM.grant_interval_between p in
      let _, gap_env = im_measured p ~runs:60 ~steps:(60 * k) in
      let ok = check_in iv gap_env in
      row "%-18s %-12s %-40s %s\n"
        (Printf.sprintf "(%d,%d,%d,%d)" k c1 c2 l)
        (pp_interval iv) (pp_env gap_env) (verdict ok))
    [ (3, 2, 3, 1); (3, 2, 3, 3); (2, 3, 4, 5) ]

(* ------------------------------------------------------------------ *)
(* E3: relay delay vs n                                                *)

let e3 () =
  section "E3: relay delay — paper [n*d1, n*d2] vs exact grid vs measured";
  row "%-14s %-12s %-14s %-40s %s\n" "(n,d1,d2)" "paper" "exact(grid)"
    "measured" "verdict";
  let exact_cutoff = 64 in
  List.iter
    (fun (n, d1, d2) ->
      let p = SR.params_of_ints ~n ~d1 ~d2 in
      let iv = SR.delay_interval p in
      let exact_str, exact_ok =
        if n <= exact_cutoff then begin
          let a =
            Completeness.analyze ~source:(SR.impl p)
              ~conds:[| SR.u_cond p ~k:0 |] ()
          in
          match
            Completeness.bounds_after a
              ~trigger:(fun _ act _ -> act = D.Base (SR.Signal 0))
              ~cond:0
          with
          | Some b -> (pp_bounds b, exact_matches iv b)
          | None -> ("(unreachable)", false)
        end
        else ("(skipped: n large)", true)
      in
      (* measured: random runs, delays between SIGNAL_0 and SIGNAL_n *)
      let delays = ref [] in
      let seeds = if n >= 32 then 29 else 59 in
      for seed = 0 to seeds do
        let prng = Prng.create seed in
        let run =
          Simulator.simulate ~steps:(8 * (n + 2))
            ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
            (SR.impl p)
        in
        let seq = Simulator.project run in
        let at i =
          Measure.occurrence_times (fun a -> a = D.Base (SR.Signal i)) seq
        in
        match (at 0, at n) with
        | [ t0 ], [ tn ] -> delays := Rational.sub tn t0 :: !delays
        | _ -> ()
      done;
      let env = Measure.envelope !delays in
      let ok = exact_ok && check_in iv env in
      row "%-14s %-12s %-14s %-40s %s\n"
        (Printf.sprintf "(%d,%d,%d)" n d1 d2)
        (pp_interval iv) exact_str (pp_env env) (verdict ok))
    [ (1, 1, 2); (2, 1, 2); (4, 1, 2); (8, 1, 2); (16, 1, 2); (32, 1, 2);
      (64, 1, 2); (4, 2, 5); (8, 3, 3) ]

(* ------------------------------------------------------------------ *)
(* E4: mapping verification                                            *)

let e4 () =
  section "E4: strong possibilities mappings (exhaustive, discretized)";
  row "%-44s %-10s %-10s %s\n" "mapping" "states" "edges" "verdict";
  List.iter
    (fun k ->
      let p = RM.params_of_ints ~k ~c1:2 ~c2:3 ~l:1 in
      match
        Mapping.check_exhaustive ~source:(RM.impl p)
          ~levels:[ { Mapping.target = RM.spec p; map = RM.mapping p } ]
          ()
      with
      | Ok st ->
          row "%-44s %-10d %-10d %s\n"
            (Printf.sprintf "Lemma 4.3 mapping, k=%d" k)
            st.Mapping.product_states st.Mapping.product_edges "OK"
      | Error _ ->
          row "%-44s %-10s %-10s %s\n"
            (Printf.sprintf "Lemma 4.3 mapping, k=%d" k)
            "-" "-" "FAILED")
    [ 1; 2; 3; 5 ];
  List.iter
    (fun n ->
      let p = SR.params_of_ints ~n ~d1:1 ~d2:2 in
      match
        Mapping.check_exhaustive ~source:(SR.impl p) ~levels:(SR.chain p) ()
      with
      | Ok st ->
          row "%-44s %-10d %-10d %s\n"
            (Printf.sprintf "Corollary 6.3 hierarchy (f_k chain), n=%d" n)
            st.Mapping.product_states st.Mapping.product_edges "OK"
      | Error e ->
          row "%-44s %-10s %-10s FAILED at level %d\n"
            (Printf.sprintf "Corollary 6.3 hierarchy (f_k chain), n=%d" n)
            "-" "-" e.Mapping.level_index)
    [ 1; 2; 3; 4 ];
  List.iter
    (fun n ->
      let p = TR.params_of_ints ~n ~d1:1 ~d2:2 in
      match
        Mapping.check_exhaustive ~source:(TR.impl p) ~levels:(TR.chain p) ()
      with
      | Ok st ->
          row "%-44s %-10d %-10d %s\n"
            (Printf.sprintf "token-ring hierarchy, n=%d" n)
            st.Mapping.product_states st.Mapping.product_edges "OK"
      | Error e ->
          row "%-44s %-10s %-10s FAILED at level %d\n"
            (Printf.sprintf "token-ring hierarchy, n=%d" n)
            "-" "-" e.Mapping.level_index)
    [ 2; 3; 4 ];
  (let ts = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
   match
     Mapping.check_exhaustive ~source:(TS.impl ts) ~levels:(TS.chain ts) ()
   with
   | Ok st ->
       row "%-44s %-10d %-10d %s\n" "chained-trigger hierarchy (Sec. 8)"
         st.Mapping.product_states st.Mapping.product_edges "OK"
   | Error e ->
       row "%-44s %-10s %-10s FAILED at level %d\n"
         "chained-trigger hierarchy (Sec. 8)" "-" "-" e.Mapping.level_index);
  (* failure injection: tightening the spec breaks the mapping *)
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let tight =
    TA.make (RM.system p)
      [
        Tm_timed.Condition.make ~name:"G1"
          ~t_start:(fun _ -> true)
          ~bounds:(Interval.make (q 6) (Time.of_int 9))
          ~in_pi:(fun a -> a = RM.Grant)
          ();
        RM.g2 p;
      ]
  in
  match
    Mapping.check_exhaustive ~source:(RM.impl p)
      ~levels:[ { Mapping.target = tight; map = RM.mapping p } ]
      ()
  with
  | Error _ ->
      row "%-44s %-10s %-10s %s\n" "mutation: G1 upper 10 -> 9" "-" "-"
        "REFUTED (expected)"
  | Ok _ ->
      row "%-44s %-10s %-10s %s\n" "mutation: G1 upper 10 -> 9" "-" "-"
        "UNEXPECTED PASS"

(* ------------------------------------------------------------------ *)
(* E5: completeness                                                    *)

let e5 () =
  section "E5: Theorem 7.1 — constructed mappings re-verified";
  row "%-44s %-10s %-10s %s\n" "system" "graph" "product" "verdict";
  List.iter
    (fun k ->
      let p = RM.params_of_ints ~k ~c1:2 ~c2:3 ~l:1 in
      let impl = RM.impl p in
      let a =
        Completeness.analyze ~source:impl ~conds:[| RM.g1 p; RM.g2 p |] ()
      in
      let f = Completeness.mapping a ~spec:(RM.spec p) in
      match
        Mapping.check_exhaustive ~source:impl
          ~levels:[ { Mapping.target = RM.spec p; map = f } ]
          ()
      with
      | Ok st ->
          row "%-44s %-10d %-10d %s\n"
            (Printf.sprintf "resource manager, k=%d" k)
            (Tgraph.node_count (Completeness.graph a))
            st.Mapping.product_states "OK"
      | Error _ ->
          row "%-44s %-10s %-10s %s\n"
            (Printf.sprintf "resource manager, k=%d" k)
            "-" "-" "FAILED")
    [ 1; 2; 3 ];
  List.iter
    (fun n ->
      let p = SR.params_of_ints ~n ~d1:1 ~d2:2 in
      let impl = SR.impl p in
      let a =
        Completeness.analyze ~source:impl ~conds:[| SR.u_cond p ~k:0 |] ()
      in
      let f = Completeness.mapping a ~spec:(SR.spec p) in
      match
        Mapping.check_exhaustive ~source:impl
          ~levels:[ { Mapping.target = SR.spec p; map = f } ]
          ()
      with
      | Ok st ->
          row "%-44s %-10d %-10d %s\n"
            (Printf.sprintf "signal relay, n=%d" n)
            (Tgraph.node_count (Completeness.graph a))
            st.Mapping.product_states "OK"
      | Error _ ->
          row "%-44s %-10s %-10s %s\n"
            (Printf.sprintf "signal relay, n=%d" n)
            "-" "-" "FAILED")
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* E6: zone oracle                                                     *)

let e6 () =
  section "E6: exact zone-based verification (no discretization)";
  row "%-52s %-10s %-8s %s\n" "claim" "locations" "zones" "verdict";
  let show name expected outcome =
    let result, locs, zones =
      match outcome with
      | Reach.Verified st -> ("VERIFIED", st.Reach.locations, st.Reach.zones)
      | Reach.Lower_violation _ -> ("LOWER-VIOLATED", 0, 0)
      | Reach.Upper_violation _ -> ("UPPER-VIOLATED", 0, 0)
      | Reach.Unsupported m -> ("unsupported: " ^ m, 0, 0)
      | Reach.Unknown e ->
          ( "UNKNOWN: " ^ e.Reach.reason,
            e.Reach.partial.Reach.locations,
            e.Reach.partial.Reach.zones )
    in
    let ok = String.equal result expected in
    row "%-52s %-10d %-8d %s%s\n" name locs zones result
      (if ok then "" else "  (EXPECTED " ^ expected ^ ")")
  in
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let sys = RM.system p and bm = RM.boundmap p in
  show "manager G1 = [6,10]" "VERIFIED" (Reach.check_condition sys bm (RM.g1 p));
  show "manager G2 = [5,10]" "VERIFIED" (Reach.check_condition sys bm (RM.g2 p));
  let g1x lo hi =
    Tm_timed.Condition.make ~name:"G1x"
      ~t_start:(fun _ -> true)
      ~bounds:(Interval.make lo hi)
      ~in_pi:(fun a -> a = RM.Grant)
      ()
  in
  show "manager G1 tightened to [6,9]" "UPPER-VIOLATED"
    (Reach.check_condition sys bm (g1x (q 6) (Time.of_int 9)));
  show "manager G1 tightened to [7,10]" "LOWER-VIOLATED"
    (Reach.check_condition sys bm (g1x (q 7) (Time.of_int 10)));
  let ip = IM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:3 in
  show "interrupt manager G2 (l >= c1)" "VERIFIED"
    (Reach.check_condition (IM.system ip) (IM.boundmap ip) (IM.g2 ip));
  List.iter
    (fun n ->
      let rp = SR.params_of_ints ~n ~d1:1 ~d2:2 in
      let u =
        Tm_timed.Condition.make ~name:"U0n"
          ~t_step:(fun _ a _ -> a = SR.Signal 0)
          ~bounds:(SR.delay_interval rp)
          ~in_pi:(fun a -> a = SR.Signal n)
          ()
      in
      show
        (Printf.sprintf "relay U(0,%d) = [%d,%d]" n n (2 * n))
        "VERIFIED"
        (Reach.check_condition (SR.line rp) (SR.boundmap rp) u))
    [ 2; 4; 8; 16 ];
  List.iter
    (fun n ->
      let tp = TR.params_of_ints ~n ~d1:1 ~d2:2 in
      show
        (Printf.sprintf "token ring rotation, n=%d = [%d,%d]" n n (2 * n))
        "VERIFIED"
        (Reach.check_condition (TR.system tp) (TR.boundmap tp)
           (TR.u_rotation tp)))
    [ 3; 6 ];
  (let ts = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
   show "chained trigger end-to-end = [3,6]" "VERIFIED"
     (Reach.check_condition (TS.system ts) (TS.boundmap ts)
        (TS.u_end_to_end ts)));
  (let fd = FD.params_of_ints ~h1:1 ~h2:2 ~g1:2 ~g2:3 ~m:2 in
   show "failure detection window = [2,9]" "VERIFIED"
     (Reach.check_condition (FD.system fd) (FD.boundmap fd) (FD.u_detect fd)));
  let rgp = RG.params_of_ints ~r1:2 ~r2:5 ~w1:1 ~w2:3 in
  show "request-grant with disabling set" "VERIFIED"
    (Reach.check_condition (RG.system rgp) (RG.boundmap rgp)
       (RG.u_response rgp));
  show "request-grant without disabling set" "UPPER-VIOLATED"
    (Reach.check_condition (RG.system rgp) (RG.boundmap rgp)
       (RG.u_response_no_disable rgp))

(* ------------------------------------------------------------------ *)
(* E8: Fischer                                                         *)

let e8 () =
  section "E8: Fischer timed mutual exclusion";
  row "%-52s %s\n" "claim" "verdict";
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  (match
     Reach.check_state_invariant (F.system p) (F.boundmap p)
       F.mutual_exclusion
   with
  | Ok st ->
      row "%-52s VERIFIED (%d locations, %d zones)\n"
        "mutual exclusion, n=2, a=1 < b=2" st.Reach.locations st.Reach.zones
  | Error _ -> row "%-52s VIOLATED (unexpected)\n" "mutual exclusion, a < b");
  (match
     let bad = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:2 ~b:2 ~b2:3 ~e:2 in
     Reach.check_state_invariant (F.system bad) (F.boundmap bad)
       F.mutual_exclusion
   with
  | Error _ -> row "%-52s REFUTED (expected)\n" "mutual exclusion, a = b"
  | Ok _ -> row "%-52s UNEXPECTED PASS\n" "mutual exclusion, a = b");
  (match Reach.check_condition (F.system p) (F.boundmap p) (F.u_enter p) with
  | Reach.Verified st ->
      row "%-52s VERIFIED (%d locations, %d zones)\n"
        "uncontended SET -> ENTER within [b, b2] = [2,3]" st.Reach.locations
        st.Reach.zones
  | _ -> row "%-52s FAILED\n" "uncontended SET -> ENTER within [b, b2]");
  (* simulation statistics *)
  let enters = ref 0 and steps_total = ref 0 in
  for seed = 0 to 39 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps:150
        ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 1))
        (F.impl p)
    in
    let seq = Simulator.project run in
    steps_total := !steps_total + Tm_timed.Tseq.length seq;
    enters :=
      !enters
      + List.length
          (Measure.occurrence_times
             (function F.Enter _ -> true | _ -> false)
             seq)
  done;
  row "%-52s %d critical-section entries over %d simulated steps\n"
    "random simulation, 40 seeds" !enters !steps_total

(* ------------------------------------------------------------------ *)
(* E7: Bechamel microbenchmarks                                        *)

let e7 () =
  section "E7: machinery cost (Bechamel, monotonic clock, ns/run)";
  let open Bechamel in
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let impl = RM.impl p in
  let spec = RM.spec p in
  let trace steps =
    let prng = Prng.create 42 in
    Simulator.simulate ~steps
      ~strategy:(Strategy.random ~prng ~denominator:4 ~cap:(q 1))
      impl
  in
  let run200 = trace 200 in
  let seq200 = Simulator.project run200 in
  let conds = [ RM.g1 p; RM.g2 p ] in
  let rp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  let tests =
    [
      Test.make ~name:"trace-check: satisfies, 200-step trace"
        (Staged.stage (fun () -> Semantics.satisfies_all seq200 conds));
      Test.make ~name:"trace-check: Def 2.1 direct, 200-step trace"
        (Staged.stage (fun () ->
             Semantics.is_timed_execution ~complete:false (RM.system p)
               (RM.boundmap p) seq200));
      Test.make ~name:"mapping: check_exec on 200-step trace"
        (Staged.stage (fun () ->
             Mapping.check_exec ~source:impl
               ~levels:[ { Mapping.target = spec; map = RM.mapping p } ]
               run200.Simulator.exec));
      Test.make ~name:"mapping: exhaustive check (k=3)"
        (Staged.stage (fun () ->
             Mapping.check_exhaustive ~source:impl
               ~levels:[ { Mapping.target = spec; map = RM.mapping p } ]
               ()));
      Test.make ~name:"simulate 200 steps (random strategy)"
        (Staged.stage (fun () -> trace 200));
      Test.make ~name:"tgraph: build discretized graph (k=3)"
        (Staged.stage (fun () -> Tgraph.build impl));
      Test.make ~name:"completeness: analyze (k=3)"
        (Staged.stage (fun () ->
             Completeness.analyze ~source:impl
               ~conds:[| RM.g1 p; RM.g2 p |] ()));
      Test.make ~name:"zones: verify G1 (k=3)"
        (Staged.stage (fun () ->
             Reach.check_condition (RM.system p) (RM.boundmap p) (RM.g1 p)));
      Test.make ~name:"zones: verify relay U(0,3)"
        (Staged.stage (fun () ->
             Reach.check_condition (SR.line rp) (SR.boundmap rp)
               (Tm_timed.Condition.make ~name:"u"
                  ~t_step:(fun _ a _ -> a = SR.Signal 0)
                  ~bounds:(SR.delay_interval rp)
                  ~in_pi:(fun a -> a = SR.Signal rp.SR.n)
                  ())));
      Test.make ~name:"hierarchy: exhaustive chain (n=3)"
        (Staged.stage (fun () ->
             Mapping.check_exhaustive ~source:(SR.impl rp)
               ~levels:(SR.chain rp) ()));
      Test.make ~name:"refinement: mapping-free check (k=3)"
        (Staged.stage (fun () ->
             Tm_core.Refinement.check ~source:impl ~target:spec ()));
      Test.make ~name:"regions: timed reachability (k=3)"
        (Staged.stage (fun () ->
             Region.reachable (RM.system p) (RM.boundmap p)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |]
  in
  row "%-48s %14s %10s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock result in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | Some _ | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square est with Some r -> r | None -> nan
          in
          row "%-48s %14.1f %10.4f\n" (Test.Elt.name elt) ns r2)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* E9: extension systems                                               *)

let e9 () =
  section "E9: extension systems — predicted vs exact windows";
  row "%-40s %-14s %-14s %s\n" "claim" "predicted" "exact(grid)" "verdict";
  (* token ring rotation *)
  List.iter
    (fun (n, d1, d2) ->
      let p = TR.params_of_ints ~n ~d1 ~d2 in
      let a =
        Completeness.analyze ~source:(TR.impl p)
          ~conds:[| TR.u_rotation p |] ()
      in
      match
        Completeness.bounds_after a
          ~trigger:(fun _ act _ -> act = TR.Pass 0)
          ~cond:0
      with
      | Some b ->
          row "%-40s %-14s %-14s %s\n"
            (Printf.sprintf "ring rotation (n=%d,d=[%d,%d])" n d1 d2)
            (pp_interval (TR.rotation_interval p))
            (pp_bounds b)
            (verdict (exact_matches (TR.rotation_interval p) b))
      | None ->
          row "%-40s %-14s %-14s MISSING\n"
            (Printf.sprintf "ring rotation (n=%d)" n)
            (pp_interval (TR.rotation_interval p))
            "-")
    [ (2, 1, 2); (4, 1, 2); (6, 2, 3) ];
  (* chained trigger *)
  (let p = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
   let a =
     Completeness.analyze ~source:(TS.impl p) ~conds:[| TS.u_end_to_end p |] ()
   in
   match
     Completeness.bounds_after a
       ~trigger:(fun _ act _ -> act = TS.Start)
       ~cond:0
   with
   | Some b ->
       row "%-40s %-14s %-14s %s\n" "chained trigger end-to-end"
         (pp_interval (TS.end_to_end_interval p))
         (pp_bounds b)
         (verdict (exact_matches (TS.end_to_end_interval p) b))
   | None -> row "%-40s MISSING\n" "chained trigger end-to-end");
  (* failure detector sweep *)
  List.iter
    (fun (h1, h2, g1, g2, m) ->
      let p = FD.params_of_ints ~h1 ~h2 ~g1 ~g2 ~m in
      let a =
        Completeness.analyze ~source:(FD.impl p) ~conds:[| FD.u_detect p |] ()
      in
      match
        Completeness.bounds_after a
          ~trigger:(fun _ act _ -> act = FD.Crash)
          ~cond:0
      with
      | Some b ->
          row "%-40s %-14s %-14s %s\n"
            (Printf.sprintf "crash detection (h=[%d,%d],g=[%d,%d],m=%d)" h1
               h2 g1 g2 m)
            (pp_interval (FD.detection_interval p))
            (pp_bounds b)
            (verdict (exact_matches (FD.detection_interval p) b))
      | None ->
          row "%-40s MISSING\n"
            (Printf.sprintf "crash detection m=%d" m))
    [ (1, 1, 2, 3, 1); (1, 2, 2, 3, 2); (1, 2, 2, 3, 3); (1, 2, 3, 4, 2) ];
  (* accuracy: verified in regime, refuted outside *)
  row "\n%-52s %s\n" "failure-detector accuracy" "verdict";
  (let good = FD.params_of_ints ~h1:1 ~h2:2 ~g1:2 ~g2:3 ~m:2 in
   match
     Reach.check_state_invariant (FD.system good) (FD.boundmap good)
       FD.no_false_suspicion
   with
   | Ok st ->
       row "%-52s VERIFIED (%d zones)\n" "h2 <= g1 (fast heartbeats)"
         st.Reach.zones
   | Error _ -> row "%-52s VIOLATED (unexpected)\n" "h2 <= g1");
  (let bad = FD.params_of_ints ~h1:5 ~h2:8 ~g1:2 ~g2:3 ~m:2 in
   match
     Reach.check_state_invariant (FD.system bad) (FD.boundmap bad)
       FD.no_false_suspicion
   with
   | Error _ -> row "%-52s REFUTED (expected)\n" "h2 > g1 (slow heartbeats)"
   | Ok _ -> row "%-52s UNEXPECTED PASS\n" "h2 > g1")

(* E10: independent exact engines and liveness *)

let e10 () =
  section "E10: zones vs regions (independent exact engines) and liveness";
  row "%-36s %-18s %-18s %s\n" "system" "zones (locs/zones)"
    "regions (locs/rgns)" "reachable sets";
  let compare_engines (type s a) name (sys : (s, a) Tm_ioa.Ioa.t) bm =
    let zst, zs = Reach.reachable sys bm in
    let rst, rs = Region.reachable sys bm in
    let agree =
      List.length zs = List.length rs
      && List.for_all
           (fun st -> List.exists (sys.Tm_ioa.Ioa.equal_state st) rs)
           zs
    in
    row "%-36s %-18s %-18s %s\n" name
      (Printf.sprintf "%d/%d" zst.Reach.locations zst.Reach.zones)
      (Printf.sprintf "%d/%d" rst.Region.locations rst.Region.regions)
      (if agree then "AGREE" else "DISAGREE")
  in
  (let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
   compare_engines "resource manager (k=3)" (RM.system p) (RM.boundmap p));
  (let p = IM.params_of_ints ~k:2 ~c1:2 ~c2:3 ~l:3 in
   compare_engines "interrupt manager (l>c1)" (IM.system p) (IM.boundmap p));
  (let p = SR.params_of_ints ~n:4 ~d1:1 ~d2:2 in
   compare_engines "signal relay (n=4)" (SR.line p) (SR.boundmap p));
  (let p = TR.params_of_ints ~n:4 ~d1:1 ~d2:2 in
   compare_engines "token ring (n=4)" (TR.system p) (TR.boundmap p));
  (let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:2 ~g2:3 ~m:2 in
   compare_engines "failure detector" (FD.system p) (FD.boundmap p));
  (let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
   compare_engines "fischer (n=2)" (F.system p) (F.boundmap p));
  row "\n%-52s %s\n" "liveness (deadlocks / Zeno traps)" "verdict";
  let live name aut =
    let r = Progress.analyze aut in
    row "%-52s %s\n" name
      (if Progress.ok r then "time can always diverge"
       else
         Printf.sprintf "%d deadlocked, %d Zeno-trapped"
           (List.length r.Progress.deadlocked)
           (List.length r.Progress.zeno_trapped))
  in
  live "resource manager" (RM.impl (RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1));
  live "dummified relay" (SR.impl (SR.params_of_ints ~n:3 ~d1:1 ~d2:2));
  live "raw relay (expect deadlocks)"
    (TA.of_boundmap
       (SR.line (SR.params_of_ints ~n:3 ~d1:1 ~d2:2))
       (SR.boundmap (SR.params_of_ints ~n:3 ~d1:1 ~d2:2)));
  live "token ring" (TR.impl (TR.params_of_ints ~n:4 ~d1:1 ~d2:2));
  live "failure detector"
    (FD.impl (FD.params_of_ints ~h1:1 ~h2:2 ~g1:2 ~g2:3 ~m:2))

(* E11: int vs reference zone engine *)

let e11 () =
  section "E11: packed-int (scaled) vs reference DBM kernel";
  row "%-40s %-10s %-10s %-8s %s\n" "workload" "int(ms)" "ref(ms)" "speedup"
    "stats";
  (* adaptive repetition: run each closure for >= 0.2 s and report the
     per-run mean, so sub-millisecond and multi-second workloads both
     get stable numbers *)
  let time_ms f =
    let t0 = Tm_obs.Tracing.now_s () in
    ignore (f ());
    let once = Tm_obs.Tracing.now_s () -. t0 in
    let reps = max 1 (int_of_float (0.2 /. Float.max 1e-6 once)) in
    let t0 = Tm_obs.Tracing.now_s () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Tm_obs.Tracing.now_s () -. t0) *. 1000. /. float_of_int reps
  in
  (* Speedup is ref/int.  AGREE demands both kernels produce identical
     stats (and reachable-set size / outcome) — this is the committed
     differential gate.  The int engine scales rational jobs to
     integers and the reference engine does not, so the fractional
     rows also check the scaling. *)
  let line name intk refr agree =
    let ti = time_ms intk and tr = time_ms refr in
    row "%-40s %-10.3f %-10.3f %-8.2f %s\n" name ti tr (tr /. ti)
      (if agree then "AGREE" else "DISAGREE")
  in
  let cmp_reach (type s a) name (sys : (s, a) Tm_ioa.Ioa.t) bm =
    let intk () = Reach.Auto.reachable sys bm in
    let refr () = Reach.Ref.reachable sys bm in
    let ist, is_ = intk () and rst, rs = refr () in
    line name intk refr (ist = rst && List.length is_ = List.length rs)
  in
  let cmp_cond (type s a) name (sys : (s, a) Tm_ioa.Ioa.t) bm c =
    let intk () = Reach.Auto.check_condition sys bm c in
    let refr () = Reach.Ref.check_condition sys bm c in
    line name intk refr (intk () = refr ())
  in
  (let p = SR.params_of_ints ~n:6 ~d1:1 ~d2:2 in
   let u =
     Tm_timed.Condition.make ~name:"U0n"
       ~t_step:(fun _ a _ -> a = SR.Signal 0)
       ~bounds:(SR.delay_interval p)
       ~in_pi:(fun a -> a = SR.Signal 6)
       ()
   in
   cmp_reach "relay n=6: reachable" (SR.line p) (SR.boundmap p);
   cmp_cond "relay n=6: check U(0,6)" (SR.line p) (SR.boundmap p) u);
  (let p = RM.params_of_ints ~k:10 ~c1:2 ~c2:3 ~l:1 in
   cmp_cond "manager k=10: check G1" (RM.system p) (RM.boundmap p) (RM.g1 p));
  (let q = Rational.make in
   let p = RM.params ~k:10 ~c1:(q 3 2) ~c2:(q 5 2) ~l:(q 1 3) in
   cmp_cond "manager k=10 (c=[3/2,5/2], l=1/3): G1" (RM.system p)
     (RM.boundmap p) (RM.g1 p));
  (let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
   cmp_reach "fischer n=2: reachable" (F.system p) (F.boundmap p));
  (* Compaction rows: the int engine stores zones over live clocks, the
     reference engine their full-width cylinders.  Fischer has a dead
     clock for every disabled class, U_enter adds the observer clock,
     armed and idle, and request-grant's U_response arms and disarms it
     through the disabling set. *)
  (let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
   cmp_reach "fischer n=3: reachable" (F.system p) (F.boundmap p);
   cmp_cond "fischer n=3: check U_enter" (F.system p) (F.boundmap p)
     (F.u_enter p));
  (let p = RG.params_of_ints ~r1:2 ~r2:5 ~w1:1 ~w2:3 in
   cmp_cond "request-grant: check U_response" (RG.system p) (RG.boundmap p)
     (RG.u_response p));
  (let q = Rational.make in
   let p =
     F.params ~n:2 ~r:(q 5 2) ~t:(q 1 2) ~a:(q 3 4) ~b:(q 3 2) ~b2:(q 5 2)
       ~e:(q 7 4)
   in
   cmp_reach "fischer n=2 (quarter units): reachable" (F.system p)
     (F.boundmap p));
  (let p = TR.params_of_ints ~n:6 ~d1:1 ~d2:2 in
   cmp_reach "token ring n=6: reachable" (TR.system p) (TR.boundmap p));
  (let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:2 ~g2:3 ~m:3 in
   cmp_reach "failure detector m=3: reachable" (FD.system p) (FD.boundmap p))

(* E12: exact robustness margins *)

let e12 () =
  section "E12: exact robustness margins (widen until the verdict flips)";
  let module Margin = Tm_faults.Margin in
  let vstr = function
    | Ok v -> Format.asprintf "%a" Margin.pp_verdict v
    | Error m -> m
  in
  (* A verdict's probes count the walk's steps; the zone checks a report
     actually ran (fewer: a shared e = 0 check, one check per leap over
     a run) are the [faults.margin_probes] delta. *)
  let c_checks = Tm_obs.Metrics.counter "faults.margin_probes" in
  let sweep subject bm check =
    let before = Tm_obs.Metrics.value c_checks in
    let r = Margin.report ~domains:bench_domains ~subject ~check bm in
    let checks = Tm_obs.Metrics.value c_checks - before in
    let printed =
      List.fold_left
        (fun n -> function Ok v -> n + v.Margin.probes | Error _ -> n)
        0
        (r.Margin.overall
        :: List.map (fun (rw : Margin.row) -> rw.Margin.verdict)
             r.Margin.per_class)
    in
    row "%-46s %s\n" subject (vstr r.Margin.overall);
    List.iter
      (fun (rw : Margin.row) ->
        row "  %-44s %s\n"
          (Printf.sprintf "widen %s only" rw.Margin.cls)
          (vstr rw.Margin.verdict))
      r.Margin.per_class;
    row "  %-44s %s\n" "critical class"
      (Option.value r.Margin.critical ~default:"none (censored)");
    row "  %-44s %d of %d printed probes\n" "zone checks run" checks printed
  in
  row "%-46s %s\n" "subject (margin e* over bound widening)" "verdict";
  (* single-miss failure detector: the accuracy margin is the paper's
     slack g1 - h2 = 1, refuted exactly when heartbeats can arrive as
     late as the poll gap *)
  (let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:3 ~g2:4 ~m:1 in
   sweep "fd accuracy (h=[1,2], g=[3,4], m=1)" (FD.boundmap p) (fun bm' ->
       Margin.invariant_status
         (module Reach.Auto)
         (FD.system p) FD.no_false_suspicion bm');
   sweep "fd U(detect)" (FD.boundmap p) (fun bm' ->
       Margin.condition_status
         (module Reach.Auto)
         (FD.system p) (FD.u_detect p) bm'));
  (* fischer: mutual exclusion is safe iff a < b or b > e; at a=1, b=2,
     e=2 only a < b holds, so the margin over widening quantifies the
     a/b slack *)
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  sweep "fischer n=2 mutual exclusion (a=1, b=2)" (F.boundmap p)
    (fun bm' ->
      Margin.invariant_status
        (module Reach.Auto)
        (F.system p) F.mutual_exclusion bm')

(* E14: checkpoint overhead and exhaust-and-resume *)

let e14 () =
  section "E14: checkpointing — snapshot overhead and exhaust-and-resume";
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let ck = Filename.temp_file "tmbench" ".ckpt" in
  let rm_ck () = try Sys.remove ck with Sys_error _ -> () in
  (* Fixed repetition count: E14 is part of the committed baseline, so
     every counter it bumps (zones.stored, recover.snapshot_written,
     recover.resumed) must be run-count-deterministic — no adaptive
     timing loops here. *)
  let reps = 3 in
  let c_written = Tm_obs.Metrics.counter "recover.snapshot_written" in
  let timed f =
    let t0 = Tm_obs.Tracing.now_s () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Tm_obs.Tracing.now_s () -. t0) *. 1000. /. float_of_int reps
  in
  row "%-42s %-10s %-10s %s\n" "policy (fischer n=3 reachable)" "time(ms)"
    "snapshots" "overhead";
  let base_ms =
    timed (fun () -> Reach.reachable sys bm)
  in
  row "%-42s %-10.1f %-10d %s\n" "no checkpointing" base_ms 0 "-";
  List.iter
    (fun (label, every) ->
      let w0 = Tm_obs.Metrics.value c_written in
      let ms =
        timed (fun () ->
            Reach.reachable ~checkpoint:(ck, every) sys
              bm)
      in
      let snaps = (Tm_obs.Metrics.value c_written - w0) / reps in
      row "%-42s %-10.1f %-10d %+.1f%%\n" label ms snaps
        ((ms -. base_ms) /. base_ms *. 100.))
    [
      (* LU widening stores 337 zones on fischer n=3, so the periods
         are sized to fire (or not) against that count *)
      ("checkpoint every 100 zones", 100);
      ("checkpoint every 1000 zones", 1000);
      ("exhaustion-only (every = inf)", 0);
    ];
  (* Deterministic preemption: exhaust a 200-zone budget (under the
     337-zone LU fixpoint), resume from the snapshot, and demand the
     resumed fixpoint match the one-shot run exactly (verdict
     surrogate: stats + reachable-set size). *)
  row "\n%-52s %s\n" "exhaust-and-resume (budget 200 zones)" "result";
  let st1, states1 = Reach.reachable sys bm in
  (match
     Reach.reachable ~limit:200 ~checkpoint:(ck, 0) sys bm
   with
  | _ -> row "%-52s %s\n" "budgeted run" "UNEXPECTED COMPLETION"
  | exception Reach.Out_of_budget e ->
      row "%-52s %s\n" "budgeted run"
        (Printf.sprintf "UNKNOWN after %d zones (checkpoint %s)"
           e.Reach.partial.Reach.zones
           (match e.Reach.checkpoint with
           | Some _ -> "written"
           | None -> "MISSING"));
      let c_resumed = Tm_obs.Metrics.counter "recover.resumed" in
      let r0 = Tm_obs.Metrics.value c_resumed in
      let st, states = Reach.reachable ~resume:ck sys bm in
      let agree =
        st = st1
        && List.length states = List.length states1
        && Tm_obs.Metrics.value c_resumed = r0 + 1
      in
      row "%-52s %s\n" "resumed run vs one-shot"
        (if agree then "AGREE" else "DISAGREE"));
  rm_ck ()

(* E16: the serving layer — duplicate suppression and load shedding.
   In-process (no sockets): the daemon's catalog, cache and admission
   modules are driven directly, measuring what `timedmap serve` claims
   — a duplicate verdict is O(1) instead of a recomputation, and a
   flood against a bounded queue is shed with priced retry hints
   instead of queuing without bound.  Not part of the committed
   baseline; CI runs it twice and bench-diffs the two sessions. *)

let e16 () =
  section "E16: serving layer — verdict cache and admission control";
  let module Catalog = Tm_serve.Catalog in
  let module Cache = Tm_serve.Cache in
  let module Admission = Tm_serve.Admission in
  let fischer =
    match
      Tm_obs.Json.of_string
        "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3},\
         \"item\":0}"
    with
    | Ok j -> j
    | Error m -> failwith m
  in
  let job =
    match Catalog.of_request fischer with
    | Ok j -> j
    | Error m -> failwith ("e16: " ^ m)
  in
  let t0 = Tm_obs.Tracing.now_s () in
  let verdict =
    match
      job.Catalog.exec ~limit:None ~deadline_s:None ~domains:1
        ~checkpoint:None ~resume:None
    with
    | Ok v -> Tm_obs.Json.to_string v
    | Error e -> failwith ("e16: job exhausted: " ^ e.Reach.reason)
  in
  let cold_ms = (Tm_obs.Tracing.now_s () -. t0) *. 1000. in
  let cache = Cache.create () in
  Cache.store cache ~fingerprint:job.Catalog.fingerprint verdict;
  let hits = 10_000 in
  let bytes_stable = ref true in
  let t0 = Tm_obs.Tracing.now_s () in
  for _ = 1 to hits do
    match Cache.find cache ~fingerprint:job.Catalog.fingerprint with
    | Some v -> if not (String.equal v verdict) then bytes_stable := false
    | None -> bytes_stable := false
  done;
  let hit_us = (Tm_obs.Tracing.now_s () -. t0) *. 1e6 /. float_of_int hits in
  row "%-36s %-12s %-12s %s\n" "duplicate suppression" "cold (ms)" "hit (us)"
    "bytes";
  row "%-36s %-12.2f %-12.3f %s\n"
    (Printf.sprintf "fischer n=3 verify, %d hits" hits)
    cold_ms hit_us
    (if !bytes_stable then "AGREE" else "DISAGREE");
  (* flood a queue of depth 4 with 64 requests over 8 distinct jobs:
     the four queued jobs keep absorbing their duplicates, the other
     four are shed every time with a positive retry hint *)
  let adm = Admission.create ~max_depth:4 in
  let admitted = ref 0 and coalesced = ref 0 and shed = ref 0 in
  let hints_priced = ref true in
  for i = 0 to 63 do
    let fp = Printf.sprintf "job-%d" (i mod 8) in
    match
      Admission.try_admit adm ~fingerprint:fp ~request:Tm_obs.Json.Null i
    with
    | Admission.Admitted _ -> incr admitted
    | Admission.Coalesced _ -> incr coalesced
    | Admission.Shed h ->
        incr shed;
        if h <= 0. then hints_priced := false
  done;
  let rec run_all n =
    match Admission.pop adm with
    | None -> n
    | Some j ->
        Admission.finished adm j ~note_wall_s:0.01;
        run_all (n + 1)
  in
  let ran = run_all 0 in
  let discipline =
    !admitted + !coalesced + !shed = 64
    && ran = !admitted && !admitted = 4 && !hints_priced
  in
  row "\n%-36s %-10s %-10s %-7s %-6s %s\n" "admission flood (queue=4)"
    "admitted" "coalesced" "shed" "ran" "discipline";
  row "%-36s %-10d %-10d %-7d %-6d %s\n" "64 requests, 8 distinct jobs"
    !admitted !coalesced !shed ran
    (if discipline then "AGREE" else "DISAGREE")

(* ------------------------------------------------------------------ *)
(* E17: zero-copy zone storage — allocation per stored zone.  The
   engine probes each successor scratch against the zone store in place
   and bump-copies survivors into its arena, so a stored zone should
   cost its record and little else on the minor heap.  The heap
   columns give how far the major-heap peak grew
   during each run, in total and per stored zone: arena slack shows up
   there.  Not part of the committed metrics baseline; CI runs it
   standalone and gates the rows' minor words per stored zone, and
   fischer n=5's top-heap growth per stored zone, against
   BENCH_alloc_baseline.json.  The [arena] column is the row format that
   gate parses. *)

let e17 () =
  section "E17: zero-copy zone storage — allocation per stored zone";
  row "%-16s %-6s %-8s %-12s %-11s %-12s %s\n" "workload" "mode" "zones"
    "minorw/zone" "alloc(MB)" "topheap+(Mw)" "topheap+/zone";
  let measure (type s a) name (sys : (s, a) Tm_ioa.Ioa.t) bm =
    (* A tiny budgeted warmup so one-time initialization (lazy tables,
       first-use code paths) is not billed to the measured run. *)
    (try ignore (Reach.reachable ~limit:1 sys bm)
     with Reach.Out_of_budget _ -> ());
    let (st, _), minor, bytes, top_growth =
      with_gc_stats (fun () -> Reach.reachable sys bm)
    in
    let per_zone x = x /. float_of_int (max 1 st.Reach.zones) in
    (* zones whose matrices exceed the minor-alloc cutoff live on the
       major heap; their minor words then measure nothing useful *)
    row "%-16s %-6s %-8d %-12.1f %-11.2f %-12.2f %.1f\n" name "arena"
      st.Reach.zones (per_zone minor) (bytes /. 1e6)
      (float_of_int top_growth /. 1e6)
      (per_zone (float_of_int top_growth))
  in
  (let p = F.params_of_ints ~n:4 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
   measure "fischer-n4-int" (F.system p) (F.boundmap p));
  (let p = F.params_of_ints ~n:5 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
   measure "fischer-n5-int" (F.system p) (F.boundmap p));
  (let p = SR.params_of_ints ~n:8 ~d1:1 ~d2:2 in
   measure "relay-n8" (SR.line p) (SR.boundmap p))

(* ------------------------------------------------------------------ *)
(* E18: worker-process pool — throughput and verdict agreement.  The
   same four-job fischer mix runs once through the shared in-process
   runner and once through a 2-worker pool (this bench binary re-execs
   itself as the workers), checking that every verdict document is
   byte-identical and reporting the wall-clock ratio.  The pool pays
   process spawns and frame shipping; it earns overlap — two jobs in
   flight at once.  Not part of the committed baseline; CI runs it in
   the twin-session bench-diff gate so the serve.worker_* counters are
   checked for determinism. *)

let e18 () =
  section "E18: worker-process pool — throughput vs in-process";
  let module Workers = Tm_serve.Workers in
  let module Json = Tm_obs.Json in
  let req s =
    match Json.of_string s with Ok j -> j | Error m -> failwith ("e18: " ^ m)
  in
  let jobs =
    [
      ("fischer n=2",
       req "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":2},\
            \"item\":0}");
      ("fischer n=3",
       req "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3},\
            \"item\":0}");
      ("fischer n=3 b=3",
       req "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3,\
            \"b\":3},\"item\":0}");
      ("fischer n=4",
       req "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":4},\
            \"item\":0}");
    ]
  in
  let caps =
    {
      Workers.state_dir = None;
      max_limit = Some 200_000;
      max_deadline_s = Some 60.;
      domains = 1;
      attempts = 3;
      backoff_s = 0.05;
      default_engine = "auto";
    }
  in
  let render = function
    | Workers.E_ok v -> "ok:" ^ Json.to_string v
    | Workers.E_unknown m -> "unknown:" ^ m
    | Workers.E_error m -> "error:" ^ m
  in
  (* leg 1: the shared runner, one job at a time in this process *)
  let t0 = Tm_obs.Tracing.now_s () in
  let inproc =
    List.map (fun (name, r) -> (name, render (Workers.execute caps r))) jobs
  in
  let inproc_s = Tm_obs.Tracing.now_s () -. t0 in
  (* leg 2: the same mix through two worker processes *)
  let t0 = Tm_obs.Tracing.now_s () in
  let pool = Workers.create caps ~n:2 in
  let results : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let todo = ref jobs in
  let deadline = Tm_obs.Tracing.now_s () +. 120. in
  while
    Hashtbl.length results < List.length jobs
    && Tm_obs.Tracing.now_s () < deadline
  do
    (match !todo with
    | (name, r) :: rest when Workers.has_idle pool ->
        if Workers.submit pool ~fingerprint:name ~request:r (name, r) then
          todo := rest
    | _ -> ());
    let handle = function
      | Workers.Completed ((name, _), result, _) ->
          Hashtbl.replace results name (render result)
      | Workers.Crash_retry p -> todo := p :: !todo
      | Workers.Crash_quarantined ((name, _), why) ->
          Hashtbl.replace results name ("error:" ^ why)
    in
    (match Unix.select (Workers.fds pool) [] [] 0.02 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd -> List.iter handle (Workers.on_readable pool fd))
          ready);
    List.iter handle (Workers.tick pool)
  done;
  Workers.shutdown pool;
  let pool_s = Tm_obs.Tracing.now_s () -. t0 in
  row "%-20s %-14s %-14s %-9s %s\n" "job mix" "inproc (s)" "pool-2 (s)"
    "ratio" "verdicts";
  let agree =
    List.for_all
      (fun (name, v) ->
        match Hashtbl.find_opt results name with
        | Some v' -> String.equal v v'
        | None -> false)
      inproc
  in
  row "%-20s %-14.2f %-14.2f %-9.2f %s\n"
    (Printf.sprintf "%d fischer jobs" (List.length jobs))
    inproc_s pool_s
    (inproc_s /. Float.max 1e-9 pool_s)
    (if agree then "AGREE" else "DISAGREE")

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e14", e14); ("e16", e16);
    ("e17", e17); ("e18", e18);
  ]

let () =
  (* when the pool in E18 re-execs this binary as a worker, the guard
     takes over before any experiment runs *)
  Tm_serve.Workers.maybe_worker_main ();
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Tm_obs.Tracing.now_s () in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  (* Emit the instrumented baseline next to the timing tables: counter
     totals for the exact work done (simulator steps, DBM ops, product
     edges) that future perf PRs diff against. *)
  let metrics_path =
    Option.value
      (Sys.getenv_opt "BENCH_METRICS_OUT")
      ~default:"BENCH_metrics.json"
  in
  let report =
    Tm_obs.Report.make
      ~command:("bench " ^ String.concat " " requested)
      ~version:"bench" ~engine:"auto" ~domains:bench_domains
      ~wall_s:(Tm_obs.Tracing.now_s () -. t0)
      ()
  in
  Tm_obs.Json.to_file metrics_path (Tm_obs.Report.to_json report);
  Printf.printf "\n[metrics baseline written to %s]\n" metrics_path
