(* Multi-core parallel exploration.

   The load-bearing property is bit-identical determinism: every entry
   point that takes [?domains] must produce the same verdict, the same
   reachable base-state set and the same deterministic counters
   (zones.stored, .subsumed, .pruned_waiting and .interned,
   faults.margin_probes) at 1, 2 and 4 domains — the
   speculate-then-commit engine replays speculative results in exact
   sequential order, so parallelism may only change wall-clock time.
   The pool itself is checked for coverage, ordering, exception
   propagation and the single-active-pool fallback, and the
   single-domain ownership of hash-consing stores is enforced. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Hstore = Tm_base.Hstore
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Margin = Tm_faults.Margin
module Metrics = Tm_obs.Metrics
module Pool = Tm_par.Pool
module F = Tm_systems.Fischer
module RM = Tm_systems.Resource_manager

let q = Gen.q
let domain_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool: coverage, ordering, exceptions, nesting.                      *)

let pool_covers_all_indices () =
  Pool.run ~domains:3 (fun p ->
      let n = 1000 in
      let hits = Array.make n 0 in
      (* Each index is touched exactly once; chunks never overlap, so
         unsynchronized increments of distinct cells are safe. *)
      Pool.parallel_for p ~n (fun ~domain:_ i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (list int))
        "each index exactly once" []
        (List.filter (fun h -> h <> 1) (Array.to_list hits)))

let pool_map_preserves_order () =
  Pool.run ~domains:4 (fun p ->
      let xs = List.init 257 (fun i -> i) in
      Alcotest.(check (list int))
        "map_list order"
        (List.map (fun i -> (i * i) + 1) xs)
        (Pool.map_list p (fun i -> (i * i) + 1) xs);
      let a = Array.init 63 string_of_int in
      Alcotest.(check (array string))
        "map_array order"
        (Array.map (fun s -> s ^ "!") a)
        (Pool.map_array p (fun s -> s ^ "!") a))

exception Boom of int

let pool_propagates_exception () =
  Pool.run ~domains:2 (fun p ->
      match Pool.parallel_for p ~n:100 (fun ~domain:_ i ->
                if i = 37 then raise (Boom i))
      with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 37 -> ()
      | exception Boom i -> Alcotest.failf "Boom %d (wanted 37)" i)

let pool_nested_create_is_inline () =
  Pool.run ~domains:3 (fun _outer ->
      (* only one real pool at a time: the inner one degrades to the
         inline size-1 pool and still computes correctly *)
      Pool.run ~domains:3 (fun inner ->
          Alcotest.(check int) "inner size" 1 (Pool.size inner);
          let total = ref 0 in
          Pool.parallel_for inner ~n:10 (fun ~domain:_ i ->
              total := !total + i);
          Alcotest.(check int) "inner sum" 45 !total))

let pool_metrics_merge () =
  let c = Metrics.counter "par_test.jobs" in
  let before = Metrics.value c in
  let n = 500 in
  Pool.run ~domains:3 (fun p ->
      Pool.parallel_for p ~n (fun ~domain:_ _ -> Metrics.incr c));
  Alcotest.(check int)
    "per-domain counter sinks merge by sum" (before + n) (Metrics.value c)

(* ------------------------------------------------------------------ *)
(* Differential: random automata agree at every domain count.          *)

(* The zone counters a run adds: stored, subsumed, pruned while
   waiting, interned. *)
let zone_counters =
  List.map Metrics.counter
    [
      "zones.stored";
      "zones.subsumed";
      "zones.pruned_waiting";
      "zones.interned";
    ]

let reach_at aut bm d =
  let before = List.map Metrics.value zone_counters in
  let st, states = Reach.Auto.reachable ~domains:d aut bm in
  ( st,
    List.sort compare states,
    List.map2 (fun c v -> Metrics.value c - v) zone_counters before )

let cond0 =
  Condition.make ~name:"D"
    ~t_step:(fun _ a _ -> a = 0)
    ~bounds:(Interval.make Rational.zero (Time.Fin (q 3)))
    ~in_pi:(fun a -> a = 0)
    ()

let reach_domain_invariance =
  Gen.check_holds
    "reach: stats, reachable set and zone counters identical at 1/2/4 \
     domains"
    ~count:30 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let ((_, _, counts) as base) = reach_at aut bm 1 in
      (* only stored zones are interned *)
      (match counts with
      | [ stored; _; _; interned ] -> interned <= stored
      | _ -> false)
      && List.for_all (fun d -> reach_at aut bm d = base) [ 2; 4 ])

let condition_domain_invariance =
  Gen.check_holds "check_condition: verdict identical at 1/2/4 domains"
    ~count:30 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let base = Reach.Auto.check_condition ~domains:1 aut bm cond0 in
      List.for_all
        (fun d -> Reach.Auto.check_condition ~domains:d aut bm cond0 = base)
        [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* Margin reports and simulator batches.                               *)

let margin_domain_invariance () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let c_probes = Metrics.counter "faults.margin_probes" in
  let report d =
    let probes0 = Metrics.value c_probes in
    let r =
      Margin.report ~domains:d ~subject:"fischer n=2 mutex"
        ~check:(fun bm' ->
          Margin.invariant_status
            (module Reach.Auto)
            (F.system p) F.mutual_exclusion bm')
        (F.boundmap p)
    in
    (r, Metrics.value c_probes - probes0)
  in
  let base = report 1 in
  List.iter
    (fun d ->
      if report d <> base then
        Alcotest.failf "margin report differs at %d domains" d)
    domain_counts

let batch_domain_invariance () =
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let impl = RM.impl p in
  let trace_of run =
    List.map fst (Simulator.project run).Tm_timed.Tseq.moves
  in
  let batch d =
    Simulator.batch ~domains:d ~runs:20 ~steps:40
      ~prng:(fun seed -> Prng.create seed)
      ~strategy:(fun prng -> Strategy.random ~prng ~denominator:4 ~cap:(q 1))
      impl
  in
  let base = Array.map trace_of (batch 1) in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "batch traces identical at %d domains" d)
        true
        (Array.map trace_of (batch d) = base))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Budget discipline under parallelism.                                *)

let budget_discipline_parallel () =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let outcome d =
    Reach.Auto.check_condition ~limit:200 ~domains:d (F.system p)
      (F.boundmap p) (F.u_enter p)
  in
  let base = outcome 1 in
  (match base with
  | Reach.Unknown e ->
      Alcotest.(check bool)
        "partial stats populated" true
        (e.Reach.partial.Reach.zones > 0)
  | _ -> Alcotest.fail "limit 200 should exhaust the zone budget");
  List.iter
    (fun d ->
      match outcome d with
      | Reach.Verified _ ->
          Alcotest.failf "exhausted run surfaced as VERIFIED at %d domains" d
      | o ->
          Alcotest.(check bool)
            (Printf.sprintf "UNKNOWN with identical partial stats at %d" d)
            true (o = base))
    domain_counts

(* ------------------------------------------------------------------ *)
(* Observer-free invariants and unsupported condition shapes.          *)

let invariant_domain_invariance () =
  let check ~a ~b d =
    let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a ~b ~b2:(b + 1) ~e:2 in
    Reach.Auto.check_state_invariant ~domains:d (F.system p) (F.boundmap p)
      F.mutual_exclusion
  in
  let broken_at_1 = check ~a:3 ~b:2 1 in
  List.iter
    (fun d ->
      (match check ~a:1 ~b:2 d with
      | Ok st ->
          Alcotest.(check (list int))
            (Printf.sprintf "fischer n=3 stats at %d domains" d)
            [ 138; 337; 882 ]
            [ st.Reach.locations; st.Reach.zones; st.Reach.edges ]
      | Error _ -> Alcotest.failf "fischer n=3 violated at %d domains" d);
      match check ~a:3 ~b:2 d with
      | Error s ->
          Alcotest.(check bool)
            (Printf.sprintf "offending state breaks mutex at %d domains" d)
            false (F.mutual_exclusion s);
          Alcotest.(check bool)
            (Printf.sprintf "same offending state at %d domains" d)
            true
            (broken_at_1 = Error s)
      | Ok _ -> Alcotest.failf "broken fischer held at %d domains" d)
    domain_counts

(* A trigger that fires again on a non-Π action while the observer is
   armed needs the paper's deadline merge, which the engine reports as
   unsupported.  Under a pool the shape is met on a worker domain and
   must surface from the commit loop unchanged. *)
let unsupported_domain_invariance () =
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let retrigger =
    Condition.make ~name:"retrigger"
      ~t_step:(fun _ act _ -> act = RM.Tick)
      ~bounds:(Interval.make Rational.zero Time.Inf)
      ~in_pi:(fun act -> act = RM.Grant)
      ()
  in
  List.iter
    (fun d ->
      match
        Reach.Auto.check_condition ~domains:d (RM.system p) (RM.boundmap p)
          retrigger
      with
      | Reach.Unsupported m ->
          Alcotest.(check string)
            (Printf.sprintf "unsupported message at %d domains" d)
            "trigger fired while armed with a non-Pi action (needs deadline \
             merge)"
            m
      | _ -> Alcotest.failf "re-trigger not reported unsupported at %d" d)
    domain_counts

(* ------------------------------------------------------------------ *)
(* Hstore ownership and Boundmap ordering.                             *)

let hstore_cross_domain_raises () =
  let st = Hstore.create ~equal:String.equal ~hash:Hashtbl.hash 16 in
  ignore (Hstore.intern st "home");
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match Hstore.intern st "away" with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "cross-domain intern raises" true raised;
  (* the owning domain is still fine afterwards *)
  Alcotest.(check int) "owner still works" 2
    (ignore (Hstore.intern st "home2");
     Hstore.length st)

let boundmap_to_list_sorted () =
  let bm =
    Boundmap.of_list
      [
        ("zeta", Interval.make (q 1) (Time.Fin (q 2)));
        ("alpha", Interval.make Rational.zero (Time.Fin (q 1)));
        ("mid", Interval.unbounded_above (q 2));
      ]
  in
  Alcotest.(check (list string))
    "to_list sorted by class name" [ "alpha"; "mid"; "zeta" ]
    (List.map fst (Boundmap.to_list bm));
  Alcotest.(check (list string))
    "classes keeps declaration order" [ "zeta"; "alpha"; "mid" ]
    (Boundmap.classes bm)

let suite =
  [
    Alcotest.test_case "pool: covers all indices" `Quick
      pool_covers_all_indices;
    Alcotest.test_case "pool: map preserves order" `Quick
      pool_map_preserves_order;
    Alcotest.test_case "pool: propagates exceptions" `Quick
      pool_propagates_exception;
    Alcotest.test_case "pool: nested create is inline" `Quick
      pool_nested_create_is_inline;
    Alcotest.test_case "pool: metric sinks merge" `Quick pool_metrics_merge;
    reach_domain_invariance;
    condition_domain_invariance;
    Alcotest.test_case "margin: report identical at 1/2/4 domains" `Quick
      margin_domain_invariance;
    Alcotest.test_case "simulator: batch identical at 1/2/4 domains" `Quick
      batch_domain_invariance;
    Alcotest.test_case "budget: UNKNOWN, never VERIFIED, stats merge" `Quick
      budget_discipline_parallel;
    Alcotest.test_case "invariant: stats and witness identical at 1/2/4"
      `Quick invariant_domain_invariance;
    Alcotest.test_case "condition: unsupported shape identical at 1/2/4"
      `Quick unsupported_domain_invariance;
    Alcotest.test_case "hstore: single-domain ownership enforced" `Quick
      hstore_cross_domain_raises;
    Alcotest.test_case "boundmap: to_list sorted" `Quick
      boundmap_to_list_sorted;
  ]
