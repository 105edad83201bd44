(* The domain pool and its callers.

   The load-bearing property is bit-identical determinism: the callers
   that fan out over [Tm_par.Pool] — margin reports and simulator
   batches — must produce the same result (margin reports with their
   faults.margin_probes totals) at 1, 2 and 4 domains, so parallelism
   may only change wall-clock time.  The pool itself is checked for
   coverage, ordering, exception propagation, metric merging and the
   single-active-pool fallback, and the single-domain ownership of
   hash-consing stores is enforced.  Zone exploration is sequential;
   the cases kept here pin its zone counters, budget discipline,
   invariant witnesses and unsupported shapes at one domain. *)

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
      Pool.parallel_for p ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (list int))
        "each index exactly once" []
        (List.filter (fun h -> h <> 1) (Array.to_list hits)))

let pool_map_preserves_order () =
  Pool.run ~domains:4 (fun p ->
      let xs = List.init 257 (fun i -> i) in
      (* Item 0 is slow, so the other domains finish later chunks
         first: results must still come back in input order. *)
      let f i =
        if i = 0 then Unix.sleepf 0.05;
        (i * i) + 1
      in
      Alcotest.(check (list int))
        "map_list order" (List.map f xs) (Pool.map_list p f xs);
      let a = Array.init 63 string_of_int in
      Alcotest.(check (array string))
        "map_array order"
        (Array.map (fun s -> s ^ "!") a)
        (Pool.map_array p (fun s -> s ^ "!") a))

exception Boom of int

let pool_propagates_exception () =
  Pool.run ~domains:2 (fun p ->
      match Pool.parallel_for p ~n:100 (fun i ->
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
          Pool.parallel_for inner ~n:10 (fun i ->
              total := !total + i);
          Alcotest.(check int) "inner sum" 45 !total))

let pool_metrics_merge () =
  let c = Metrics.counter "par_test.jobs" in
  let before = Metrics.value c in
  let n = 500 in
  Pool.run ~domains:3 (fun p ->
      Pool.parallel_for p ~n (fun _ -> Metrics.incr c));
  Alcotest.(check int)
    "per-domain counter sinks merge by sum" (before + n) (Metrics.value c)

(* ------------------------------------------------------------------ *)
(* Zone counters on random automata.                                   *)

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

let c_minimize = Metrics.counter "dbm.ops" ~labels:[ ("op", "minimize") ]

(* Only stored zones are interned, and a zone is reduced to its minimal
   form only when its matrix is first stored: every interning hit takes
   the form stored with the matrix, so an uninterrupted run reduces
   exactly [stored - interned] zones. *)
let reach_counters =
  Gen.check_holds
    "reach: stats, reachable set and zone counters: interned <= stored"
    ~count:30 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      let counters = zone_counters @ [ c_minimize ] in
      let before = List.map Metrics.value counters in
      ignore (Reach.Auto.reachable aut bm);
      match List.map2 (fun c v -> Metrics.value c - v) counters before with
      | [ stored; _; _; interned; minimized ] ->
          interned <= stored && minimized = stored - interned
      | _ -> false)

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

(* The searches of a report all start at the unperturbed map; the
   report checks it once, before the fan-out, whatever the domain
   count, and the probe counter counts exactly the checks run. *)
let margin_base_checked_once () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let bm = F.boundmap p in
  let c_probes = Metrics.counter "faults.margin_probes" in
  List.iter
    (fun d ->
      let base = Atomic.make 0 and all = Atomic.make 0 in
      let probes0 = Metrics.value c_probes in
      ignore
        (Margin.report ~domains:d ~subject:"fischer n=2 mutex"
           ~check:(fun bm' ->
             Atomic.incr all;
             if Boundmap.to_list bm' = Boundmap.to_list bm then
               Atomic.incr base;
             Margin.invariant_status
               (module Reach.Auto)
               (F.system p) F.mutual_exclusion bm')
           bm);
      Alcotest.(check int)
        (Printf.sprintf "unperturbed checks at %d domains" d)
        1 (Atomic.get base);
      Alcotest.(check int)
        (Printf.sprintf "margin_probes = checks run at %d domains" d)
        (Atomic.get all)
        (Metrics.value c_probes - probes0))
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
(* Budget discipline.                                                  *)

let budget_discipline () =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  match
    Reach.Auto.check_condition ~limit:200 (F.system p) (F.boundmap p)
      (F.u_enter p)
  with
  | Reach.Unknown e ->
      Alcotest.(check bool)
        "partial stats populated" true
        (e.Reach.partial.Reach.zones > 0)
  | Reach.Verified _ -> Alcotest.fail "exhausted run surfaced as VERIFIED"
  | _ -> Alcotest.fail "limit 200 should exhaust the zone budget"

(* ------------------------------------------------------------------ *)
(* Observer-free invariants and unsupported condition shapes.          *)

let invariant_stats_and_witness () =
  let check ~a ~b =
    let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a ~b ~b2:(b + 1) ~e:2 in
    Reach.Auto.check_state_invariant (F.system p) (F.boundmap p)
      F.mutual_exclusion
  in
  (match check ~a:1 ~b:2 with
  | Ok st ->
      Alcotest.(check (list int))
        "fischer n=3 stats" [ 138; 337; 882 ]
        [ st.Reach.locations; st.Reach.zones; st.Reach.edges ]
  | Error _ -> Alcotest.fail "fischer n=3 violated");
  match check ~a:3 ~b:2 with
  | Error s ->
      Alcotest.(check bool)
        "offending state breaks mutex" false (F.mutual_exclusion s)
  | Ok _ -> Alcotest.fail "broken fischer held"

(* A trigger that fires again on a non-Π action while the observer is
   armed needs the paper's deadline merge, which the engine reports as
   unsupported. *)
let unsupported_shape () =
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let retrigger =
    Condition.make ~name:"retrigger"
      ~t_step:(fun _ act _ -> act = RM.Tick)
      ~bounds:(Interval.make Rational.zero Time.Inf)
      ~in_pi:(fun act -> act = RM.Grant)
      ()
  in
  match Reach.Auto.check_condition (RM.system p) (RM.boundmap p) retrigger with
  | Reach.Unsupported m ->
      Alcotest.(check string)
        "unsupported message"
        "trigger fired while armed with a non-Pi action (needs deadline \
         merge)"
        m
  | _ -> Alcotest.fail "re-trigger not reported unsupported"

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
    reach_counters;
    Alcotest.test_case "margin: report identical at 1/2/4 domains" `Quick
      margin_domain_invariance;
    Alcotest.test_case "margin: base checked once per report at 1/2/4 domains"
      `Quick margin_base_checked_once;
    Alcotest.test_case "simulator: batch identical at 1/2/4 domains" `Quick
      batch_domain_invariance;
    Alcotest.test_case "budget: UNKNOWN, never VERIFIED, partial stats"
      `Quick budget_discipline;
    Alcotest.test_case "invariant: stats and witness in fischer n=3" `Quick
      invariant_stats_and_witness;
    Alcotest.test_case "condition: unsupported shape is reported" `Quick
      unsupported_shape;
    Alcotest.test_case "hstore: single-domain ownership enforced" `Quick
      hstore_cross_domain_raises;
    Alcotest.test_case "boundmap: to_list sorted" `Quick
      boundmap_to_list_sorted;
  ]
