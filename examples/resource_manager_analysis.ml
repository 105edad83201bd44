(* The full Section 4 story for the resource manager, end to end:

   1. the invariant of Lemma 4.1, checked exhaustively over the
      discretized reachable states of time(A, b);
   2. the strong possibilities mapping of Section 4.3 (Lemma 4.3),
      checked both along adversarial traces and exhaustively;
   3. Theorem 4.4 cross-checked three independent ways: measured
      simulation envelopes, exact first-occurrence analysis on the
      discretized graph, and exact zone-based verification;
   4. tightness: shaving either end of either bound is refuted. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Hstore = Tm_base.Hstore
module Condition = Tm_timed.Condition
module TA = Tm_core.Time_automaton
module Tgraph = Tm_core.Tgraph
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
module RM = Tm_systems.Resource_manager

let q = Rational.of_int

let () =
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let impl = RM.impl p and spec = RM.spec p in
  Format.printf "== Resource manager (Section 4): k=%d c1=%a c2=%a l=%a ==@."
    p.RM.k Rational.pp p.RM.c1 Rational.pp p.RM.c2 Rational.pp p.RM.l;

  (* 1. Lemma 4.1, exhaustively on the discretized graph *)
  let g = Tgraph.build impl in
  let violations = ref 0 in
  Hstore.iter
    (fun _ s -> if not (RM.lemma_4_1 p impl s) then incr violations)
    g.Tgraph.nodes;
  Format.printf "Lemma 4.1 over %d reachable discretized states: %s@."
    (Tgraph.node_count g)
    (if !violations = 0 then "holds" else "VIOLATED");

  (* 2. Lemma 4.3: the mapping *)
  (match
     Mapping.check_exhaustive ~source:impl
       ~levels:[ { Mapping.target = spec; map = RM.mapping p } ]
       ()
   with
  | Ok st ->
      Format.printf
        "Lemma 4.3 mapping, exhaustive: OK (%d product states, %d edges)@."
        st.Mapping.product_states st.Mapping.product_edges
  | Error e ->
      Format.printf "Lemma 4.3 mapping: FAILED@.  %a@."
        (Mapping.pp_failure impl) e.Mapping.failure);

  (* 3a. Theorem 4.4, measured *)
  let firsts = ref [] and gaps = ref [] in
  for seed = 0 to 99 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps:150
        ~strategy:(Strategy.random ~prng ~denominator:4 ~cap:(q 1))
        impl
    in
    let ts =
      Measure.occurrence_times (fun a -> a = RM.Grant) (Simulator.project run)
    in
    (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
    gaps := Measure.gaps ts @ !gaps
  done;
  let report name iv env =
    match env with
    | Some e ->
        Format.printf "%s: paper %s, measured %a -> %s@." name
          (Interval.to_string iv) Measure.pp_envelope e
          (if Measure.within iv e then "inside" else "OUTSIDE")
    | None -> Format.printf "%s: no samples@." name
  in
  report "Theorem 4.4 first-grant (measured)" (RM.grant_interval_first p)
    (Measure.envelope !firsts);
  report "Theorem 4.4 inter-grant (measured)" (RM.grant_interval_between p)
    (Measure.envelope !gaps);

  (* 3b. exact first-occurrence analysis *)
  let a = Completeness.analyze ~source:impl ~conds:[| RM.g1 p; RM.g2 p |] () in
  let lo, hi = Completeness.start_bounds a ~cond:0 in
  Format.printf "exact (grid) first-grant window: [%a, %a]@." Time.pp lo
    Time.pp hi;
  (match
     Completeness.bounds_after a
       ~trigger:(fun _ act _ -> act = RM.Grant)
       ~cond:1
   with
  | Some (lo, hi) ->
      Format.printf "exact (grid) inter-grant window: [%a, %a]@." Time.pp lo
        Time.pp hi
  | None -> Format.printf "no grant edges reachable?!@.");

  (* 3c. zone-based exact verification + 4. tightness *)
  let sys = RM.system p and bm = RM.boundmap p in
  let show name = function
    | Reach.Verified st ->
        Format.printf "%s: VERIFIED (%d zones)@." name st.Reach.zones
    | Reach.Lower_violation _ -> Format.printf "%s: LOWER-VIOLATED@." name
    | Reach.Upper_violation _ -> Format.printf "%s: UPPER-VIOLATED@." name
    | Reach.Unsupported m -> Format.printf "%s: unsupported (%s)@." name m
    | Reach.Unknown e -> Format.printf "%s: UNKNOWN (%s)@." name e.Reach.reason
  in
  show "zones: G1 = [6,10]" (Reach.check_condition sys bm (RM.g1 p));
  show "zones: G2 = [5,10]" (Reach.check_condition sys bm (RM.g2 p));
  let g1x lo hi =
    Condition.make ~name:"G1x"
      ~t_start:(fun _ -> true)
      ~bounds:(Interval.make lo hi)
      ~in_pi:(fun act -> act = RM.Grant)
      ()
  in
  show "zones: G1 shaved to [6,19/2] (expect refuted)"
    (Reach.check_condition sys bm (g1x (q 6) (Time.Fin (Rational.make 19 2))));
  show "zones: G1 raised to [13/2,10] (expect refuted)"
    (Reach.check_condition sys bm (g1x (Rational.make 13 2) (Time.of_int 10)))
