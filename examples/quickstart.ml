(* Quickstart: the resource manager of Section 4, end to end.

   1. Build the timed automaton (A, b) and its requirements {G1, G2}.
   2. Simulate it with eager / lazy / random schedulers and check every
      produced trace against the timing conditions.
   3. Check the invariant of Lemma 4.1 and the strong possibilities
      mapping of Section 4.3, both on traces and exhaustively on the
      discretized state graph. *)

module RM = Tm_systems.Resource_manager
module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Semantics = Tm_timed.Semantics
module Time_automaton = Tm_core.Time_automaton
module Mapping = Tm_core.Mapping
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure

let () =
  let p = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1 in
  let impl = RM.impl p in
  let spec = RM.spec p in
  Format.printf "Resource manager: k=%d c1=%a c2=%a l=%a@." p.RM.k
    Rational.pp p.RM.c1 Rational.pp p.RM.c2 Rational.pp p.RM.l;
  Format.printf "Paper bounds: first GRANT in %a, between GRANTs %a@.@."
    Interval.pp (RM.grant_interval_first p) Interval.pp
    (RM.grant_interval_between p);

  (* --- simulate ------------------------------------------------- *)
  let check_run name strategy =
    let run = Simulator.simulate ~steps:200 ~strategy impl in
    let seq = Simulator.project run in
    let grants = Measure.occurrence_times (fun a -> a = RM.Grant) seq in
    let first = match grants with [] -> "none" | t :: _ -> Rational.to_string t in
    let viol =
      Semantics.semi_satisfies_all seq [ RM.g1 p; RM.g2 p ]
      @ (match
           Semantics.is_timed_execution ~complete:false (RM.system p)
             (RM.boundmap p) seq
         with
        | Ok vs -> vs
        | Error m -> failwith m)
    in
    Format.printf "%-8s %3d grants, first at t=%-5s violations: %d@." name
      (List.length grants) first (List.length viol);
    List.iter (Format.printf "  %a@." Semantics.pp_violation) viol
  in
  check_run "eager" Strategy.eager;
  check_run "lazy" (Strategy.lazy_ ~cap:Rational.one ());
  let prng = Prng.create 42 in
  for i = 1 to 5 do
    check_run
      (Printf.sprintf "random%d" i)
      (Strategy.random ~prng ~denominator:4 ~cap:Rational.one)
  done;

  (* --- Lemma 4.1 (invariant), on an eager trace ------------------ *)
  let run = Simulator.simulate ~steps:500 ~strategy:Strategy.eager impl in
  let holds =
    List.for_all (RM.lemma_4_1 p impl)
      (Tm_ioa.Execution.states run.Simulator.exec)
  in
  Format.printf "@.Lemma 4.1 on a 500-step eager trace: %s@."
    (if holds then "holds" else "VIOLATED");

  (* --- the mapping of Section 4.3 ------------------------------- *)
  let levels = [ { Mapping.target = spec; map = RM.mapping p } ] in
  (match Mapping.check_exec ~source:impl ~levels run.Simulator.exec with
  | Ok () -> Format.printf "Mapping check along the trace: OK@."
  | Error e ->
      Format.printf "Mapping check along the trace: FAILED@.  %a@."
        (Mapping.pp_failure impl) e.Mapping.failure);
  match Mapping.check_exhaustive ~source:impl ~levels () with
  | Ok st ->
      Format.printf
        "Exhaustive mapping check: OK (%d product states, %d edges%s)@."
        st.Mapping.product_states st.Mapping.product_edges
        (if st.Mapping.truncated then ", TRUNCATED" else "")
  | Error e ->
      Format.printf "Exhaustive mapping check: FAILED@.  %a@."
        (Mapping.pp_failure impl) e.Mapping.failure
