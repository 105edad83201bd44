(* The Section 6 signal relay, with the paper's hierarchical proof:

   time(A~, b~) -> B_{n-1} -> ... -> B_0 -> B

   Each consecutive pair is connected by a strong possibilities mapping
   (the f_k of Section 6.4); the composition proves Theorem 6.4.  This
   example walks the chain level by level, then checks it exhaustively,
   and finally compares measured signal delays against [n d1, n d2]. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Prng = Tm_base.Prng
module D = Tm_core.Dummify
module Mapping = Tm_core.Mapping
module Completeness = Tm_core.Completeness
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Measure = Tm_sim.Measure
module SR = Tm_systems.Signal_relay

let q = Rational.of_int

let () =
  let p = SR.params_of_ints ~n:4 ~d1:1 ~d2:2 in
  let impl = SR.impl p in
  Format.printf
    "== Signal relay (Section 6): n=%d, per-hop [%a, %a], claim [%a, %a] ==@."
    p.SR.n Rational.pp p.SR.d1 Rational.pp p.SR.d2 Rational.pp
    (Rational.mul_int p.SR.n p.SR.d1)
    Rational.pp
    (Rational.mul_int p.SR.n p.SR.d2);

  (* The hierarchy *)
  let chain = SR.chain p in
  Format.printf "hierarchy: time(A~,b~) -> %s@."
    (String.concat " -> "
       (List.map
          (fun lv ->
            (List.hd
               (Array.to_list lv.Mapping.target.Tm_core.Time_automaton.cond_names)))
          chain));
  List.iteri
    (fun i lv ->
      Format.printf "  level %d: %s@." i lv.Mapping.map.Mapping.mname)
    chain;

  (* per-level and whole-chain verification along a random execution *)
  let prng = Prng.create 11 in
  let run =
    Simulator.simulate ~steps:100
      ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
      impl
  in
  (match Mapping.check_exec ~source:impl ~levels:chain run.Simulator.exec with
  | Ok () -> Format.printf "chain holds along a 100-step random execution@."
  | Error e ->
      Format.printf "chain FAILED at level %d (%s)@." e.Mapping.level_index
        e.Mapping.level_name);

  (* exhaustive check of the whole chain *)
  (match Mapping.check_exhaustive ~source:impl ~levels:chain () with
  | Ok st ->
      Format.printf "chain verified exhaustively: %d product states, %d edges@."
        st.Mapping.product_states st.Mapping.product_edges
  | Error e ->
      Format.printf "chain FAILED exhaustively at level %d (%s)@."
        e.Mapping.level_index e.Mapping.level_name);

  (* exact delay window from the discretized graph *)
  let a = Completeness.analyze ~source:impl ~conds:[| SR.u_cond p ~k:0 |] () in
  (match
     Completeness.bounds_after a
       ~trigger:(fun _ act _ -> act = D.Base (SR.Signal 0))
       ~cond:0
   with
  | Some (lo, hi) ->
      Format.printf "exact (grid) delay window: [%a, %a]@." Time.pp lo Time.pp
        hi
  | None -> Format.printf "SIGNAL_0 unreachable?!@.");

  (* measured delays *)
  let delays = ref [] in
  for seed = 0 to 199 do
    let prng = Prng.create seed in
    let run =
      Simulator.simulate ~steps:80
        ~strategy:(Strategy.random ~prng ~denominator:2 ~cap:(q 2))
        impl
    in
    let seq = Simulator.project run in
    let at i =
      Measure.occurrence_times (fun act -> act = D.Base (SR.Signal i)) seq
    in
    match (at 0, at p.SR.n) with
    | [ t0 ], [ tn ] -> delays := Rational.sub tn t0 :: !delays
    | _ -> ()
  done;
  match Measure.envelope !delays with
  | Some e ->
      Format.printf "measured delays over %d propagations: %a -> %s@."
        e.Measure.count Measure.pp_envelope e
        (if Measure.within (SR.delay_interval p) e then "inside [n d1, n d2]"
         else "OUTSIDE")
  | None -> Format.printf "no complete propagations measured@."
