module Rational = Tm_base.Rational
module Prng = Tm_base.Prng
module Boundmap = Tm_timed.Boundmap
module Semantics = Tm_timed.Semantics
module TA = Tm_core.Time_automaton
module RM = Tm_systems.Resource_manager
module SR = Tm_systems.Signal_relay
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
open Gen

let p = RM.params_of_ints ~k:2 ~c1:2 ~c2:3 ~l:1

let clock_bm =
  Boundmap.of_list [ (RM.tick_class, Tm_base.Interval.of_ints 2 3) ]

let manager_bm =
  Boundmap.of_list
    [ (RM.local_class,
       Tm_base.Interval.make Rational.zero (Tm_base.Time.of_int 1)) ]

let test_binary_matches_monolithic () =
  let composed, bm =
    Timed_compose.binary ~name:"rm" (RM.clock, clock_bm)
      (RM.manager p, manager_bm)
  in
  (* same classes and the same bounds as the paper's single boundmap *)
  Alcotest.(check (list string)) "classes"
    (RM.system p).Tm_ioa.Ioa.classes composed.Tm_ioa.Ioa.classes;
  List.iter
    (fun c ->
      Alcotest.(check interval_t) c
        (Boundmap.find (RM.boundmap p) c)
        (Boundmap.find bm c))
    (Boundmap.classes bm)

(* Footnote 2's equivalence, operationally: the timed semantics built
   from composed-timed-automata equals the one built from the composed
   automaton with the monolithic boundmap. *)
let prop_same_timed_semantics =
  check_holds "composed timed semantics agree"
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      let composed, bm =
        Timed_compose.binary ~name:"rm" (RM.clock, clock_bm)
          (RM.manager p, manager_bm)
      in
      let via_compose =
        TA.of_boundmap (Tm_ioa.Ioa.hide composed (fun a -> a = RM.Tick)) bm
      in
      let prng = Prng.create seed in
      let run =
        Simulator.simulate ~steps:40
          ~strategy:(Strategy.random ~prng ~denominator:3 ~cap:(q 1))
          via_compose
      in
      let seq = Simulator.project run in
      (* any trace of one is a timed (semi-)execution of the other *)
      match
        Semantics.is_timed_execution ~complete:false (RM.system p)
          (RM.boundmap p) seq
      with
      | Ok [] -> true
      | Ok _ | Error _ -> false)

let test_array_relay () =
  let sp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  let components =
    Array.init 4 (fun i ->
        ( SR.process sp i,
          Boundmap.of_list
            [ (SR.sig_class i,
               if i = 0 then Tm_base.Interval.unbounded_above Rational.zero
               else Tm_base.Interval.of_ints 1 2) ] ))
  in
  let composed, bm = Timed_compose.array ~name:"relay" components in
  Alcotest.(check int) "classes" 4 (List.length composed.Tm_ioa.Ioa.classes);
  List.iter
    (fun c ->
      Alcotest.(check interval_t) c
        (Boundmap.find (SR.boundmap sp) c)
        (Boundmap.find bm c))
    (Boundmap.classes bm)

let test_incomplete_boundmap_rejected () =
  Alcotest.(check bool) "missing class" true
    (match
       Timed_compose.binary ~name:"bad" (RM.clock, Boundmap.of_list [])
         (RM.manager p, manager_bm)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "binary matches the monolithic boundmap" `Quick
      test_binary_matches_monolithic;
    Alcotest.test_case "array relay" `Quick test_array_relay;
    Alcotest.test_case "incomplete boundmap rejected" `Quick
      test_incomplete_boundmap_rejected;
    prop_same_timed_semantics;
  ]
