(* Reachable-state exploration of the signal-relay line (Section 6),
   by zone search.  On the line the timed reachable set is the untimed
   one: the signal held by one of P_0..P_n, or gone. *)

module Reach = Tm_zones.Reach
module SR = Tm_systems.Signal_relay

(* the n-line state in which only flag [i] is set; i = n + 1 is the
   signal gone *)
let holder n i = Array.init (n + 1) (fun k -> k = i)

let test_reachable_relay () =
  let rp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  let _, states = Reach.reachable (SR.line rp) (SR.boundmap rp) in
  Alcotest.(check (list (array bool)))
    "5 flag configurations"
    (List.sort compare (List.init 5 (holder 3)))
    (List.sort compare states)

let test_invariant_holds () =
  let rp = SR.params_of_ints ~n:4 ~d1:1 ~d2:2 in
  match
    Reach.check_state_invariant (SR.line rp) (SR.boundmap rp) SR.lemma_6_1
  with
  | Ok st -> Alcotest.(check int) "location count" 6 st.Reach.locations
  | Error _ -> Alcotest.fail "Lemma 6.1 should hold"

let test_invariant_violated () =
  let rp = SR.params_of_ints ~n:3 ~d1:1 ~d2:2 in
  let line = SR.line rp and bm = SR.boundmap rp in
  (* claim "the signal never reaches P_3" — false *)
  match Reach.check_state_invariant line bm (fun flags -> not flags.(3)) with
  | Error flags ->
      Alcotest.(check (array bool)) "witness: P_3 alone holds the signal"
        (holder 3 3) flags;
      let _, states = Reach.reachable line bm in
      Alcotest.(check bool) "witness is reachable" true
        (List.mem flags states)
  | Ok _ -> Alcotest.fail "should be violated"

let suite =
  [
    Alcotest.test_case "reachable relay" `Quick test_reachable_relay;
    Alcotest.test_case "invariant holds (Lemma 6.1)" `Quick
      test_invariant_holds;
    Alcotest.test_case "invariant violated with path" `Quick
      test_invariant_violated;
  ]
