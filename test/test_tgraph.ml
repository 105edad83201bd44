module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Hstore = Tm_base.Hstore
module Tstate = Tm_core.Tstate
module TA = Tm_core.Time_automaton
module Tgraph = Tm_core.Tgraph
module RM = Tm_systems.Resource_manager
open Gen

let p = RM.params_of_ints ~k:2 ~c1:2 ~c2:3 ~l:1
let impl = RM.impl p

let test_default_params () =
  let pr = Tgraph.default_params impl in
  Alcotest.(check int) "integer constants: unit grid" 1
    pr.Tgraph.denominator;
  Alcotest.(check rational_t) "clamp = 4 * max" (q 12) pr.Tgraph.clamp;
  (* fractional bounds coarsen the grid *)
  let p2 =
    RM.params ~k:2 ~c1:(qq 3 2) ~c2:(qq 7 3) ~l:(qq 1 2)
  in
  let pr2 = Tgraph.default_params (RM.impl p2) in
  Alcotest.(check int) "lcm of denominators" 6 pr2.Tgraph.denominator

let test_grid_moves () =
  let pr = Tgraph.default_params impl in
  let start = List.hd impl.TA.start in
  (* at start only ELSE is fireable, in [0,1]: grid times 0 and 1 *)
  match Tgraph.moves pr impl start with
  | [ (RM.Else, t0); (RM.Else, t1) ] ->
      Alcotest.(check rational_t) "first grid time" Rational.zero t0;
      Alcotest.(check rational_t) "second grid time" (q 1) t1
  | ms -> Alcotest.fail (Printf.sprintf "expected 2 moves, got %d" (List.length ms))

let test_build () =
  let g = Tgraph.build impl in
  Alcotest.(check bool) "nonempty" true (Tgraph.node_count g > 0);
  Alcotest.(check bool) "not truncated" false g.Tgraph.truncated;
  (* all nodes normalized: now = 0 *)
  Hstore.iter
    (fun _ s ->
      if not (Rational.equal s.Tstate.now Rational.zero) then
        Alcotest.fail "non-normalized node")
    g.Tgraph.nodes;
  (* all edges have source/target in range and nonneg times *)
  Array.iteri
    (fun src ->
      List.iter (fun (_, t, dst) ->
          if src < 0 || src >= Tgraph.node_count g then Alcotest.fail "bad src";
          if dst < 0 || dst >= Tgraph.node_count g then Alcotest.fail "bad dst";
          if Rational.sign t < 0 then Alcotest.fail "negative edge time"))
    g.Tgraph.out

let test_build_deterministic () =
  let g1 = Tgraph.build impl and g2 = Tgraph.build impl in
  Alcotest.(check int) "same node count" (Tgraph.node_count g1)
    (Tgraph.node_count g2);
  Alcotest.(check int) "same edge count" (Tgraph.edge_count g1)
    (Tgraph.edge_count g2)

let test_truncation () =
  let pr = { (Tgraph.default_params impl) with Tgraph.limit = 3 } in
  let g = Tgraph.build ~params:pr impl in
  Alcotest.(check bool) "truncated" true g.Tgraph.truncated

let test_finer_grid_superset () =
  let pr = Tgraph.default_params impl in
  let fine = { pr with Tgraph.denominator = 2 } in
  let g1 = Tgraph.build ~params:pr impl in
  let g2 = Tgraph.build ~params:fine impl in
  Alcotest.(check bool) "finer grid has at least as many nodes" true
    (Tgraph.node_count g2 >= Tgraph.node_count g1)

let suite =
  [
    Alcotest.test_case "default params" `Quick test_default_params;
    Alcotest.test_case "grid moves" `Quick test_grid_moves;
    Alcotest.test_case "build" `Quick test_build;
    Alcotest.test_case "build deterministic" `Quick test_build_deterministic;
    Alcotest.test_case "truncation" `Quick test_truncation;
    Alcotest.test_case "finer grid superset" `Quick test_finer_grid_superset;
  ]
