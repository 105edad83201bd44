module Rational = Tm_base.Rational

type ('s, 'a) report = {
  graph : ('s, 'a) Tgraph.t;
  deadlocked : int list;
  zeno_trapped : int list;
}

(* Tarjan's strongly connected components, iterative to stay safe on
   deep graphs. *)
let sccs n out =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_of = Array.make n (-1) in
  let ncomps = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (_, _, w) ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      out.(v);
    if lowlink.(v) = index.(v) then begin
      let comp = !ncomps in
      incr ncomps;
      let rec pop () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp_of.(w) <- comp;
            if w <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (comp_of, !ncomps)

let analyze ?params (aut : ('s, 'a) Time_automaton.t) =
  let graph = Tgraph.build ?params aut in
  let n = Tgraph.node_count graph in
  let out = graph.Tgraph.out in
  let deadlocked = ref [] in
  for v = n - 1 downto 0 do
    if out.(v) = [] then deadlocked := v :: !deadlocked
  done;
  let comp_of, ncomps = sccs n out in
  (* An SCC is "diverging" if it contains an internal positive-duration
     edge; a node is Zeno-trapped unless it can reach a diverging SCC.
     Edge times in the graph are relative to the source node's clock,
     so an edge duration is just its time label. *)
  let diverging = Array.make ncomps false in
  Array.iteri
    (fun src ->
      List.iter (fun (_, t, dst) ->
          if comp_of.(src) = comp_of.(dst) && Rational.sign t > 0 then
            diverging.(comp_of.(src)) <- true))
    out;
  (* Propagate reachability of diverging SCCs backwards: fixpoint over
     nodes (the graph is small; a simple iteration suffices). *)
  let escapes = Array.init n (fun v -> diverging.(comp_of.(v))) in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if not escapes.(v) then
        if List.exists (fun (_, _, w) -> escapes.(w)) out.(v) then begin
          escapes.(v) <- true;
          changed := true
        end
    done
  done;
  let zeno_trapped = ref [] in
  for v = n - 1 downto 0 do
    if out.(v) <> [] && not escapes.(v) then zeno_trapped := v :: !zeno_trapped
  done;
  { graph; deadlocked = !deadlocked; zeno_trapped = !zeno_trapped }

let ok r = r.deadlocked = [] && r.zeno_trapped = []

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%d reachable discretized states: %d deadlocked, %d Zeno-trapped%s@]"
    (Tgraph.node_count r.graph)
    (List.length r.deadlocked)
    (List.length r.zeno_trapped)
    (if ok r then " — time can always diverge" else "")
