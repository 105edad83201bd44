module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Hstore = Tm_base.Hstore
module Condition = Tm_timed.Condition

exception Dead_state
exception Truncated of int

type ('s, 'a) t = {
  graph : ('s, 'a) Tgraph.t;
  conds : ('s, 'a) Condition.t array;
  sup : Time.t array array;  (** [sup.(cond).(node)] *)
  inf : Time.t array array;  (** [inf.(cond).(node)] *)
}

let graph a = a.graph
let sup_first a ~cond ~node = a.sup.(cond).(node)
let inf_first_pi a ~cond ~node = a.inf.(cond).(node)

(* Adjacency lists from the edge list. *)
let adjacency g =
  let n = Tgraph.node_count g in
  let out = Array.make n [] in
  List.iter
    (fun (src, (act, dt), dst) -> out.(src) <- (act, dt, dst) :: out.(src))
    g.Tgraph.edges;
  Array.iteri (fun v es -> if es = [] then (ignore v; raise Dead_state)) out;
  out

(* sup over infinite extensions of the first time an action in Pi or a
   state in S occurs.  Longest-path value iteration; divergence (a
   positive-weight cycle avoiding the markers) means [∞]. *)
let compute_sup g out (c : ('s, 'a) Condition.t) =
  let n = Tgraph.node_count g in
  let base v = (Hstore.key_of_id g.Tgraph.nodes v).Tstate.base in
  let in_s = Array.init n (fun v -> c.Condition.in_s (base v)) in
  let value = Array.make n Time.zero in
  let contribution (act, dt, v') =
    if c.Condition.in_pi act || in_s.(v') then Time.Fin dt
    else Time.add_q value.(v') dt
  in
  let round () =
    let changed = ref false in
    for v = 0 to n - 1 do
      if not in_s.(v) then begin
        let nv =
          List.fold_left
            (fun acc e -> Time.max acc (contribution e))
            Time.zero out.(v)
        in
        if not (Time.equal nv value.(v)) then begin
          value.(v) <- nv;
          changed := true
        end
      end
    done;
    !changed
  in
  let rec iterate k = if round () && k > 0 then iterate (k - 1) in
  iterate n;
  (* One probe round: nodes still increasing lie on (or feed) a
     positive cycle that avoids the markers — their sup is infinite. *)
  let diverging = ref [] in
  for v = 0 to n - 1 do
    if not in_s.(v) then begin
      let nv =
        List.fold_left
          (fun acc e -> Time.max acc (contribution e))
          Time.zero out.(v)
      in
      if Time.(nv > value.(v)) then diverging := v :: !diverging
    end
  done;
  List.iter (fun v -> value.(v) <- Time.infinity) !diverging;
  if !diverging <> [] then iterate n;
  value

(* inf over infinite extensions of the first time an action in Pi
   occurs with no earlier S state.  Shortest-path value iteration. *)
let compute_inf g out (c : ('s, 'a) Condition.t) =
  let n = Tgraph.node_count g in
  let base v = (Hstore.key_of_id g.Tgraph.nodes v).Tstate.base in
  let in_s = Array.init n (fun v -> c.Condition.in_s (base v)) in
  let value = Array.make n Time.infinity in
  let contribution (act, dt, v') =
    if c.Condition.in_pi act then Time.Fin dt
    else if in_s.(v') then Time.infinity
    else Time.add_q value.(v') dt
  in
  let round () =
    let changed = ref false in
    for v = 0 to n - 1 do
      if not in_s.(v) then begin
        let nv =
          List.fold_left
            (fun acc e -> Time.min acc (contribution e))
            Time.infinity out.(v)
        in
        if not (Time.equal nv value.(v)) then begin
          value.(v) <- nv;
          changed := true
        end
      end
    done;
    !changed
  in
  let rec iterate k = if round () && k > 0 then iterate (k - 1) in
  iterate (n + 1);
  value

let analyze ?params ~source ~conds () =
  let g = Tgraph.build ?params source in
  if g.Tgraph.truncated then raise (Truncated (Tgraph.node_count g));
  let out = adjacency g in
  {
    graph = g;
    conds;
    sup = Array.map (compute_sup g out) conds;
    inf = Array.map (compute_inf g out) conds;
  }

let start_node a =
  match a.graph.Tgraph.aut.Time_automaton.start with
  | [] -> invalid_arg "Completeness: no start state"
  | s0 :: _ -> (
      let s0n =
        Tstate.normalize ~clamp:a.graph.Tgraph.params.Tgraph.clamp s0
      in
      match Hstore.find a.graph.Tgraph.nodes s0n with
      | Some id -> id
      | None -> invalid_arg "Completeness: start state not in graph")

let start_bounds a ~cond =
  let v = start_node a in
  (a.inf.(cond).(v), a.sup.(cond).(v))

let bounds_after a ~trigger ~cond =
  let base v = (Hstore.key_of_id a.graph.Tgraph.nodes v).Tstate.base in
  List.fold_left
    (fun acc (src, (act, _dt), dst) ->
      if trigger (base src) act (base dst) then
        let lo = a.inf.(cond).(dst) and hi = a.sup.(cond).(dst) in
        match acc with
        | None -> Some (lo, hi)
        | Some (alo, ahi) -> Some (Time.min alo lo, Time.max ahi hi)
      else acc)
    None a.graph.Tgraph.edges

let mapping a ~spec =
  (* Match spec conditions to analysis conditions by name. *)
  let index_of name =
    let found = ref (-1) in
    Array.iteri
      (fun i (c : ('s, 'a) Condition.t) ->
        if !found < 0 && String.equal c.Condition.cname name then found := i)
      a.conds;
    if !found < 0 then
      invalid_arg
        (Printf.sprintf
           "Completeness.mapping: spec condition %S not analyzed" name)
    else !found
  in
  let spec_to_analysis =
    Array.map index_of spec.Time_automaton.cond_names
  in
  let clamp = a.graph.Tgraph.params.Tgraph.clamp in
  let contains (s : 's Tstate.t) (u : 's Tstate.t) =
    match Hstore.find a.graph.Tgraph.nodes (Tstate.normalize ~clamp s) with
    | None -> false
    | Some v ->
        let ok = ref true in
        Array.iteri
          (fun i j ->
            let sup = Time.add_q a.sup.(j).(v) s.Tstate.now in
            let inf = Time.add_q a.inf.(j).(v) s.Tstate.now in
            if not (Time.(u.Tstate.lt.(i) >= sup)
                   && Time.le_q u.Tstate.ft.(i) inf)
            then ok := false)
          spec_to_analysis;
        !ok
  in
  { Mapping.mname = "Theorem 7.1 completeness mapping"; contains }
