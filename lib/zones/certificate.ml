module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition

type zone = (int * int * Dbm_bound.t) list
type 's location = { state : 's; armed : bool; zones : zone list }
type 's t = 's location array

type ('s, 'a) property =
  | Invariant of ('s -> bool)
  | Condition of ('s, 'a) Condition.t

exception Reject of string
exception Out_of_time

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* A location's clocks, ascending — the reference clock, the enabled
   classes' clocks and, while armed, the observer clock — with [pos]
   mapping a logical clock to its index ([-1]: dead there), and the
   timing tail at those indices: invariants and LU bounds. *)
type layout = {
  live : int array;
  pos : int array;
  invs : (int * Dbm_bound.t) list;
  lower : Rational.t option array;
  upper : Rational.t option array;
}

(* Per automaton state: its steps [(action index, target)] in alphabet
   order, its enabled classes, and per phase (idle, armed) its layout
   and the certificate's zones there. *)
type 's srec = {
  steps : (int * 's) list;
  en : bool array;
  lays : layout array;
  zs : Dbm_ref.t list array;
}

let phase armed = if armed then 1 else 0

let check (type s a) ?deadline (a : (s, a) Ioa.t) bm
    (props : (s, a) property list) (cert : s t) =
  let on_time =
    match deadline with
    | None -> ignore
    | Some t -> fun () -> if Tm_obs.Tracing.now_s () > t then raise Out_of_time
  in
  let enc = Clock_enc.make a bm in
  let n = enc.Clock_enc.nclasses in
  let y = n + 1 in
  let conds, preds =
    List.partition_map
      (function Condition c -> Left c | Invariant p -> Right p)
      props
  in
  let cond =
    match conds with
    | [] -> None
    | [ c ] -> Some c
    | _ :: _ :: _ -> invalid_arg "Certificate.check: more than one condition"
  in
  let lower, upper =
    Clock_enc.lu_bounds enc
      ~observer:(Option.map (fun c -> c.Condition.bounds) cond)
  in
  let nclocks = Array.length lower in
  let acts = Array.of_list a.Ioa.alphabet in
  let cls = Array.init (Array.length acts) (Clock_enc.class_index enc) in
  let guards = Array.init (Array.length acts) (Clock_enc.guard enc) in
  (* Both phases get a layout; without a condition the armed one is
     never reached, and its clock [y] has no LU bounds. *)
  let layout en armed =
    let classes = List.filter (fun x -> en.(x - 1)) (List.init n succ) in
    let live = Array.of_list ((0 :: classes) @ if armed then [ y ] else []) in
    let pos = Array.make (n + 2) (-1) in
    Array.iteri (fun k x -> pos.(x) <- k) live;
    let invs =
      List.filter_map
        (fun x ->
          match Boundmap.upper bm enc.Clock_enc.classes.(x - 1) with
          | Time.Fin q -> Some (pos.(x), Dbm_bound.Le q)
          | Time.Inf -> None)
        classes
    in
    let at b = Array.map (fun x -> if x < nclocks then b.(x) else None) live in
    { live; pos; invs; lower = at lower; upper = at upper }
  in
  let module H = Hashtbl.Make (struct
    type t = s

    let equal = a.Ioa.equal_state
    let hash = a.Ioa.hash_state
  end) in
  let states = H.create 256 in
  let srec s =
    match H.find_opt states s with
    | Some r -> r
    | None ->
        let steps =
          List.concat
            (List.mapi
               (fun k act -> List.map (fun s' -> (k, s')) (a.Ioa.delta s act))
               a.Ioa.alphabet)
        in
        let en = Array.make n false in
        List.iter
          (fun (k, _) -> Option.iter (fun c -> en.(c) <- true) cls.(k))
          steps;
        let lays = [| layout en false; layout en true |] in
        let r = { steps; en; lays; zs = [| []; [] |] } in
        H.add states s r;
        r
  in
  (* Time passes under the invariants, then LU widening: the tail of
     every successor and start zone.  The widening drops [x >= 0] for a
     clock compared against nothing from above; clocks are never
     negative, so that bound goes back in. *)
  let settle lay z =
    let z = Dbm_ref.up z in
    let z =
      List.fold_left (fun z (k, b) -> Dbm_ref.constrain z k 0 b) z lay.invs
    in
    let z = ref (Dbm_ref.extrapolate_lu ~lower:lay.lower ~upper:lay.upper z) in
    for k = 1 to Array.length lay.live - 1 do
      z := Dbm_ref.constrain !z 0 k (Dbm_bound.Le Rational.zero)
    done;
    !z
  in
  let covered r armed z =
    Dbm_ref.is_empty z
    || List.exists (fun w -> Dbm_ref.includes w z) r.zs.(phase armed)
  in
  (* The observer's move on the step [s -k-> s'] from the guarded zone
     [z], and its operation on [y]. *)
  let observe ~li armed s k s' z pos =
    match cond with
    | None -> (false, `Free)
    | Some c -> (
        let act = acts.(k) in
        let triggered = c.Condition.t_step s act s' in
        match armed with
        | true when c.Condition.in_pi act ->
            let bl = Interval.lo c.Condition.bounds in
            if Rational.sign bl > 0 && Dbm_ref.sat z pos.(y) 0 (Dbm_bound.Lt bl)
            then
              reject "location %d: a step of Pi admits y < %s" li
                (Rational.to_string bl);
            if triggered then (true, `Reset) else (false, `Free)
        | true when triggered ->
            reject "location %d: trigger fired while armed outside Pi" li
        | true -> if c.Condition.in_s s' then (false, `Free) else (true, `Keep)
        | false -> if triggered then (true, `Reset) else (false, `Free))
  in
  (* Every step from the zone [z] of location [li]: guard, observer,
     the move to the target's clocks (the firing class and newly enabled
     ones reset, the others kept, disabled ones dropped), then the
     timing tail. *)
  let step ~li s r armed z =
    on_time ();
    let pos = r.lays.(phase armed).pos in
    List.iter
      (fun (k, s') ->
        let z =
          match guards.(k) with
          | None -> z
          | Some (x, bl) ->
              Dbm_ref.constrain z 0 pos.(x) (Dbm_bound.Le (Rational.neg bl))
        in
        if not (Dbm_ref.is_empty z) then begin
          let armed', y_op = observe ~li armed s k s' z pos in
          let r' = srec s' in
          let lay' = r'.lays.(phase armed') in
          let src x =
            if x = 0 then 0
            else if x > n then
              match y_op with `Reset -> 0 | `Keep | `Free -> pos.(y)
            else if cls.(k) = Some (x - 1) || not r.en.(x - 1) then 0
            else pos.(x)
          in
          let remap = { Dbm_sig.src = Array.map src lay'.live; frees = 0 } in
          if not (covered r' armed' (settle lay' (Dbm_ref.remap z remap))) then
            reject "location %d: the successor by action %d is not covered" li
              k
        end)
      r.steps
  in
  try
    (* Read the certificate in, over the live clocks of each location. *)
    let locs =
      Array.mapi
        (fun li l ->
          let r = srec l.state in
          let pos = r.lays.(phase l.armed).pos in
          let constrain z (i, j, b) =
            if min i j < 0 || max i j >= nclocks || min pos.(i) pos.(j) < 0
            then reject "location %d: x%d - x%d, a clock dead there" li i j;
            Dbm_ref.constrain z pos.(i) pos.(j) b
          in
          let top = Dbm_ref.top (Array.length r.lays.(phase l.armed).live) in
          let zs = List.map (List.fold_left constrain top) l.zones in
          r.zs.(phase l.armed) <- zs @ r.zs.(phase l.armed);
          (li, l, r, zs))
        cert
    in
    List.iter
      (fun s0 ->
        let armed =
          match cond with Some c -> c.Condition.t_start s0 | None -> false
        in
        let r = srec s0 in
        let lay = r.lays.(phase armed) in
        let z = settle lay (Dbm_ref.zero (Array.length lay.live)) in
        if not (covered r armed z) then
          reject "a start state's zone is not covered")
      a.Ioa.start;
    Array.iter
      (fun (li, l, r, zs) ->
        if not (List.for_all (fun pred -> pred l.state) preds) then
          reject "location %d: invariant violated" li;
        (match cond with
        | Some c when l.armed -> (
            let yi = r.lays.(1).pos.(y) in
            match Interval.hi c.Condition.bounds with
            | Time.Fin q ->
                let late = Dbm_bound.Lt (Rational.neg q) in
                if List.exists (fun z -> Dbm_ref.sat z 0 yi late) zs then
                  reject "location %d: an armed zone admits y > %s" li
                    (Rational.to_string q)
            | Time.Inf -> ())
        | Some _ | None -> ());
        List.iter (step ~li l.state r l.armed) zs)
      locs;
    Ok (Array.fold_left (fun k (_, _, _, zs) -> k + List.length zs) 0 locs)
  with Reject m -> Error m
