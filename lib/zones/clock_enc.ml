module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap

exception Open_system of string

type ('s, 'a) t = {
  aut : ('s, 'a) Ioa.t;
  bm : Boundmap.t;
  classes : string array;
  nclasses : int;
  max_const : Rational.t;
  members : 'a array array;
  act_class : int array;
}

let make (a : ('s, 'a) Ioa.t) bm =
  (match
     List.find_opt (fun act -> a.Ioa.kind_of act = Ioa.Input) a.Ioa.alphabet
   with
  | Some _ -> raise (Open_system "automaton has input actions")
  | None -> ());
  (match Boundmap.covers bm a with
  | Ok () -> ()
  | Error m -> raise (Open_system m));
  let classes = Array.of_list a.Ioa.classes in
  let nclasses = Array.length classes in
  let index = Hashtbl.create nclasses in
  Array.iteri
    (fun i c -> if not (Hashtbl.mem index c) then Hashtbl.add index c i)
    classes;
  (* Class membership of every action, resolved once: [Ioa.class_of]
     may build its class name on every call (systems typically
     [sprintf] it), so it is called once per action here and never on
     the per-state paths below — an alphabet-times-classes name scan
     per state dominates a whole exploration's allocation. *)
  let acts = Array.of_list a.Ioa.alphabet in
  let act_class =
    Array.map
      (fun act ->
        match a.Ioa.class_of act with
        | None -> -1
        | Some c -> (
            match Hashtbl.find_opt index c with
            | Some i -> i
            | None -> raise (Open_system ("unknown class " ^ c))))
      acts
  in
  let members = Array.make nclasses [] in
  for k = Array.length acts - 1 downto 0 do
    let i = act_class.(k) in
    if i >= 0 then members.(i) <- acts.(k) :: members.(i)
  done;
  {
    aut = a;
    bm;
    classes;
    nclasses;
    max_const = Boundmap.max_constant bm;
    members = Array.map Array.of_list members;
    act_class;
  }

let class_index enc k =
  let i = enc.act_class.(k) in
  if i < 0 then None else Some i

(* Enabledness of class [i] in [s] over the precomputed members —
   allocation-free except for the successor lists [delta] builds. *)
let class_on enc i s =
  Array.exists (fun act -> enc.aut.Ioa.delta s act <> []) enc.members.(i)

let guard enc k =
  let i = enc.act_class.(k) in
  if i < 0 then None
  else
    let bl = Boundmap.lower enc.bm enc.classes.(i) in
    if Rational.sign bl = 0 then None else Some (i + 1, bl)

type op = Reset of int | Free of int

let step_ops enc s k s' =
  let fired = enc.act_class.(k) in
  let ops = ref [] in
  for i = 0 to enc.nclasses - 1 do
    let x = i + 1 in
    if class_on enc i s' then begin
      if i = fired || not (class_on enc i s) then ops := Reset x :: !ops
    end
    else ops := Free x :: !ops
  done;
  List.rev !ops

let start_ops enc s =
  let ops = ref [] in
  Array.iteri
    (fun i _ ->
      if not (class_on enc i s) then ops := Free (i + 1) :: !ops)
    enc.classes;
  List.rev !ops

let invariant enc s =
  let invs = ref [] in
  Array.iteri
    (fun i c ->
      if class_on enc i s then
        match Boundmap.upper enc.bm c with
        | Time.Fin q -> invs := (i + 1, q) :: !invs
        | Time.Inf -> ())
    enc.classes;
  List.rev !invs

let lu_bounds enc ~observer =
  let n = enc.nclasses + if Option.is_none observer then 1 else 2 in
  let lower = Array.make n None and upper = Array.make n None in
  lower.(0) <- Some Rational.zero;
  upper.(0) <- Some Rational.zero;
  Array.iteri
    (fun i c ->
      let l, u = Boundmap.lu_bounds enc.bm c in
      lower.(i + 1) <- l;
      upper.(i + 1) <- u)
    enc.classes;
  Option.iter
    (fun iv ->
      let bl = Interval.lo iv in
      if Rational.sign bl > 0 then upper.(n - 1) <- Some bl;
      match Interval.hi iv with
      | Time.Fin q -> lower.(n - 1) <- Some q
      | Time.Inf -> ())
    observer;
  (lower, upper)

let scale enc =
  Array.fold_left
    (fun k c -> Interval.lcm_den k (Boundmap.find enc.bm c))
    1 enc.classes
