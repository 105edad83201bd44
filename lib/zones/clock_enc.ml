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
  (* Class membership of every action, resolved once: [Ioa.class_of]
     may build its class name on every call (systems typically
     [sprintf] it), so the per-state paths below must never consult it
     again — an alphabet-times-classes name scan per state dominates a
     whole exploration's allocation. *)
  let members =
    Array.map
      (fun c ->
        Array.of_list
          (List.filter
             (fun act -> a.Ioa.class_of act = Some c)
             a.Ioa.alphabet))
      classes
  in
  {
    aut = a;
    bm;
    classes;
    nclasses = Array.length classes;
    max_const = Boundmap.max_constant bm;
    members;
  }

let clock enc c =
  let found = ref (-1) in
  Array.iteri
    (fun i c' -> if !found < 0 && String.equal c c' then found := i + 1)
    enc.classes;
  if !found < 0 then raise (Open_system ("unknown class " ^ c));
  !found

let class_index enc act =
  match enc.aut.Ioa.class_of act with
  | None -> None
  | Some c -> Some (clock enc c - 1)

(* Enabledness of class [i] in [s] over the precomputed members —
   allocation-free except for the successor lists [delta] builds. *)
let class_on enc i s =
  Array.exists (fun act -> enc.aut.Ioa.delta s act <> []) enc.members.(i)

let guard enc act =
  match enc.aut.Ioa.class_of act with
  | None -> None
  | Some c ->
      let bl = Boundmap.lower enc.bm c in
      if Rational.sign bl = 0 then None else Some (clock enc c, bl)

type op = Reset of int | Free of int

let step_ops enc s act s' =
  let ops = ref [] in
  Array.iteri
    (fun i c ->
      let x = i + 1 in
      if class_on enc i s' then begin
        if enc.aut.Ioa.class_of act = Some c || not (class_on enc i s) then
          ops := Reset x :: !ops
      end
      else ops := Free x :: !ops)
    enc.classes;
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

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let lcm a b = a / gcd a b * b

let scale enc =
  Array.fold_left
    (fun acc c ->
      let iv = Boundmap.find enc.bm c in
      let acc = lcm acc (Interval.lo iv).Rational.den in
      match Interval.hi iv with
      | Time.Fin q -> lcm acc q.Rational.den
      | Time.Inf -> acc)
    1 enc.classes
