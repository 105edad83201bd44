module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Semantics = Tm_timed.Semantics
module Time_automaton = Tm_core.Time_automaton
module Tstate = Tm_core.Tstate
module Mapping = Tm_core.Mapping

type act = Pass of int

let pp_act fmt (Pass i) = Format.fprintf fmt "PASS_%d" i

type params = { n : int; d1 : Rational.t; d2 : Rational.t }

let params_of_ints ~n ~d1 ~d2 =
  if n < 2 then invalid_arg "Token_ring.params: n < 2";
  if d1 < 0 || d2 < d1 || d2 = 0 then
    invalid_arg "Token_ring.params: bad hop interval";
  { n; d1 = Rational.of_int d1; d2 = Rational.of_int d2 }

type state = int

let pass_class i = Printf.sprintf "PASS_%d" i

let system p : (state, act) Ioa.t =
  {
    Ioa.name = Printf.sprintf "token-ring-%d" p.n;
    start = [ 0 ];
    alphabet = List.init p.n (fun i -> Pass i);
    kind_of = (fun (Pass i) -> if i = 0 then Ioa.Output else Ioa.Internal);
    delta =
      (fun holder (Pass i) ->
        if holder = i then [ (i + 1) mod p.n ] else []);
    classes = List.init p.n pass_class;
    class_of = (fun (Pass i) -> Some (pass_class i));
    equal_state = Int.equal;
    hash_state = Fun.id;
    pp_state = (fun fmt h -> Format.fprintf fmt "token@%d" h);
    equal_action = ( = );
    pp_action = pp_act;
  }

let boundmap p =
  Boundmap.of_list
    (List.init p.n (fun i ->
         (pass_class i, Interval.make p.d1 (Time.Fin p.d2))))

let impl p = Time_automaton.of_boundmap (system p) (boundmap p)

let rotation_interval p =
  Interval.make
    (Rational.mul_int p.n p.d1)
    (Time.Fin (Rational.mul_int p.n p.d2))

let u_rotation p =
  Condition.make ~name:"U(rotation)"
    ~t_step:(fun _ act _ -> act = Pass 0)
    ~bounds:(rotation_interval p)
    ~in_pi:(fun act -> act = Pass 0)
    ()

let u_from p ~k =
  if k < 1 || k > p.n - 1 then invalid_arg "Token_ring.u_from: bad k";
  let hops = p.n - k in
  Condition.make
    ~name:(Printf.sprintf "U(from %d)" k)
    ~t_step:(fun _ act _ -> act = Pass k)
    ~bounds:
      (Interval.make
         (Rational.mul_int hops p.d1)
         (Time.Fin (Rational.mul_int hops p.d2)))
    ~in_pi:(fun act -> act = Pass 0)
    ()

let spec p = Time_automaton.make (system p) [ u_rotation p ]

(* Condition order in B_k: u_from k at index 0, cond(PASS_j) at index j
   for 1 <= j <= k. *)
let b_k p ~k =
  let sys = system p in
  let bm = boundmap p in
  Time_automaton.make sys
    (u_from p ~k
    :: List.init k (fun j ->
           Semantics.cond_of_class sys bm (pass_class (j + 1))))

let eq_pred s u i j =
  Rational.equal s.Tstate.ft.(i) u.Tstate.ft.(j)
  && Time.equal s.Tstate.lt.(i) u.Tstate.lt.(j)

(* The token is strictly past station k (u_from k armed) when it sits
   in the cyclic interval {k+1, ..., n-1, 0}. *)
let past k h n = h = 0 || (h > k && h < n)

let f_k p ~k =
  if k < 2 || k > p.n - 1 then invalid_arg "Token_ring.f_k: bad k";
  let hops = p.n - k in
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    let h = s.Tstate.base in
    let rhs_lt =
      if past k h p.n then s.Tstate.lt.(0)
      else if h = k then
        Time.add_q s.Tstate.lt.(k) (Rational.mul_int hops p.d2)
      else Time.infinity
    in
    let ft_ok =
      if past k h p.n then Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
      else if h = k then
        Rational.(
          u.Tstate.ft.(0) <= add s.Tstate.ft.(k) (Rational.mul_int hops p.d1))
      else Rational.(u.Tstate.ft.(0) <= Rational.zero)
    in
    Time.(u.Tstate.lt.(0) >= rhs_lt)
    && ft_ok
    && (let rec shared j = j > k - 1 || (eq_pred s u j j && shared (j + 1)) in
        shared 1)
  in
  { Mapping.mname = Printf.sprintf "ring f_%d: B_%d -> B_%d" k k (k - 1);
    contains }

(* B_1 -> spec: a rotation from the last PASS_0 is the pending PASS_1
   hop plus the distance measured by u_from 1. *)
let f_close p =
  let hops = p.n - 1 in
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    let h = s.Tstate.base in
    let rhs_lt =
      if past 1 h p.n then s.Tstate.lt.(0)
      else
        (* h = 1: PASS_1 pending *)
        Time.add_q s.Tstate.lt.(1) (Rational.mul_int hops p.d2)
    in
    let ft_ok =
      if past 1 h p.n then Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
      else
        Rational.(
          u.Tstate.ft.(0) <= add s.Tstate.ft.(1) (Rational.mul_int hops p.d1))
    in
    Time.(u.Tstate.lt.(0) >= rhs_lt) && ft_ok
  in
  { Mapping.mname = "ring close: B_1 -> spec"; contains }

(* impl condition order follows the class order: cond(PASS_i) at i.
   B_{n-1} expects u_from(n-1) at 0 (the renamed cond(PASS_0)) and
   cond(PASS_j) at j. *)
let trivial_top p =
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    Time.(u.Tstate.lt.(0) >= s.Tstate.lt.(0))
    && Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
    && (let rec shared j =
          j > p.n - 1 || (eq_pred s u j j && shared (j + 1))
        in
        shared 1)
  in
  { Mapping.mname = "ring rename: time(A,b) -> B_{n-1}"; contains }

let chain p =
  let top = { Mapping.target = b_k p ~k:(p.n - 1); map = trivial_top p } in
  let middles =
    List.init
      (max 0 (p.n - 2))
      (fun i ->
        let k = p.n - 1 - i in
        { Mapping.target = b_k p ~k:(k - 1); map = f_k p ~k })
  in
  let close = { Mapping.target = spec p; map = f_close p } in
  (top :: middles) @ [ close ]
