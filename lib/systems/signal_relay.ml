module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Ioa = Tm_ioa.Ioa
module Compose = Tm_ioa.Compose
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Semantics = Tm_timed.Semantics
module Time_automaton = Tm_core.Time_automaton
module Tstate = Tm_core.Tstate
module Mapping = Tm_core.Mapping
module Dummify = Tm_core.Dummify

type act = Signal of int

let pp_act fmt (Signal i) = Format.fprintf fmt "SIGNAL_%d" i

type dact = act Dummify.action

type params = {
  n : int;
  d1 : Rational.t;
  d2 : Rational.t;
  null_bounds : Interval.t;
}

let params ~n ~d1 ~d2 ?(null_bounds = Interval.of_ints 1 2) () =
  if n < 1 then invalid_arg "Signal_relay.params: n < 1";
  if Rational.(d1 < Rational.zero) then
    invalid_arg "Signal_relay.params: d1 < 0";
  if Rational.(d2 < d1) then invalid_arg "Signal_relay.params: d2 < d1";
  if Rational.(d2 <= Rational.zero) then
    invalid_arg "Signal_relay.params: d2 <= 0";
  { n; d1; d2; null_bounds }

let params_of_ints ~n ~d1 ~d2 =
  params ~n ~d1:(Rational.of_int d1) ~d2:(Rational.of_int d2) ()

type state = bool array

let sig_class i = Printf.sprintf "SIG_%d" i

let process _p i : (bool, act) Ioa.t =
  let alphabet =
    if i = 0 then [ Signal 0 ] else [ Signal (i - 1); Signal i ]
  in
  {
    Ioa.name = Printf.sprintf "P_%d" i;
    start = [ i = 0 ];
    alphabet;
    kind_of =
      (fun (Signal j) -> if j = i then Ioa.Output else Ioa.Input);
    delta =
      (fun flag (Signal j) ->
        if j = i - 1 && i > 0 then [ true ]
        else if j = i then if flag then [ false ] else []
        else []);
    classes = [ sig_class i ];
    class_of =
      (fun (Signal j) -> if j = i then Some (sig_class i) else None);
    equal_state = Bool.equal;
    hash_state = (fun b -> if b then 1 else 0);
    pp_state = (fun fmt b -> Format.fprintf fmt "%B" b);
    equal_action = ( = );
    pp_action = pp_act;
  }

let line p =
  let composed =
    Compose.array ~name:"signal-relay"
      (Array.init (p.n + 1) (fun i -> process p i))
  in
  Ioa.hide composed (fun (Signal i) -> i > 0 && i < p.n)

let boundmap p =
  Boundmap.of_list
    ((sig_class 0, Interval.unbounded_above Rational.zero)
    :: List.init p.n (fun i ->
           (sig_class (i + 1), Interval.make p.d1 (Time.Fin p.d2))))

let dsystem p = Dummify.automaton (line p)
let dboundmap p = Dummify.boundmap (boundmap p) ~null_bounds:p.null_bounds

let delay_interval p =
  Interval.make
    (Rational.mul_int p.n p.d1)
    (Time.Fin (Rational.mul_int p.n p.d2))

let u_name k n = Printf.sprintf "U(%d,%d)" k n

let u_cond p ~k =
  if k < 0 || k > p.n - 1 then invalid_arg "Signal_relay.u_cond: bad k";
  let hops = p.n - k in
  Condition.make ~name:(u_name k p.n)
    ~t_step:(fun _ act _ ->
      match act with
      | Dummify.Base (Signal j) -> j = k
      | Dummify.Null -> false)
    ~bounds:
      (Interval.make
         (Rational.mul_int hops p.d1)
         (Time.Fin (Rational.mul_int hops p.d2)))
    ~in_pi:(fun act ->
      match act with
      | Dummify.Base (Signal j) -> j = p.n
      | Dummify.Null -> false)
    ()

let impl p = Time_automaton.of_boundmap (dsystem p) (dboundmap p)

(* Conditions of B_k, in a fixed order the mappings below rely on:
   index 0 = U_{k,n}; index j+1 = cond(SIG_j) for 0 <= j <= k;
   index k+2 = cond(NULL). *)
let b_k_conds p ~k =
  let sys = dsystem p in
  let bm = dboundmap p in
  (u_cond p ~k :: List.init (k + 1) (fun j ->
       Semantics.cond_of_class sys bm (sig_class j)))
  @ [ Semantics.cond_of_class sys bm Dummify.null_class ]

let b_k p ~k = Time_automaton.make (dsystem p) (b_k_conds p ~k)
let spec p = Time_automaton.make (dsystem p) [ u_cond p ~k:0 ]

let eq_pred s u i j =
  Rational.equal s.Tstate.ft.(i) u.Tstate.ft.(j)
  && Time.equal s.Tstate.lt.(i) u.Tstate.lt.(j)

(* The mapping of Section 6.4 from B_k to B_{k-1}. *)
let f_k p ~k =
  if k < 1 || k > p.n - 1 then invalid_arg "Signal_relay.f_k: bad k";
  let hops = p.n - k in
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    let flags = s.Tstate.base in
    let past_k =
      let rec any i = i <= p.n && (flags.(i) || any (i + 1)) in
      any (k + 1)
    in
    (* Source indices: U at 0, cond(SIG_j) at j+1, NULL at k+2.
       Target indices: U at 0, cond(SIG_j) at j+1, NULL at k+1. *)
    let i_sig_k = k + 1 in
    let rhs_lt =
      if past_k then s.Tstate.lt.(0)
      else if flags.(k) then
        Time.add_q s.Tstate.lt.(i_sig_k) (Rational.mul_int hops p.d2)
      else Time.infinity
    in
    let ft_constraint =
      if past_k then Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
      else if flags.(k) then
        Rational.(
          u.Tstate.ft.(0)
          <= add s.Tstate.ft.(i_sig_k) (Rational.mul_int hops p.d1))
      else Rational.(u.Tstate.ft.(0) <= Rational.zero)
    in
    Time.(u.Tstate.lt.(0) >= rhs_lt)
    && ft_constraint
    (* every other component of u equals the corresponding one of s *)
    && (let rec shared j =
          j > k - 1 || (eq_pred s u (j + 1) (j + 1) && shared (j + 1))
        in
        shared 0)
    && eq_pred s u (k + 2) (k + 1)
  in
  { Mapping.mname = Printf.sprintf "f_%d: B_%d -> B_%d" k k (k - 1);
    contains }

(* time(A~, b~) -> B_{n-1}: the component of cond(SIG_n) is renamed to
   U_{n-1,n}; all other components are shared.  Source indices follow
   the dummified class order: cond(NULL) at 0, cond(SIG_j) at j+1. *)
let trivial_top p =
  let n = p.n in
  let i_sig_n = n + 1 in
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    Time.(u.Tstate.lt.(0) >= s.Tstate.lt.(i_sig_n))
    && Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(i_sig_n))
    && (let rec shared j =
          j > n - 1 || (eq_pred s u (j + 1) (j + 1) && shared (j + 1))
        in
        shared 0)
    && eq_pred s u 0 i_sig_n
  in
  { Mapping.mname = "rename: time(A~,b~) -> B_{n-1}"; contains }

(* B_0 -> B: forget the boundmap components. *)
let trivial_bottom _p =
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    Time.(u.Tstate.lt.(0) >= s.Tstate.lt.(0))
    && Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
  in
  { Mapping.mname = "forget: B_0 -> B"; contains }

let chain p =
  let top = { Mapping.target = b_k p ~k:(p.n - 1); map = trivial_top p } in
  let middles =
    List.init (p.n - 1) (fun i ->
        let k = p.n - 1 - i in
        { Mapping.target = b_k p ~k:(k - 1); map = f_k p ~k })
  in
  let bottom = { Mapping.target = spec p; map = trivial_bottom p } in
  (top :: middles) @ [ bottom ]

let lemma_6_1 flags =
  Array.fold_left (fun acc f -> acc + if f then 1 else 0) 0 flags <= 1
