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

type act = Start | Mid | Done

let pp_act fmt a =
  Format.pp_print_string fmt
    (match a with Start -> "START" | Mid -> "MID" | Done -> "DONE")

type phase = Idle | Wait_mid | Wait_done
type state = phase

type params = {
  p1 : Rational.t;
  p2 : Rational.t;
  q1 : Rational.t;
  q2 : Rational.t;
  r1 : Rational.t;
  r2 : Rational.t;
}

let params_of_ints ~p1 ~p2 ~q1 ~q2 ~r1 ~r2 =
  let chk lo hi name =
    if lo < 0 || hi < lo || hi = 0 then
      invalid_arg (Printf.sprintf "Two_stage.params: bad %s interval" name)
  in
  chk p1 p2 "restart";
  chk q1 q2 "first-stage";
  chk r1 r2 "second-stage";
  let f = Rational.of_int in
  { p1 = f p1; p2 = f p2; q1 = f q1; q2 = f q2; r1 = f r1; r2 = f r2 }

let start_class = "START"
let mid_class = "MID"
let done_class = "DONE"

let system _p : (state, act) Ioa.t =
  {
    Ioa.name = "two-stage";
    start = [ Idle ];
    alphabet = [ Start; Mid; Done ];
    kind_of = (function Start | Done -> Ioa.Output | Mid -> Ioa.Internal);
    delta =
      (fun phase act ->
        match (phase, act) with
        | Idle, Start -> [ Wait_mid ]
        | Wait_mid, Mid -> [ Wait_done ]
        | Wait_done, Done -> [ Idle ]
        | (Idle | Wait_mid | Wait_done), (Start | Mid | Done) -> []);
    classes = [ start_class; mid_class; done_class ];
    class_of =
      (function
      | Start -> Some start_class
      | Mid -> Some mid_class
      | Done -> Some done_class);
    equal_state = ( = );
    hash_state =
      (function Idle -> 0 | Wait_mid -> 1 | Wait_done -> 2);
    pp_state =
      (fun fmt ph ->
        Format.pp_print_string fmt
          (match ph with
          | Idle -> "idle"
          | Wait_mid -> "wait-mid"
          | Wait_done -> "wait-done"));
    equal_action = ( = );
    pp_action = pp_act;
  }

let boundmap p =
  Boundmap.of_list
    [
      (start_class, Interval.make p.p1 (Time.Fin p.p2));
      (mid_class, Interval.make p.q1 (Time.Fin p.q2));
      (done_class, Interval.make p.r1 (Time.Fin p.r2));
    ]

let impl p = Time_automaton.of_boundmap (system p) (boundmap p)

let u_start_mid p =
  Condition.make ~name:"U(start,mid)"
    ~t_step:(fun _ act _ -> act = Start)
    ~bounds:(Interval.make p.q1 (Time.Fin p.q2))
    ~in_pi:(fun act -> act = Mid)
    ()

let u_mid_done p =
  Condition.make ~name:"U(mid,done)"
    ~t_step:(fun _ act _ -> act = Mid)
    ~bounds:(Interval.make p.r1 (Time.Fin p.r2))
    ~in_pi:(fun act -> act = Done)
    ()

let end_to_end_interval p =
  Interval.make (Rational.add p.q1 p.r1)
    (Time.Fin (Rational.add p.q2 p.r2))

let u_end_to_end p =
  Condition.make ~name:"U(start,done)"
    ~t_step:(fun _ act _ -> act = Start)
    ~bounds:(end_to_end_interval p)
    ~in_pi:(fun act -> act = Done)
    ()

(* Condition order in the intermediate automaton: u_mid_done at 0, then
   cond(START) at 1 and cond(MID) at 2; the DONE class condition is
   subsumed by u_mid_done exactly as cond(SIGNAL_n) is by U_{n-1,n} in
   the relay. *)
let intermediate p =
  let sys = system p in
  let bm = boundmap p in
  Time_automaton.make sys
    [
      u_mid_done p;
      Semantics.cond_of_class sys bm start_class;
      Semantics.cond_of_class sys bm mid_class;
    ]

let spec p = Time_automaton.make (system p) [ u_end_to_end p ]

let eq_pred s u i j =
  Rational.equal s.Tstate.ft.(i) u.Tstate.ft.(j)
  && Time.equal s.Tstate.lt.(i) u.Tstate.lt.(j)

(* impl condition order follows the class order: cond(START) at 0,
   cond(MID) at 1, cond(DONE) at 2. *)
let top_mapping _p =
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    Time.(u.Tstate.lt.(0) >= s.Tstate.lt.(2))
    && Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(2))
    && eq_pred s u 0 1 && eq_pred s u 1 2
  in
  { Mapping.mname = "rename: time(A,b) -> B_1"; contains }

let stage_mapping p =
  let contains (s : state Tstate.t) (u : state Tstate.t) =
    let rhs_lt =
      match s.Tstate.base with
      | Wait_done -> s.Tstate.lt.(0)
      | Wait_mid -> Time.add_q s.Tstate.lt.(2) p.r2
      | Idle -> Time.infinity
    in
    let ft_ok =
      match s.Tstate.base with
      | Wait_done -> Rational.(u.Tstate.ft.(0) <= s.Tstate.ft.(0))
      | Wait_mid ->
          Rational.(u.Tstate.ft.(0) <= add s.Tstate.ft.(2) p.r1)
      | Idle -> Rational.(u.Tstate.ft.(0) <= Rational.zero)
    in
    Time.(u.Tstate.lt.(0) >= rhs_lt) && ft_ok
  in
  { Mapping.mname = "stage composition: B_1 -> B"; contains }

let chain p =
  [
    { Mapping.target = intermediate p; map = top_mapping p };
    { Mapping.target = spec p; map = stage_mapping p };
  ]
