(* The bound domain of the kernel interface: an upper bound on a clock
   difference, strict or weak, or no bound at all.  {!Dbm_int} packs it
   into an int and {!Dbm_ref} computes on it directly; both read and
   write zones through it, so a differential test compares them in one
   bound arithmetic. *)

module Rational = Tm_base.Rational

type t = Lt of Rational.t | Le of Rational.t | Inf

(* Order by tightness: smaller = tighter; [Lt c < Le c < Inf]. *)
let compare a b =
  match (a, b) with
  | Inf, Inf -> 0
  | Inf, _ -> 1
  | _, Inf -> -1
  | Lt x, Lt y | Le x, Le y -> Rational.compare x y
  | Lt x, Le y ->
      let c = Rational.compare x y in
      if c = 0 then -1 else c
  | Le x, Lt y ->
      let c = Rational.compare x y in
      if c = 0 then 1 else c

let min_b a b = if compare a b <= 0 then a else b

let add a b =
  match (a, b) with
  | Inf, _ | _, Inf -> Inf
  | Le x, Le y -> Le (Rational.add x y)
  | Le x, Lt y | Lt x, Le y | Lt x, Lt y -> Lt (Rational.add x y)

(* Does the bound admit the value 0?  The diagonal entry m[i][i] bounds
   x_i − x_i = 0, so a diagonal failing this test witnesses emptiness. *)
let neg_ok = function
  | Le q -> Rational.sign q >= 0
  | Lt q -> Rational.sign q > 0
  | Inf -> true

let hash = function
  | Inf -> 7
  | Le q -> 3 + Rational.hash q
  | Lt q -> 5 + Rational.hash q

let pp fmt = function
  | Inf -> Format.pp_print_string fmt "inf"
  | Le q -> Format.fprintf fmt "<=%a" Rational.pp q
  | Lt q -> Format.fprintf fmt "<%a" Rational.pp q
