type t = { lo : Rational.t; hi : Time.t }

exception Ill_formed of string

let make lo hi =
  if Rational.sign lo < 0 then
    raise (Ill_formed "interval lower bound is negative");
  if not (Time.le_q lo hi) then raise (Ill_formed "interval lower > upper");
  if Time.equal hi Time.zero && Rational.sign lo = 0 then
    (* The paper requires the upper bound of a boundmap interval to be
       nonzero; [0,0] would force an action at the very instant its
       class is enabled. *)
    raise (Ill_formed "interval upper bound is zero");
  { lo; hi }

let of_ints lo hi = make (Rational.of_int lo) (Time.of_int hi)
let unbounded_above lo = make lo Time.infinity
let trivial = unbounded_above Rational.zero
let lower_only lo = make lo Time.infinity
let upper_only hi = make Rational.zero hi
let lo iv = iv.lo
let hi iv = iv.hi
let mem t iv = Rational.(iv.lo <= t) && Time.le_q t iv.hi

let mem_time t iv =
  match t with Time.Fin q -> mem q iv | Time.Inf -> not (Time.is_finite iv.hi)

let shift d iv = make (Rational.add iv.lo d) (Time.add_q iv.hi d)

let scale n iv =
  if n < 1 then invalid_arg "Interval.scale: multiplier < 1";
  make (Rational.mul_int n iv.lo) (Time.mul_int n iv.hi)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm_den k iv =
  let lcm k q =
    let d = q.Rational.den in
    let m = k / gcd k d in
    if m > max_int / d then
      invalid_arg
        (Printf.sprintf "time scale %d * %d overflows (constant %s)" m d
           (Rational.to_string q));
    m * d
  in
  let k = lcm k iv.lo in
  match iv.hi with Time.Fin q -> lcm k q | Time.Inf -> k

let width iv = Time.sub_q iv.hi iv.lo

let equal a b = Rational.equal a.lo b.lo && Time.equal a.hi b.hi

let subset a b = Rational.(b.lo <= a.lo) && Time.(a.hi <= b.hi)

let to_string iv =
  Printf.sprintf "[%s, %s]" (Rational.to_string iv.lo) (Time.to_string iv.hi)

let pp fmt iv = Format.pp_print_string fmt (to_string iv)
