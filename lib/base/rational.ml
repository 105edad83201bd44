type t = { num : int; den : int }

exception Overflow
exception Division_by_zero

(* Overflow-checked native integer arithmetic.  The systems reproduced
   here use single-digit constants, so hitting these checks means a bug
   rather than a genuinely large value. *)

let add_exn a b =
  let r = a + b in
  if (a >= 0) = (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow;
  r

let sub_exn a b =
  let r = a - b in
  if (a >= 0) <> (b >= 0) && (r >= 0) <> (a >= 0) then raise Overflow;
  r

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a then raise Overflow;
    r

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let norm num den =
  if den = 0 then raise Division_by_zero;
  let num, den = if den < 0 then (-num, -den) else (num, den) in
  if num = 0 then { num = 0; den = 1 }
  else
    let g = gcd (Stdlib.abs num) den in
    { num = num / g; den = den / g }

let make num den = norm num den
let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1

(* Integer-valued rationals dominate the DBM hot path; adding two of
   them (or adding zero) needs no gcd renormalization. *)
let add a b =
  if a.num = 0 then b
  else if b.num = 0 then a
  else if a.den = 1 && b.den = 1 then { num = add_exn a.num b.num; den = 1 }
  else
    norm
      (add_exn (mul_exn a.num b.den) (mul_exn b.num a.den))
      (mul_exn a.den b.den)

let sub a b =
  if b.num = 0 then a
  else if a.den = 1 && b.den = 1 then { num = sub_exn a.num b.num; den = 1 }
  else
    norm
      (sub_exn (mul_exn a.num b.den) (mul_exn b.num a.den))
      (mul_exn a.den b.den)

let mul a b = norm (mul_exn a.num b.num) (mul_exn a.den b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  norm (mul_exn a.num b.den) (mul_exn a.den b.num)

let neg a = { a with num = -a.num }
let abs a = { a with num = Stdlib.abs a.num }

let inv a =
  if a.num = 0 then raise Division_by_zero;
  norm a.den a.num

let mul_int n q = norm (mul_exn n q.num) q.den

let compare a b =
  (* Cross-multiplication with overflow checking keeps comparisons
     exact; equal denominators (the common case on the DBM hot path)
     compare numerators directly. *)
  if a.den = b.den then Stdlib.compare a.num b.num
  else Stdlib.compare (mul_exn a.num b.den) (mul_exn b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign a = Stdlib.compare a.num 0
let is_integer a = a.den = 1

let floor a =
  if a.num >= 0 then a.num / a.den
  else if a.num mod a.den = 0 then a.num / a.den
  else (a.num / a.den) - 1

let ceil a = -floor (neg a)

let divides step q =
  if sign step <= 0 then invalid_arg "Rational.divides: nonpositive step";
  is_integer (div q step)

let to_float a = float_of_int a.num /. float_of_int a.den

let of_string s =
  let s = String.trim s in
  let fail () = invalid_arg (Printf.sprintf "Rational.of_string: %S" s) in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> fail () in
  match String.index_opt s '/' with
  | Some i ->
      let num = int_of (String.sub s 0 i) in
      let den = int_of (String.sub s (Stdlib.( + ) i 1)
                          (Stdlib.( - ) (String.length s) (Stdlib.( + ) i 1)))
      in
      if den = 0 then fail () else make num den
  | None -> (
      match String.index_opt s '.' with
      | None -> of_int (int_of s)
      | Some i ->
          let whole = String.sub s 0 i in
          let frac =
            String.sub s (Stdlib.( + ) i 1)
              (Stdlib.( - ) (String.length s) (Stdlib.( + ) i 1))
          in
          if String.length frac = 0 then fail ();
          let negative = String.length whole > 0 && whole.[0] = '-' in
          let whole_n = if whole = "" || whole = "-" then 0 else int_of whole in
          let frac_n = int_of frac in
          if Stdlib.( < ) frac_n 0 then fail ();
          let scale =
            let rec pow acc n =
              if n = 0 then acc else pow (mul_exn acc 10) (Stdlib.( - ) n 1)
            in
            pow 1 (String.length frac)
          in
          let mag =
            add (of_int (Stdlib.abs whole_n)) (make frac_n scale)
          in
          if negative || Stdlib.( < ) whole_n 0 then neg mag else mag)

let to_string a =
  if a.den = 1 then string_of_int a.num
  else Printf.sprintf "%d/%d" a.num a.den

let pp fmt a = Format.pp_print_string fmt (to_string a)
let hash a = Stdlib.( + ) (Stdlib.( * ) a.num 1000003) a.den

let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let ( = ) a b = equal a b
let ( <> ) a b = not (equal a b)
let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
