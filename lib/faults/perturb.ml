module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Boundmap = Tm_timed.Boundmap
module Metrics = Tm_obs.Metrics

let c_applied = Metrics.counter "faults.perturb_applied"

type spec =
  | Widen of Rational.t
  | Widen_class of string * Rational.t
  | Drift of Rational.t
  | Drift_class of string * Rational.t
  | Rebound of string * Interval.t
  | Seq of spec list

let widen e = Widen e
let widen_class c e = Widen_class (c, e)
let drift r = Drift r
let drift_class c r = Drift_class (c, r)
let rebound c iv = Rebound (c, iv)
let seq ss = Seq ss

let rec pp fmt = function
  | Widen e -> Format.fprintf fmt "widen %s" (Rational.to_string e)
  | Widen_class (c, e) ->
      Format.fprintf fmt "widen[%s] %s" c (Rational.to_string e)
  | Drift r -> Format.fprintf fmt "drift %s" (Rational.to_string r)
  | Drift_class (c, r) ->
      Format.fprintf fmt "drift[%s] %s" c (Rational.to_string r)
  | Rebound (c, iv) -> Format.fprintf fmt "rebound[%s] %a" c Interval.pp iv
  | Seq ss ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           pp)
        ss

let to_string s = Format.asprintf "%a" pp s

let ( let* ) = Result.bind

(* Interval rewrites.  Widening keeps [lo >= 0] by flooring; both
   rewrites keep [lo <= hi] because [lo] only shrinks and [hi] only
   grows, so {!Interval.make} can fail only on a malformed input. *)
let widen_iv e iv =
  let lo = Rational.max Rational.zero (Rational.sub (Interval.lo iv) e) in
  Interval.make lo (Time.add_q (Interval.hi iv) e)

let drift_iv r iv =
  let f = Rational.add Rational.one r in
  let lo = Rational.div (Interval.lo iv) f in
  let hi =
    match Interval.hi iv with
    | Time.Fin q -> Time.Fin (Rational.mul q f)
    | Time.Inf -> Time.Inf
  in
  Interval.make lo hi

let check_magnitude what q =
  if Rational.sign q < 0 then
    Error (Printf.sprintf "%s magnitude %s is negative" what
             (Rational.to_string q))
  else Ok ()

let check_class bm c =
  if Boundmap.mem bm c then Ok ()
  else Error (Printf.sprintf "class %S not in the boundmap" c)

let rec apply_inner spec bm =
  match spec with
  | Widen e ->
      let* () = check_magnitude "widen" e in
      Ok (Boundmap.map (fun _ iv -> widen_iv e iv) bm)
  | Widen_class (c, e) ->
      let* () = check_magnitude "widen" e in
      let* () = check_class bm c in
      Ok
        (Boundmap.map
           (fun c' iv -> if String.equal c c' then widen_iv e iv else iv)
           bm)
  | Drift r ->
      let* () = check_magnitude "drift" r in
      Ok (Boundmap.map (fun _ iv -> drift_iv r iv) bm)
  | Drift_class (c, r) ->
      let* () = check_magnitude "drift" r in
      let* () = check_class bm c in
      Ok
        (Boundmap.map
           (fun c' iv -> if String.equal c c' then drift_iv r iv else iv)
           bm)
  | Rebound (c, iv) ->
      let* () = check_class bm c in
      Ok (Boundmap.map (fun c' iv0 -> if String.equal c c' then iv else iv0) bm)
  | Seq ss ->
      List.fold_left (fun acc s -> Result.bind acc (apply_inner s)) (Ok bm) ss

let apply spec bm =
  match apply_inner spec bm with
  | Ok bm' ->
      Metrics.incr c_applied;
      Ok bm'
  | Error m -> Error (Printf.sprintf "%s: %s" (to_string spec) m)
  | exception Interval.Ill_formed m ->
      Error (Printf.sprintf "%s: ill-formed interval (%s)" (to_string spec) m)
