(* Unit tests and properties of the exact-rational reference kernel,
   the oracle the packed-int production kernel is differentially tested
   against (test_dbm_diff.ml). *)

module Rational = Tm_base.Rational
module Dbm = Tm_zones.Dbm_ref
module Bnd = Tm_zones.Dbm_bound
open Gen

let test_bnd_compare () =
  Alcotest.(check bool) "Lt 2 < Le 2" true
    (Bnd.compare (Bnd.Lt (q 2)) (Bnd.Le (q 2)) < 0);
  Alcotest.(check bool) "Le 2 < Lt 3" true
    (Bnd.compare (Bnd.Le (q 2)) (Bnd.Lt (q 3)) < 0);
  Alcotest.(check bool) "anything < Inf" true
    (Bnd.compare (Bnd.Le (q 1000)) Bnd.Inf < 0);
  Alcotest.(check int) "Inf = Inf" 0 (Bnd.compare Bnd.Inf Bnd.Inf)

let test_bnd_add () =
  Alcotest.(check bool) "Le + Le = Le" true
    (Bnd.add (Bnd.Le (q 1)) (Bnd.Le (q 2)) = Bnd.Le (q 3));
  Alcotest.(check bool) "Lt + Le = Lt" true
    (Bnd.add (Bnd.Lt (q 1)) (Bnd.Le (q 2)) = Bnd.Lt (q 3));
  Alcotest.(check bool) "Inf absorbs" true
    (Bnd.add Bnd.Inf (Bnd.Le (q 2)) = Bnd.Inf)

let test_zero_top () =
  let z = Dbm.zero 3 in
  Alcotest.(check bool) "zero nonempty" false (Dbm.is_empty z);
  (* x1 = 0 exactly: x1 <= 0 and -x1 <= 0 *)
  Alcotest.(check bool) "x1 <= 0" true (Dbm.get z 1 0 = Bnd.Le Rational.zero);
  let t = Dbm.top 3 in
  Alcotest.(check bool) "top nonempty" false (Dbm.is_empty t);
  Alcotest.(check bool) "x1 unbounded above" true (Dbm.get t 1 0 = Bnd.Inf);
  Alcotest.(check bool) "x1 nonnegative" true
    (Dbm.get t 0 1 = Bnd.Le Rational.zero);
  Alcotest.(check bool) "top includes zero" true (Dbm.includes t z);
  Alcotest.(check bool) "zero excludes top" false (Dbm.includes z t)

let test_constrain () =
  let t = Dbm.top 2 in
  let z = Dbm.constrain t 1 0 (Bnd.Le (q 5)) in
  Alcotest.(check bool) "x1 <= 5 nonempty" false (Dbm.is_empty z);
  let z2 = Dbm.constrain z 0 1 (Bnd.Le (q (-7))) in
  Alcotest.(check bool) "also x1 >= 7: empty" true (Dbm.is_empty z2);
  (* boundary: x1 <= 5 and x1 >= 5 is the point 5 *)
  let z3 = Dbm.constrain z 0 1 (Bnd.Le (q (-5))) in
  Alcotest.(check bool) "x1 = 5 nonempty" false (Dbm.is_empty z3);
  (* strict: x1 < 5 and x1 > 5 empty; x1 < 5 and x1 >= 5 empty *)
  let z4 =
    Dbm.constrain (Dbm.constrain t 1 0 (Bnd.Lt (q 5))) 0 1 (Bnd.Le (q (-5)))
  in
  Alcotest.(check bool) "x1 < 5 and x1 >= 5 empty" true (Dbm.is_empty z4)

let test_canonical_tightening () =
  (* x1 - x2 <= 1, x2 <= 2 implies x1 <= 3 *)
  let t = Dbm.top 3 in
  let z = Dbm.constrain t 1 2 (Bnd.Le (q 1)) in
  let z = Dbm.constrain z 2 0 (Bnd.Le (q 2)) in
  Alcotest.(check bool) "derived x1 <= 3" true
    (Bnd.compare (Dbm.get z 1 0) (Bnd.Le (q 3)) <= 0);
  Alcotest.(check bool) "x1 > 3 unsat" false (Dbm.sat z 0 1 (Bnd.Lt (q (-3))))

let test_up () =
  let z = Dbm.zero 3 in
  let zu = Dbm.up z in
  Alcotest.(check bool) "x1 unbounded after up" true (Dbm.get zu 1 0 = Bnd.Inf);
  (* differences preserved: x1 - x2 = 0 *)
  Alcotest.(check bool) "x1 - x2 <= 0" true
    (Dbm.get zu 1 2 = Bnd.Le Rational.zero);
  Alcotest.(check bool) "x2 - x1 <= 0" true
    (Dbm.get zu 2 1 = Bnd.Le Rational.zero)

let test_reset () =
  (* from zero, elapse, then reset x1: x1 = 0, x2 - x1 unbounded-ish *)
  let z = Dbm.up (Dbm.zero 3) in
  let z = Dbm.constrain z 2 0 (Bnd.Le (q 4)) in
  let zr = Dbm.reset z 1 in
  Alcotest.(check bool) "x1 = 0 upper" true (Dbm.get zr 1 0 = Bnd.Le Rational.zero);
  Alcotest.(check bool) "x1 = 0 lower" true (Dbm.get zr 0 1 = Bnd.Le Rational.zero);
  (* x2 keeps its bound *)
  Alcotest.(check bool) "x2 <= 4 kept" true
    (Bnd.compare (Dbm.get zr 2 0) (Bnd.Le (q 4)) <= 0)

let test_intersect_includes () =
  let t = Dbm.top 2 in
  let a = Dbm.constrain t 1 0 (Bnd.Le (q 5)) in
  let b = Dbm.constrain t 0 1 (Bnd.Le (q (-3))) in
  let i = Dbm.intersect a b in
  Alcotest.(check bool) "intersection nonempty" false (Dbm.is_empty i);
  Alcotest.(check bool) "a includes i" true (Dbm.includes a i);
  Alcotest.(check bool) "b includes i" true (Dbm.includes b i);
  Alcotest.(check bool) "i not includes a" false (Dbm.includes i a);
  Alcotest.(check bool) "empty included anywhere" true
    (Dbm.includes i (Dbm.constrain i 1 0 (Bnd.Lt (q 3 |> Rational.neg))))

(* LU bounds for a 2-clock zone: L(x1) = l, U(x1) = u, [Some 0] on the
   reference clock. *)
let lu2 l u z =
  Dbm.extrapolate_lu ~lower:[| Some Rational.zero; l |]
    ~upper:[| Some Rational.zero; u |] z

let test_extrapolate () =
  let t = Dbm.top 2 in
  let z = Dbm.constrain t 1 0 (Bnd.Le (q 100)) in
  let e = lu2 (Some (q 10)) (Some (q 10)) z in
  Alcotest.(check bool) "upper bound above L dropped" true
    (Dbm.get e 1 0 = Bnd.Inf);
  Alcotest.(check bool) "extrapolated zone includes original" true
    (Dbm.includes e z);
  (* small bounds unchanged *)
  let z2 = Dbm.constrain t 1 0 (Bnd.Le (q 5)) in
  Alcotest.(check bool) "small bound kept" true
    (Dbm.equal (lu2 (Some (q 10)) (Some (q 10)) z2) z2);
  (* a lower bound beyond U relaxes to Lt (-U) *)
  let z3 = Dbm.constrain t 0 1 (Bnd.Le (q (-20))) in
  Alcotest.(check bool) "lower bound above U relaxed" true
    (Dbm.get (lu2 (Some (q 10)) (Some (q 10)) z3) 0 1 = Bnd.Lt (q (-10)));
  (* no comparison on a side wipes that side *)
  let e4 = lu2 None (Some (q 10)) z2 in
  Alcotest.(check bool) "None lower bound wipes the row" true
    (Dbm.get e4 1 0 = Bnd.Inf);
  Alcotest.(check bool) "the rest kept" true (Dbm.get e4 0 1 = Dbm.get z2 0 1)

let test_equal_hash () =
  let a = Dbm.constrain (Dbm.top 3) 1 0 (Bnd.Le (q 2)) in
  let b = Dbm.constrain (Dbm.top 3) 1 0 (Bnd.Le (q 2)) in
  Alcotest.(check bool) "equal" true (Dbm.equal a b);
  Alcotest.(check int) "hash equal" (Dbm.hash a) (Dbm.hash b)

(* random zones built from a few constraints *)
let zone_gen : Dbm.t QCheck2.Gen.t =
  QCheck2.Gen.(
    let bound =
      map2
        (fun c strict -> if strict then Bnd.Lt (q c) else Bnd.Le (q c))
        (int_range (-6) 6) bool
    in
    let cstr = triple (int_range 0 2) (int_range 0 2) bound in
    map
      (fun cs ->
        List.fold_left
          (fun z (i, j, b) -> if i = j then z else Dbm.constrain z i j b)
          (Dbm.top 3) cs)
      (list_size (int_range 0 6) cstr))

let prop_constrain_shrinks =
  check_holds "constrain yields a subset" zone_gen (fun z ->
      let z' = Dbm.constrain z 1 0 (Bnd.Le (q 3)) in
      Dbm.includes z z')

let prop_up_grows =
  check_holds "up yields a superset" zone_gen (fun z ->
      QCheck2.assume (not (Dbm.is_empty z));
      Dbm.includes (Dbm.up z) z)

(* random LU bounds for {!zone_gen}'s 3 clocks *)
let lu_gen =
  QCheck2.Gen.(
    let side =
      map
        (fun bs ->
          Array.of_list (Some Rational.zero :: List.map (Option.map q) bs))
        (list_repeat 2 (option ~ratio:0.6 (int_range 0 6)))
    in
    pair side side)

let prop_extrapolate_grows =
  check_holds "extrapolate yields a superset"
    QCheck2.Gen.(pair zone_gen lu_gen)
    (fun (z, (lower, upper)) ->
      Dbm.includes (Dbm.extrapolate_lu ~lower ~upper z) z)

let prop_intersect_commutes =
  check_holds "intersect commutes" QCheck2.Gen.(pair zone_gen zone_gen)
    (fun (a, b) -> Dbm.equal (Dbm.intersect a b) (Dbm.intersect b a))

let prop_includes_partial_order =
  check_holds "includes antisymmetric on canonical forms"
    QCheck2.Gen.(pair zone_gen zone_gen)
    (fun (a, b) ->
      (not (Dbm.includes a b && Dbm.includes b a)) || Dbm.equal a b)

let suite =
  [
    Alcotest.test_case "bound comparison" `Quick test_bnd_compare;
    Alcotest.test_case "bound addition" `Quick test_bnd_add;
    Alcotest.test_case "zero and top" `Quick test_zero_top;
    Alcotest.test_case "constrain" `Quick test_constrain;
    Alcotest.test_case "canonical tightening" `Quick
      test_canonical_tightening;
    Alcotest.test_case "up" `Quick test_up;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "intersect/includes" `Quick test_intersect_includes;
    Alcotest.test_case "extrapolate" `Quick test_extrapolate;
    Alcotest.test_case "equal/hash" `Quick test_equal_hash;
    prop_constrain_shrinks;
    prop_up_grows;
    prop_extrapolate_grows;
    prop_intersect_commutes;
    prop_includes_partial_order;
  ]
