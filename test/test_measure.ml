(* Regression tests pinning the semantics of Measure.envelope,
   Measure.merge, Measure.quantile and Measure.summary: the merged mean
   is the sample-count-weighted average, extremes take min/max, and
   quantiles are exact nearest-rank. *)

module Rational = Tm_base.Rational
module Interval = Tm_base.Interval
module Measure = Tm_sim.Measure
open Gen

let env_exn samples =
  match Measure.envelope samples with
  | Some e -> e
  | None -> Alcotest.fail "expected an envelope"

let test_envelope_empty () =
  Alcotest.(check bool) "empty" true (Measure.envelope [] = None)

let test_envelope_basic () =
  let e = env_exn [ q 2; q 1; q 3 ] in
  Alcotest.(check int) "count" 3 e.Measure.count;
  Alcotest.check rational_t "min" (q 1) e.Measure.min;
  Alcotest.check rational_t "max" (q 3) e.Measure.max;
  Alcotest.(check (float 1e-12)) "mean" 2.0 e.Measure.mean

let test_merge_weighted_mean () =
  (* 1 sample at 0 against 3 samples at 4: the merged mean must weight
     by sample count (3.0), not average the means (2.0). *)
  let a = env_exn [ q 0 ] in
  let b = env_exn [ q 4; q 4; q 4 ] in
  let m = Measure.merge a b in
  Alcotest.(check int) "count" 4 m.Measure.count;
  Alcotest.check rational_t "min" (q 0) m.Measure.min;
  Alcotest.check rational_t "max" (q 4) m.Measure.max;
  Alcotest.(check (float 1e-12)) "mean" 3.0 m.Measure.mean

let test_merge_commutes () =
  let a = env_exn [ q 1; q 5 ] in
  let b = env_exn [ q 2; q 2; q 9 ] in
  let ab = Measure.merge a b and ba = Measure.merge b a in
  Alcotest.(check int) "count" ab.Measure.count ba.Measure.count;
  Alcotest.check rational_t "min" ab.Measure.min ba.Measure.min;
  Alcotest.check rational_t "max" ab.Measure.max ba.Measure.max;
  Alcotest.(check (float 0.)) "mean" ab.Measure.mean ba.Measure.mean

let nonempty_samples =
  QCheck2.Gen.(list_size (int_range 1 30) rational)

let prop_merge_is_concat_envelope =
  check_holds "merge (envelope xs) (envelope ys) = envelope (xs @ ys)"
    QCheck2.Gen.(pair nonempty_samples nonempty_samples)
    (fun (xs, ys) ->
      let m = Measure.merge (env_exn xs) (env_exn ys) in
      let e = env_exn (xs @ ys) in
      m.Measure.count = e.Measure.count
      && Rational.equal m.Measure.min e.Measure.min
      && Rational.equal m.Measure.max e.Measure.max
      && Float.abs (m.Measure.mean -. e.Measure.mean) <= 1e-9)

let prop_mean_within_extremes =
  check_holds "envelope mean lies within [min, max]" nonempty_samples
    (fun xs ->
      let e = env_exn xs in
      Rational.to_float e.Measure.min -. 1e-9 <= e.Measure.mean
      && e.Measure.mean <= Rational.to_float e.Measure.max +. 1e-9)

let test_quantile_pinned () =
  let samples = [ q 1; q 2; q 3; q 4 ] in
  let check_q p expect =
    Alcotest.(check (option rational_t))
      (Printf.sprintf "p=%.2f" p)
      expect
      (Measure.quantile samples p)
  in
  (* nearest-rank: rank = min (n-1) (max 0 (ceil (p*n) - 1)) *)
  check_q 0.0 (Some (q 1));
  check_q 0.5 (Some (q 2));
  check_q 0.75 (Some (q 3));
  check_q 0.9 (Some (q 4));
  check_q 1.0 (Some (q 4));
  Alcotest.(check (option rational_t))
    "empty" None (Measure.quantile [] 0.5);
  Alcotest.(check (option rational_t))
    "odd median" (Some (q 2))
    (Measure.quantile [ q 3; q 1; q 2 ] 0.5);
  Alcotest.(check string)
    "summary" "n=5 min=1 p50=3 p90=5 max=5"
    (Measure.summary [ q 5; q 1; q 3; q 2; q 4 ]);
  Alcotest.(check string) "empty summary" "(no samples)" (Measure.summary [])

let test_quantile_out_of_range () =
  Alcotest.check_raises "p > 1" (Invalid_argument "Measure.quantile")
    (fun () -> ignore (Measure.quantile [ q 1 ] 1.5))

let test_within () =
  let e = env_exn [ q 2; q 3 ] in
  Alcotest.(check bool) "inside" true
    (Measure.within (Interval.make (q 1) (Tm_base.Time.of_int 4)) e);
  Alcotest.(check bool) "outside" false
    (Measure.within (Interval.make (q 1) (Tm_base.Time.of_int 2)) e)

let suite =
  [
    Alcotest.test_case "envelope: empty" `Quick test_envelope_empty;
    Alcotest.test_case "envelope: basic" `Quick test_envelope_basic;
    Alcotest.test_case "merge: weighted mean" `Quick test_merge_weighted_mean;
    Alcotest.test_case "merge: commutes" `Quick test_merge_commutes;
    prop_merge_is_concat_envelope;
    prop_mean_within_extremes;
    Alcotest.test_case "quantile: pinned values" `Quick test_quantile_pinned;
    Alcotest.test_case "quantile: out of range" `Quick
      test_quantile_out_of_range;
    Alcotest.test_case "within" `Quick test_within;
  ]
