(* Quantiles and summary of a sample of trace durations. *)

module Measure = Tm_sim.Measure
open Gen

let test_quantiles () =
  let samples = List.map q [ 5; 1; 3; 2; 4 ] in
  (match Measure.quantile samples 0.5 with
  | Some v -> Alcotest.(check rational_t) "median" (q 3) v
  | None -> Alcotest.fail "median");
  (match Measure.quantile samples 0.0 with
  | Some v -> Alcotest.(check rational_t) "p0 = min" (q 1) v
  | None -> Alcotest.fail "p0");
  (match Measure.quantile samples 1.0 with
  | Some v -> Alcotest.(check rational_t) "p100 = max" (q 5) v
  | None -> Alcotest.fail "p100");
  Alcotest.(check bool) "empty" true (Measure.quantile [] 0.5 = None);
  Alcotest.(check string) "summary" "n=5 min=1 p50=3 p90=5 max=5"
    (Measure.summary samples)

let suite = [ Alcotest.test_case "quantiles" `Quick test_quantiles ]
