(* Tests for the live-telemetry layer: the monotonic process clock,
   the golden NDJSON event stream, reach-driven event smoke (with the
   determinism contract: stats identical with the sink on or off, at
   any domain count), the Prometheus exporter under
   Gen.metric_updates scripts, the bench-diff drift engine, the
   stderr-only progress line, the phase profiler, and report
   provenance. *)

module Rational = Tm_base.Rational
module Json = Tm_obs.Json
module Clock = Tm_obs.Clock
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Prof = Tm_obs.Prof
module Export = Tm_obs.Export
module Report = Tm_obs.Report
module Reach = Tm_zones.Reach
module RM = Tm_systems.Resource_manager
open Gen

let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "tele.%s.%d" prefix !n

(* Counter clock: each reading advances one second.  Goes through
   Tracing.set_clock so the trace epoch resets along with the Clock
   clamp; always restored, because the clock is process-wide. *)
let with_counter_clock f =
  let t = ref 0. in
  Tracing.set_clock (fun () ->
      t := !t +. 1.;
      !t);
  Fun.protect ~finally:(fun () -> Tracing.set_clock Unix.gettimeofday) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file f =
  let path = Filename.temp_file "tm_telemetry" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* clock *)

let test_clock_clamps_backward_steps () =
  let readings = [| 5.0; 3.0; 4.0; 9.0; 2.0 |] in
  let i = ref (-1) in
  Clock.set (fun () ->
      incr i;
      readings.(!i mod Array.length readings));
  Fun.protect ~finally:(fun () -> Clock.set Unix.gettimeofday) @@ fun () ->
  let out = List.init 5 (fun _ -> Clock.now_s ()) in
  Alcotest.(check (list (float 0.))) "high-water mark"
    [ 5.0; 5.0; 5.0; 9.0; 9.0 ] out;
  List.fold_left
    (fun prev t ->
      Alcotest.(check bool) "non-decreasing" true (t >= prev);
      t)
    neg_infinity out
  |> ignore

let test_clock_set_resets_clamp () =
  Clock.set (fun () -> 1000.);
  ignore (Clock.now_s ());
  (* A fresh source may start far below the previous high-water mark. *)
  Clock.set (fun () -> 1.);
  Fun.protect ~finally:(fun () -> Clock.set Unix.gettimeofday) @@ fun () ->
  Alcotest.(check (float 0.)) "clamp reset" 1. (Clock.now_s ())

(* ------------------------------------------------------------------ *)
(* golden NDJSON event stream *)

let golden_events =
  String.concat "\n"
    [
      {|{"ts":0,"seq":0,"ev":"run.start","tool":"test"}|};
      {|{"ts":1,"seq":1,"ev":"zones.batch","stored":4,"frontier":2,"rate":2.5}|};
      {|{"ts":2,"seq":2,"ev":"run.done","ok":true,"note":null}|};
      "";
    ]

let test_golden_event_stream () =
  with_counter_clock @@ fun () ->
  with_temp_file @@ fun path ->
  Events.open_path path;
  Fun.protect ~finally:Events.close @@ fun () ->
  Events.emit "run.start" [ ("tool", Json.String "test") ];
  Events.emit "zones.batch"
    [
      ("stored", Json.Int 4);
      ("frontier", Json.Int 2);
      ("rate", Json.Float 2.5);
    ];
  Events.emit "run.done" [ ("ok", Json.Bool true); ("note", Json.Null) ];
  Alcotest.(check int) "seq counts emits" 3 (Events.seq ());
  Events.close ();
  Alcotest.(check string) "golden NDJSON" golden_events (read_file path);
  (* closed sink: emit is a no-op, close is idempotent *)
  Events.emit "after.close" [];
  Events.close ();
  Alcotest.(check string) "no write after close" golden_events
    (read_file path)

let test_attach_resets_sequence () =
  with_counter_clock @@ fun () ->
  with_temp_file @@ fun path ->
  Events.open_path path;
  Events.emit "one" [];
  Events.emit "two" [];
  Events.close ();
  Events.open_path path;
  Fun.protect ~finally:Events.close @@ fun () ->
  Events.emit "anew" [];
  Events.close ();
  match Json.of_string (String.trim (read_file path)) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      let field_is k v fields =
        match List.assoc_opt k fields with
        | Some j' -> Json.equal j' v
        | None -> false
      in
      Alcotest.(check bool) "seq restarts at 0" true
        (match j with
        | Json.Obj fields ->
            field_is "seq" (Json.Int 0) fields
            && field_is "ts" (Json.Float 0.) fields
        | _ -> false)

(* ------------------------------------------------------------------ *)
(* reach-driven events: well-formed stream, observation-only *)

let rm_params = RM.params_of_ints ~k:3 ~c1:2 ~c2:3 ~l:1
let rm_sys = RM.system rm_params
let rm_bm = RM.boundmap rm_params

let run_rm () =
  match Reach.check_condition rm_sys rm_bm (RM.g1 rm_params) with
  | Reach.Verified s -> s
  | _ -> Alcotest.fail "resource manager G1 should verify"

let test_reach_event_stream () =
  let baseline = run_rm () in
  with_temp_file @@ fun path ->
  Events.open_path path;
  let observed =
    Fun.protect ~finally:Events.close (fun () -> run_rm ())
  in
  Events.close ();
  Alcotest.(check int) "stored zones unaffected by telemetry"
    baseline.Reach.zones observed.Reach.zones;
  Alcotest.(check int) "edges unaffected" baseline.Reach.edges
    observed.Reach.edges;
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check bool) "stream non-empty" true (lines <> []);
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok (Json.Obj fields) -> fields
        | Ok _ -> Alcotest.failf "event line is not an object: %s" l
        | Error m -> Alcotest.failf "bad event line %S: %s" l m)
      lines
  in
  let seqs =
    List.map
      (fun fields ->
        match List.assoc_opt "seq" fields with
        | Some (Json.Int n) -> n
        | Some (Json.Float f) when Float.is_integer f -> int_of_float f
        | _ -> Alcotest.fail "event without seq")
      parsed
  in
  Alcotest.(check (list int)) "seq strictly increasing from 0"
    (List.init (List.length seqs) Fun.id)
    seqs;
  let names =
    List.filter_map
      (fun fields ->
        match List.assoc_opt "ev" fields with
        | Some (Json.String s) -> Some s
        | _ -> None)
      parsed
  in
  Alcotest.(check bool) "final fixpoint event present" true
    (List.mem "zones.done" names)

(* ------------------------------------------------------------------ *)
(* exporters *)

let snapshot_with_prefix prefix =
  List.filter
    (fun e ->
      String.length e.Metrics.name >= String.length prefix
      && String.sub e.Metrics.name 0 (String.length prefix) = prefix)
    (Metrics.snapshot ())

let apply_updates prefix updates =
  let cname i = Printf.sprintf "%s.c%d" prefix i in
  let gname i = Printf.sprintf "%s.g%d" prefix i in
  let hname i = Printf.sprintf "%s.h%d" prefix i in
  List.iter
    (fun u ->
      match u with
      | Incr_counter i -> Metrics.incr (Metrics.counter (cname i))
      | Add_counter (i, n) -> Metrics.add (Metrics.counter (cname i)) n
      | Set_gauge (i, v) ->
          if Float.is_finite v then Metrics.set (Metrics.gauge (gname i)) v
      | Max_gauge (i, v) ->
          if Float.is_finite v then
            Metrics.set_max (Metrics.gauge (gname i)) v
      | Observe (i, s) -> Metrics.observe (Metrics.histogram (hname i)) s)
    updates

(* A sample line is NAME{labels} VALUE where NAME is [a-zA-Z0-9_:]+ and
   VALUE parses as a float; comment lines start with '#'. *)
let prometheus_line_ok line =
  if line = "" || line.[0] = '#' then true
  else
    match String.rindex_opt line ' ' with
    | None -> false
    | Some sp -> (
        let name_part = String.sub line 0 sp in
        let value_part =
          String.sub line (sp + 1) (String.length line - sp - 1)
        in
        let name_end =
          match String.index_opt name_part '{' with
          | Some i -> i
          | None -> String.length name_part
        in
        let name_ok =
          name_end > 0
          && String.for_all
               (function
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                 | _ -> false)
               (String.sub name_part 0 name_end)
        in
        name_ok
        &&
        match value_part with
        | "+Inf" | "-Inf" | "NaN" -> true
        | v -> float_of_string_opt v <> None)

let prop_prometheus_well_formed =
  check_holds ~count:60 "exporter: Prometheus text is well-formed"
    metric_updates (fun updates ->
      let prefix = fresh "prom" in
      apply_updates prefix updates;
      let snap = snapshot_with_prefix prefix in
      let text = Export.to_prometheus snap in
      List.for_all prometheus_line_ok (String.split_on_char '\n' text))

let test_prometheus_histogram_shape () =
  let name = fresh "promh" in
  let h = Metrics.histogram name in
  List.iter (Metrics.observe h) [ q 1; q 3; q 200 ];
  let text = Export.to_prometheus (snapshot_with_prefix name) in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "+Inf bucket" true (contains {|le="+Inf"|});
  Alcotest.(check bool) "_count sample" true (contains "_count");
  Alcotest.(check bool) "_sum sample" true (contains "_sum");
  Alcotest.(check bool) "histogram TYPE line" true (contains "# TYPE")

(* ------------------------------------------------------------------ *)
(* bench-diff engine *)

let entries prefix = snapshot_with_prefix prefix

let test_diff_identical () =
  let prefix = fresh "d0" in
  Metrics.add (Metrics.counter (prefix ^ ".c")) 5;
  Metrics.observe (Metrics.histogram (prefix ^ ".h")) (q 2);
  let snap = entries prefix in
  Alcotest.(check int) "no drift" 0
    (List.length (Export.diff ~baseline:snap ~current:snap ()))

let test_diff_detects_counter_drift () =
  let prefix = fresh "d1" in
  let c = Metrics.counter (prefix ^ ".c") in
  Metrics.add c 5;
  let baseline = entries prefix in
  Metrics.incr c;
  let current = entries prefix in
  match Export.diff ~baseline ~current () with
  | [ d ] ->
      Alcotest.(check string) "names the metric" (prefix ^ ".c")
        d.Export.dname
  | l -> Alcotest.failf "expected one drift, got %d" (List.length l)

let test_diff_detects_histogram_drift () =
  let prefix = fresh "d2" in
  let h = Metrics.histogram (prefix ^ ".h") in
  Metrics.observe h (q 2);
  let baseline = entries prefix in
  Metrics.observe h (q 1000);
  let current = entries prefix in
  Alcotest.(check bool) "histogram state change is drift" true
    (Export.diff ~baseline ~current () <> [])

let test_diff_tolerates_new_zero_metric () =
  let prefix = fresh "d3" in
  Metrics.add (Metrics.counter (prefix ^ ".old")) 3;
  let baseline = entries prefix in
  ignore (Metrics.counter (prefix ^ ".fresh"));
  let current = entries prefix in
  Alcotest.(check int) "fresh zero counter tolerated" 0
    (List.length (Export.diff ~baseline ~current ()));
  Metrics.incr (Metrics.counter (prefix ^ ".fresh"));
  let current' = entries prefix in
  Alcotest.(check bool) "fresh nonzero counter is drift" true
    (Export.diff ~baseline ~current:current' () <> [])

let test_diff_missing_metric_is_drift () =
  let prefix = fresh "d4" in
  Metrics.incr (Metrics.counter (prefix ^ ".gone"));
  let baseline = entries prefix in
  Alcotest.(check bool) "baseline metric missing from current" true
    (Export.diff ~baseline ~current:[] () <> [])

let test_diff_respects_ignore_prefixes () =
  let prefix = fresh "d5" in
  let c = Metrics.counter (prefix ^ ".par.tasks") in
  Metrics.add c 10;
  let baseline = entries prefix in
  Metrics.add c 7;
  let current = entries prefix in
  Alcotest.(check bool) "drifts without the ignore" true
    (Export.diff ~baseline ~current () <> []);
  Alcotest.(check int) "ignored prefix suppresses the drift" 0
    (List.length
       (Export.diff
          ~ignore_prefixes:[ prefix ^ ".par." ]
          ~baseline ~current ()))

(* ------------------------------------------------------------------ *)
(* progress line: dedicated channel, throttling, clear *)

let test_progress_channel_and_throttle () =
  let t = ref 100. in
  Clock.set (fun () -> !t);
  let path = Filename.temp_file "tm_progress" ".txt" in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () ->
      Events.set_progress false;
      Events.set_progress_channel stderr;
      Clock.set Unix.gettimeofday;
      close_out_noerr oc;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Events.set_progress true;
  Events.set_progress_channel oc;
  Events.progress ~stored:10 ~frontier:4 ~rate:123. ();
  (* same Clock reading: throttled away *)
  Events.progress ~stored:11 ~frontier:4 ~rate:123. ();
  t := 100.2;
  Events.progress ~eta_s:9. ~stored:12 ~frontier:3 ~rate:150. ();
  Events.progress_clear ();
  close_out oc;
  let body = read_file path in
  let count_sub sub =
    let n = String.length body and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else if String.sub body i m = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "two paints (middle call throttled)" 2
    (count_sub "[timedmap]");
  Alcotest.(check int) "three erase sequences (2 repaints + clear)" 3
    (count_sub "\r\027[K");
  Alcotest.(check bool) "carries the counters" true
    (count_sub "zones=12" = 1 && count_sub "eta=9s" = 1)

(* ------------------------------------------------------------------ *)
(* phase profiler *)

let with_prof f =
  Prof.reset ();
  Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Prof.disable ();
      Prof.reset ())
    f

let test_prof_self_total_split () =
  with_counter_clock @@ fun () ->
  with_prof @@ fun () ->
  Prof.with_phase "outer" (fun () ->
      Prof.with_phase "inner" (fun () -> ()));
  let by_path p = List.find (fun n -> n.Prof.path = p) (Prof.nodes ()) in
  let outer = by_path "outer" and inner = by_path "outer;inner" in
  (* counter clock: outer spans t=1..4 (total 3), inner t=2..3 (1) *)
  Alcotest.(check (float 1e-9)) "outer total" 3. outer.Prof.total_s;
  Alcotest.(check (float 1e-9)) "inner total" 1. inner.Prof.total_s;
  Alcotest.(check (float 1e-9)) "outer self = total - child" 2.
    outer.Prof.self_s;
  Alcotest.(check (float 1e-9)) "inner self = total (leaf)" 1.
    inner.Prof.self_s;
  Alcotest.(check int) "counts" 1 outer.Prof.count;
  let folded = Prof.to_folded () in
  Alcotest.(check string) "collapsed-stack lines"
    "outer 2000000\nouter;inner 1000000\n" folded

let test_prof_via_tracing_span () =
  with_counter_clock @@ fun () ->
  with_prof @@ fun () ->
  Tracing.disable ();
  (* Tracing disabled but the profiler enabled: with_span still feeds
     phases — every existing span site is a profiling point. *)
  let r = Tracing.with_span "spanphase" (fun () -> 17) in
  Alcotest.(check int) "value passes through" 17 r;
  Alcotest.(check bool) "phase recorded" true
    (List.exists (fun n -> n.Prof.path = "spanphase") (Prof.nodes ()));
  Alcotest.(check int) "no trace events recorded" 0
    (List.length (Tracing.events ()))

let test_prof_disabled_passthrough () =
  Prof.disable ();
  Prof.reset ();
  let r = Prof.with_phase "skipped" (fun () -> 42) in
  Alcotest.(check int) "value" 42 r;
  Alcotest.(check int) "no nodes" 0 (List.length (Prof.nodes ()));
  (* stray end_phase never underflows *)
  Prof.end_phase ()

let test_prof_exception_safe () =
  with_counter_clock @@ fun () ->
  with_prof @@ fun () ->
  (try Prof.with_phase "boom" (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "phase recorded despite raise" true
    (List.exists (fun n -> n.Prof.path = "boom") (Prof.nodes ()));
  (* the stack unwound: a new phase is a root, not a child of boom *)
  Prof.with_phase "next" (fun () -> ());
  Alcotest.(check bool) "stack unwound" true
    (List.exists (fun n -> n.Prof.path = "next") (Prof.nodes ()))

(* ------------------------------------------------------------------ *)
(* report provenance *)

let test_report_provenance () =
  let r =
    Report.make ~command:"verify" ~version:"9.9.9" ~engine:"paranoid"
      ~domains:3 ~wall_s:0.25 ()
  in
  Alcotest.(check string) "version" "9.9.9" r.Report.version;
  Alcotest.(check string) "engine" "paranoid" r.Report.engine;
  Alcotest.(check int) "domains" 3 r.Report.domains;
  (match Report.to_json r with
  | Json.Obj fields ->
      Alcotest.(check bool) "json carries provenance" true
        (List.assoc_opt "version" fields = Some (Json.String "9.9.9")
        && List.assoc_opt "engine" fields = Some (Json.String "paranoid")
        && List.assoc_opt "domains" fields = Some (Json.Int 3))
  | _ -> Alcotest.fail "report JSON is not an object");
  let text = Format.asprintf "%a" Report.pp r in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "pp names the engine" true (contains "paranoid");
  Alcotest.(check bool) "pp names the version" true (contains "9.9.9")

let suite =
  [
    Alcotest.test_case "clock: clamps backward steps" `Quick
      test_clock_clamps_backward_steps;
    Alcotest.test_case "clock: set resets the clamp" `Quick
      test_clock_set_resets_clamp;
    Alcotest.test_case "events: golden NDJSON stream" `Quick
      test_golden_event_stream;
    Alcotest.test_case "events: attach resets seq and epoch" `Quick
      test_attach_resets_sequence;
    Alcotest.test_case "events: reach stream well-formed, stats unchanged"
      `Quick test_reach_event_stream;
    prop_prometheus_well_formed;
    Alcotest.test_case "exporter: Prometheus histogram shape" `Quick
      test_prometheus_histogram_shape;
    Alcotest.test_case "diff: identical snapshots agree" `Quick
      test_diff_identical;
    Alcotest.test_case "diff: counter drift detected" `Quick
      test_diff_detects_counter_drift;
    Alcotest.test_case "diff: histogram drift detected" `Quick
      test_diff_detects_histogram_drift;
    Alcotest.test_case "diff: new zero metric tolerated" `Quick
      test_diff_tolerates_new_zero_metric;
    Alcotest.test_case "diff: missing metric is drift" `Quick
      test_diff_missing_metric_is_drift;
    Alcotest.test_case "diff: ignore prefixes" `Quick
      test_diff_respects_ignore_prefixes;
    Alcotest.test_case "progress: channel, throttle, clear" `Quick
      test_progress_channel_and_throttle;
    Alcotest.test_case "prof: self/total split, folded output" `Quick
      test_prof_self_total_split;
    Alcotest.test_case "prof: fed by Tracing.with_span" `Quick
      test_prof_via_tracing_span;
    Alcotest.test_case "prof: disabled is a plain call" `Quick
      test_prof_disabled_passthrough;
    Alcotest.test_case "prof: exception-safe" `Quick
      test_prof_exception_safe;
    Alcotest.test_case "report: build/engine provenance" `Quick
      test_report_provenance;
  ]
