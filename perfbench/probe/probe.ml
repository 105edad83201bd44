(* In-process probe for the perfbench harness (perfbench/run.py).

   The harness measures end-to-end numbers against the real [timedmap]
   binary with no instrumentation.  This program answers the questions
   that need the libraries in-process, and times the calibration kernel
   ([probe calibrate]):

   - [probe expect]: the byte-exact response the daemon should give for
     each request, computed through [Workers.execute_job] (the daemon's
     own job-execution path) — the serve-mix correctness oracle;
   - [probe trace WORKLOAD]: the per-layer run.  The workload's calls
     into each layer's public API are wrapped in spans recorded here, in
     the benchmark, never inside lib/.  The same call sequence runs
     four times — a warm-up, then spans off, on, off — so the harness
     can report the tracing overhead; counters and GC figures come from
     the traced pass only.

   Output is one JSON document on stdout; all arithmetic on it (self
   times, percentiles, ratios) lives in perfbench/stats.py, where it is
   unit-tested. *)

module Json = Tm_obs.Json
module Metrics = Tm_obs.Metrics
module Reach = Tm_zones.Reach
module Clock_enc = Tm_zones.Clock_enc
module Margin = Tm_faults.Margin
module Boundmap = Tm_timed.Boundmap
module Interval = Tm_base.Interval
module Condition = Tm_timed.Condition
module F = Tm_systems.Fischer
module Protocol = Tm_serve.Protocol
module Catalog = Tm_serve.Catalog
module Cache = Tm_serve.Cache
module Admission = Tm_serve.Admission
module Workers = Tm_serve.Workers
module Server = Tm_serve.Server
module Snapshot = Tm_recover.Snapshot

(* ------------------------------------------------------------------ *)
(* spans: name, start, end, parent, request id; kept in memory until
   the run ends *)

type span = {
  name : string;
  t0 : float;
  mutable t1 : float;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  req : int;  (** request number in a serve replay, -1 before any *)
}

let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch
let recording = ref false
let spans = ref []
let nspans = ref 0
let current = ref (-1)
let current_req = ref (-1)  (* serve replays number requests from 0 *)

let span name f =
  if not !recording then f ()
  else begin
    let s = { name; t0 = now (); t1 = nan; parent = !current; req = !current_req } in
    let id = !nspans in
    incr nspans;
    spans := s :: !spans;
    let saved = !current in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        current := saved)
      f
  end

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.List
           [ Json.String s.name; Json.Float s.t0; Json.Float s.t1;
             Json.Int s.parent; Json.Int s.req ])
       !spans)

(* ------------------------------------------------------------------ *)
(* counters and GC, as deltas around the traced pass *)

let counters () =
  List.filter_map
    (fun (e : Metrics.entry) ->
      match e.Metrics.value with
      | Metrics.Counter_v n ->
          let labels =
            List.map (fun (k, v) -> k ^ "=" ^ v) e.Metrics.labels
          in
          let key =
            if labels = [] then e.Metrics.name
            else e.Metrics.name ^ "{" ^ String.concat "," labels ^ "}"
          in
          Some (key, n)
      | Metrics.Gauge_v _ | Metrics.Histogram_v _ -> None)
    (Metrics.snapshot ())

let counter_deltas before after =
  Json.Obj
    (List.filter_map
       (fun (k, n) ->
         let d = n - Option.value ~default:0 (List.assoc_opt k before) in
         if d = 0 then None else Some (k, Json.Int d))
       after)

(* ------------------------------------------------------------------ *)
(* the daemon's execution caps, from its defaults (timedmap serve) *)

let caps () =
  let cfg = Server.default_config ~socket_path:"unused" in
  {
    Workers.state_dir = None;
    max_limit = Some 200_000;
    max_deadline_s = Some 30.;
    domains = 1;
    attempts = cfg.Server.attempts;
    backoff_s = cfg.Server.backoff_s;
    default_engine = "auto";
  }

(* Mirrors the daemon: [Server.response_of_result], then the request
   id prepended by its [respond]. *)
let render ~id ~cached result =
  let doc =
    match result with
    | Workers.E_ok v -> Protocol.response ~cached ~verdict:v ~status:"ok" ()
    | Workers.E_unknown reason -> Protocol.response ~reason ~status:"unknown" ()
    | Workers.E_error e -> Protocol.response ~error:e ~status:"error" ()
  in
  match (id, doc) with
  | Some id, Json.Obj kvs -> Json.Obj (("id", id) :: kvs)
  | _ -> doc

(* ------------------------------------------------------------------ *)
(* probe expect: stdin lines "<0|1> <request payload>" (1 = the daemon
   answered from its cache), stdout the expected response per line *)

let expect () =
  let caps = caps () in
  let memo = Hashtbl.create 64 in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
        let cached = line.[0] = '1' in
        let payload = String.sub line 2 (String.length line - 2) in
        let out =
          match Json.of_string payload with
          | Error m -> "bad request: " ^ m
          | Ok req -> (
              let id = Json.member "id" req in
              match Catalog.of_request req with
              | Error m -> Json.to_string (render ~id ~cached (Workers.E_error m))
              | Ok job ->
                  let fp = job.Catalog.fingerprint in
                  let result =
                    match Hashtbl.find_opt memo fp with
                    | Some r -> r
                    | None ->
                        let r = Workers.execute_job caps job in
                        Hashtbl.add memo fp r;
                        r
                  in
                  Json.to_string (render ~id ~cached result))
        in
        print_string out;
        print_char '\n';
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* workloads, as the layer calls the CLI / daemon make *)

(* timedmap verify -S fischer -n 5: a=1 b=2, the CLI's fischer params *)
let fischer ~n ~a ~b = F.params_of_ints ~n ~r:2 ~t:1 ~a ~b ~b2:(b + 1) ~e:2

let verify_fischer5 () =
  let p = fischer ~n:5 ~a:1 ~b:2 in
  let sys = F.system p and bm = F.boundmap p in
  let module E = Reach.Auto in
  span "clock_enc.make" (fun () -> ignore (Clock_enc.make sys bm));
  let me =
    span "reach.check_state_invariant" (fun () ->
        E.check_state_invariant ~domains:1 sys bm F.mutual_exclusion)
  in
  span "clock_enc.make" (fun () -> ignore (Clock_enc.make sys bm));
  let ue =
    span "reach.check_condition" (fun () ->
        E.check_condition ~domains:1 sys bm (F.u_enter p))
  in
  Json.Obj
    [
      ( "mutual_exclusion",
        Json.String (match me with Ok _ -> "invariant_ok" | Error _ -> "invariant_violated") );
      ( "u_enter",
        Json.String
          (match ue with
          | Reach.Verified _ -> "verified"
          | Reach.Lower_violation _ -> "lower_violation"
          | Reach.Upper_violation _ -> "upper_violation"
          | Reach.Unknown _ -> "unknown"
          | Reach.Unsupported _ -> "unsupported") );
    ]

(* timedmap margin -S fischer -n 3: one report per property, the probe
   callback wrapped so int and rational probes are timed apart and
   Clock_enc.make is timed on exactly the boundmaps the probes use *)
let margin_fischer3 () =
  let p = fischer ~n:3 ~a:1 ~b:2 in
  let sys = F.system p and bm = F.boundmap p in
  let module E =
    (val Margin.probe_engine ~name:"auto" (module Reach.Auto : Reach.S))
  in
  let probe status bm' =
    let kind = if Boundmap.is_integral bm' then "int" else "rational" in
    span ("margin.probe." ^ kind) (fun () ->
        span "clock_enc.make" (fun () -> ignore (Clock_enc.make sys bm'));
        span "reach.probe" (fun () -> status bm'))
  in
  let report subject status =
    span "margin.report" (fun () ->
        Margin.report ~domains:1 ~subject ~check:(probe status) bm)
  in
  let u = F.u_enter p in
  Json.List
    (List.map Margin.to_json
       [
         report "fischer mutual exclusion (invariant)" (fun bm' ->
             Margin.invariant_status (module E) sys F.mutual_exclusion bm');
         report
           (Printf.sprintf "fischer %s %s" u.Condition.cname
              (Interval.to_string u.Condition.bounds))
           (fun bm' -> Margin.condition_status (module E) sys u bm');
       ])

(* Clock_enc.make on the system and boundmap a catalog request builds
   (the generator always names every parameter of its systems). *)
let time_clock_enc req =
  let param k =
    match Option.bind (Json.member "params" req) (Json.member k) with
    | Some v -> Option.get (Json.int_opt v)
    | None -> raise Not_found
  in
  let timed sys bm = span "clock_enc.make" (fun () -> ignore (Clock_enc.make sys bm)) in
  let module RM = Tm_systems.Resource_manager in
  let module SR = Tm_systems.Signal_relay in
  let module TR = Tm_systems.Token_ring in
  let module FD = Tm_systems.Failure_detector in
  try
    match Option.bind (Json.member "system" req) Json.string_opt with
    | Some "fischer" ->
        let p = fischer ~n:(max 2 (min (param "n") 6)) ~a:(param "a") ~b:(param "b") in
        timed (F.system p) (F.boundmap p)
    | Some "relay" ->
        let p = SR.params_of_ints ~n:(param "n") ~d1:(param "d1") ~d2:(param "d2") in
        timed (SR.line p) (SR.boundmap p)
    | Some "ring" ->
        let p = TR.params_of_ints ~n:(param "n") ~d1:(param "d1") ~d2:(param "d2") in
        timed (TR.system p) (TR.boundmap p)
    | Some "rm" ->
        let p =
          RM.params_of_ints ~k:(param "k") ~c1:(param "c1") ~c2:(param "c2") ~l:(param "l")
        in
        timed (RM.system p) (RM.boundmap p)
    | Some "fd" ->
        let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1:(param "g1") ~g2:(param "g2") ~m:(param "m") in
        timed (FD.system p) (FD.boundmap p)
    | _ -> ()
  with Not_found -> ()

type replay = {
  caps : Workers.caps;
  pool : unit Workers.t;  (** one worker, for the round trip *)
  dir : string;
  cache : Cache.t;
  adm : unit Admission.t;
  rd : Protocol.reader;
  mutable snapshot_bytes : int;
  mutable mismatches : int;  (** round trips that disagreed with exec *)
}

(* Submit to the one-worker pool and pump it until the job completes. *)
let roundtrip pool ~fingerprint req =
  if not (Workers.submit pool ~fingerprint ~request:req ()) then
    failwith "worker pool has no idle worker";
  let rec wait () =
    let ready, _, _ =
      try Unix.select (Workers.fds pool) [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let evs = List.concat_map (Workers.on_readable pool) ready @ Workers.tick pool in
    match evs with
    | [] -> wait ()
    | Workers.Completed ((), r, _) :: _ -> r
    | (Workers.Crash_retry () | Workers.Crash_quarantined _) :: _ ->
        failwith "worker crashed during a round trip"
  in
  wait ()

let rendered r = Json.to_string (render ~id:None ~cached:false r)

(* A cache miss, in the daemon's order: admit, dequeue, re-parse,
   execute, commit to the cache, finish.  The benchmark adds three
   calls of its own: [Clock_enc.make] on the job's system, the same job
   through the worker pool ([workers.roundtrip]), and one direct
   [Snapshot.write] of the verdict ([snapshot.write], the cache's
   durable format). *)
let miss t ~i ~fingerprint req =
  match
    span "admission.admit" (fun () ->
        Admission.try_admit t.adm ~fingerprint ~request:req ())
  with
  | Admission.Coalesced _ | Admission.Shed _ -> Workers.E_error "not admitted"
  | Admission.Admitted _ -> (
      match span "admission.pop" (fun () -> Admission.pop t.adm) with
      | None -> Workers.E_error "queue empty"
      | Some ajob ->
          time_clock_enc req;
          let t0 = Unix.gettimeofday () in
          let result =
            match span "catalog.parse" (fun () -> Catalog.of_request req) with
            | Error m -> Workers.E_error m
            | Ok job -> span "workers.exec" (fun () -> Workers.execute_job t.caps job)
          in
          let remote =
            span "workers.roundtrip" (fun () -> roundtrip t.pool ~fingerprint req)
          in
          if rendered remote <> rendered result then t.mismatches <- t.mismatches + 1;
          (match result with
          | Workers.E_ok v ->
              let text = Json.to_string v in
              span "cache.store" (fun () -> Cache.store t.cache ~fingerprint text);
              let path = Filename.concat t.dir (Printf.sprintf "snap-%d" i) in
              span "snapshot.write" (fun () ->
                  Snapshot.write ~path ~fingerprint ~info:"perfbench"
                    (Bytes.of_string text));
              t.snapshot_bytes <- t.snapshot_bytes + (Unix.stat path).Unix.st_size
          | Workers.E_unknown _ | Workers.E_error _ -> ());
          span "admission.finished" (fun () ->
              Admission.finished t.adm ajob ~note_wall_s:(Unix.gettimeofday () -. t0));
          result)

(* One request, in the daemon's order: frame decode and JSON parse,
   catalog, cache (or [miss]), response frame.  Returns the verdict
   document, or a string saying why there is none. *)
let request t ~i payload =
  let frame = span "protocol.encode" (fun () -> Protocol.encode_frame payload) in
  let parsed =
    span "protocol.decode" (fun () ->
        Protocol.feed_string t.rd frame;
        match Protocol.next t.rd with
        | Protocol.Frame p -> Json.of_string p
        | Protocol.Oversized _ | Protocol.Await -> Error "no frame")
  in
  match parsed with
  | Error m -> Json.String ("bad frame: " ^ m)
  | Ok req -> (
      match span "catalog.parse" (fun () -> Catalog.of_request req) with
      | Error m -> Json.String ("rejected: " ^ m)
      | Ok job -> (
          let fingerprint = job.Catalog.fingerprint in
          let result, cached =
            match span "cache.find" (fun () -> Cache.find t.cache ~fingerprint) with
            | Some text -> (
                match Json.of_string text with
                | Ok v -> (Workers.E_ok v, true)
                | Error m -> (Workers.E_error m, true))
            | None -> (miss t ~i ~fingerprint req, false)
          in
          span "protocol.respond" (fun () ->
              let id = Json.member "id" req in
              ignore
                (Protocol.encode_frame (Json.to_string (render ~id ~cached result))));
          match result with
          | Workers.E_ok v -> v
          | Workers.E_unknown m -> Json.String ("unknown: " ^ m)
          | Workers.E_error m -> Json.String ("error: " ^ m)))

(* A session as a fresh daemon would see it: new cache directory. *)
let serve_replay ~pool ~dir ~requests =
  let t =
    {
      caps = caps ();
      pool;
      dir;
      cache = Cache.create ~dir:(Filename.concat dir "cache") ();
      adm = Admission.create ~max_depth:16;
      rd = Protocol.reader ();
      snapshot_bytes = 0;
      mismatches = 0;
    }
  in
  let verdicts =
    List.mapi
      (fun i payload ->
        incr current_req;
        span "request" (fun () -> request t ~i payload))
      requests
  in
  (verdicts, t.snapshot_bytes, t.mismatches)

(* ------------------------------------------------------------------ *)
(* probe trace WORKLOAD *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_lines () =
  let rec go acc =
    match input_line stdin with
    | line -> go (if line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* Run [f] four times: once untraced to warm up (heap growth, page
   faults, the worker pool's first job), then untraced, traced, and
   untraced again.  The traced pass is compared with the mean of the two
   untraced passes around it, so neither warm-up nor a steady drift of
   the machine reads as tracing cost.  Counter and GC deltas are the
   traced pass's; [top_heap_words] is a process-wide high-water mark
   that cannot be reset, so it is the largest major heap over the four
   passes, which all do the same work. *)
let four_passes f =
  let timed pass =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f ~pass in
    (r, Unix.gettimeofday () -. t0)
  in
  ignore (timed "warmup");
  let _, before_s = timed "untraced-a" in
  Gc.compact ();
  let c0 = counters () and g0 = Gc.quick_stat () in
  recording := true;
  let t1 = Unix.gettimeofday () in
  let facts = span "run" (fun () -> f ~pass:"traced") in
  let traced_s = Unix.gettimeofday () -. t1 in
  recording := false;
  let g1 = Gc.quick_stat () and c1 = counters () in
  let _, after_s = timed "untraced-b" in
  ( facts,
    [
      ("traced_s", Json.Float traced_s);
      ("untraced_s", Json.Float ((before_s +. after_s) /. 2.));
      ("spans", spans_json ());
      ("counters", counter_deltas c0 c1);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
            ( "major_collections",
              Json.Int (g1.Gc.major_collections - g0.Gc.major_collections) );
            ("top_heap_words", Json.Int g1.Gc.top_heap_words);
            ("word_bytes", Json.Int (Sys.word_size / 8));
          ] );
    ] )

let trace workload args =
  let facts, fields =
    match (workload, args) with
    | "verify-fischer5", [] -> four_passes (fun ~pass:_ -> verify_fischer5 ())
    | "margin-fischer3", [] -> four_passes (fun ~pass:_ -> margin_fischer3 ())
    | "serve-mix", [ dir ] ->
        (* One request sequence per input line group: sessions are
           separated by lines reading "--".  Each session gets a fresh
           cache, as a fresh daemon would. *)
        let sessions =
          List.fold_left
            (fun acc line ->
              match acc with
              | _ when line = "--" -> [] :: acc
              | cur :: rest -> (line :: cur) :: rest
              | [] -> [ [ line ] ])
            [] (read_lines ())
          |> List.rev_map List.rev
          |> List.filter (fun s -> s <> [])
        in
        rm_rf dir;
        Unix.mkdir dir 0o755;
        let pool = Workers.create (caps ()) ~n:1 in
        let rec await_idle deadline =
          if not (Workers.has_idle pool) then begin
            if Unix.gettimeofday () > deadline then failwith "worker never became ready";
            let ready, _, _ = Unix.select (Workers.fds pool) [] [] 0.05 in
            List.iter (fun fd -> ignore (Workers.on_readable pool fd)) ready;
            ignore (Workers.tick pool);
            await_idle deadline
          end
        in
        await_idle (Unix.gettimeofday () +. 30.);
        let result =
          four_passes (fun ~pass ->
              let verdicts = ref [] and bytes = ref 0 and mism = ref 0 in
              List.iteri
                (fun k requests ->
                  let dir = Filename.concat dir (Printf.sprintf "%s-%d" pass k) in
                  Unix.mkdir dir 0o755;
                  let v, b, m = serve_replay ~pool ~dir ~requests in
                  verdicts := !verdicts @ v;
                  bytes := !bytes + b;
                  mism := !mism + m)
                sessions;
              Json.Obj
                [
                  ("verdicts", Json.List !verdicts);
                  ("snapshot_bytes", Json.Int !bytes);
                  ("roundtrip_mismatches", Json.Int !mism);
                ])
        in
        Workers.shutdown pool;
        rm_rf dir;
        result
    | _ -> failwith ("usage: probe trace verify-fischer5|margin-fischer3|serve-mix DIR")
  in
  print_endline
    (Json.to_string (Json.Obj (("workload", Json.String workload) :: ("facts", facts) :: fields)))

(* ------------------------------------------------------------------ *)
(* probe calibrate: a fixed kernel that calls no timedmap code, so its
   time follows only how fast this machine is right now — allocation,
   hashing, sorting and integer closure loops, the kinds of work the
   zone engine does.  The harness divides its timings by this one.
   Prints the kernel's wall time in seconds.  Changing the kernel
   rescales every time in the ledger. *)

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let n = 32 in
  let m = Array.make (n * n) 0 in
  let acc = ref 0 in
  for rep = 1 to 12 do
    let tbl = Hashtbl.create 1024 in
    let l = List.init 40000 (fun i -> (((i * 7919) + rep) mod 10007, Array.make 6 i)) in
    List.iter (fun (k, a) -> Hashtbl.replace tbl k a) l;
    acc := !acc + List.length (List.sort compare (List.map fst l)) + Hashtbl.length tbl;
    for _ = 1 to 30 do
      for i = 0 to (n * n) - 1 do
        m.(i) <- ((i * 7919) + rep) mod 1000
      done;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          let mik = m.((i * n) + k) in
          for j = 0 to n - 1 do
            let v = mik + m.((k * n) + j) in
            if v < m.((i * n) + j) then m.((i * n) + j) <- v
          done
        done
      done
    done
  done;
  Printf.printf "%.6f %d\n" (Unix.gettimeofday () -. t0) (!acc + m.(0))

let () =
  Workers.maybe_worker_main ();
  match Array.to_list Sys.argv with
  | _ :: "expect" :: [] -> expect ()
  | _ :: "calibrate" :: [] -> calibrate ()
  | _ :: "trace" :: workload :: args -> trace workload args
  | _ ->
      prerr_endline "usage: probe expect | probe calibrate | probe trace WORKLOAD [DIR]";
      exit 2
