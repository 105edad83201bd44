(* The verification daemon: protocol framing (unit + fuzz), admission
   control, the verdict cache, and end-to-end robustness of forked
   daemon processes — duplicate requests answered byte-identically from
   the cache, floods shed instead of hanging, budget exhaustions
   chained through checkpoints, kill -9 mid-job recovered on restart,
   SIGTERM drained gracefully.  Daemons run as spawned child processes
   (their own metrics, their own crash domain), exactly like
   production. *)

module Json = Tm_obs.Json
module Protocol = Tm_serve.Protocol
module Cache = Tm_serve.Cache
module Admission = Tm_serve.Admission
module Server = Tm_serve.Server
module Snapshot = Tm_recover.Snapshot

(* ------------------------------------------------------------------ *)
(* protocol: reader units *)

let feed_all ?(chunks = [ 7 ]) rd s =
  (* slice [s] into the cyclic chunk sizes — exercises every partial
     header/payload boundary *)
  let n = String.length s in
  let rec go off i =
    if off < n then begin
      let sz = min (List.nth chunks (i mod List.length chunks)) (n - off) in
      Protocol.feed rd (Bytes.of_string (String.sub s off sz)) 0 sz;
      go (off + sz) (i + 1)
    end
  in
  go 0 0

let drain_events rd =
  let rec go acc =
    match Protocol.next rd with
    | Protocol.Frame p -> go (`Frame p :: acc)
    | Protocol.Oversized n -> go (`Oversized n :: acc)
    | Protocol.Await -> List.rev acc
  in
  go []

let event_str = function
  | `Frame p -> Printf.sprintf "frame(%S)" p
  | `Oversized n -> Printf.sprintf "oversized(%d)" n

let events_t =
  Alcotest.testable
    (fun fmt es ->
      Format.pp_print_string fmt (String.concat "; " (List.map event_str es)))
    ( = )

let reader_roundtrip () =
  let rd = Protocol.reader () in
  let payloads = [ "hello"; ""; "{\"op\":\"ping\"}"; String.make 1000 'z' ] in
  feed_all ~chunks:[ 1; 3; 2 ] rd
    (String.concat "" (List.map Protocol.encode_frame payloads));
  Alcotest.check events_t "all frames decoded"
    (List.map (fun p -> `Frame p) payloads)
    (drain_events rd);
  Alcotest.(check bool) "boundary" true (Protocol.at_frame_boundary rd)

let reader_oversized_resync () =
  let rd = Protocol.reader ~max_frame:8 () in
  let stream =
    Protocol.encode_frame "ok1"
    ^ Protocol.encode_frame (String.make 100 'x')
    ^ Protocol.encode_frame "ok2"
  in
  feed_all ~chunks:[ 5 ] rd stream;
  Alcotest.check events_t "oversized reported once, framing recovers"
    [ `Frame "ok1"; `Oversized 100; `Frame "ok2" ]
    (drain_events rd);
  Alcotest.(check bool) "boundary" true (Protocol.at_frame_boundary rd)

let reader_truncation_visible () =
  let rd = Protocol.reader () in
  let whole = Protocol.encode_frame "abcdef" in
  feed_all rd (String.sub whole 0 (String.length whole - 2));
  Alcotest.check events_t "no frame from a cut-off payload" []
    (drain_events rd);
  Alcotest.(check bool) "mid-frame EOF detectable" false
    (Protocol.at_frame_boundary rd)

(* ------------------------------------------------------------------ *)
(* protocol: fuzz *)

let expected_of_clean_script items =
  List.filter_map
    (function
      | Gen.Wire_frame p -> Some (`Frame p)
      | Gen.Wire_oversized n -> Some (`Oversized n)
      | _ -> None)
    items

let fuzz_clean_decode =
  Gen.check_holds "fuzz: chunked decode matches script" ~count:300
    ~print:(fun (s, c) ->
      Printf.sprintf "%s / chunks=%s" (Gen.print_frame_script s)
        (String.concat "," (List.map string_of_int c)))
    QCheck2.Gen.(pair Gen.clean_frame_script Gen.chunk_sizes)
    (fun (script, chunks) ->
      let chunks = if chunks = [] then [ 1 ] else chunks in
      let rd = Protocol.reader ~max_frame:Gen.fuzz_max_frame () in
      feed_all ~chunks rd (Gen.render_frame_script script);
      drain_events rd = expected_of_clean_script script
      && Protocol.at_frame_boundary rd)

let fuzz_reader_total =
  Gen.check_holds "fuzz: reader total on hostile bytes" ~count:300
    ~print:(fun (s, c) ->
      Printf.sprintf "%s / chunks=%s" (Gen.print_frame_script s)
        (String.concat "," (List.map string_of_int c)))
    QCheck2.Gen.(pair Gen.frame_script Gen.chunk_sizes)
    (fun (script, chunks) ->
      let chunks = if chunks = [] then [ 1 ] else chunks in
      let rd = Protocol.reader ~max_frame:Gen.fuzz_max_frame () in
      let stream = Gen.render_frame_script script in
      feed_all ~chunks rd stream;
      (* never raises, terminates, and every decoded frame fits the
         limit the reader was given *)
      List.for_all
        (function
          | `Frame p -> String.length p <= Gen.fuzz_max_frame
          | `Oversized n -> n > Gen.fuzz_max_frame)
        (drain_events rd))

(* ------------------------------------------------------------------ *)
(* admission control *)

let admission_unit () =
  let adm = Admission.create ~max_depth:2 in
  let admit fp r = Admission.try_admit adm ~fingerprint:fp ~request:Json.Null r in
  (match admit "a" 1 with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "first request should be admitted");
  (match admit "a" 2 with
  | Admission.Coalesced j ->
      Alcotest.(check (list int)) "both respondents" [ 2; 1 ] j.respondents
  | _ -> Alcotest.fail "duplicate should coalesce");
  (match admit "b" 3 with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "second distinct request fits");
  (match admit "c" 4 with
  | Admission.Shed hint -> Alcotest.(check bool) "hint > 0" true (hint > 0.)
  | _ -> Alcotest.fail "queue of 2 must shed the third");
  (* the running job keeps coalescing until finished *)
  let running = Option.get (Admission.pop adm) in
  (match admit "a" 5 with
  | Admission.Coalesced _ -> ()
  | _ -> Alcotest.fail "running job should still coalesce");
  Admission.finished adm running ~note_wall_s:0.2;
  (* once finished, "a" no longer coalesces — it re-enters the queue *)
  (match admit "a" 6 with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "finished job must be re-admitted, not coalesced");
  (match admit "d" 7 with
  | Admission.Shed _ -> ()
  | _ -> Alcotest.fail "queue of 2 must shed again once refilled");
  let drained = Admission.drain adm in
  Alcotest.(check int) "drain returns the queue" 2 (List.length drained);
  Alcotest.(check int) "drain empties" 0 (Admission.depth adm)

let admission_capacity () =
  let adm = Admission.create ~max_depth:1 in
  Alcotest.(check int) "default capacity" 1 (Admission.capacity adm);
  (* teach the EWMA a real job duration so prices are above the floor *)
  (match Admission.try_admit adm ~fingerprint:"warm" ~request:Json.Null () with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "warmup admit");
  let j = Option.get (Admission.pop adm) in
  Admission.finished adm j ~note_wall_s:2.0;
  (* refill the queue so further admits shed with a priced hint *)
  (match Admission.try_admit adm ~fingerprint:"full" ~request:Json.Null () with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "refill admit");
  let hint_at n =
    Admission.set_capacity adm n;
    match
      Admission.try_admit adm ~fingerprint:(Printf.sprintf "f%d" n)
        ~request:Json.Null ()
    with
    | Admission.Shed h -> h
    | _ -> Alcotest.fail "full queue must shed"
  in
  let h1 = hint_at 1 in
  let h4 = hint_at 4 in
  let h0 = hint_at 0 in
  let h1' = hint_at 1 in
  Alcotest.(check bool) "live capacity prices the hint" true
    (h4 < h1 && h1 > 0.1);
  Alcotest.(check bool) "zero capacity floors at 1s" true (h0 >= 1.0);
  Alcotest.(check bool)
    "capacity recovery restores the old price" true
    (Float.abs (h1' -. h1) < 1e-9);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Admission.set_capacity: capacity < 0") (fun () ->
      Admission.set_capacity adm (-1))

(* ------------------------------------------------------------------ *)
(* protocol: deadline reads *)

let protocol_read_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () ->
      (* nothing arrives: the deadline fires instead of blocking *)
      let t0 = Unix.gettimeofday () in
      (match
         Protocol.read_frame ~deadline:(t0 +. 0.2) (Protocol.reader ()) a
       with
      | exception Protocol.Timeout -> ()
      | _ -> Alcotest.fail "expected Timeout on a silent peer");
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "waited about the deadline" true
        (waited >= 0.15 && waited < 5.);
      (* a frame arrives in time: delivered, not timed out *)
      Protocol.write_frame b "hello";
      Alcotest.(check (option string))
        "frame beats deadline" (Some "hello")
        (Protocol.read_frame
           ~deadline:(Unix.gettimeofday () +. 5.)
           (Protocol.reader ()) a))

(* ------------------------------------------------------------------ *)
(* verdict cache *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tm_serve_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let cache_roundtrip () =
  let dir = tmp_dir () in
  let c = Cache.create ~dir () in
  Alcotest.(check (option string)) "miss" None (Cache.find c ~fingerprint:"fp1");
  Cache.store c ~fingerprint:"fp1" "verdict-1";
  Alcotest.(check (option string)) "hit" (Some "verdict-1")
    (Cache.find c ~fingerprint:"fp1");
  (* a new process with the same directory sees the verdict *)
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "disk hit" (Some "verdict-1")
    (Cache.find c2 ~fingerprint:"fp1");
  (* same digest file, different fingerprint: not trusted *)
  Alcotest.(check (option string)) "other fp misses" None
    (Cache.find c2 ~fingerprint:"fp2")

let cache_corruption_dropped () =
  let dir = tmp_dir () in
  let c = Cache.create ~dir () in
  Cache.store c ~fingerprint:"fp1" "verdict-1";
  let path = Filename.concat dir (Cache.digest "fp1" ^ ".tmv") in
  Alcotest.(check bool) "stored on disk" true (Sys.file_exists path);
  (* flip a payload byte: CRC must reject, and the entry is deleted *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let b = Bytes.of_string b in
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "corrupt entry is a miss" None
    (Cache.find c2 ~fingerprint:"fp1");
  Alcotest.(check bool) "and is removed" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* forked daemons *)

let fischer_req =
  "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3},\"item\":0}"

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tm_srv_%d_%d.sock" (Unix.getpid ()) !counter)

(* Daemons run as real child processes (their own metrics, their own
   crash domain) via [serve_helper.exe] — [Unix.fork] is forbidden once
   the par suite has spawned domains, so we [create_process] instead. *)
let spawn_server ?(extra = []) cfg =
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "serve_helper.exe"
  in
  let args =
    [
      helper;
      "socket=" ^ cfg.Server.socket_path;
      "queue=" ^ string_of_int cfg.Server.max_queue;
      "max_frame=" ^ string_of_int cfg.Server.max_frame;
      "attempts=" ^ string_of_int cfg.Server.attempts;
      Printf.sprintf "backoff_ms=%g" (cfg.Server.backoff_s *. 1000.);
    ]
    @ (match cfg.Server.state_dir with
      | Some d -> [ "state_dir=" ^ d ]
      | None -> [])
    @ (match cfg.Server.max_deadline_s with
      | Some s -> [ Printf.sprintf "deadline_ms=%g" (s *. 1000.) ]
      | None -> [])
    @ [
        "workers=" ^ string_of_int cfg.Server.workers;
        "quarantine=" ^ string_of_int cfg.Server.quarantine_after;
        Printf.sprintf "hb_timeout_ms=%g" (cfg.Server.hb_timeout_s *. 1000.);
      ]
    @ (match cfg.Server.chaos_kill_every_s with
      | Some s -> [ Printf.sprintf "chaos_kill_ms=%g" (s *. 1000.) ]
      | None -> [])
    @ extra
  in
  let pid =
    Unix.create_process helper (Array.of_list args) Unix.stdin Unix.stdout
      Unix.stderr
  in
  (* wait until the daemon answers a probe connect *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let ok =
      match Unix.connect fd (Unix.ADDR_UNIX cfg.Server.socket_path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if not ok then begin
      Unix.sleepf 0.025;
      wait (n - 1)
    end
  in
  wait 400;
  pid

(* One test-side connection.  The reader must persist across [recv]
   calls: pipelined responses coalesce into one [read], and a
   throwaway reader would silently drop the frames it had already
   buffered — the daemon-side regression that [daemon_pipeline]
   originally caught. *)
type cx = { cfd : Unix.file_descr; crd : Protocol.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a hung daemon must fail the test, not hang the suite *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  { cfd = fd; crd = Protocol.reader () }

let send cx payload = Protocol.write_frame cx.cfd payload
let close_cx cx = try Unix.close cx.cfd with Unix.Unix_error _ -> ()

let recv cx =
  match Protocol.read_frame cx.crd cx.cfd with
  | Some payload -> (
      match Json.of_string payload with
      | Ok doc -> doc
      | Error m -> Alcotest.fail ("response is not JSON: " ^ m))
  | None -> Alcotest.fail "daemon closed before responding"

let status doc = Option.value (Protocol.status_of_response doc) ~default:"?"

let verdict_text doc =
  match Json.member "verdict" doc with
  | Some v -> Json.to_string v
  | None -> Alcotest.fail ("response has no verdict: " ^ Json.to_string doc)

let shutdown_server pid sock =
  (match connect sock with
  | cx ->
      send cx "{\"op\":\"shutdown\"}";
      ignore (Protocol.read_frame cx.crd cx.cfd);
      close_cx cx
  | exception Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* [Some (ppid, zombie)] from /proc/PID/status, [None] once the process
   is gone. *)
let proc_status pid =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | text -> (
      let field name =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | k :: v :: _ when k = name -> Some (String.trim v)
            | _ -> None)
          (String.split_on_char '\n' text)
      in
      match (field "PPid", field "State") with
      | Some ppid, Some state ->
          Some (int_of_string ppid, String.length state > 0 && state.[0] = 'Z')
      | _ -> None)

(* The daemon's worker processes: every live pid whose parent it is. *)
let children_of pid =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some child -> (
             match proc_status child with
             | Some (ppid, false) when ppid = pid -> Some child
             | _ -> None)
         | None -> None)

(* Each process must be gone, or a zombie nobody reaps yet, within 2 s. *)
let check_exited pids =
  let deadline = Unix.gettimeofday () +. 2. in
  let running p =
    match proc_status p with Some (_, false) -> true | _ -> false
  in
  let rec wait () =
    let left = List.filter running pids in
    if left <> [] && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.02;
      wait ()
    end
    else left
  in
  Alcotest.(check (list int)) "no worker process left behind" [] (wait ())

let base_cfg sock =
  {
    (Server.default_config ~socket_path:sock) with
    Server.backoff_s = 0.01;
    max_deadline_s = Some 60.;
  }

(* The regression scenario from bring-up: one pipelined connection
   sending ping + job + duplicate job + stats must get exactly four
   responses, and the duplicate's verdict must be byte-identical
   whether it was coalesced onto the in-flight job or served from the
   cache. *)
let daemon_pipeline () =
  let sock = sock_path () in
  let cfg = { (base_cfg sock) with Server.state_dir = Some (tmp_dir ()) } in
  let pid = spawn_server cfg in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid sock)
    (fun () ->
      let cx = connect sock in
      List.iter (send cx)
        [ "{\"op\":\"ping\"}"; fischer_req; fischer_req; "{\"op\":\"stats\"}" ];
      let replies = List.init 4 (fun _ -> recv cx) in
      close_cx cx;
      let verdicts =
        List.filter_map
          (fun d ->
            if Json.member "verdict" d <> None && Json.member "cached" d <> None
            then Some (verdict_text d)
            else None)
          replies
      in
      Alcotest.(check int) "two job responses" 2 (List.length verdicts);
      (match verdicts with
      | [ a; b ] -> Alcotest.(check string) "byte-identical verdicts" a b
      | _ -> assert false);
      Alcotest.(check (list string))
        "every response structured, none lost"
        [ "ok"; "ok"; "ok"; "ok" ]
        (List.map status replies))

(* Budget exhaustion chains through checkpoints: a per-request zone
   limit far below the fixpoint still verifies, because each supervised
   attempt resumes the previous frontier with a re-based budget — and
   the verdict is byte-identical to an unbudgeted run.  The limit must
   stay below the fixpoint (~337 stored zones) so chaining is actually
   exercised. *)
let daemon_budget_chaining () =
  let run_one ~req =
    let sock = sock_path () in
    let cfg =
      {
        (base_cfg sock) with
        Server.state_dir = Some (tmp_dir ());
        attempts = 6;
      }
    in
    let pid = spawn_server cfg in
    Fun.protect
      ~finally:(fun () -> shutdown_server pid sock)
      (fun () ->
        let cx = connect sock in
        send cx req;
        let doc = recv cx in
        close_cx cx;
        doc)
  in
  let free = run_one ~req:fischer_req in
  let capped =
    run_one
      ~req:
        "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3},\
         \"item\":0,\"limit\":200}"
  in
  Alcotest.(check string) "uncapped verifies" "ok" (status free);
  Alcotest.(check string) "capped verifies via chaining" "ok" (status capped);
  Alcotest.(check string) "identical verdict bytes" (verdict_text free)
    (verdict_text capped)

(* Flood a queue of depth 0: every job is shed with a structured
   UNKNOWN + retry hint, nothing hangs, and the daemon still answers
   pings afterwards. *)
let daemon_sheds_under_flood () =
  let sock = sock_path () in
  let cfg = { (base_cfg sock) with Server.max_queue = 0 } in
  let pid = spawn_server cfg in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid sock)
    (fun () ->
      let cx = connect sock in
      let n = 8 in
      for _ = 1 to n do
        send cx fischer_req
      done;
      let replies = List.init n (fun _ -> recv cx) in
      List.iter
        (fun d ->
          Alcotest.(check string) "shed is unknown" "unknown" (status d);
          Alcotest.(check bool) "carries retry hint" true
            (Json.member "retry_after_s" d <> None))
        replies;
      send cx "{\"op\":\"ping\"}";
      Alcotest.(check string) "alive after flood" "ok" (status (recv cx));
      close_cx cx)

(* Hostile input against a live daemon: framed garbage payloads are
   answered with structured errors on the same connection; raw byte
   vomit and truncated frames at worst kill that one connection — a
   fresh connection always works. *)
let daemon_survives_garbage () =
  let sock = sock_path () in
  let cfg = { (base_cfg sock) with Server.max_frame = 4096 } in
  let pid = spawn_server cfg in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid sock)
    (fun () ->
      let prng = Tm_base.Prng.create 0xFEED in
      let rand_string n =
        String.init n (fun _ -> Char.chr (Tm_base.Prng.int prng 256))
      in
      (* framed garbage: every frame gets exactly one error back *)
      let cx = connect sock in
      for i = 1 to 10 do
        send cx (rand_string (i * 7));
        Alcotest.(check string) "framed garbage answered" "error"
          (status (recv cx))
      done;
      (* an oversized announcement is answered and framing survives *)
      send cx (String.make 5000 'x');
      Alcotest.(check string) "oversized answered" "error" (status (recv cx));
      send cx "{\"op\":\"ping\"}";
      Alcotest.(check string) "same connection usable" "ok" (status (recv cx));
      close_cx cx;
      (* raw unframed bytes, then vanish mid-frame *)
      for i = 1 to 5 do
        let cx = connect sock in
        let junk = rand_string (20 * i) in
        ignore
          (Unix.write cx.cfd (Bytes.of_string junk) 0 (String.length junk));
        close_cx cx
      done;
      let cx = connect sock in
      send cx "{\"op\":\"ping\"}";
      Alcotest.(check string) "daemon alive after byte vomit" "ok"
        (status (recv cx));
      (* malformed requests: structured errors, not crashes *)
      List.iter
        (fun req ->
          send cx req;
          Alcotest.(check string)
            (Printf.sprintf "rejected: %s" req)
            "error" (status (recv cx)))
        [
          "{\"op\":\"warp\"}";
          "{\"system\":\"vax\"}";
          "{\"engine\":\"gpu\"}";
          "{\"system\":\"rm\",\"params\":{\"q\":1}}";
          "{\"system\":\"rm\",\"params\":{\"k\":\"three\"}}";
          "{\"system\":\"rm\",\"item\":99}";
          "{\"system\":\"rm\",\"item\":-1}";
          "{\"op\":\"simulate\",\"strategy\":\"clairvoyant\"}";
          "[1,2,3]";
          (* rm with c1 > c2: constructor validation, contained *)
          "{\"system\":\"rm\",\"params\":{\"c1\":9,\"c2\":1}}";
        ];
      close_cx cx)

(* kill -9 mid-job, restart on the same state dir, resubmit: the
   recovered verdict must be byte-identical to an undisturbed daemon's.
   Whether the kill landed mid-computation (checkpoint or recompute)
   or just after (cache hit) the bytes must not change, and the worker
   the kill orphaned must exit on its own. *)
let daemon_kill9_restart () =
  let state = tmp_dir () in
  let sock = sock_path () in
  let reference =
    let sock = sock_path () in
    let cfg = { (base_cfg sock) with Server.state_dir = Some (tmp_dir ()) } in
    let pid = spawn_server cfg in
    Fun.protect
      ~finally:(fun () -> shutdown_server pid sock)
      (fun () ->
        let cx = connect sock in
        send cx fischer_req;
        let doc = recv cx in
        close_cx cx;
        verdict_text doc)
  in
  let cfg = { (base_cfg sock) with Server.state_dir = Some state } in
  let pid = spawn_server cfg in
  let cx = connect sock in
  send cx fischer_req;
  (* let the job start, then pull the plug — no drain, no checkpoint
     flush beyond what the engine already wrote *)
  Unix.sleepf 0.3;
  let workers = children_of pid in
  Alcotest.(check bool) "daemon has a worker" true (workers <> []);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  check_exited workers;
  close_cx cx;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let pid2 = spawn_server cfg in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid2 sock)
    (fun () ->
      let cx = connect sock in
      send cx fischer_req;
      let doc = recv cx in
      close_cx cx;
      Alcotest.(check string) "recovered verdict" "ok" (status doc);
      Alcotest.(check string) "byte-identical to undisturbed daemon"
        reference (verdict_text doc))

(* SIGTERM mid-job on the default one-worker daemon: the daemon answers
   the in-flight job (UNKNOWN if it had to stop, OK if it won the race),
   drains, unlinks its socket, exits 0 and leaves no worker behind. *)
let daemon_sigterm_drains () =
  let sock = sock_path () in
  let cfg = { (base_cfg sock) with Server.state_dir = Some (tmp_dir ()) } in
  let pid = spawn_server cfg in
  let cx = connect sock in
  send cx fischer_req;
  Unix.sleepf 0.2;
  let workers = children_of pid in
  Alcotest.(check int) "daemon has one worker" 1 (List.length workers);
  Unix.kill pid Sys.sigterm;
  let doc = recv cx in
  Alcotest.(check bool)
    (Printf.sprintf "in-flight job answered (%s)" (status doc))
    true
    (List.mem (status doc) [ "ok"; "unknown" ]);
  close_cx cx;
  let _, exit_status = Unix.waitpid [] pid in
  Alcotest.(check bool) "clean exit" true (exit_status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
  check_exited workers

(* SIGTERM with jobs on workers: in-flight jobs are answered (OK or
   UNKNOWN), the daemon exits 0, the socket is unlinked, and no worker
   process is left behind. *)
let daemon_sigterm_drains_workers () =
  let sock = sock_path () in
  let cfg =
    {
      (base_cfg sock) with
      Server.state_dir = Some (tmp_dir ());
      workers = 2;
    }
  in
  let pid = spawn_server cfg in
  let cx = connect sock in
  send cx fischer_req;
  send cx
    "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3,\"b\":3},\
     \"item\":0}";
  Unix.sleepf 0.2;
  let workers = children_of pid in
  Alcotest.(check int) "daemon has two workers" 2 (List.length workers);
  Unix.kill pid Sys.sigterm;
  let docs = List.init 2 (fun _ -> recv cx) in
  List.iter
    (fun doc ->
      Alcotest.(check bool)
        (Printf.sprintf "in-flight worker job answered (%s)" (status doc))
        true
        (List.mem (status doc) [ "ok"; "unknown" ]))
    docs;
  close_cx cx;
  let _, exit_status = Unix.waitpid [] pid in
  Alcotest.(check bool) "clean exit" true (exit_status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
  check_exited workers

(* ------------------------------------------------------------------ *)
(* worker processes *)

module Workers = Tm_serve.Workers

let test_caps =
  {
    Workers.state_dir = None;
    max_limit = Some 200_000;
    max_deadline_s = Some 60.;
    domains = 1;
    attempts = 3;
    backoff_s = 0.01;
    default_engine = "auto";
  }

let req_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error m -> Alcotest.fail ("bad request literal: " ^ m)

(* Drive a pool directly (this test binary re-execs itself as the
   worker): the verdict that comes back over the socketpair must be
   byte-identical to the shared runner executing in-process. *)
let workers_pool_roundtrip () =
  let requests =
    [
      fischer_req;
      "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":2},\
       \"item\":0}";
    ]
  in
  let inproc =
    List.map
      (fun r ->
        match Workers.execute test_caps (req_json r) with
        | Workers.E_ok v -> Json.to_string v
        | _ -> Alcotest.fail "in-process run must verify")
      requests
  in
  let pool = Workers.create test_caps ~n:2 in
  Fun.protect
    ~finally:(fun () -> Workers.shutdown pool)
    (fun () ->
      let results = Hashtbl.create 4 in
      let todo = ref requests in
      let deadline = Unix.gettimeofday () +. 60. in
      while
        Hashtbl.length results < List.length requests
        && Unix.gettimeofday () < deadline
      do
        (match !todo with
        | r :: rest when Workers.has_idle pool ->
            if Workers.submit pool ~fingerprint:r ~request:(req_json r) r
            then todo := rest
        | _ -> ());
        let handle = function
          | Workers.Completed (r, Workers.E_ok v, _) ->
              Hashtbl.replace results r (Json.to_string v)
          | Workers.Completed (r, _, _) ->
              Alcotest.fail ("worker run must verify: " ^ r)
          | Workers.Crash_retry r -> todo := r :: !todo
          | Workers.Crash_quarantined (r, why) ->
              Alcotest.fail ("unexpected quarantine of " ^ r ^ ": " ^ why)
        in
        (match Unix.select (Workers.fds pool) [] [] 0.02 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
            List.iter
              (fun fd -> List.iter handle (Workers.on_readable pool fd))
              ready);
        List.iter handle (Workers.tick pool)
      done;
      List.iter2
        (fun r expect ->
          match Hashtbl.find_opt results r with
          | Some got ->
              Alcotest.(check string) "pool verdict byte-identical" expect got
          | None -> Alcotest.fail ("pool never answered " ^ r))
        requests inproc)

(* A --workers 2 daemon under a flood of pipelined jobs: every request
   answered, verdicts byte-identical to a one-worker daemon on the same
   mix. *)
let daemon_workers_byte_identical () =
  let mix =
    [
      fischer_req;
      "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":2},\
       \"item\":0}";
      fischer_req (* duplicate: coalesced or cached *);
      "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3,\
       \"b\":3},\"item\":0}";
    ]
  in
  let run_daemon cfg =
    let pid = spawn_server cfg in
    Fun.protect
      ~finally:(fun () -> shutdown_server pid cfg.Server.socket_path)
      (fun () ->
        let cx = connect cfg.Server.socket_path in
        List.iteri
          (fun i r ->
            match Json.of_string r with
            | Ok (Json.Obj kvs) ->
                send cx
                  (Json.to_string (Json.Obj (("id", Json.Int i) :: kvs)))
            | _ -> assert false)
          mix;
        let replies = List.init (List.length mix) (fun _ -> recv cx) in
        close_cx cx;
        (* responses may complete out of order across workers: key them
           back by id *)
        List.map
          (fun doc ->
            match Option.bind (Json.member "id" doc) Json.int_opt with
            | Some id -> (id, (status doc, verdict_text doc))
            | None -> Alcotest.fail "response lost its id")
          replies
        |> List.sort compare)
  in
  let with_workers =
    run_daemon
      {
        (base_cfg (sock_path ())) with
        Server.state_dir = Some (tmp_dir ());
        workers = 2;
      }
  in
  let one_worker =
    run_daemon
      { (base_cfg (sock_path ())) with Server.state_dir = Some (tmp_dir ()) }
  in
  List.iter2
    (fun (id_w, (st_w, v_w)) (id_1, (st_1, v_1)) ->
      Alcotest.(check int) "same response set" id_1 id_w;
      Alcotest.(check string) "same status" st_1 st_w;
      Alcotest.(check string)
        (Printf.sprintf "verdict %d byte-identical across pool sizes" id_w)
        v_1 v_w)
    with_workers one_worker

(* Chaos: a --workers 2 daemon whose workers are SIGKILLed every 150 ms
   mid-flood.  Every job must still be answered OK (crashed jobs are
   resubmitted to fresh workers) and the daemon itself must survive.
   Quarantine is effectively disabled: random murder must not ban
   innocent fingerprints. *)
let daemon_chaos_no_loss () =
  let sock = sock_path () in
  let cfg =
    {
      (base_cfg sock) with
      Server.state_dir = Some (tmp_dir ());
      workers = 2;
      quarantine_after = 1_000_000;
      chaos_kill_every_s = Some 0.15;
    }
  in
  let pid = spawn_server cfg in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid sock)
    (fun () ->
      let cx = connect sock in
      let jobs =
        [
          fischer_req;
          "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":3,\
           \"b\":3},\"item\":0}";
          "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":2},\
           \"item\":0}";
          "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":2,\
           \"b\":3},\"item\":0}";
        ]
      in
      List.iter (send cx) jobs;
      let replies = List.init (List.length jobs) (fun _ -> recv cx) in
      List.iter
        (fun doc ->
          Alcotest.(check string)
            (Printf.sprintf "chaos victim still answered (%s)"
               (Json.to_string doc))
            "ok" (status doc))
        replies;
      send cx "{\"op\":\"ping\"}";
      Alcotest.(check string) "daemon alive after chaos" "ok"
        (status (recv cx));
      close_cx cx)

(* A poison job (the worker SIGKILLs itself on a marker in the payload)
   crashes [quarantine_after] workers, then is quarantined: the pending
   request answers a structured error naming the quarantine, later
   requests for the same fingerprint are refused at admission, and
   other jobs still verify. *)
let daemon_poison_quarantine () =
  let marker = "tm_poison_7f3a" in
  let sock = sock_path () in
  let cfg =
    {
      (base_cfg sock) with
      Server.state_dir = Some (tmp_dir ());
      workers = 1;
      quarantine_after = 2;
    }
  in
  Unix.putenv "TM_WORKER_POISON" marker;
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "TM_WORKER_POISON" "")
      (fun () -> spawn_server cfg)
  in
  Fun.protect
    ~finally:(fun () -> shutdown_server pid sock)
    (fun () ->
      let cx = connect sock in
      let poison_req =
        Printf.sprintf
          "{\"id\":\"%s\",\"op\":\"verify\",\"system\":\"fischer\",\
           \"params\":{\"n\":2},\"item\":0}"
          marker
      in
      send cx poison_req;
      let doc = recv cx in
      Alcotest.(check string) "poison job answered as error" "error"
        (status doc);
      (match Option.bind (Json.member "error" doc) Json.string_opt with
      | Some m ->
          Alcotest.(check bool)
            (Printf.sprintf "error names the quarantine (%s)" m)
            true
            (String.length m >= 11 && String.sub m 0 11 = "quarantined")
      | None -> Alcotest.fail "quarantine error carries no message");
      (* the fingerprint is now banned at the door *)
      send cx poison_req;
      Alcotest.(check string) "refused on arrival" "error" (status (recv cx));
      (* an innocent job with a different fingerprint still verifies *)
      send cx fischer_req;
      Alcotest.(check string) "pool recovered for clean jobs" "ok"
        (status (recv cx));
      close_cx cx)

(* Each computed job's [serve.job] event names the label and op of the
   parse that admitted it: a verify job and a margin job, whose
   duplicates coalesce or hit the cache and so add no event. *)
let daemon_job_events () =
  let sock = sock_path () in
  let events = Filename.temp_file "tm_events" ".ndjson" in
  let margin_req =
    "{\"op\":\"margin\",\"system\":\"fischer\",\"params\":{\"n\":2}}"
  in
  let reqs = [ fischer_req; margin_req; fischer_req; margin_req ] in
  let pid = spawn_server ~extra:[ "events=" ^ events ] (base_cfg sock) in
  Fun.protect
    ~finally:(fun () -> Sys.remove events)
    (fun () ->
      Fun.protect
        ~finally:(fun () -> shutdown_server pid sock)
        (fun () ->
          let cx = connect sock in
          List.iter (send cx) reqs;
          List.iter
            (fun _ -> Alcotest.(check string) "job ok" "ok" (status (recv cx)))
            reqs;
          close_cx cx);
      let str k doc = Option.bind (Json.member k doc) Json.string_opt in
      let jobs =
        In_channel.with_open_text events In_channel.input_lines
        |> List.filter_map (fun line ->
               match Json.of_string line with
               | Ok doc when str "ev" doc = Some "serve.job" ->
                   Some (str "label" doc, str "op" doc, str "status" doc)
               | _ -> None)
      in
      let expected req =
        match Json.of_string req with
        | Error m -> Alcotest.fail m
        | Ok r -> (
            match Tm_serve.Catalog.of_request ~default_engine:"auto" r with
            | Ok j ->
                ( Some j.Tm_serve.Catalog.label,
                  Some j.Tm_serve.Catalog.op,
                  Some "ok" )
            | Error m -> Alcotest.fail m)
      in
      Alcotest.(check (list (triple (option string) (option string)
                               (option string))))
        "one event per computed job, labelled by its request"
        [ expected fischer_req; expected margin_req ]
        jobs)

let suite =
  [
    Alcotest.test_case "protocol: chunked roundtrip" `Quick reader_roundtrip;
    Alcotest.test_case "protocol: oversized reported, framing resyncs" `Quick
      reader_oversized_resync;
    Alcotest.test_case "protocol: truncation visible at EOF" `Quick
      reader_truncation_visible;
    fuzz_clean_decode;
    fuzz_reader_total;
    Alcotest.test_case "admission: coalesce, shed, drain" `Quick
      admission_unit;
    Alcotest.test_case "cache: memory + disk roundtrip" `Quick cache_roundtrip;
    Alcotest.test_case "cache: corruption detected and dropped" `Quick
      cache_corruption_dropped;
    Alcotest.test_case "daemon: pipelined ping/job/dup/stats" `Slow
      daemon_pipeline;
    Alcotest.test_case "daemon: budget chains through checkpoints" `Slow
      daemon_budget_chaining;
    Alcotest.test_case "daemon: flood sheds, never hangs" `Slow
      daemon_sheds_under_flood;
    Alcotest.test_case "daemon: survives garbage, truncation, oversize" `Slow
      daemon_survives_garbage;
    Alcotest.test_case "daemon: kill -9 then restart recovers verdict" `Slow
      daemon_kill9_restart;
    Alcotest.test_case "daemon: SIGTERM drains gracefully" `Slow
      daemon_sigterm_drains;
    Alcotest.test_case "admission: capacity scales shed prices" `Quick
      admission_capacity;
    Alcotest.test_case "protocol: read_frame_deadline times out" `Quick
      protocol_read_deadline;
    Alcotest.test_case "workers: pool verdicts byte-identical" `Slow
      workers_pool_roundtrip;
    Alcotest.test_case "daemon: --workers 2 byte-identical to --workers 1"
      `Slow daemon_workers_byte_identical;
    Alcotest.test_case "daemon: chaos kills lose no job" `Slow
      daemon_chaos_no_loss;
    Alcotest.test_case "daemon: poison job quarantined" `Slow
      daemon_poison_quarantine;
    Alcotest.test_case "daemon: SIGTERM drains worker pool" `Slow
      daemon_sigterm_drains_workers;
    Alcotest.test_case "daemon: job events carry the admitting parse" `Slow
      daemon_job_events;
  ]
