module Json = Tm_obs.Json
module Metrics = Tm_obs.Metrics
module Events = Tm_obs.Events
module Supervisor = Tm_recover.Supervisor
module Snapshot = Tm_recover.Snapshot

let c_conns = Metrics.counter "serve.conns"
let c_frames = Metrics.counter "serve.frames"
let c_bad_frame = Metrics.counter "serve.bad_frame"
let c_oversized = Metrics.counter "serve.oversized"
let c_truncated = Metrics.counter "serve.truncated"
let c_rejected = Metrics.counter "serve.rejected"
let c_jobs = Metrics.counter "serve.jobs"
let c_job_ok = Metrics.counter "serve.job_ok"
let c_job_unknown = Metrics.counter "serve.job_unknown"
let c_job_error = Metrics.counter "serve.job_error"
let c_epipe = Metrics.counter "serve.epipe"
let c_drained = Metrics.counter "serve.drained"

type config = {
  socket_path : string;
  state_dir : string option;
  max_queue : int;
  max_frame : int;
  max_limit : int option;
  max_deadline_s : float option;
  domains : int;
  attempts : int;
  backoff_s : float;
  default_engine : string;
  workers : int;
  quarantine_after : int;
  hb_timeout_s : float;
  chaos_kill_every_s : float option;
}

let default_config ~socket_path =
  {
    socket_path;
    state_dir = None;
    max_queue = 16;
    max_frame = Protocol.default_max_frame;
    max_limit = Some 200_000;
    max_deadline_s = Some 30.;
    domains = 1;
    attempts = 3;
    backoff_s = 0.05;
    default_engine = "auto";
    workers = 1;
    quarantine_after = 3;
    hb_timeout_s = 5.;
    chaos_kill_every_s = None;
  }

let caps_of_config cfg =
  {
    Workers.state_dir = cfg.state_dir;
    max_limit = cfg.max_limit;
    max_deadline_s = cfg.max_deadline_s;
    domains = cfg.domains;
    attempts = cfg.attempts;
    backoff_s = cfg.backoff_s;
    default_engine = cfg.default_engine;
  }

exception Already_running of string

(* ------------------------------------------------------------------ *)
(* connections *)

type conn = {
  fd : Unix.file_descr;
  rd : Protocol.reader;
  mutable alive : bool;
}

type respondent = { r_conn : conn; r_id : Json.t option }

(* A job that has been handed to (or is waiting for) a worker process:
   the admission record plus what the completion paths need to account
   it — label/op for the event, submission time for the EWMA. *)
type pending = {
  p_ajob : respondent Admission.job;
  p_label : string;
  p_op : string;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  cache : Cache.t;
  adm : respondent Admission.t;
  workers : pending Workers.t;
  retryq : pending Queue.t;  (** crashed-worker jobs awaiting resubmission *)
  queued : (string, string * string) Hashtbl.t;
      (** label and op of each queued job, by fingerprint, from the parse
          that admitted it *)
  mutable running : bool;
}

let drop_conn t c =
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns
  end

(* A vanished peer is routine, not fatal: detach and count it.  SIGPIPE
   is already ignored ([Supervisor.install_handlers]), so a write to a
   dead socket surfaces as EPIPE here instead of killing the daemon. *)
let respond t (r : respondent) doc =
  if r.r_conn.alive then begin
    let doc =
      match (r.r_id, doc) with
      | Some id, Json.Obj kvs -> Json.Obj (("id", id) :: kvs)
      | _ -> doc
    in
    try Protocol.write_frame r.r_conn.fd (Json.to_string doc)
    with Unix.Unix_error _ | Sys_error _ ->
      Metrics.incr c_epipe;
      Events.emit "serve.conn" [ ("op", Json.String "epipe") ];
      drop_conn t r.r_conn
  end

(* ------------------------------------------------------------------ *)
(* job accounting: execution itself lives in {!Workers.execute_job},
   on a worker process *)

(* Commit a finished job: cache the verdict, bump the counters, emit
   the event.  This runs in the daemon only — workers compute, the
   daemon commits, so a worker dying mid-job can never half-commit. *)
let account_result t ~fingerprint ~label ~op result =
  (match result with
  | Workers.E_ok v ->
      Metrics.incr c_job_ok;
      Cache.store t.cache ~fingerprint (Json.to_string v)
  | Workers.E_unknown _ -> Metrics.incr c_job_unknown
  | Workers.E_error _ -> Metrics.incr c_job_error);
  Events.emit "serve.job"
    [
      ("label", Json.String label);
      ("op", Json.String op);
      ("status",
       Json.String
         (match result with
         | Workers.E_ok _ -> "ok"
         | Workers.E_unknown _ -> "unknown"
         | Workers.E_error _ -> "error"));
    ]

let response_of_result t ?cached result =
  match result with
  | Workers.E_ok v -> Protocol.response ?cached ~verdict:v ~status:"ok" ()
  | Workers.E_unknown reason ->
      Protocol.response ~reason
        ~retry_after_s:(Admission.retry_hint_s t.adm)
        ~status:"unknown" ()
  | Workers.E_error e -> Protocol.response ~error:e ~status:"error" ()

(* ------------------------------------------------------------------ *)
(* dispatch *)

let stats_doc t =
  let snap = Metrics.snapshot () in
  let c name = (name, Json.Int (Metrics.counter_total snap ("serve." ^ name))) in
  Json.Obj
    [
      ("queue_depth", Json.Int (Admission.depth t.adm));
      ("cache_entries", Json.Int (Cache.size t.cache));
      c "conns"; c "frames"; c "admitted"; c "coalesced"; c "shed";
      c "cache_hit"; c "cache_miss"; c "cache_store";
      c "jobs"; c "job_ok"; c "job_unknown"; c "job_error";
      c "bad_frame"; c "oversized"; c "truncated"; c "rejected";
      c "epipe"; c "drained";
      c "worker_spawned"; c "worker_restarted"; c "worker_crashed";
      c "worker_hb_timeout"; c "worker_quarantined"; c "worker_jobs";
      c "worker_retried";
      ("workers_live", Json.Int (Workers.capacity t.workers));
    ]

let handle_request t conn req =
  let r_id = Json.member "id" req in
  let r = { r_conn = conn; r_id } in
  let op =
    match Option.bind (Json.member "op" req) Json.string_opt with
    | Some s -> s
    | None -> "verify"
  in
  match op with
  | "ping" -> respond t r (Protocol.response ~reason:"pong" ~status:"ok" ())
  | "stats" ->
      respond t r (Protocol.response ~verdict:(stats_doc t) ~status:"ok" ())
  | "shutdown" ->
      respond t r (Protocol.response ~reason:"draining" ~status:"ok" ());
      t.running <- false
  | _ -> (
      match Catalog.of_request ~default_engine:t.cfg.default_engine req with
      | Error m ->
          Metrics.incr c_rejected;
          respond t r (Protocol.response ~error:m ~status:"error" ())
      | Ok job -> (
          let fingerprint = job.Catalog.fingerprint in
          match Cache.find t.cache ~fingerprint with
          | Some text ->
              let doc =
                match Json.of_string text with
                | Ok v ->
                    Protocol.response ~cached:true ~verdict:v ~status:"ok" ()
                | Error m ->
                    Protocol.response ~error:("corrupt cache entry: " ^ m)
                      ~status:"error" ()
              in
              respond t r doc
          | None -> (
              match Workers.quarantined t.workers ~fingerprint with
              | Some why ->
                  (* this job killed too many workers: a permanent,
                     structured refusal instead of another crash *)
                  Metrics.incr c_rejected;
                  respond t r (Protocol.response ~error:why ~status:"error" ())
              | None -> (
                  match
                    Admission.try_admit t.adm ~fingerprint ~request:req r
                  with
                  | Admission.Shed hint ->
                      Events.emit "serve.shed"
                        [ ("label", Json.String job.Catalog.label) ];
                      respond t r
                        (Protocol.response ~reason:"queue full"
                           ~retry_after_s:hint ~status:"unknown" ())
                  | Admission.Admitted _ ->
                      (* answered when the job runs *)
                      Hashtbl.replace t.queued fingerprint
                        (job.Catalog.label, job.Catalog.op)
                  | Admission.Coalesced _ -> ()))))

let handle_frame t conn payload =
  Metrics.incr c_frames;
  match Json.of_string payload with
  | Error m ->
      Metrics.incr c_bad_frame;
      respond t
        { r_conn = conn; r_id = None }
        (Protocol.response ~error:("bad json: " ^ m) ~status:"error" ())
  | Ok req -> handle_request t conn req

(* ------------------------------------------------------------------ *)
(* the select loop *)

let read_buf = Bytes.create 65536

let pump_conn t conn =
  let closed =
    match Unix.read conn.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> true
    | n ->
        Protocol.feed conn.rd read_buf 0 n;
        false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  let rec drain () =
    if conn.alive then
      match Protocol.next conn.rd with
      | Protocol.Frame payload ->
          handle_frame t conn payload;
          drain ()
      | Protocol.Oversized n ->
          Metrics.incr c_oversized;
          respond t
            { r_conn = conn; r_id = None }
            (Protocol.response
               ~error:
                 (Printf.sprintf "oversized frame: %d bytes > max %d" n
                    t.cfg.max_frame)
               ~status:"error" ());
          drain ()
      | Protocol.Await -> ()
  in
  drain ();
  if closed then begin
    if not (Protocol.at_frame_boundary conn.rd) then begin
      Metrics.incr c_truncated;
      Events.emit "serve.conn" [ ("op", Json.String "truncated") ]
    end;
    drop_conn t conn
  end

let answer_result t (ajob : respondent Admission.job) result ~wall_s =
  Admission.finished t.adm ajob ~note_wall_s:wall_s;
  let cached = match result with Workers.E_ok _ -> Some false | _ -> None in
  List.iter
    (fun r -> respond t r (response_of_result t ?cached result))
    (List.rev ajob.Admission.respondents)

let drain_queue t ~reason =
  List.iter
    (fun (ajob : respondent Admission.job) ->
      Metrics.incr c_drained;
      List.iter
        (fun r ->
          respond t r
            (Protocol.response ~reason
               ~retry_after_s:(Admission.retry_hint_s t.adm)
               ~status:"unknown" ()))
        (List.rev ajob.Admission.respondents))
    (Admission.drain t.adm);
  Hashtbl.reset t.queued

(* ------------------------------------------------------------------ *)
(* worker plumbing *)

let handle_worker_event t = function
  | Workers.Completed (p, result, wall_s) ->
      account_result t ~fingerprint:p.p_ajob.Admission.fingerprint
        ~label:p.p_label ~op:p.p_op result;
      answer_result t p.p_ajob result ~wall_s
  | Workers.Crash_retry p ->
      (* the worker died holding this job; it goes to the front of the
         line so a coalesced crowd is not starved by fresh admissions *)
      Events.emit "serve.job"
        [
          ("label", Json.String p.p_label);
          ("op", Json.String p.p_op);
          ("status", Json.String "worker_crash_retry");
        ];
      Queue.push p t.retryq
  | Workers.Crash_quarantined (p, why) ->
      Metrics.incr c_job_error;
      Events.emit "serve.job"
        [
          ("label", Json.String p.p_label);
          ("op", Json.String p.p_op);
          ("status", Json.String "quarantined");
        ];
      answer_result t p.p_ajob (Workers.E_error why) ~wall_s:(-1.)

(* Keep idle workers fed: crashed-job retries first, then the admission
   queue.  A job whose submission fails (the chosen worker died under
   us) stays pending for the next tick. *)
let dispatch_to_workers t =
  let pool = t.workers in
  let rec go () =
    if Workers.has_idle pool then
      if not (Queue.is_empty t.retryq) then begin
        let p = Queue.pop t.retryq in
        if
          Workers.submit pool ~fingerprint:p.p_ajob.Admission.fingerprint
            ~request:p.p_ajob.Admission.request p
        then go ()
        else Queue.push p t.retryq
      end
      else
        match Admission.pop t.adm with
        | None -> ()
        | Some ajob ->
            let fingerprint = ajob.Admission.fingerprint in
            let p_label, p_op = Hashtbl.find t.queued fingerprint in
            Hashtbl.remove t.queued fingerprint;
            Metrics.incr c_jobs;
            let p = { p_ajob = ajob; p_label; p_op } in
            if
              Workers.submit pool ~fingerprint
                ~request:ajob.Admission.request p
            then go ()
            else Queue.push p t.retryq
  in
  go ()

(* SIGTERM with jobs on workers: forward the stop so each in-flight job
   checkpoints at its next batch boundary and answers UNKNOWN, wait out
   the stragglers, then answer whatever is left. *)
let drain_workers t ~reason =
  let pool = t.workers in
  Workers.interrupt_busy pool;
  let deadline =
    Unix.gettimeofday ()
    +. Option.value ~default:30. t.cfg.max_deadline_s
    +. 5.
  in
  let rec wait () =
    if Workers.busy_count pool > 0 && Unix.gettimeofday () < deadline then begin
      (match Unix.select (Workers.fds pool) [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              List.iter (handle_worker_event t) (Workers.on_readable pool fd))
            ready);
      wait ()
    end
  in
  wait ();
  (* anything still on a wedged worker, plus crashed jobs that never
     got resubmitted: answered, not dropped *)
  let answer_pending p =
    Metrics.incr c_drained;
    List.iter
      (fun r ->
        respond t r
          (Protocol.response ~reason
             ~retry_after_s:(Admission.retry_hint_s t.adm)
             ~status:"unknown" ()))
      (List.rev p.p_ajob.Admission.respondents)
  in
  Queue.iter answer_pending t.retryq;
  Queue.clear t.retryq;
  List.iter answer_pending (Workers.drain_busy pool);
  Workers.shutdown pool

let loop t =
  while t.running && not (Supervisor.interrupt_requested ()) do
    let wfds = Workers.fds t.workers in
    let fds = (t.listen_fd :: wfds) @ List.map (fun c -> c.fd) t.conns in
    (match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.listen_fd then begin
              match Unix.accept ~cloexec:true t.listen_fd with
              | cfd, _ ->
                  Metrics.incr c_conns;
                  t.conns <-
                    { fd = cfd;
                      rd = Protocol.reader ~max_frame:t.cfg.max_frame ();
                      alive = true }
                    :: t.conns
              | exception Unix.Unix_error _ -> ()
            end
            else if List.exists (fun wfd -> wfd = fd) wfds then
              List.iter (handle_worker_event t)
                (Workers.on_readable t.workers fd)
            else
              match List.find_opt (fun c -> c.fd = fd) t.conns with
              | Some conn -> pump_conn t conn
              | None -> ())
          ready);
    List.iter (handle_worker_event t) (Workers.tick t.workers);
    Admission.set_capacity t.adm (Workers.capacity t.workers);
    dispatch_to_workers t
  done;
  let reason =
    if Supervisor.interrupt_requested () then "interrupted: daemon shutting down"
    else "daemon shutting down"
  in
  drain_queue t ~reason;
  drain_workers t ~reason

(* ------------------------------------------------------------------ *)
(* lifecycle *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then raise (Already_running path);
    (* a stale socket from a killed daemon: reclaim it *)
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let run (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Server.run: workers < 1";
  Supervisor.install_handlers ();
  Option.iter mkdir_p cfg.state_dir;
  (* a kill -9 between a checkpoint's temp write and its rename leaks
     the temp file; long-lived daemons sweep the debris on startup *)
  Option.iter
    (fun d ->
      let swept = Snapshot.sweep_temps d in
      if swept > 0 then
        Events.emit "serve.sweep"
          [ ("dir", Json.String d); ("removed", Json.Int swept) ])
    cfg.state_dir;
  claim_socket cfg.socket_path;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let workers =
    Workers.create ?chaos_kill_every_s:cfg.chaos_kill_every_s
      ~hb_timeout_s:cfg.hb_timeout_s ~quarantine_after:cfg.quarantine_after
      (caps_of_config cfg) ~n:cfg.workers
  in
  let t =
    {
      cfg;
      listen_fd;
      conns = [];
      cache =
        Cache.create
          ?dir:(Option.map (fun d -> Filename.concat d "cache") cfg.state_dir)
          ();
      adm = Admission.create ~max_depth:cfg.max_queue;
      workers;
      retryq = Queue.create ();
      queued = Hashtbl.create 16;
      running = true;
    }
  in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Events.emit "serve.start"
    [
      ("socket", Json.String cfg.socket_path);
      ("queue", Json.Int cfg.max_queue);
      ("workers", Json.Int cfg.workers);
    ];
  Fun.protect
    ~finally:(fun () ->
      (* belt and braces: on every exit path — including an escalated
         second signal — no worker process outlives the daemon *)
      (try Workers.shutdown t.workers with _ -> ());
      List.iter (fun c -> drop_conn t c) t.conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
      Events.emit "serve.stop" [ ("socket", Json.String cfg.socket_path) ])
    (fun () -> Supervisor.graceful (fun () -> loop t))
