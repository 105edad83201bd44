module Json = Tm_obs.Json
module Metrics = Tm_obs.Metrics
module Events = Tm_obs.Events
module Prng = Tm_base.Prng
module Supervisor = Tm_recover.Supervisor
module Snapshot = Tm_recover.Snapshot
module Reach = Tm_zones.Reach

let c_spawned = Metrics.counter "serve.worker_spawned"
let c_restarted = Metrics.counter "serve.worker_restarted"
let c_crashed = Metrics.counter "serve.worker_crashed"
let c_hb_timeout = Metrics.counter "serve.worker_hb_timeout"
let c_quarantined = Metrics.counter "serve.worker_quarantined"
let c_jobs = Metrics.counter "serve.worker_jobs"
let c_retried = Metrics.counter "serve.worker_retried"
let g_live = Metrics.gauge "serve.workers_live"

(* ------------------------------------------------------------------ *)
(* execution caps, shipped to workers through the environment *)

type caps = {
  state_dir : string option;
  max_limit : int option;
  max_deadline_s : float option;
  domains : int;
  attempts : int;
  backoff_s : float;
  default_engine : string;
}

let caps_to_json c =
  Json.Obj
    [
      ("state_dir",
       match c.state_dir with Some d -> Json.String d | None -> Json.Null);
      ("max_limit",
       match c.max_limit with Some n -> Json.Int n | None -> Json.Null);
      ("max_deadline_s",
       match c.max_deadline_s with Some f -> Json.Float f | None -> Json.Null);
      ("domains", Json.Int c.domains);
      ("attempts", Json.Int c.attempts);
      ("backoff_s", Json.Float c.backoff_s);
      ("default_engine", Json.String c.default_engine);
    ]

let caps_of_json j =
  let m k = Json.member k j in
  let num_opt v =
    match v with
    | Some (Json.Int n) -> Some (float_of_int n)
    | Some (Json.Float f) -> Some f
    | _ -> None
  in
  {
    state_dir = Option.bind (m "state_dir") Json.string_opt;
    max_limit = Option.bind (m "max_limit") Json.int_opt;
    max_deadline_s = num_opt (m "max_deadline_s");
    domains =
      Option.value ~default:1 (Option.bind (m "domains") Json.int_opt);
    attempts =
      Option.value ~default:3 (Option.bind (m "attempts") Json.int_opt);
    backoff_s = Option.value ~default:0.05 (num_opt (m "backoff_s"));
    default_engine =
      Option.value ~default:"auto"
        (Option.bind (m "default_engine") Json.string_opt);
  }

(* ------------------------------------------------------------------ *)
(* running one job: what a worker does with each shipped request, and
   the in-process reference the tests and bench E18 compare it with *)

type exec_result = E_ok of Json.t | E_unknown of string | E_error of string

let clamp_limit cap req =
  match (cap, req) with
  | None, r -> r
  | Some c, None -> Some c
  | Some c, Some r -> Some (min c (max 1 r))

let clamp_deadline cap req =
  match (cap, req) with
  | None, r -> r
  | Some c, None -> Some c
  | Some c, Some r -> Some (Float.min c (Float.max 0.01 r))

let checkpoint_path caps fingerprint =
  Option.map
    (fun d -> Filename.concat d (Cache.digest fingerprint ^ ".ckpt"))
    caps.state_dir

(* Adopt a checkpoint a killed process left behind — but only one that
   provably belongs to this job (fingerprint match) and is readable
   (CRC); anything else is deleted, not trusted. *)
let stale_checkpoint caps fingerprint =
  match checkpoint_path caps fingerprint with
  | Some p when Sys.file_exists p -> (
      match Snapshot.inspect p with
      | fp, _info when String.equal fp fingerprint -> Some p
      | _ ->
          (try Sys.remove p with Sys_error _ -> ());
          None
      | exception Snapshot.Bad_snapshot _ ->
          (try Sys.remove p with Sys_error _ -> ());
          None)
  | _ -> None

let execute_job caps (job : Json.t Catalog.job) =
  let fp = job.Catalog.fingerprint in
  match
    Catalog.supervise Catalog.daemon_policy ~attempts:caps.attempts
      ~backoff_s:caps.backoff_s ~domains:caps.domains
      ?limit:(clamp_limit caps.max_limit job.req_limit)
      ?deadline_s:(clamp_deadline caps.max_deadline_s job.req_deadline_s)
      ?checkpoint:(Option.map (fun p -> (p, 512)) (checkpoint_path caps fp))
      ?resume:(stale_checkpoint caps fp) job
  with
  | Ok v -> E_ok v
  | Error (`Exhausted e) -> E_unknown e.Reach.reason
  | Error (`Crashed m) -> E_error m

let execute caps request =
  match Catalog.of_request ~default_engine:caps.default_engine request with
  | Error m -> E_error m
  | Ok job -> execute_job caps job
  | exception ex -> E_error (Printexc.to_string ex)

(* ------------------------------------------------------------------ *)
(* worker wire protocol (frames on the socketpair) *)

let result_to_json = function
  | E_ok v ->
      Json.Obj
        [ ("op", Json.String "result"); ("status", Json.String "ok");
          ("doc", v) ]
  | E_unknown m ->
      Json.Obj
        [ ("op", Json.String "result"); ("status", Json.String "unknown");
          ("msg", Json.String m) ]
  | E_error m ->
      Json.Obj
        [ ("op", Json.String "result"); ("status", Json.String "error");
          ("msg", Json.String m) ]

let result_of_json j =
  match Option.bind (Json.member "status" j) Json.string_opt with
  | Some "ok" -> (
      match Json.member "doc" j with
      | Some v -> Some (E_ok v)
      | None -> None)
  | Some "unknown" ->
      Some
        (E_unknown
           (Option.value ~default:"unknown"
              (Option.bind (Json.member "msg" j) Json.string_opt)))
  | Some "error" ->
      Some
        (E_error
           (Option.value ~default:"error"
              (Option.bind (Json.member "msg" j) Json.string_opt)))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* worker side: re-exec'd child serving jobs over fd 0 *)

let env_flag = "TM_SERVE_WORKER"
let env_caps = "TM_SERVE_WORKER_CAPS"
let env_poison = "TM_WORKER_POISON"

let hb_interval_s = 0.25
let default_hb_timeout_s = 5.0

(* All frame writes to the parent go through one mutex: the heartbeat
   domain and the job loop must never interleave bytes mid-frame. *)
let worker_write_frame =
  let m = Mutex.create () in
  fun fd payload ->
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () -> Protocol.write_frame fd payload)

let worker_send fd doc =
  try worker_write_frame fd (Json.to_string doc)
  with Unix.Unix_error _ | Sys_error _ ->
    (* the parent is gone: an orphan worker terminates itself instead
       of computing for nobody *)
    Unix._exit 0

let rec read_retry fd buf =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf

let worker_main () =
  let fd = Unix.stdin in
  let caps =
    match Sys.getenv_opt env_caps with
    | None -> exit 12
    | Some s -> (
        match Json.of_string s with
        | Ok j -> caps_of_json j
        | Error _ -> exit 12)
  in
  let poison =
    match Sys.getenv_opt env_poison with
    | Some "" | None -> None
    | Some m -> Some m
  in
  Supervisor.install_handlers ();
  (* A detached heartbeat: liveness stays visible even while a job
     monopolizes the main domain's OCaml code for seconds.  EPIPE on a
     heartbeat means the parent died — the orphan exits. *)
  let (_ : unit Domain.t) =
    Domain.spawn (fun () ->
        let hb = Json.to_string (Json.Obj [ ("op", Json.String "hb") ]) in
        let rec beat () =
          Unix.sleepf hb_interval_s;
          (match worker_write_frame fd hb with
          | () -> ()
          | exception (Unix.Unix_error _ | Sys_error _) -> Unix._exit 0);
          beat ()
        in
        beat ())
  in
  worker_send fd
    (Json.Obj
       [ ("op", Json.String "ready"); ("pid", Json.Int (Unix.getpid ())) ]);
  let rd = Protocol.reader () in
  let buf = Bytes.create 65536 in
  let rec pump () =
    match Protocol.next rd with
    | Protocol.Frame payload ->
        (match poison with
        | Some marker
          when marker <> ""
               && (let ml = String.length marker in
                   let pl = String.length payload in
                   let rec scan i =
                     i + ml <= pl
                     && (String.sub payload i ml = marker || scan (i + 1))
                   in
                   scan 0) ->
            (* test hook: this payload is poison — die like a real
               kernel bug would, abruptly *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | _ -> ());
        (match Json.of_string payload with
        | Error _ -> exit 13
        | Ok j -> (
            match Option.bind (Json.member "op" j) Json.string_opt with
            | Some "quit" -> exit 0
            | Some "job" -> (
                match Json.member "request" j with
                | None -> exit 13
                | Some request ->
                    Supervisor.clear_interrupt ();
                    let result =
                      Supervisor.graceful (fun () -> execute caps request)
                    in
                    worker_send fd (result_to_json result))
            | _ -> exit 13));
        pump ()
    | Protocol.Oversized _ -> exit 13
    | Protocol.Await -> (
        match read_retry fd buf with
        | 0 -> exit 0 (* parent closed: clean retirement *)
        | n ->
            Protocol.feed rd buf 0 n;
            pump ())
  in
  pump ()

let maybe_worker_main () =
  match Sys.getenv_opt env_flag with
  | Some "1" -> ( try worker_main () with _ -> exit 14)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* parent side: the supervised pool *)

type 'a busy = {
  b_fingerprint : string;
  b_payload : 'a;
  b_started : float;
}

type 'a slot_state =
  | Starting
  | Idle
  | Busy of 'a busy
  | Dead of float  (** respawn not before *)

type 'a slot = {
  idx : int;
  mutable pid : int;
  mutable fd : Unix.file_descr;
  mutable rd : Protocol.reader;
  mutable state : 'a slot_state;
  mutable hb_deadline : float;
  backoff : Supervisor.Backoff.t;
}

type 'a event =
  | Completed of 'a * exec_result * float
  | Crash_retry of 'a
  | Crash_quarantined of 'a * string

type 'a t = {
  caps : caps;
  caps_env : string;
  hb_timeout_s : float;
  quarantine_after : int;
  slots : 'a slot array;
  read_buf : Bytes.t;
      (** shared by every worker fd: the pool is driven from a single
          domain, and [Protocol.feed] copies what it keeps *)
  crash_counts : (string, int) Hashtbl.t;  (** fingerprint -> crashes *)
  quarantine : (string, string) Hashtbl.t;  (** fingerprint -> reason *)
  chaos_every_s : float option;
  chaos_prng : Prng.t;
  mutable next_chaos : float;
  mutable unreaped : int list;
}

let live_count t =
  Array.fold_left
    (fun n s -> match s.state with Dead _ -> n | _ -> n + 1)
    0 t.slots

let set_live_gauge t = Metrics.set g_live (float_of_int (live_count t))

let filtered_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         not
           (String.length kv >= String.length env_flag
           && String.sub kv 0 (String.length env_flag) = env_flag))

let spawn t slot =
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_close_on_exec parent_fd;
  let env =
    Array.of_list
      (filtered_env () @ [ env_flag ^ "=1"; env_caps ^ "=" ^ t.caps_env ])
  in
  (* The child talks frames on fd 0 (the socketpair is bidirectional);
     its stdout is pointed at our stderr so a stray [print_string]
     anywhere in the engine can never corrupt the framing. *)
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env child_fd Unix.stderr Unix.stderr
  in
  (try Unix.close child_fd with Unix.Unix_error _ -> ());
  slot.pid <- pid;
  slot.fd <- parent_fd;
  slot.rd <- Protocol.reader ();
  slot.state <- Starting;
  slot.hb_deadline <- Unix.gettimeofday () +. t.hb_timeout_s;
  Metrics.incr c_spawned;
  set_live_gauge t;
  Events.emit "serve.worker"
    [
      ("op", Json.String "spawn");
      ("slot", Json.Int slot.idx);
      ("pid", Json.Int pid);
    ]

let create ?chaos_kill_every_s ?(hb_timeout_s = default_hb_timeout_s)
    ?(quarantine_after = 3) caps ~n =
  if n < 1 then invalid_arg "Workers.create: n < 1";
  if quarantine_after < 1 then
    invalid_arg "Workers.create: quarantine_after < 1";
  let t =
    {
      caps;
      caps_env = Json.to_string (caps_to_json caps);
      hb_timeout_s;
      quarantine_after;
      slots =
        Array.init n (fun idx ->
            {
              idx;
              pid = 0;
              fd = Unix.stdin;
              rd = Protocol.reader ();
              state = Dead 0.;
              hb_deadline = infinity;
              backoff =
                Supervisor.Backoff.create
                  ~jitter:(Prng.create (0x5EED + idx))
                  ~max_s:5.0 ~base_s:0.05 ();
            });
      read_buf = Bytes.create 65536;
      crash_counts = Hashtbl.create 16;
      quarantine = Hashtbl.create 4;
      chaos_every_s = chaos_kill_every_s;
      chaos_prng = Prng.create 0xC4A05;
      next_chaos =
        (match chaos_kill_every_s with
        | Some s -> Unix.gettimeofday () +. s
        | None -> infinity);
      unreaped = [];
    }
  in
  Array.iter (fun slot -> spawn t slot) t.slots;
  t

let fds t =
  Array.fold_left
    (fun acc s -> match s.state with Dead _ -> acc | _ -> s.fd :: acc)
    [] t.slots

let capacity = live_count

let has_idle t =
  Array.exists (fun s -> match s.state with Idle -> true | _ -> false) t.slots

let busy_count t =
  Array.fold_left
    (fun n s -> match s.state with Busy _ -> n + 1 | _ -> n)
    0 t.slots

let quarantined t ~fingerprint = Hashtbl.find_opt t.quarantine fingerprint

(* A dead worker: close our end, account the in-flight job (if any) as
   a crash, and park the slot on the backoff schedule.  The job is
   either handed back for a retry or — after [quarantine_after] crashes
   of the same fingerprint — quarantined for good, so one poison job
   cannot grind the pool down forever. *)
let mark_dead t slot ~reason =
  (try Unix.close slot.fd with Unix.Unix_error _ -> ());
  if slot.pid > 0 then begin
    (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (match Unix.waitpid [ Unix.WNOHANG ] slot.pid with
    | 0, _ -> t.unreaped <- slot.pid :: t.unreaped
    | _ -> ()
    | exception Unix.Unix_error _ -> ())
  end;
  let events =
    match slot.state with
    | Busy b ->
        Metrics.incr c_crashed;
        let n =
          1
          + Option.value ~default:0
              (Hashtbl.find_opt t.crash_counts b.b_fingerprint)
        in
        Hashtbl.replace t.crash_counts b.b_fingerprint n;
        if n >= t.quarantine_after then begin
          let why =
            Printf.sprintf
              "quarantined: crashed %d worker(s) (last: %s) — refusing to \
               run again"
              n reason
          in
          Hashtbl.replace t.quarantine b.b_fingerprint why;
          Metrics.incr c_quarantined;
          Events.emit "serve.worker"
            [
              ("op", Json.String "quarantine");
              ("fingerprint", Json.String b.b_fingerprint);
              ("crashes", Json.Int n);
            ];
          [ Crash_quarantined (b.b_payload, why) ]
        end
        else begin
          Metrics.incr c_retried;
          [ Crash_retry b.b_payload ]
        end
    | Starting | Idle | Dead _ -> []
  in
  let delay = Supervisor.Backoff.next slot.backoff in
  slot.pid <- 0;
  slot.state <- Dead (Unix.gettimeofday () +. delay);
  slot.hb_deadline <- infinity;
  set_live_gauge t;
  Events.emit "serve.worker"
    [
      ("op", Json.String "dead");
      ("slot", Json.Int slot.idx);
      ("reason", Json.String reason);
      ("respawn_in_s", Json.Float delay);
    ];
  events

let submit t ~fingerprint ~request payload =
  let rec find i =
    if i >= Array.length t.slots then None
    else
      match t.slots.(i).state with
      | Idle -> Some t.slots.(i)
      | _ -> find (i + 1)
  in
  match find 0 with
  | None -> false
  | Some slot -> (
      let doc =
        Json.Obj [ ("op", Json.String "job"); ("request", request) ]
      in
      match Protocol.write_frame slot.fd (Json.to_string doc) with
      | () ->
          Metrics.incr c_jobs;
          slot.state <-
            Busy
              {
                b_fingerprint = fingerprint;
                b_payload = payload;
                b_started = Unix.gettimeofday ();
              };
          true
      | exception (Unix.Unix_error _ | Sys_error _) ->
          (* died between select rounds; the caller retries elsewhere *)
          ignore (mark_dead t slot ~reason:"write failed");
          false)

let handle_frame t slot payload =
  slot.hb_deadline <- Unix.gettimeofday () +. t.hb_timeout_s;
  match Json.of_string payload with
  | Error _ -> mark_dead t slot ~reason:"garbage frame from worker"
  | Ok j -> (
      match Option.bind (Json.member "op" j) Json.string_opt with
      | Some "hb" -> []
      | Some "ready" ->
          (match slot.state with
          | Starting ->
              Supervisor.Backoff.reset slot.backoff;
              slot.state <- Idle
          | _ -> ());
          []
      | Some "result" -> (
          match (slot.state, result_of_json j) with
          | Busy b, Some r ->
              slot.state <- Idle;
              Supervisor.Backoff.reset slot.backoff;
              Hashtbl.remove t.crash_counts b.b_fingerprint;
              [ Completed
                  (b.b_payload, r, Unix.gettimeofday () -. b.b_started) ]
          | _ -> mark_dead t slot ~reason:"unsolicited result")
      | _ -> mark_dead t slot ~reason:"unknown frame op from worker")

let on_readable t fd =
  match
    Array.find_opt
      (fun s ->
        match s.state with Dead _ -> false | _ -> s.fd = fd)
      t.slots
  with
  | None -> []
  | Some slot -> (
      match Unix.read slot.fd t.read_buf 0 (Bytes.length t.read_buf) with
      | 0 -> mark_dead t slot ~reason:"eof"
      | n ->
          Protocol.feed slot.rd t.read_buf 0 n;
          let rec drain acc =
            match slot.state with
            | Dead _ -> acc
            | _ -> (
                match Protocol.next slot.rd with
                | Protocol.Frame p -> drain (acc @ handle_frame t slot p)
                | Protocol.Oversized _ ->
                    acc @ mark_dead t slot ~reason:"oversized worker frame"
                | Protocol.Await -> acc)
          in
          drain []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | exception Unix.Unix_error _ ->
          mark_dead t slot ~reason:"read failed")

let reap t =
  t.unreaped <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false)
      t.unreaped

let tick t =
  let now = Unix.gettimeofday () in
  reap t;
  let events = ref [] in
  Array.iter
    (fun slot ->
      match slot.state with
      | Dead not_before ->
          if now >= not_before then begin
            Metrics.incr c_restarted;
            spawn t slot
          end
      | Starting | Idle | Busy _ ->
          (* a worker that stopped heartbeating is as good as dead:
             SIGKILL it and let the crash path take over *)
          (match Unix.waitpid [ Unix.WNOHANG ] slot.pid with
          | 0, _ ->
              if now > slot.hb_deadline then begin
                Metrics.incr c_hb_timeout;
                events :=
                  !events @ mark_dead t slot ~reason:"heartbeat timeout"
              end
          | _ -> events := !events @ mark_dead t slot ~reason:"exited"
          | exception Unix.Unix_error _ ->
              events := !events @ mark_dead t slot ~reason:"exited"))
    t.slots;
  (* chaos: murder a random worker on a timer, preferring one that is
     mid-job — the whole point is proving no job is ever lost *)
  (match t.chaos_every_s with
  | Some every when now >= t.next_chaos ->
      t.next_chaos <- now +. every;
      let victims =
        let busy =
          Array.to_list t.slots
          |> List.filter (fun s ->
                 match s.state with Busy _ -> true | _ -> false)
        in
        if busy <> [] then busy
        else
          Array.to_list t.slots
          |> List.filter (fun s ->
                 match s.state with Dead _ -> false | _ -> true)
      in
      (match victims with
      | [] -> ()
      | vs ->
          let v = Prng.pick t.chaos_prng vs in
          Events.emit "serve.worker"
            [
              ("op", Json.String "chaos_kill");
              ("slot", Json.Int v.idx);
              ("pid", Json.Int v.pid);
            ];
          try Unix.kill v.pid Sys.sigkill with Unix.Unix_error _ -> ())
  | _ -> ());
  !events

let interrupt_busy t =
  Array.iter
    (fun slot ->
      match slot.state with
      | Busy _ -> (
          try Unix.kill slot.pid Sys.sigterm with Unix.Unix_error _ -> ())
      | _ -> ())
    t.slots

let drain_busy t =
  Array.fold_left
    (fun acc s ->
      match s.state with
      | Busy b ->
          s.state <- Idle;
          b.b_payload :: acc
      | _ -> acc)
    [] t.slots
  |> List.rev

let shutdown t =
  let quit = Json.to_string (Json.Obj [ ("op", Json.String "quit") ]) in
  Array.iter
    (fun slot ->
      match slot.state with
      | Dead _ -> ()
      | _ -> (
          (try Protocol.write_frame slot.fd quit
           with Unix.Unix_error _ | Sys_error _ -> ());
          try Unix.close slot.fd with Unix.Unix_error _ -> ()))
    t.slots;
  (* a short grace for voluntary exits, then the hammer *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let pids =
    List.filter
      (fun p -> p > 0)
      (t.unreaped
      @ Array.to_list
          (Array.map
             (fun s -> match s.state with Dead _ -> 0 | _ -> s.pid)
             t.slots))
  in
  let rec wait_all pending =
    if pending <> [] then begin
      let pending =
        List.filter
          (fun pid ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false)
          pending
      in
      if pending <> [] then
        if Unix.gettimeofday () >= deadline then begin
          List.iter
            (fun pid ->
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            pending;
          List.iter
            (fun pid ->
              try ignore (Unix.waitpid [] pid)
              with Unix.Unix_error _ -> ())
            pending
        end
        else begin
          Unix.sleepf 0.02;
          wait_all pending
        end
    end
  in
  wait_all pids;
  t.unreaped <- [];
  Array.iter
    (fun s ->
      s.pid <- 0;
      s.state <- Dead infinity)
    t.slots;
  set_live_gauge t
