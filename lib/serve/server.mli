(** The verification daemon: a single-threaded [select] loop over a
    Unix-domain stream socket, serving {!Catalog} jobs with admission
    control, verdict caching and crash tolerance.

    {b Life of a request.}  A frame arrives ({!Protocol}), parses to
    JSON, and is dispatched:

    - admin ops ([ping], [stats], [shutdown]) answer immediately;
    - anything malformed — bad JSON, unknown op/system/engine/param,
      oversized frame — answers a structured [status = "error"] frame;
      the daemon never dies on input;
    - a job whose fingerprint is in the verdict {!Cache} answers
      [status = "ok", cached = true] in O(1), with the verdict bytes
      identical to a fresh computation (the cache stores the rendered
      verdict document itself);
    - otherwise the job goes through {!Admission}: coalesced onto an
      identical in-flight job, shed with [status = "unknown"] and a
      [retry_after_s] hint when the queue is full, or enqueued.

    {b Execution.}  Every job runs on a supervised worker process
    ({!Workers}); up to [workers] jobs run at a time, a margin job
    fanning its searches out over [domains].  A crashing or killed job
    costs one worker, never the daemon.  Budgets are the request's,
    clamped to the server's caps.  Each job runs through
    {!Catalog.supervise}
    under {!Catalog.daemon_policy} (see {!Workers.execute_job}):
    worker exceptions are contained and retried, budget exhaustions
    that left a checkpoint chain into the next attempt — the zone
    engine re-bases the limit on restored progress — with
    decorrelated-jitter backoff seeded from the job fingerprint, and
    deterministic failures are answered directly.
    Only definite verdicts are cached.

    {b Crash tolerance.}  SIGTERM/SIGINT inside the loop's
    {!Tm_recover.Supervisor.graceful} scope requests a cooperative
    stop: it is forwarded to the busy workers, each in-flight job
    checkpoints at its next batch boundary and is answered UNKNOWN, queued jobs are drained with
    UNKNOWN-plus-retry answers, the socket is unlinked.  A [kill -9]
    loses nothing durable: verdicts are already on disk, and the
    orphaned checkpoint of the interrupted job is adopted by the next
    run of the same fingerprint (stale or corrupt checkpoints are
    detected by fingerprint/CRC and deleted).

    Every degradation path increments a [serve.*] metric and emits a
    [serve.*] event, so floods and failures are visible live in the
    NDJSON event stream ([--events-out]), in the counters the [stats]
    op returns, and in the [--metrics-out] dump written at exit. *)

type config = {
  socket_path : string;
  state_dir : string option;
      (** verdict cache + checkpoint directory; [None] = memory only,
          losing kill-9 durability but nothing else *)
  max_queue : int;  (** admission queue depth before shedding *)
  max_frame : int;  (** per-frame byte cap (see {!Protocol}) *)
  max_limit : int option;  (** cap and default for per-job zone budgets *)
  max_deadline_s : float option;  (** cap and default for job deadlines *)
  domains : int;  (** domains per margin job; other jobs run on one *)
  attempts : int;  (** supervisor attempts per job *)
  backoff_s : float;  (** retry backoff base *)
  default_engine : string;  (** engine when the request names none *)
  workers : int;  (** worker processes ({!Workers}), at least 1 *)
  quarantine_after : int;
      (** crashes of one fingerprint before it is refused for good *)
  hb_timeout_s : float;  (** worker silence before it is declared wedged *)
  chaos_kill_every_s : float option;
      (** chaos harness: SIGKILL a random worker this often *)
}

val default_config : socket_path:string -> config
(** queue 16, 1 MiB frames, limit 200000 zones, deadline 30 s,
    1 domain, 3 attempts, 0.05 s backoff, engine ["auto"], 1 worker
    (quarantine after 3, 5 s heartbeat timeout, no chaos). *)

exception Already_running of string
(** The socket path is live: another daemon answered a probe connect. *)

val run : config -> unit
(** Serve until [shutdown] or SIGTERM/SIGINT; returns after draining.
    @raise Invalid_argument when [workers < 1], before the socket is
    claimed.
    @raise Already_running instead of taking over a live socket. *)
