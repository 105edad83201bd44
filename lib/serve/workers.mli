(** Crash-isolated worker processes for the verification daemon.

    The daemon runs no job in its own address space: it keeps a pool
    of [N >= 1] ([--workers N]) long-lived child processes
    (re-executions of the current binary, flagged through the
    environment) and ships each admitted job to an idle worker as a
    length-prefixed JSON frame over a private socketpair.  A job that
    segfaults, OOMs, or is [kill -9]ed takes down one worker — never
    the daemon, never the other [N-1] jobs in flight.

    {b Topology.}  Each worker talks frames bidirectionally on its fd 0
    (the child end of the socketpair); its stdout and stderr point at
    the daemon's stderr, so a stray [print_string] in engine code can
    never corrupt the framing.  The parent end is close-on-exec, so
    workers do not inherit each other's channels (a dead worker's EOF
    arrives promptly).

    {b Liveness.}  Workers heartbeat from a dedicated domain every
    ~250 ms, so the parent distinguishes "computing for seconds" from
    "wedged": no frame of any kind within [hb_timeout_s] ⇒ SIGKILL and
    the crash path.  Deaths are also caught by [waitpid] polling and by
    EOF on the socketpair — whichever fires first.

    {b Supervision.}  A dead slot respawns on a
    {!Tm_recover.Supervisor.Backoff} decorrelated-jitter schedule
    (reset once the replacement reports ready).  The job a worker died
    holding is handed back to the caller as {!event.Crash_retry} — or,
    after [quarantine_after] crashes attributed to the same job
    fingerprint, as {!event.Crash_quarantined}: a poison job is refused
    forever rather than allowed to grind the pool down.  Crash counts
    reset when a fingerprint completes normally.

    {b Orphans.}  A worker whose parent vanished (heartbeat write hits
    EPIPE, or EOF on fd 0) exits on its own; [kill -9] of the daemon
    leaves no stray compute.

    {b Determinism.}  Workers compute; only the parent commits —
    caching, metrics accounting and event emission for job outcomes
    stay in the daemon, and the verdict document travels as structured
    JSON whose canonical re-rendering is byte-identical to running
    {!execute} in-process. *)

type caps = {
  state_dir : string option;
  max_limit : int option;
  max_deadline_s : float option;
  domains : int;
  attempts : int;
  backoff_s : float;
  default_engine : string;
}
(** The execution half of the server's config — everything a worker
    needs to run a job.  Shipped to workers as JSON through the
    environment. *)

type exec_result = E_ok of Tm_obs.Json.t | E_unknown of string | E_error of string

val execute : caps -> Tm_obs.Json.t -> exec_result
(** Parse a request through {!Catalog} and run it with {!execute_job}:
    the path workers take on shipped jobs, and the in-process
    reference the tests and bench E18 compare the pool against.  Never
    raises: parse failures and contained crashes come back as
    [E_error]. *)

val execute_job : caps -> Tm_obs.Json.t Catalog.job -> exec_result
(** {!execute} for an already-parsed job (the server parses once for
    fingerprinting and reuses the result): the requested budgets
    clamped to the caps, a checkpoint at [<state_dir>/<digest>.ckpt]
    (adopted if a killed process left one), and {!Catalog.supervise}
    under {!Catalog.daemon_policy}.  Exhaustions and interrupts are
    [E_unknown], a job that kept raising [E_error]. *)

val maybe_worker_main : unit -> unit
(** Call FIRST in every binary that may host a worker (the CLI, the
    test runner, the bench runner): when the worker environment flag is
    set, runs the worker protocol loop on fd 0 and never returns.
    A no-op otherwise. *)

(** {1 The pool (parent side)} *)

type 'a t
(** A pool whose in-flight jobs carry a caller payload ['a] (the
    server's pending-job record). *)

type 'a event =
  | Completed of 'a * exec_result * float
      (** a worker finished this job (wall seconds attached) *)
  | Crash_retry of 'a
      (** the worker died mid-job; resubmit it *)
  | Crash_quarantined of 'a * string
      (** the job killed [quarantine_after] workers; answer the reason
          as a structured error and never run it again *)

val create :
  ?chaos_kill_every_s:float ->
  ?hb_timeout_s:float ->
  ?quarantine_after:int ->
  caps ->
  n:int ->
  'a t
(** Spawn [n >= 1] workers.  [hb_timeout_s] (default 5) is the silence
    threshold before a worker is declared wedged; [quarantine_after]
    (default 3) the per-fingerprint crash budget;
    [chaos_kill_every_s], when given, SIGKILLs a random (preferably
    busy) worker on that period — the built-in chaos harness. *)

val fds : 'a t -> Unix.file_descr list
(** Parent ends of live workers' socketpairs, for the select loop. *)

val capacity : 'a t -> int
(** Live (non-dead) workers right now — feeds
    {!Admission.set_capacity} so shed prices track reality. *)

val has_idle : 'a t -> bool
val busy_count : 'a t -> int

val submit :
  'a t -> fingerprint:string -> request:Tm_obs.Json.t -> 'a -> bool
(** Ship a job to an idle worker; [false] when none is idle (leave the
    job queued).  The fingerprint is remembered for crash attribution. *)

val quarantined : 'a t -> fingerprint:string -> string option
(** The quarantine reason, if this fingerprint is banned. *)

val on_readable : 'a t -> Unix.file_descr -> 'a event list
(** Pump one readable worker fd: feeds frames, resets the heartbeat
    deadline, returns completions (and crash events if the read shows
    the worker died).  Unknown fds are ignored. *)

val tick : 'a t -> 'a event list
(** Periodic housekeeping: reap exited workers, SIGKILL heartbeat
    flat-liners, respawn dead slots whose backoff elapsed, fire the
    chaos timer.  Call once per select-loop iteration. *)

val drain_busy : 'a t -> 'a list
(** Pull the payloads of jobs still on busy workers (oldest slot
    first), marking those slots idle — the shutdown path answers them
    UNKNOWN rather than dropping them on a worker that will never
    finish. *)

val interrupt_busy : 'a t -> unit
(** Forward SIGTERM to every busy worker — the cooperative-stop half of
    daemon drain: each job checkpoints at its next batch boundary and
    answers UNKNOWN. *)

val shutdown : 'a t -> unit
(** Send quit frames, close the pipes, wait briefly for voluntary
    exits, SIGKILL and reap stragglers.  The pool is unusable after. *)
