(** Admission control: a bounded FIFO of pending jobs with in-flight
    coalescing and load shedding.

    Every request that is not a cache hit goes through {!try_admit}:

    - if a job with the same fingerprint is already queued or running,
      the request {e coalesces} onto it — one computation, many
      respondents, no extra queue slot ([serve.coalesced]);
    - else if the queue is full, the request is {e shed}: the caller
      answers UNKNOWN with a retry hint derived from the queue depth
      and an EWMA of recent job durations ([serve.shed]) — the daemon
      never hangs and never grows an unbounded backlog;
    - else it is enqueued ([serve.admitted], gauge
      [serve.queue_depth]).

    The queue is single-domain (the daemon's event loop); no locking. *)

type 'r t
(** ['r] is the respondent handle attached to each admitted job (the
    server uses [connection * request id]). *)

type 'r job = {
  fingerprint : string;
  request : Tm_obs.Json.t;  (** the parsed request that first created it *)
  mutable respondents : 'r list;  (** newest first *)
}

val create : max_depth:int -> 'r t
(** [max_depth >= 0]; depth 0 sheds every non-coalescible request. *)

type 'r admitted =
  | Admitted of 'r job  (** newly queued *)
  | Coalesced of 'r job  (** attached to an existing pending job *)
  | Shed of float  (** queue full; suggested retry delay in seconds *)

val try_admit :
  'r t -> fingerprint:string -> request:Tm_obs.Json.t -> 'r -> 'r admitted

val pop : 'r t -> 'r job option
(** Dequeue the oldest job and mark it running (still coalescible until
    {!finished}). *)

val finished : 'r t -> 'r job -> note_wall_s:float -> unit
(** Job answered: stop coalescing onto it and feed the duration EWMA
    that prices retry hints. *)

val depth : 'r t -> int
(** Queued jobs (excluding the one running). *)

val set_capacity : 'r t -> int -> unit
(** Tell admission how many live executor slots exist (gauge
    [serve.capacity]).  Defaults to 1.  The server updates it every
    tick as workers die and respawn, so shed prices track real
    capacity: more workers cheapen the hint, zero live workers floors
    it at a full second.
    @raise Invalid_argument on a negative capacity. *)

val capacity : 'r t -> int

val drain : 'r t -> 'r job list
(** Remove and return every queued job, oldest first — the SIGTERM
    path answers them UNKNOWN-with-retry instead of dropping them. *)

val retry_hint_s : 'r t -> float
(** What a shed response would advise right now. *)
