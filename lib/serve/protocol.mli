(** Wire protocol of the verification daemon: length-prefixed JSON
    frames over a Unix-domain stream socket.

    A frame is a 4-byte big-endian unsigned payload length followed by
    that many bytes of UTF-8 JSON.  The framing layer is deliberately
    dumb — one length, one blob — so every robustness decision lives in
    one place:

    - an {b oversized} declared length (above the reader's
      [max_frame]) switches the reader into skip mode: the announced
      bytes are discarded as they arrive in O(1) memory, the event is
      reported once as {!read_result.Oversized}, and the stream stays
      framed — the server answers a structured error instead of dying
      or desynchronizing;
    - a {b truncated} frame (EOF mid-length or mid-payload) is visible
      as {!at_frame_boundary} being false when the connection closes —
      never an exception;
    - {b garbage} payloads are delivered as ordinary frames; deciding
      whether the bytes are valid JSON (and a valid request) is the
      dispatcher's job, which answers a structured error frame.

    The reader is incremental and push-based so it can sit behind a
    [select] loop and be fuzzed byte-by-byte: {!feed} appends whatever
    arrived, {!next} pops at most one event. *)

val default_max_frame : int
(** 1 MiB — generous for any request or response this protocol
    carries. *)

type reader

val reader : ?max_frame:int -> unit -> reader

val feed : reader -> bytes -> int -> int -> unit
(** [feed r b off len] appends [len] bytes of [b] starting at [off].
    Never raises (beyond [Invalid_argument] on a bogus slice). *)

val feed_string : reader -> string -> unit

type read_result =
  | Frame of string  (** one complete payload *)
  | Oversized of int
      (** a frame announced this many bytes, above [max_frame]; the
          payload is being discarded, framing stays intact *)
  | Await  (** need more bytes *)

val next : reader -> read_result
(** Pop the next event.  Total: never raises on any byte sequence. *)

val at_frame_boundary : reader -> bool
(** True iff every fed byte has been consumed as complete frames — the
    clean place for a connection to end.  False at EOF means the peer
    died mid-frame. *)

val encode_frame : string -> string
(** [length ^ payload], ready to write. *)

val max_encodable : int
(** Upper bound on an encodable payload (u32 range). *)

(** {1 Blocking helpers over file descriptors}

    Used by the client, the tests and the server's response path.  All
    of them raise [Unix.Unix_error] on transport failure — callers
    decide whether that is fatal (client) or just a vanished peer
    (server). *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, handling short writes.
    @raise Invalid_argument when the payload exceeds {!max_encodable}. *)

exception Timeout
(** Raised by {!read_frame} when its deadline passes. *)

val read_frame :
  ?deadline:float -> reader -> Unix.file_descr -> string option
(** Blocking read of one frame through a caller-held reader; [None] on
    EOF at a frame boundary.  When reading several pipelined responses
    from one connection the SAME reader must be reused for every call:
    a single [read] can pull multiple coalesced frames off the socket,
    and the extras live in the reader until the next call pops them.
    With [?deadline], gives up once [Unix.gettimeofday ()] passes it:
    the client's [--timeout] needs "a frame or a clock", never an
    indefinite block on a daemon that stopped answering.
    @raise Timeout when the deadline passes with no complete frame.
    @raise Failure on a truncated or oversized frame. *)

(** {1 Request/response envelopes}

    Thin helpers shared by server and client so both sides agree on
    field names.  The payload JSON shapes are documented in the README
    ("Serving verification jobs"). *)

val response :
  ?id:Tm_obs.Json.t ->
  ?cached:bool ->
  ?verdict:Tm_obs.Json.t ->
  ?reason:string ->
  ?retry_after_s:float ->
  ?error:string ->
  status:string ->
  unit ->
  Tm_obs.Json.t
(** Build a response object; [status] is ["ok"], ["unknown"] or
    ["error"].  Omitted fields are omitted from the JSON. *)

val status_of_response : Tm_obs.Json.t -> string option
