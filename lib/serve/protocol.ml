module Json = Tm_obs.Json

let default_max_frame = 1 lsl 20
let max_encodable = 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* incremental reader *)

(* Pending bytes live in a queue of chunks with a read offset into the
   head chunk, so feeding is O(chunk) and a hostile peer that announces
   a huge frame costs O(1) memory: skip mode drops chunks as they
   arrive instead of buffering them. *)
type reader = {
  max_frame : int;
  mutable chunks : string list;  (** newest first; reversed on drain *)
  mutable avail : int;  (** total unconsumed bytes across [chunks] *)
  mutable skip : int;  (** bytes of an oversized payload still to drop *)
}

let reader ?(max_frame = default_max_frame) () =
  if max_frame < 1 then invalid_arg "Protocol.reader: max_frame < 1";
  { max_frame; chunks = []; avail = 0; skip = 0 }

(* Drop [n] buffered bytes (n <= avail). *)
let drop r n =
  let rec go n ordered =
    if n = 0 then ordered
    else
      match ordered with
      | [] -> assert false
      | c :: rest ->
          let l = String.length c in
          if n >= l then go (n - l) rest
          else String.sub c n (l - n) :: rest
  in
  r.chunks <- List.rev (go n (List.rev r.chunks));
  r.avail <- r.avail - n

(* Copy [n] buffered bytes without consuming (n <= avail). *)
let peek r n =
  let b = Buffer.create n in
  let rec go n = function
    | [] -> ()
    | c :: rest ->
        if n > 0 then begin
          let l = min n (String.length c) in
          Buffer.add_substring b c 0 l;
          go (n - l) rest
        end
  in
  go n (List.rev r.chunks);
  Buffer.contents b

let feed r b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Protocol.feed";
  if len > 0 then begin
    (* Skip mode eats directly out of the incoming chunk. *)
    let eaten = min r.skip len in
    r.skip <- r.skip - eaten;
    let len = len - eaten and off = off + eaten in
    if len > 0 then begin
      r.chunks <- Bytes.sub_string b off len :: r.chunks;
      r.avail <- r.avail + len
    end
  end

let feed_string r s = feed r (Bytes.unsafe_of_string s) 0 (String.length s)

type read_result = Frame of string | Oversized of int | Await

let u32_of s =
  ((Char.code s.[0] lsl 24) lor (Char.code s.[1] lsl 16)
  lor (Char.code s.[2] lsl 8) lor Char.code s.[3])
  land 0xFFFFFFFF

let next r =
  if r.avail < 4 then Await
  else
    let len = u32_of (peek r 4) in
    if len > r.max_frame then begin
      drop r 4;
      (* Whatever of the payload is already buffered goes now; the
         rest is dropped as it arrives. *)
      let buffered = min len r.avail in
      drop r buffered;
      r.skip <- len - buffered;
      Oversized len
    end
    else if r.avail >= 4 + len then begin
      drop r 4;
      let payload = peek r len in
      drop r len;
      Frame payload
    end
    else Await

let at_frame_boundary r = r.avail = 0 && r.skip = 0

(* ------------------------------------------------------------------ *)
(* encoding + blocking fd helpers *)

let encode_frame payload =
  let n = String.length payload in
  if n > max_encodable then invalid_arg "Protocol.encode_frame: too large";
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let write_all fd b off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    let n = Unix.write fd b !off !len in
    off := !off + n;
    len := !len - n
  done

let write_frame fd payload =
  let s = encode_frame payload in
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

exception Timeout

let read_frame ?deadline r fd =
  let buf = Bytes.create 8192 in
  (* Is [fd] readable before the deadline?  Without one, a plain
     blocking read waits. *)
  let ready () =
    match deadline with
    | None -> true
    | Some deadline -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then raise Timeout;
        (* EINTR just means "check the clock again". *)
        match Unix.select [ fd ] [] [] left with
        | rs, _, _ -> rs <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false)
  in
  let rec go () =
    match next r with
    | Frame p -> Some p
    | Oversized n -> failwith (Printf.sprintf "oversized frame (%d bytes)" n)
    | Await ->
        if not (ready ()) then go ()
        else (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              if at_frame_boundary r then None
              else failwith "truncated frame (peer closed mid-frame)"
          | n ->
              feed r buf 0 n;
              go ())
  in
  go ()

(* ------------------------------------------------------------------ *)
(* envelopes *)

let response ?id ?cached ?verdict ?reason ?retry_after_s ?error ~status () =
  let opt k v = Option.map (fun v -> (k, v)) v in
  Json.Obj
    (List.filter_map Fun.id
       [
         opt "id" id;
         Some ("status", Json.String status);
         opt "cached" (Option.map (fun b -> Json.Bool b) cached);
         opt "verdict" verdict;
         opt "reason" (Option.map (fun s -> Json.String s) reason);
         opt "retry_after_s"
           (Option.map (fun f -> Json.Float f) retry_after_s);
         opt "error" (Option.map (fun s -> Json.String s) error);
       ])

let status_of_response j = Option.bind (Json.member "status" j) Json.string_opt
