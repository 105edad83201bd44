module Metrics = Tm_obs.Metrics

exception Bad_snapshot of string

let c_written = Metrics.counter "recover.snapshot_written"

let magic = "TMCKPT1\n"
let format_version = 2

(* ------------------------------------------------------------------ *)
(* CRC-32, IEEE polynomial (reflected 0xEDB88320), table-driven.  Kept
   in an OCaml int and masked to 32 bits so it works identically on
   every word size.                                                    *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32 b =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length b - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Envelope: magic | u32 version | u32 len + fingerprint | u32 len +
   info | u32 len | u32 crc | payload.  All integers big-endian.  The
   checksum covers fingerprint, info and payload, so a flipped bit
   anywhere in the variable part of the envelope reads as corruption,
   not as a different job.                                             *)

let put_u32 buf v =
  Buffer.add_int32_be buf (Int32.of_int (v land 0xFFFFFFFF))

let body_crc ~fingerprint ~info payload =
  let b = Buffer.create (String.length fingerprint + String.length info
                         + Bytes.length payload) in
  Buffer.add_string b fingerprint;
  Buffer.add_string b info;
  Buffer.add_bytes b payload;
  crc32 (Buffer.to_bytes b)

let encode ~fingerprint ~info payload =
  let buf = Buffer.create (Bytes.length payload + 64) in
  Buffer.add_string buf magic;
  put_u32 buf format_version;
  put_u32 buf (String.length fingerprint);
  Buffer.add_string buf fingerprint;
  put_u32 buf (String.length info);
  Buffer.add_string buf info;
  put_u32 buf (Bytes.length payload);
  put_u32 buf (body_crc ~fingerprint ~info payload);
  Buffer.add_bytes buf payload;
  Buffer.contents buf

(* Injectable I/O faults, for the robustness tests only: a short write
   (the kernel persisting fewer bytes than asked, without an error — a
   torn file that must read as corruption, never as a snapshot) and a
   failure raised between the write and the rename (ENOSPC at fsync,
   media death, a crash) after which the temp file must be gone and any
   previous snapshot at [path] untouched. *)
module For_testing = struct
  let truncate_write_to : int option ref = ref None
  let fail_before_rename : exn option ref = ref None

  let reset () =
    truncate_write_to := None;
    fail_before_rename := None
end

let temp_prefix = ".tmckpt"

let write ~path ~fingerprint ~info payload =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir temp_prefix ".tmp" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         let body = encode ~fingerprint ~info payload in
         let body =
           match !For_testing.truncate_write_to with
           | Some n when n < String.length body -> String.sub body 0 n
           | _ -> body
         in
         output_string oc body;
         flush oc;
         (* Data must hit the disk before the rename publishes it. *)
         Unix.fsync (Unix.descr_of_out_channel oc));
     (match !For_testing.fail_before_rename with
     | Some e -> raise e
     | None -> ());
     Sys.rename tmp path
   with e ->
     cleanup ();
     raise e);
  Metrics.incr c_written;
  Tm_obs.Events.emit "recover.snapshot"
    [
      ("path", Tm_obs.Json.String path);
      ("bytes", Tm_obs.Json.Int (Bytes.length payload));
      ("info", Tm_obs.Json.String info);
    ]

(* Cursor-style decoding with truncation checks at every step. *)
let fail fmt = Format.kasprintf (fun m -> raise (Bad_snapshot m)) fmt

let decode path s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then
      fail "%s: truncated snapshot (wanted %d bytes of %s at offset %d, file \
            has %d)"
        path n what !pos (String.length s)
  in
  let take n what =
    need n what;
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  let u32 what =
    need 4 what;
    let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let m = take (String.length magic) "magic" in
  if m <> magic then
    fail "%s: not a timedmap snapshot (bad magic %S)" path m;
  let v = u32 "version" in
  if v <> format_version then
    fail "%s: unsupported snapshot version %d (this build reads version %d)"
      path v format_version;
  let fingerprint = take (u32 "fingerprint length") "fingerprint" in
  let info = take (u32 "info length") "info" in
  let plen = u32 "payload length" in
  let crc = u32 "snapshot checksum" in
  let payload = Bytes.of_string (take plen "payload") in
  if !pos <> String.length s then
    fail "%s: %d trailing bytes after payload" path (String.length s - !pos);
  let crc' = body_crc ~fingerprint ~info payload in
  if crc <> crc' then
    fail "%s: checksum mismatch (stored %08x, computed %08x) — the file is \
          corrupt"
      path crc crc';
  (fingerprint, info, payload)

let read path =
  let s =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | Sys_error m -> fail "%s: cannot read snapshot: %s" path m
    | End_of_file -> fail "%s: truncated snapshot (short read)" path
  in
  decode path s

let inspect path =
  let fingerprint, info, _ = read path in
  (fingerprint, info)

(* A crash between the temp write and the rename (kill -9, power loss)
   leaks the temp file: no exception handler ever ran.  The temp name
   is never adopted by [read]/[inspect] — callers only ever look at the
   published path — but left alone they accumulate forever in a daemon
   state dir, so long-lived processes sweep on startup. *)
let sweep_temps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun n entry ->
          if
            String.length entry > String.length temp_prefix + 4
            && String.sub entry 0 (String.length temp_prefix) = temp_prefix
            && Filename.check_suffix entry ".tmp"
          then (
            match Sys.remove (Filename.concat dir entry) with
            | () -> n + 1
            | exception Sys_error _ -> n)
          else n)
        0 entries
