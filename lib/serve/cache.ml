module Metrics = Tm_obs.Metrics
module Events = Tm_obs.Events
module Json = Tm_obs.Json
module Snapshot = Tm_recover.Snapshot

let c_hit = Metrics.counter "serve.cache_hit"
let c_miss = Metrics.counter "serve.cache_miss"
let c_store = Metrics.counter "serve.cache_store"

(* A verdict file's payload version.  The payload is the verdict
   string itself, unchanged since the envelope's version 2, and this
   constant moves only when it changes: a new checkpoint format
   ({!Snapshot.format_version}) leaves every cached verdict a hit. *)
let version = 2

type t = { dir : string option; mem : (string, string) Hashtbl.t }

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  { dir; mem = Hashtbl.create 64 }

let digest fp =
  let rev s = String.init (String.length s) (fun i ->
      s.[String.length s - 1 - i]) in
  Printf.sprintf "%08x%08x-%d"
    (Snapshot.crc32 (Bytes.of_string fp))
    (Snapshot.crc32 (Bytes.of_string (rev fp)))
    (String.length fp)

let path_of t fp =
  Option.map (fun d -> Filename.concat d (digest fp ^ ".tmv")) t.dir

let size t = Hashtbl.length t.mem

let find t ~fingerprint =
  match Hashtbl.find_opt t.mem fingerprint with
  | Some v ->
      Metrics.incr c_hit;
      Some v
  | None -> (
      let from_disk =
        match path_of t fingerprint with
        | Some p when Sys.file_exists p -> (
            match Snapshot.read ~version p with
            | fp, _info, payload when String.equal fp fingerprint ->
                Some (Bytes.to_string payload)
            | _ ->
                (* digest collision: someone else's verdict — a miss *)
                None
            | exception Snapshot.Bad_snapshot _ ->
                (* torn/corrupt entry: drop it so it cannot keep
                   costing a read, and recompute *)
                (try Sys.remove p with Sys_error _ -> ());
                None)
        | _ -> None
      in
      match from_disk with
      | Some v ->
          Hashtbl.replace t.mem fingerprint v;
          Metrics.incr c_hit;
          Events.emit "serve.cache"
            [ ("op", Json.String "disk_hit");
              ("digest", Json.String (digest fingerprint)) ];
          Some v
      | None ->
          Metrics.incr c_miss;
          None)

let store t ~fingerprint verdict =
  Hashtbl.replace t.mem fingerprint verdict;
  Metrics.incr c_store;
  (match path_of t fingerprint with
  | Some p -> (
      try
        Snapshot.write ~version ~path:p ~fingerprint ~info:"verdict"
          (Bytes.of_string verdict)
      with Sys_error _ | Unix.Unix_error _ ->
        (* a full or read-only disk degrades the cache to memory-only *)
        ())
  | None -> ());
  Events.emit "serve.cache"
    [ ("op", Json.String "store");
      ("digest", Json.String (digest fingerprint)) ]
