(* Child-process entry point for the daemon tests: [main.exe] launches
   this via [Unix.create_process] (fork is off-limits once worker
   domains exist) with the server config flattened to key=value args. *)

let () =
  (* this binary hosts worker re-executions when the daemon under test
     runs with workers > 0 *)
  Tm_serve.Workers.maybe_worker_main ();
  let cfg = ref (Tm_serve.Server.default_config ~socket_path:"serve.sock") in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match String.index_opt arg '=' with
        | None ->
            prerr_endline ("serve_helper: bad arg " ^ arg);
            exit 2
        | Some k -> (
            let key = String.sub arg 0 k in
            let v = String.sub arg (k + 1) (String.length arg - k - 1) in
            match key with
            | "socket" -> cfg := { !cfg with Tm_serve.Server.socket_path = v }
            | "state_dir" ->
                cfg := { !cfg with Tm_serve.Server.state_dir = Some v }
            | "queue" ->
                cfg := { !cfg with Tm_serve.Server.max_queue = int_of_string v }
            | "max_frame" ->
                cfg := { !cfg with Tm_serve.Server.max_frame = int_of_string v }
            | "attempts" ->
                cfg := { !cfg with Tm_serve.Server.attempts = int_of_string v }
            | "backoff_ms" ->
                cfg :=
                  { !cfg with
                    Tm_serve.Server.backoff_s = float_of_string v /. 1000. }
            | "deadline_ms" ->
                cfg :=
                  { !cfg with
                    Tm_serve.Server.max_deadline_s =
                      Some (float_of_string v /. 1000.) }
            | "workers" ->
                cfg := { !cfg with Tm_serve.Server.workers = int_of_string v }
            | "quarantine" ->
                cfg :=
                  { !cfg with
                    Tm_serve.Server.quarantine_after = int_of_string v }
            | "hb_timeout_ms" ->
                cfg :=
                  { !cfg with
                    Tm_serve.Server.hb_timeout_s = float_of_string v /. 1000. }
            | "events" -> Tm_obs.Events.open_path v
            | "chaos_kill_ms" ->
                cfg :=
                  { !cfg with
                    Tm_serve.Server.chaos_kill_every_s =
                      Some (float_of_string v /. 1000.) }
            | _ ->
                prerr_endline ("serve_helper: unknown key " ^ key);
                exit 2))
    Sys.argv;
  match Tm_serve.Server.run !cfg with
  | () -> exit 0
  | exception Tm_serve.Server.Already_running _ -> exit 3
  | exception _ -> exit 1
