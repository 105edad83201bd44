(* Checkpoint/resume, snapshot integrity, retry supervision, and
   certified verdicts: the certificate checker and the paranoid engine
   built on it.

   The load-bearing property is kill-and-resume equivalence: a run
   interrupted at an arbitrary checkpoint boundary and resumed must
   produce the same verdict, the same reachable base-state set and the
   same zones.stored as the uninterrupted run — for both kernels.
   Snapshot corruption of any kind must surface as a
   descriptive [Bad_snapshot], never as a wrong verdict. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Condition = Tm_timed.Condition
module Reach = Tm_zones.Reach
module Metrics = Tm_obs.Metrics
module Snapshot = Tm_recover.Snapshot
module Supervisor = Tm_recover.Supervisor
module Certificate = Tm_zones.Certificate
module Registry = Tm_systems.Registry
module F = Tm_systems.Fischer

let q = Gen.q
let c_stored = Metrics.counter "zones.stored"
let c_resumed = Metrics.counter "recover.resumed"
let c_written = Metrics.counter "recover.snapshot_written"
let c_selfcheck = Metrics.counter "recover.selfcheck_total"
let c_mismatch = Metrics.counter "recover.selfcheck_mismatch"
let c_degraded = Metrics.counter "recover.degraded"

let tmp_ck () = Filename.temp_file "tmtest" ".ckpt"
let rm_f p = try Sys.remove p with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Snapshot envelope.                                                  *)

let crc32_known_vector () =
  (* The IEEE CRC-32 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int)
    "check value" 0xCBF43926
    (Snapshot.crc32 (Bytes.of_string "123456789"))

let snapshot_roundtrip () =
  let path = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f path) @@ fun () ->
  let payload = Bytes.of_string "the payload \x00\x01\xff bytes" in
  let w0 = Metrics.value c_written in
  Snapshot.write ~path ~fingerprint:"job-fp" ~info:"zones=7" payload;
  Alcotest.(check int) "write counted" (w0 + 1) (Metrics.value c_written);
  let fp, info, got = Snapshot.read path in
  Alcotest.(check string) "fingerprint" "job-fp" fp;
  Alcotest.(check string) "info" "zones=7" info;
  Alcotest.(check bytes) "payload" payload got;
  Alcotest.(check (pair string string))
    "inspect" ("job-fp", "zones=7") (Snapshot.inspect path);
  (* overwrite is atomic-by-rename: the second write fully replaces *)
  Snapshot.write ~path ~fingerprint:"job-fp2" ~info:"zones=9"
    (Bytes.of_string "other");
  let fp2, _, got2 = Snapshot.read path in
  Alcotest.(check string) "second fingerprint" "job-fp2" fp2;
  Alcotest.(check bytes) "second payload" (Bytes.of_string "other") got2

let expect_bad path substr =
  match Snapshot.read path with
  | _ -> Alcotest.failf "expected Bad_snapshot mentioning %S" substr
  | exception Snapshot.Bad_snapshot m ->
      let lower = String.lowercase_ascii m in
      if
        not
          (String.length lower >= String.length substr
          && (let found = ref false in
              for i = 0 to String.length lower - String.length substr do
                if String.sub lower i (String.length substr) = substr then
                  found := true
              done;
              !found))
      then Alcotest.failf "message %S does not mention %S" m substr

let write_sample path =
  Snapshot.write ~path ~fingerprint:"fingerprint-string" ~info:"zones=3"
    (Bytes.of_string "payload-bytes-here")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let snapshot_rejects_corruption () =
  let path = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f path) @@ fun () ->
  write_sample path;
  let whole = read_file path in
  (* truncated anywhere: descriptive truncation error *)
  write_file path (String.sub whole 0 (String.length whole / 2));
  expect_bad path "truncated";
  write_file path (String.sub whole 0 3);
  expect_bad path "truncated";
  (* a flipped byte in the fingerprint region: checksum, not a
     different job *)
  let b = Bytes.of_string whole in
  Bytes.set b 17 (Char.chr (Char.code (Bytes.get b 17) lxor 0x40));
  write_file path (Bytes.to_string b);
  expect_bad path "checksum";
  (* a flipped payload byte: checksum *)
  let b = Bytes.of_string whole in
  let last = Bytes.length b - 2 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  write_file path (Bytes.to_string b);
  expect_bad path "checksum";
  (* wrong magic *)
  let b = Bytes.of_string whole in
  Bytes.set b 0 'X';
  write_file path (Bytes.to_string b);
  expect_bad path "magic";
  (* unsupported version (field sits right after the 8-byte magic) *)
  let b = Bytes.of_string whole in
  Bytes.set b 11 (Char.chr 99);
  write_file path (Bytes.to_string b);
  expect_bad path "version";
  (* trailing garbage *)
  write_file path (whole ^ "x");
  expect_bad path "trailing"

(* An old snapshot must be stopped by its version field: the payload
   is unmarshalled unchecked, and version 3 changed its layout (the
   zone store's own records, each held as its minimal form alone), so a
   version-2 payload read by this build would be garbage, not an
   error.  A real checkpoint — written by the CLI out of zone
   budget — with its version rewritten to 2 is refused by
   [Snapshot.read], and the CLI's resume path ([run --resume]) exits 2
   with that one line. *)
let snapshot_old_version_refused () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "timedmap.exe" ]
  in
  let ck = tmp_ck () and err = Filename.temp_file "tmtest" ".err" in
  Fun.protect ~finally:(fun () -> rm_f ck; rm_f err) @@ fun () ->
  let run args =
    let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
    let efd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
    let pid =
      Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null
        efd
    in
    Unix.close null;
    Unix.close efd;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  in
  rm_f ck;
  Alcotest.(check int) "budgeted verify exits 4" 4
    (run
       [ "verify"; "-S"; "fischer"; "-n"; "3"; "--budget-states"; "100";
         "--checkpoint"; ck ]);
  let b = Bytes.of_string (read_file ck) in
  (* the version field sits right after the 8-byte magic *)
  Alcotest.(check int32) "written at version 3" 3l (Bytes.get_int32_be b 8);
  Bytes.set_int32_be b 8 2l;
  write_file ck (Bytes.to_string b);
  let want =
    ck ^ ": unsupported snapshot version 2 (this build reads version 3)"
  in
  (match Snapshot.read ck with
  | _ -> Alcotest.fail "version-2 snapshot read"
  | exception Snapshot.Bad_snapshot m ->
      Alcotest.(check string) "Snapshot.read refuses" want m);
  Alcotest.(check int) "resume exits 2" 2
    (run [ "run"; "-S"; "fischer"; "-n"; "3"; "--resume"; ck ]);
  Alcotest.(check string) "one-line message"
    ("timedmap: snapshot error: " ^ want ^ "\n")
    (read_file err)

(* A short write the kernel never reported (power cut between write
   and fsync completing): whatever length survives, the published file
   must read as [Bad_snapshot] — never as a snapshot, never as a
   payload. *)
let snapshot_short_write_never_adopted () =
  let dir = Filename.dirname (tmp_ck ()) in
  let path = Filename.concat dir (Printf.sprintf "tm_short_%d.ckpt" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      Snapshot.For_testing.reset ();
      rm_f path)
  @@ fun () ->
  write_sample path;
  let full = String.length (read_file path) in
  rm_f path;
  for keep = 0 to full - 1 do
    Snapshot.For_testing.truncate_write_to := Some keep;
    write_sample path;
    (match Snapshot.read path with
    | _ ->
        Alcotest.failf "short write of %d/%d bytes was adopted" keep full
    | exception Snapshot.Bad_snapshot _ -> ());
    rm_f path
  done;
  (* and a non-truncated write through the same hook still reads *)
  Snapshot.For_testing.truncate_write_to := Some full;
  write_sample path;
  let fp, _, _ = Snapshot.read path in
  Alcotest.(check string) "full write adopted" "fingerprint-string" fp

(* A crash between the temp write and the publishing rename (ENOSPC at
   fsync, media failure): the write raises, the temp file is unlinked,
   and a pre-existing snapshot at the target is untouched. *)
let snapshot_fail_before_rename () =
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tm_rename_%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let path = Filename.concat dir "job.ckpt" in
  Fun.protect
    ~finally:(fun () ->
      Snapshot.For_testing.reset ();
      Array.iter (fun f -> rm_f (Filename.concat dir f)) (Sys.readdir dir))
  @@ fun () ->
  write_sample path;
  let before = read_file path in
  Snapshot.For_testing.fail_before_rename := Some Exit;
  (match
     Snapshot.write ~path ~fingerprint:"other-job" ~info:"zones=99"
       (Bytes.of_string "would-clobber")
   with
  | () -> Alcotest.fail "write must re-raise the injected failure"
  | exception Exit -> ());
  Snapshot.For_testing.reset ();
  Alcotest.(check string) "old snapshot intact" before (read_file path);
  let leaked =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> Filename.basename path)
  in
  Alcotest.(check (list string)) "no temp leaked" [] leaked

(* [sweep_temps] removes exactly the orphaned temp files — never the
   snapshot itself, never unrelated files. *)
let snapshot_sweep_temps () =
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tm_sweep_%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> rm_f (Filename.concat dir f)) (Sys.readdir dir))
  @@ fun () ->
  let path = Filename.concat dir "job.ckpt" in
  write_sample path;
  let mk name s =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  mk ".tmckpt123abc.tmp" "orphaned half-written envelope";
  mk ".tmckpt456def.tmp" "";
  mk "unrelated.txt" "keep me";
  Alcotest.(check int) "two orphans removed" 2 (Snapshot.sweep_temps dir);
  let left = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string))
    "snapshot and unrelated files kept"
    [ "job.ckpt"; "unrelated.txt" ]
    left;
  Alcotest.(check int) "idempotent" 0 (Snapshot.sweep_temps dir);
  Alcotest.(check int) "missing dir is 0"
    0
    (Snapshot.sweep_temps (Filename.concat dir "no-such-subdir"))

(* ------------------------------------------------------------------ *)
(* Retry supervision.                                                  *)

let with_retries_backoff () =
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let calls = ref 0 in
  let r =
    Supervisor.with_retries ~attempts:5 ~backoff_s:0.25 ~sleep
      (fun ~attempt ->
        incr calls;
        Alcotest.(check int) "attempt number" !calls attempt;
        if attempt < 3 then Supervisor.Transient "flaky"
        else Supervisor.Done "ok")
  in
  Alcotest.(check (result string string)) "result" (Ok "ok") r;
  Alcotest.(check int) "attempts used" 3 !calls;
  Alcotest.(check (list (float 1e-9)))
    "exponential backoff" [ 0.25; 0.5 ] (List.rev !sleeps)

let with_retries_exhausts () =
  let retried = ref [] in
  let r =
    Supervisor.with_retries ~attempts:3 ~backoff_s:0.
      ~sleep:(fun _ -> ())
      ~on_retry:(fun ~attempt ~delay_s:_ ~reason ->
        retried := (attempt, reason) :: !retried)
      (fun ~attempt -> Supervisor.Transient (Printf.sprintf "fail%d" attempt))
  in
  Alcotest.(check (result unit string)) "last reason" (Error "fail3") r;
  Alcotest.(check (list (pair int string)))
    "on_retry calls"
    [ (1, "fail1"); (2, "fail2") ]
    (List.rev !retried)

let jitter_schedule seed =
  let sleeps = ref [] in
  ignore
    (Supervisor.with_retries ~attempts:6 ~backoff_s:0.1
       ~jitter:(Tm_base.Prng.create seed) ~max_backoff_s:0.5
       ~sleep:(fun d -> sleeps := d :: !sleeps)
       (fun ~attempt:_ -> Supervisor.Transient "always"));
  List.rev !sleeps

let with_retries_jitter () =
  let a = jitter_schedule 7 in
  Alcotest.(check int) "five sleeps for six attempts" 5 (List.length a);
  (* deterministic: the schedule is a pure function of the seed *)
  Alcotest.(check (list (float 1e-12))) "replayable" a (jitter_schedule 7);
  (* decorrelated: a different seed spreads differently *)
  Alcotest.(check bool) "seeds decorrelate" false (a = jitter_schedule 8);
  (* every delay within [backoff_s, max_backoff_s], and the first draw
     within the decorrelated-jitter window [base, 3*base] *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "delay %.4f in bounds" d)
        true
        (d >= 0.1 && d <= 0.5))
    a;
  (match a with
  | d1 :: _ ->
      Alcotest.(check bool) "first draw <= 3*base" true (d1 <= 0.3 +. 1e-12)
  | [] -> assert false);
  (* without jitter, a cap still clamps the pure exponential *)
  let sleeps = ref [] in
  ignore
    (Supervisor.with_retries ~attempts:4 ~backoff_s:0.25 ~max_backoff_s:0.3
       ~sleep:(fun d -> sleeps := d :: !sleeps)
       (fun ~attempt:_ -> Supervisor.Transient "always"));
  Alcotest.(check (list (float 1e-9)))
    "clamped exponential" [ 0.25; 0.3; 0.3 ] (List.rev !sleeps)

let with_retries_validates () =
  (match
     Supervisor.with_retries ~backoff_s:0.5 ~max_backoff_s:0.1
       (fun ~attempt:_ -> Supervisor.Done ())
   with
  | _ -> Alcotest.fail "max_backoff_s < backoff_s accepted"
  | exception Invalid_argument _ -> ());
  (match
     Supervisor.with_retries ~attempts:0 (fun ~attempt:_ ->
         Supervisor.Done ())
   with
  | _ -> Alcotest.fail "attempts=0 accepted"
  | exception Invalid_argument _ -> ());
  match
    Supervisor.with_retries ~backoff_s:(-1.) (fun ~attempt:_ ->
        Supervisor.Done ())
  with
  | _ -> Alcotest.fail "negative backoff accepted"
  | exception Invalid_argument _ -> ()

let interrupt_flag_basics () =
  Supervisor.clear_interrupt ();
  Alcotest.(check bool) "clear" false (Supervisor.interrupt_requested ());
  Supervisor.request_interrupt ();
  Alcotest.(check bool) "set" true (Supervisor.interrupt_requested ());
  Supervisor.clear_interrupt ();
  Alcotest.(check bool) "cleared" false (Supervisor.interrupt_requested ())

(* ------------------------------------------------------------------ *)
(* Kill-and-resume differential.                                       *)

(* One uninterrupted run: stats, sorted reachable set, stored delta. *)
let oneshot (module E : Reach.S) aut bm =
  let s0 = Metrics.value c_stored in
  let st, states = E.reachable aut bm in
  (st, List.sort compare states, Metrics.value c_stored - s0)

(* Exhaust the zone budget at [limit] with a checkpoint, then resume
   without a budget; measure the resumed leg's stored delta (which must
   match the one-shot delta: the restore replays the counters).  When
   the run fits under [limit] there is nothing to resume and the direct
   result is returned. *)
let interrupted_resumed (module E : Reach.S) aut bm ~limit =
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  let s0 = Metrics.value c_stored in
  match E.reachable ~limit ~checkpoint:(ck, 0) aut bm with
  | st, states ->
      (* fit under the limit: nothing to resume *)
      (st, List.sort compare states, Metrics.value c_stored - s0)
  | exception Reach.Out_of_budget e ->
      Alcotest.(check (option string))
        "exhaustion names the checkpoint" (Some ck) e.Reach.checkpoint;
      let r0 = Metrics.value c_resumed in
      let s0 = Metrics.value c_stored in
      let st, states = E.reachable ~resume:ck aut bm in
      Alcotest.(check int) "resume counted" (r0 + 1) (Metrics.value c_resumed);
      (st, List.sort compare states, Metrics.value c_stored - s0)

let kernels : (string * (module Reach.S)) list =
  [ ("int", (module Reach.Auto)); ("ref", (module Reach.Ref)) ]

let kill_resume_random =
  Gen.check_holds
    "kill+resume: verdict, reachable set and zones.stored equal one-shot \
     (both kernels)"
    ~count:12 ~print:Gen.print_raut Gen.boundmap_automaton (fun r ->
      let aut, bm = Gen.build_boundmap_automaton r in
      List.for_all
        (fun (_, k) ->
          let st, states, stored = oneshot k aut bm in
          (* interrupt at a boundary roughly mid-search, and at the
             first boundary *)
          let limits = [ 1; (st.Reach.zones / 2) + 1 ] in
          List.for_all
            (fun limit ->
              let st', states', stored' = interrupted_resumed k aut bm ~limit in
              st' = st && states' = states && stored' = stored)
            limits)
        kernels)

(* The same discipline on a real system, checking the exact condition
   verdict and periodic snapshots along the way. *)
let fischer_cond_resume () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let cond = F.u_enter p in
  let base = Reach.Auto.check_condition sys bm cond in
  let full_zones =
    match base with
    | Reach.Verified st -> st.Reach.zones
    | _ -> Alcotest.fail "fischer n=2 U_enter should verify"
  in
  (* A budget at half the fixpoint always exhausts, and is derived from
     the run rather than pinned, so it tracks the engine's zone count. *)
  let limit = (full_zones / 2) + 1 in
  let every = max 1 (limit / 4) in
  List.iter
    (fun (name, (module E : Reach.S)) ->
      let ck = tmp_ck () in
      Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
      (match E.check_condition ~limit ~checkpoint:(ck, every) sys bm cond with
      | Reach.Unknown e ->
          Alcotest.(check (option string))
            "checkpoint advertised" (Some ck) e.Reach.checkpoint
      | _ -> Alcotest.failf "%s: limit %d should exhaust" name limit);
      match E.check_condition ~resume:ck sys bm cond with
      | o when o = base -> ()
      | _ -> Alcotest.failf "%s: resumed verdict differs" name)
    kernels

let cooperative_interrupt_resume () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let base = oneshot (module Reach.Auto) sys bm in
  let ck = tmp_ck () in
  Fun.protect
    ~finally:(fun () ->
      Supervisor.clear_interrupt ();
      rm_f ck)
  @@ fun () ->
  Supervisor.request_interrupt ();
  (match Reach.Auto.reachable ~checkpoint:(ck, 0) sys bm with
  | _ -> Alcotest.fail "interrupted run should not complete"
  | exception Reach.Out_of_budget e ->
      Alcotest.(check bool)
        "reason mentions interrupt" true
        (String.length e.Reach.reason >= 11
        && String.sub e.Reach.reason 0 11 = "interrupted");
      Alcotest.(check (option string))
        "checkpoint written" (Some ck) e.Reach.checkpoint);
  Supervisor.clear_interrupt ();
  let s0 = Metrics.value c_stored in
  let st, states = Reach.Auto.reachable ~resume:ck sys bm in
  let bst, bstates, bstored = base in
  Alcotest.(check bool) "stats equal" true (st = bst);
  Alcotest.(check bool)
    "reachable set equal" true
    (List.sort compare states = bstates);
  Alcotest.(check int) "stored equal" bstored (Metrics.value c_stored - s0)

let completed_run_removes_checkpoint () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  let w0 = Metrics.value c_written in
  let _ = Reach.Auto.reachable ~checkpoint:(ck, 5) sys bm in
  Alcotest.(check bool)
    "periodic snapshots were written" true
    (Metrics.value c_written > w0);
  Alcotest.(check bool)
    "checkpoint removed on completion" false (Sys.file_exists ck)

(* A fractional job runs scaled on the int kernel, but its checkpoint
   is keyed by the caller's unscaled job: the embedded fingerprint is
   the public one, the same job in another time unit is refused, and
   the resumed fixpoint equals the one-shot run. *)
let fractional_checkpoint_roundtrip () =
  let p = Gen.quarter_fischer () in
  let sys = F.system p and bm = F.boundmap p in
  let doubled = Tm_timed.Boundmap.map (fun _ iv -> Interval.scale 2 iv) bm in
  let bst, bstates, bstored = oneshot (module Reach.Auto) sys bm in
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  (match Reach.Auto.reachable ~limit:5 ~checkpoint:(ck, 0) sys bm with
  | _ -> Alcotest.fail "budgeted run should exhaust"
  | exception Reach.Out_of_budget _ -> ());
  Alcotest.(check string)
    "checkpoint keyed by the unscaled job"
    (Reach.Auto.fingerprint_reachable sys bm)
    (fst (Snapshot.inspect ck));
  (match Reach.Auto.reachable ~resume:ck sys doubled with
  | _ -> Alcotest.fail "2·bm resumed the checkpoint of bm"
  | exception Snapshot.Bad_snapshot _ -> ());
  let s0 = Metrics.value c_stored in
  let st, states = Reach.Auto.reachable ~resume:ck sys bm in
  Alcotest.(check bool) "stats equal" true (st = bst);
  Alcotest.(check bool)
    "reachable set equal" true
    (List.sort compare states = bstates);
  Alcotest.(check int) "stored equal" bstored (Metrics.value c_stored - s0)

(* A checkpoint holds each distinct stored matrix as its minimal form
   alone, neither the matrix nor the arena chunk it is a slice of:
   fischer n=4 stopped at 2 000 zones fits in [per_zone] bytes a stored
   zone (46 636 bytes in all, the zone store's 917 records included),
   where writing each record's matrix too took 158 614 and writing the
   arena chunks whole 242 239.  The resumed run still ends on the
   one-shot fixpoint. *)
let checkpoint_size_bound () =
  let p = F.params_of_ints ~n:4 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let bst, bstates, _ = oneshot (module Reach.Auto) sys bm in
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  let limit = 2000 and per_zone = 64 in
  (match Reach.Auto.reachable ~limit ~checkpoint:(ck, 0) sys bm with
  | _ -> Alcotest.fail "budgeted run should exhaust"
  | exception Reach.Out_of_budget _ -> ());
  let size = String.length (read_file ck) in
  if size > per_zone * limit then
    Alcotest.failf "checkpoint of %d zones is %d bytes, over %d" limit size
      (per_zone * limit);
  let st, states = Reach.Auto.reachable ~resume:ck sys bm in
  Alcotest.(check bool) "stats equal" true (st = bst);
  Alcotest.(check bool)
    "reachable set equal" true
    (List.sort compare states = bstates)

(* Format 3's payload layout, pinned.  [Marshal.from_bytes] checks no
   types, so a snapshot table or record that gained, lost or retyped a
   field without a bump of [Snapshot.format_version] would resume an
   older file as garbage instead of refusing it.  [shape d v] renders
   [v] [d] levels deep: [i] an immediate, [f] a float, [b] a block not
   opened, [(..)] a block's fields.  A change that makes this fail
   changes the format: bump the version and pin the new shape. *)
let rec shape d v =
  if Obj.is_int v then "i"
  else if Obj.tag v = Obj.double_tag then "f"
  else if d = 0 then "b"
  else
    "(" ^ String.concat ","
            (List.init (Obj.size v) (fun k -> shape (d - 1) (Obj.field v k)))
    ^ ")"

let checkpoint_layout_pinned () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  (match Reach.Auto.reachable ~limit:20 ~checkpoint:(ck, 0) sys bm with
  | _ -> Alcotest.fail "budgeted run should exhaust"
  | exception Reach.Out_of_budget _ -> ());
  let _, _, payload = Snapshot.read ck in
  let snap = Obj.repr (Marshal.from_bytes payload 0) in
  let first k = Obj.field (Obj.field snap k) 0 in
  let check what want v = Alcotest.(check string) what want v in
  (* keys, store, cells, pending, queue; then edges, zones, seq, the
     three counter deltas and the waiting-list high-water mark *)
  check "snapshot tables" "(b,b,b,b,b,i,i,i,i,i,i,f)" (shape 1 snap);
  check "location key: state, phase" "(b,i)" (shape 1 (first 0));
  (* the int kernel's zone (n, matrix, offset, empty, hash memo) and
     minimal form (n, empty, constraint pairs) *)
  check "store record: zone, minimal form" "((i,b,i,i,i),(i,i,b))"
    (shape 2 (first 1));
  check "cell: location id, entries" "(i,b)" (shape 1 (first 2));
  let entry = Obj.field (Obj.field (first 2) 1) 0 in
  check "entry: record, loose, seq, alive, expanded" "(b,i,i,i,i)"
    (shape 1 entry);
  let store : Obj.t array = Obj.obj (Obj.field snap 1) in
  Alcotest.(check bool)
    "an entry points at a store record" true
    (Array.exists (fun r -> r == Obj.field entry 0) store)

(* A resume restores the hash-consing store's whole key set, so the
   resumed run freezes and reduces exactly the matrices the
   uninterrupted one does.  Fischer n=4 checked as [run] checks it
   (mutual exclusion, then U_enter), the first check stopped at 1 500
   zones and resumed: the resumed leg ends with every [zones.*] counter
   of the uninterrupted run, and both legs together reduce as many
   minimal forms.  [zones.interned] is the counter that tells: a store
   re-seeded from the live entries alone lacks the matrices whose
   entries were all pruned before the checkpoint, and ends at 3 019 on
   the int kernel.
   The budget exhaustion that wrote the checkpoint is the one count the
   two runs do not share.  Only the int kernel counts [dbm.ops]. *)
let c_minimize = Metrics.counter "dbm.ops" ~labels:[ ("op", "minimize") ]

let zone_counters =
  List.map
    (fun name -> (name, Metrics.counter name))
    [ "zones.stored"; "zones.subsumed"; "zones.edges";
      "zones.pruned_waiting"; "zones.interned" ]

(* [f ()], the [zones.*] counts it added, and the minimal forms it
   reduced. *)
let counted f =
  let read () = List.map (fun (n, c) -> (n, Metrics.value c)) zone_counters in
  let z0 = read () and m0 = Metrics.value c_minimize in
  let r = f () in
  let zones = List.map2 (fun (n, v) (_, v0) -> (n, v - v0)) (read ()) z0 in
  (r, zones, Metrics.value c_minimize - m0)

let resume_restores_store_keys () =
  let p = F.params_of_ints ~n:4 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p and cond = F.u_enter p in
  let mutex = F.mutual_exclusion in
  List.iter
    (fun (name, (module E : Reach.S), interned, minimize) ->
      let checks ?resume () =
        let inv = E.check_state_invariant ?resume sys bm mutex in
        (inv, E.check_condition sys bm cond)
      in
      let base, zones, minimized = counted checks in
      Alcotest.(check int)
        (name ^ ": uninterrupted zones.interned") interned
        (List.assoc "zones.interned" zones);
      Alcotest.(check int) (name ^ ": uninterrupted minimize") minimize
        minimized;
      let ck = tmp_ck () in
      Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
      let (), _, minimized1 =
        counted (fun () ->
            match
              E.check_state_invariant ~limit:1500 ~checkpoint:(ck, 0) sys bm
                mutex
            with
            | _ -> Alcotest.failf "%s: limit 1500 should exhaust" name
            | exception Reach.Out_of_budget _ -> ())
      in
      let resumed, zones', minimized2 = counted (checks ~resume:ck) in
      Alcotest.(check bool) (name ^ ": verdicts equal") true (resumed = base);
      Alcotest.(check (list (pair string int)))
        (name ^ ": zones.* counters") zones zones';
      Alcotest.(check int)
        (name ^ ": minimize over both legs") minimized
        (minimized1 + minimized2))
    [ ("int", (module Reach.Auto : Reach.S), 3033, 2711);
      ("ref", (module Reach.Ref : Reach.S), 2290, 0) ]

let resume_rejects_wrong_job () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let ck = tmp_ck () in
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  Snapshot.write ~path:ck ~fingerprint:"some-other-job" ~info:"zones=1"
    (Marshal.to_bytes 42 []);
  match Reach.Auto.reachable ~resume:ck sys bm with
  | _ -> Alcotest.fail "foreign snapshot accepted"
  | exception Snapshot.Bad_snapshot m ->
      Alcotest.(check bool)
        "message names both jobs" true
        (String.length m > 0)

(* ------------------------------------------------------------------ *)
(* Certificates and the paranoid engine.                               *)

let zone_count (cert : _ Certificate.t) =
  Array.fold_left (fun n l -> n + List.length l.Certificate.zones) 0 cert

(* The certificate a positive verdict of the int or reference engine
   hands out. *)
let cert_of kernel sys bm prop =
  match Reach.For_testing.certificate kernel sys bm prop with
  | Some cert -> cert
  | None -> Alcotest.fail "expected a positive verdict"

let accepts what sys bm prop cert =
  match Certificate.check sys bm prop cert with
  | Ok n ->
      Alcotest.(check int) (what ^ ": every zone checked") (zone_count cert) n
  | Error m -> Alcotest.failf "%s: certificate rejected: %s" what m

(* Every positive verdict of every registry system at test size comes
   with a certificate the checker accepts. *)
let certificate_registry_accepted () =
  let checked = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let model = Result.get_ok (Registry.instantiate e [ ("n", 3) ]) in
      let (Registry.Verified v) = model.Registry.verified in
      let sys = v.Registry.system and bm = v.Registry.boundmap in
      List.iter
        (fun check ->
          let what =
            e.Registry.name ^ " "
            ^ Registry.check_label model.Registry.label check
          in
          let prop =
            match check with
            | Registry.Cond c | Registry.Note { cond = c; _ } ->
                Certificate.Condition c
            | Registry.Inv { pred; _ } -> Certificate.Invariant pred
          in
          match Reach.For_testing.certificate `Int sys bm prop with
          | None -> ()
          | Some c ->
              incr checked;
              accepts what sys bm prop c)
        v.Registry.checks)
    Registry.entries;
  Alcotest.(check int) "positive verdicts certified" 14 !checked

(* The int engine's compact zones, lifted and unscaled, are the
   reference engine's full-width cylinders, zone for zone. *)
let certificate_int_equals_ref () =
  let same what sys bm cond =
    let ci = cert_of `Int sys bm (Certificate.Condition cond) in
    let cr = cert_of `Ref sys bm (Certificate.Condition cond) in
    Alcotest.(check int)
      (what ^ ": locations") (Array.length cr) (Array.length ci);
    Alcotest.(check bool) (what ^ ": zone for zone") true (ci = cr)
  in
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  same "fischer n=3" (F.system p) (F.boundmap p) (F.u_enter p);
  let p = Gen.quarter_fischer () in
  same "quarter fischer" (F.system p) (F.boundmap p) (F.u_enter p)

(* Every zone of the fischer n=3 certificate carries weight: dropping
   any one, or tightening a sample of its bounds from [<= c] to [< c],
   is rejected. *)
let certificate_mutations_rejected () =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p and cond = F.u_enter p in
  let prop = Certificate.Condition cond in
  let cert = cert_of `Int sys bm prop in
  accepts "unmutated" sys bm prop cert;
  let with_zones li zones =
    Array.mapi
      (fun i (l : _ Certificate.location) ->
        if i = li then { l with Certificate.zones } else l)
      cert
  in
  let rejected what cert =
    match Certificate.check sys bm prop cert with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  Array.iteri
    (fun li (l : _ Certificate.location) ->
      List.iteri
        (fun zi _ ->
          rejected
            (Printf.sprintf "location %d without zone %d" li zi)
            (with_zones li
               (List.filteri (fun k _ -> k <> zi) l.Certificate.zones)))
        l.Certificate.zones)
    cert;
  (* every non-strict bound, as (location, zone, constraint) *)
  let weak = ref [] in
  Array.iteri
    (fun li (l : _ Certificate.location) ->
      List.iteri
        (fun zi z ->
          List.iteri
            (fun ci (_, _, b) ->
              match b with
              | Tm_zones.Dbm_bound.Le _ -> weak := (li, zi, ci) :: !weak
              | Tm_zones.Dbm_bound.Lt _ | Tm_zones.Dbm_bound.Inf -> ())
            z)
        l.Certificate.zones)
    cert;
  let weak = Array.of_list (List.rev !weak) in
  let prng = Tm_base.Prng.create 23 in
  let samples = 60 in
  Alcotest.(check bool)
    "enough bounds to sample" true
    (Array.length weak >= samples);
  for _ = 1 to samples do
    let li, zi, ci = weak.(Tm_base.Prng.int prng (Array.length weak)) in
    let tighten z =
      List.mapi
        (fun k ((i, j, b) as c) ->
          match b with
          | Tm_zones.Dbm_bound.Le q when k = ci ->
              (i, j, Tm_zones.Dbm_bound.Lt q)
          | _ -> c)
        z
    in
    let zones =
      List.mapi
        (fun k z -> if k = zi then tighten z else z)
        cert.(li).Certificate.zones
    in
    rejected
      (Printf.sprintf "location %d zone %d bound %d tightened" li zi ci)
      (with_zones li zones)
  done

(* One class [k] with bounds [2, 2] firing action 0 forever, and a
   condition that arms at the start and at every step and bounds the
   time to the next step.  Each wrong claim below is caught by one
   check of the checker alone: the upper probe, the lower probe, the
   invariant, start coverage.  (With [b_l(k) < 2] LU widening would
   drop [x <= 2], and a tighter [b_u] would then widen the zones too.) *)
let certificate_property_rejected () =
  let module Ioa = Tm_ioa.Ioa in
  let sys =
    {
      Ioa.name = "loop";
      start = [ 0 ];
      alphabet = [ 0 ];
      kind_of = (fun _ -> Ioa.Output);
      delta = (fun s a -> if a = 0 then [ s ] else []);
      classes = [ "k" ];
      class_of = (fun _ -> Some "k");
      equal_state = Int.equal;
      hash_state = Hashtbl.hash;
      pp_state = Format.pp_print_int;
      equal_action = Int.equal;
      pp_action = Format.pp_print_int;
    }
  in
  let bm =
    Tm_timed.Boundmap.of_list [ ("k", Interval.make (q 2) (Time.Fin (q 2))) ]
  in
  let next lo hi =
    Condition.make ~name:"next" ~t_start:(fun _ -> true)
      ~t_step:(fun _ _ _ -> true)
      ~bounds:(Interval.make lo (Time.Fin hi))
      ~in_pi:(fun a -> a = 0)
      ()
  in
  let within lo hi = Certificate.Condition (next lo hi) in
  let cert = cert_of `Int sys bm (within (q 0) (q 2)) in
  let inv = cert_of `Int sys bm (Certificate.Invariant (fun _ -> true)) in
  accepts "the condition" sys bm (within (q 0) (q 2)) cert;
  (match
     Certificate.check
       ~deadline:(Tm_obs.Tracing.now_s () -. 1.)
       sys bm (within (q 0) (q 2)) cert
   with
  | exception Certificate.Out_of_time -> ()
  | _ -> Alcotest.fail "a past deadline must cut the check short");
  List.iter
    (fun (what, prop, cert) ->
      match Certificate.check sys bm prop cert with
      | Ok _ -> Alcotest.failf "%s: accepted" what
      | Error _ -> ())
    [
      ("upper bound 3/2", within (q 0) (Rational.make 3 2), cert);
      ("lower bound 3/2", within (Rational.make 3 2) (q 2), cert);
      ("false invariant", Certificate.Invariant (fun _ -> false), inv);
      ("no zones", Certificate.Invariant (fun _ -> true), [||]);
    ]

let paranoid_clean_agrees () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let cond = F.u_enter p in
  let base = Reach.Auto.check_condition sys bm cond in
  let t0 = Metrics.value c_selfcheck and m0 = Metrics.value c_mismatch in
  let o = Reach.Paranoid.check_condition sys bm cond in
  Alcotest.(check bool) "verdict equals int engine" true (o = base);
  Alcotest.(check bool)
    "certificate zones were checked" true
    (Metrics.value c_selfcheck > t0);
  Alcotest.(check int) "no mismatches" m0 (Metrics.value c_mismatch)

(* The paranoid engine goes through the same scaling step: on a
   fractional job the certificate comes back unscaled, and the verdict
   must equal the unscaled reference engine's. *)
let paranoid_fractional_agrees () =
  let p = Gen.quarter_fischer () in
  let sys = F.system p and bm = F.boundmap p in
  let cond = F.u_enter p in
  let base = Reach.Ref.check_condition sys bm cond in
  let t0 = Metrics.value c_selfcheck and m0 = Metrics.value c_mismatch in
  let o = Reach.Paranoid.check_condition sys bm cond in
  Alcotest.(check bool) "verdict equals ref engine" true (o = base);
  Alcotest.(check bool)
    "certificate zones were checked" true
    (Metrics.value c_selfcheck > t0);
  Alcotest.(check int) "no mismatches" m0 (Metrics.value c_mismatch)

(* Margin walks probe mediant-perturbed, non-integral boundmaps; every
   probe's verdict is checked — a certificate or a reference rerun —
   and the report must equal the int engine's. *)
let paranoid_margin_agrees () =
  let module Margin = Tm_faults.Margin in
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let report (module E : Reach.S) =
    Margin.report ~max_probes:12 ~subject:"fischer mutex"
      ~check:(fun bm' ->
        Margin.invariant_status (module E) sys F.mutual_exclusion bm')
      bm
  in
  let base = report (module Reach.Auto) in
  let t0 = Metrics.value c_selfcheck in
  let m0 = Metrics.value c_mismatch and d0 = Metrics.value c_degraded in
  Alcotest.(check bool)
    "report equals int engine" true
    (report (module Reach.Paranoid) = base);
  Alcotest.(check bool)
    "probes were checked" true
    (Metrics.value c_selfcheck > t0);
  Alcotest.(check int) "no mismatches" m0 (Metrics.value c_mismatch);
  Alcotest.(check int) "no degradation" d0 (Metrics.value c_degraded)

(* A refutation is confirmed by a reference rerun, which counts one
   check and degrades nothing. *)
let paranoid_refutation_confirmed () =
  let bad = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:3 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system bad and bm = F.boundmap bad in
  let base = Reach.Auto.check_state_invariant sys bm F.mutual_exclusion in
  let t0 = Metrics.value c_selfcheck and d0 = Metrics.value c_degraded in
  let o = Reach.Paranoid.check_state_invariant sys bm F.mutual_exclusion in
  (match (o, base) with
  | Error s, Error s' ->
      Alcotest.(check bool)
        "same violating state" true
        (sys.Tm_ioa.Ioa.equal_state s s')
  | _ -> Alcotest.fail "a >= b must break mutual exclusion");
  Alcotest.(check int) "one confirmation" (t0 + 1) (Metrics.value c_selfcheck);
  Alcotest.(check int) "no degradation" d0 (Metrics.value c_degraded)

(* A refutation the int engine reaches within the deadline but the
   reference rerun does not is unconfirmed: exhausted, with no mismatch
   and no degrade, and no reference snapshot at the caller's checkpoint
   path, so the supervised retry runs the same paranoid job again.  The
   deadline sits between the two engines' times for the refutation, on
   fischer n=5 about fifty-fold apart. *)
let paranoid_unconfirmed_refutation () =
  let e = Result.get_ok (Registry.find "fischer") in
  let model =
    Result.get_ok (Registry.instantiate e [ ("n", 5); ("a", 2); ("b", 1) ])
  in
  let (Registry.Verified v) = model.Registry.verified in
  let sys = v.Registry.system and bm = v.Registry.boundmap in
  let check = List.hd v.Registry.checks in
  let pred =
    match check with
    | Registry.Inv { pred; _ } -> pred
    | _ -> Alcotest.fail "fischer's first check is mutual exclusion"
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    (match f sys bm pred with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "a >= b must break mutual exclusion");
    Unix.gettimeofday () -. t0
  in
  let t_int =
    Float.min
      (time Reach.Auto.check_state_invariant)
      (time Reach.Auto.check_state_invariant)
  in
  let t_ref = time Reach.Ref.check_state_invariant in
  let deadline_s = sqrt (t_int *. t_ref) in
  let job =
    Tm_serve.Catalog.check_job (module Reach.Paranoid) ~label:"fischer" v
      check
  in
  let ck = tmp_ck () in
  rm_f ck;
  Fun.protect ~finally:(fun () -> rm_f ck) @@ fun () ->
  let m0 = Metrics.value c_mismatch and d0 = Metrics.value c_degraded in
  let retries = ref 0 in
  (match
     Tm_serve.Catalog.supervise Tm_serve.Catalog.cli_policy ~attempts:2
       ~backoff_s:0.
       ~on_retry:(fun ~attempt:_ ~delay_s:_ ~reason:_ -> incr retries)
       ~deadline_s ~domains:1 ~checkpoint:(ck, 64) job
   with
  | Error (`Exhausted x) ->
      Alcotest.(check bool)
        (Printf.sprintf "exhausted by the deadline (%s)" x.Reach.reason)
        true
        (String.starts_with ~prefix:"deadline" x.Reach.reason)
  | Error (`Crashed m) -> Alcotest.failf "crashed: %s" m
  | Ok _ ->
      Alcotest.failf "confirmed within %.0f ms (int %.0f ms, ref %.0f ms)"
        (deadline_s *. 1000.) (t_int *. 1000.) (t_ref *. 1000.));
  Alcotest.(check int) "the deadline retried once" 1 !retries;
  Alcotest.(check int) "no mismatch" m0 (Metrics.value c_mismatch);
  Alcotest.(check int) "no degrade" d0 (Metrics.value c_degraded);
  if Sys.file_exists ck then
    Alcotest.(check string)
      "only the paranoid job's own snapshot"
      (Reach.Paranoid.fingerprint sys bm (Reach.Invariant pred))
      (fst (Snapshot.inspect ck))

let paranoid_detects_corruption () =
  let p = F.params_of_ints ~n:2 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = F.boundmap p in
  let cond = F.u_enter p in
  let base = Reach.Auto.check_condition sys bm cond in
  Reach.For_testing.corrupt_certificate := true;
  Fun.protect ~finally:Reach.For_testing.reset @@ fun () ->
  let m0 = Metrics.value c_mismatch and d0 = Metrics.value c_degraded in
  let o = Reach.Paranoid.check_condition sys bm cond in
  Alcotest.(check bool)
    "degraded run still reports the correct verdict" true (o = base);
  Alcotest.(check bool)
    "mismatch recorded" true
    (Metrics.value c_mismatch > m0);
  Alcotest.(check int) "degraded once" (d0 + 1) (Metrics.value c_degraded)

(* ------------------------------------------------------------------ *)
(* Deadline granularity.                                               *)

(* An adversarially slow automaton: every successor computation burns
   ~10 ms, and the full space has hundreds of zones, so an uninterrupted
   run takes seconds.  A 50 ms deadline must stop the search after at
   most one in-flight zone expansion — well under a second. *)
let slow_automaton ?(n = 400) ?(sleep = 0.01) () =
  let module Ioa = Tm_ioa.Ioa in
  {
    Ioa.name = "slow";
    start = [ 0 ];
    alphabet = [ 0 ];
    kind_of = (fun _ -> Ioa.Output);
    delta =
      (fun s a ->
        if a <> 0 then []
        else begin
          Unix.sleepf sleep;
          [ (s + 1) mod n ]
        end);
    classes = [ "k" ];
    class_of = (fun _ -> Some "k");
    equal_state = Int.equal;
    hash_state = Hashtbl.hash;
    pp_state = Format.pp_print_int;
    equal_action = Int.equal;
    pp_action = Format.pp_print_int;
  }

let deadline_overshoot_bounded () =
  let aut = slow_automaton () in
  let bm =
    Tm_timed.Boundmap.of_list
      [ ("k", Interval.make (q 1) (Time.Fin (q 2))) ]
  in
  let t0 = Unix.gettimeofday () in
  (match Reach.Auto.reachable ~deadline_s:0.05 aut bm with
  | _ -> Alcotest.fail "slow run should hit the deadline"
  | exception Reach.Out_of_budget e ->
      Alcotest.(check bool)
        "reason names the deadline" true
        (String.length e.Reach.reason >= 8
        && String.sub e.Reach.reason 0 8 = "deadline"));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* one zone expansion here costs ~10 ms; allow generous CI slack but
     stay far below the multi-second uninterrupted run *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped promptly (%.3f s)" elapsed)
    true (elapsed < 1.0)

(* A paranoid run's certificate check gets what the search left of
   the deadline.  Ten states whose [delta] sleeps 20 ms each: the search
   takes about 200 ms, and the checker, which calls [delta] again, as
   long; a 300 ms deadline cuts the check short — exhausted, not a
   mismatch. *)
let paranoid_check_bounded () =
  let aut = slow_automaton ~n:10 ~sleep:0.02 () in
  let bm =
    Tm_timed.Boundmap.of_list
      [ ("k", Interval.make (q 1) (Time.Fin (q 2))) ]
  in
  let m0 = Metrics.value c_mismatch and d0 = Metrics.value c_degraded in
  (match Reach.Paranoid.reachable ~deadline_s:0.3 aut bm with
  | _ -> Alcotest.fail "the check should run out of time"
  | exception Reach.Out_of_budget e ->
      Alcotest.(check string)
        "reason" "deadline exceeded (300 ms) checking the certificate"
        e.Reach.reason);
  Alcotest.(check int) "no mismatch" m0 (Metrics.value c_mismatch);
  Alcotest.(check int) "no degrade" d0 (Metrics.value c_degraded)

let suite =
  [
    Alcotest.test_case "snapshot: crc32 check value" `Quick crc32_known_vector;
    Alcotest.test_case "snapshot: write/read/inspect round-trip" `Quick
      snapshot_roundtrip;
    Alcotest.test_case "snapshot: corruption rejected descriptively" `Quick
      snapshot_rejects_corruption;
    Alcotest.test_case "snapshot: older version refused, CLI exits 2" `Quick
      snapshot_old_version_refused;
    Alcotest.test_case "snapshot: short write never adopted" `Quick
      snapshot_short_write_never_adopted;
    Alcotest.test_case "snapshot: crash before rename leaks nothing" `Quick
      snapshot_fail_before_rename;
    Alcotest.test_case "snapshot: sweep removes only orphaned temps" `Quick
      snapshot_sweep_temps;
    Alcotest.test_case "retries: exponential backoff then success" `Quick
      with_retries_backoff;
    Alcotest.test_case "retries: exhaustion keeps last reason" `Quick
      with_retries_exhausts;
    Alcotest.test_case "retries: decorrelated jitter deterministic" `Quick
      with_retries_jitter;
    Alcotest.test_case "retries: invalid arguments rejected" `Quick
      with_retries_validates;
    Alcotest.test_case "supervisor: interrupt flag" `Quick
      interrupt_flag_basics;
    kill_resume_random;
    Alcotest.test_case "fischer: condition verdict survives kill+resume"
      `Quick fischer_cond_resume;
    Alcotest.test_case "interrupt: checkpoint then resume equals one-shot"
      `Quick cooperative_interrupt_resume;
    Alcotest.test_case "checkpoint: removed when the run completes" `Quick
      completed_run_removes_checkpoint;
    Alcotest.test_case "checkpoint: fractional job round-trips unscaled"
      `Quick fractional_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: exactly sized zones, bounded size" `Quick
      checkpoint_size_bound;
    Alcotest.test_case "resume: foreign snapshot rejected" `Quick
      resume_rejects_wrong_job;
    Alcotest.test_case "certificate: every registry verdict accepted" `Quick
      certificate_registry_accepted;
    Alcotest.test_case "certificate: int fixpoint equals ref, zone for zone"
      `Quick certificate_int_equals_ref;
    Alcotest.test_case
      "certificate: dropped zones and tightened bounds rejected" `Quick
      certificate_mutations_rejected;
    Alcotest.test_case "certificate: stronger properties rejected" `Quick
      certificate_property_rejected;
    Alcotest.test_case "paranoid: clean run agrees with int" `Quick
      paranoid_clean_agrees;
    Alcotest.test_case "paranoid: fractional job checked, agrees with ref"
      `Quick paranoid_fractional_agrees;
    Alcotest.test_case "paranoid: margin probes checked, report unchanged"
      `Quick paranoid_margin_agrees;
    Alcotest.test_case "paranoid: refutation confirmed by the ref engine"
      `Quick paranoid_refutation_confirmed;
    Alcotest.test_case "paranoid: injected corruption detected, degraded"
      `Quick paranoid_detects_corruption;
    Alcotest.test_case "paranoid: unconfirmed refutation is exhausted"
      `Quick paranoid_unconfirmed_refutation;
    Alcotest.test_case "paranoid: a check past the deadline is exhausted"
      `Quick paranoid_check_bounded;
    Alcotest.test_case "deadline: overshoot bounded by one expansion" `Quick
      deadline_overshoot_bounded;
    Alcotest.test_case "resume: store key set restored, counters equal"
      `Quick resume_restores_store_keys;
    Alcotest.test_case "checkpoint: payload layout pinned to format 3" `Quick
      checkpoint_layout_pinned;
  ]
