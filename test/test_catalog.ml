(* Daemon cache keys.  A job's fingerprint is the verdict cache's
   content address and the checkpoint routing key, so a change to any
   fingerprint silently orphans every cached verdict and checkpoint a
   running daemon has written.  These tests pin the MD5 of
   [Catalog.of_request]'s fingerprint for every system x {each verify
   item, margin, simulate}, at default and at non-default parameters,
   plus the request errors the daemon returns, and the whole request
   universe of the serve-mix benchmark (perfbench/mix.py).

   Also the policy table of [Catalog.supervise], the attempt loop the
   CLI and the daemon share, driven with scripted fake jobs. *)

module Json = Tm_obs.Json
module Catalog = Tm_serve.Catalog
module Reach = Tm_zones.Reach
module Supervisor = Tm_recover.Supervisor

let digest req =
  match Catalog.of_request req with
  | Ok job -> Digest.to_hex (Digest.string job.Catalog.fingerprint)
  | Error m -> "error: " ^ m

let obj kvs = Json.Obj kvs
let ints kvs = obj (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let req ?params ?item ?(extra = []) op system =
  obj
    ([ ("op", Json.String op); ("system", Json.String system) ]
    @ (match params with None -> [] | Some p -> [ ("params", ints p) ])
    @ (match item with None -> [] | Some i -> [ ("item", Json.Int i) ])
    @ extra)

(* system, number of verify items, one non-default parameter set (rg
   and two read no parameters: theirs still reaches the simulation
   fingerprint, which records the request's parameters verbatim) *)
let systems =
  [
    ("rm", 2, [ ("k", 5); ("c1", 3); ("c2", 5); ("l", 2) ]);
    ("im", 2, [ ("k", 2); ("c1", 1); ("c2", 4); ("l", 1) ]);
    ("relay", 1, [ ("n", 3); ("d1", 2); ("d2", 3) ]);
    ("fischer", 2, [ ("n", 3); ("a", 2); ("b", 3) ]);
    ("rg", 1, [ ("n", 5) ]);
    ("ring", 1, [ ("n", 5); ("d1", 2); ("d2", 3) ]);
    ("fd", 2, [ ("g1", 4); ("g2", 5); ("m", 1) ]);
    ("two", 3, [ ("k", 2) ]);
  ]

let cases =
  List.concat_map
    (fun (sys, nitems, nondefault) ->
      List.concat_map
        (fun (tag, params) ->
          List.init nitems (fun i ->
              ( Printf.sprintf "%s verify item %d %s" sys i tag,
                req ?params ~item:i "verify" sys ))
          @ [
              (Printf.sprintf "%s margin %s" sys tag, req ?params "margin" sys);
              ( Printf.sprintf "%s simulate %s" sys tag,
                req ?params "simulate" sys );
            ])
        [ ("default", None); ("params", Some nondefault) ])
    systems
  @ [
      ("fischer verify ref", req ~item:0 ~extra:[ ("engine", Json.String "ref") ] "verify" "fischer");
      ( "fischer verify paranoid",
        req ~item:1 ~extra:[ ("engine", Json.String "paranoid") ] "verify" "fischer" );
      ( "fd margin budgets",
        req ~extra:[ ("limit", Json.Int 500); ("deadline_s", Json.Float 2.5) ] "margin" "fd" );
      ( "ring simulate knobs",
        req
          ~extra:
            [ ("steps", Json.Int 9000); ("strategy", Json.String "eager");
              ("seed", Json.Int 7); ("deadline_s", Json.Float 1.) ]
          "simulate" "ring" );
      ("no op, no system", obj []);
      ("fischer n clamp", req ~params:[ ("n", 9) ] ~item:0 "verify" "fischer");
    ]

let expected =
  [
    ("rm verify item 0 default", "de94c165d41c78e750476030c8bd76d4");
    ("rm verify item 1 default", "d9783c2abd5549f2d6f3c8a728212173");
    ("rm margin default", "c19b2ee70d14f49b53bc196f1a64aa48");
    ("rm simulate default", "9a7d200047bae799ea09bbe765cf93e3");
    ("rm verify item 0 params", "a92cd873736af261e6f918197952f658");
    ("rm verify item 1 params", "4dbda336c72d0d1d064950e970bafdbd");
    ("rm margin params", "b3653b3e4370d281fb3856c408de79ad");
    ("rm simulate params", "92eba17cde164d988604da928e8e2b4e");
    ("im verify item 0 default", "0645df61311e4671e00c8cad5eee532a");
    ("im verify item 1 default", "9855eace26758048c6043c8dd3dd8f14");
    ("im margin default", "04445a777115e1193bcc4550b67b8883");
    ("im simulate default", "8c7b7863099b10e882009931dd6e0921");
    ("im verify item 0 params", "10c59db0181cef2a02bf44197c5134b3");
    ("im verify item 1 params", "66b454bb85b4a32c777086306a4381f8");
    ("im margin params", "52cd7868cbb0ceb5ef812e509892b52c");
    ("im simulate params", "15e35ab26cba4661cabcbf49821ad116");
    ("relay verify item 0 default", "8bf27eb75def7411cb25c41e0d623ac3");
    ("relay margin default", "638b055e268a30e5eb7086ef90e5bf74");
    ("relay simulate default", "367d6aacc0fafb93aab174a51e2140d0");
    ("relay verify item 0 params", "85a23dcfc15008d0674b1e7ba290102c");
    ("relay margin params", "3871af8af9a908df1c2d71ed33847771");
    ("relay simulate params", "39ada13416cd07d39e4c39dcda50af81");
    ("fischer verify item 0 default", "ca7b990fd415a269ccc6b925b0a8bf8f");
    ("fischer verify item 1 default", "2e8c6e2899959d5734367ad1d1758027");
    ("fischer margin default", "74e49f5f0621a5708583a64d49a62369");
    ("fischer simulate default", "d43193ab8ad01be53bb2ed503379568e");
    ("fischer verify item 0 params", "cb1b110ee85b7fc55d6abf23f0e48945");
    ("fischer verify item 1 params", "2c36f224dfb6df78229c629a3f771ab4");
    ("fischer margin params", "c29a02bd3b5e08474ca5ac3ec3cd11c2");
    ("fischer simulate params", "8db495757528979065f5c0a6cb47b4bb");
    ("rg verify item 0 default", "b54b495a5805a397a1fa9dfbcf036d16");
    ("rg margin default", "8039a0fecbd03c4f22f80317d9033412");
    ("rg simulate default", "a13dec8b4754c1db33b5939ffb82eb6b");
    ("rg verify item 0 params", "b54b495a5805a397a1fa9dfbcf036d16");
    ("rg margin params", "8039a0fecbd03c4f22f80317d9033412");
    ("rg simulate params", "17abbeb1e3413e2c9e6c90334f6a7c02");
    ("ring verify item 0 default", "c08c41069cdbe0c7627dfcf0690d78cf");
    ("ring margin default", "c76dd8f2e211a427ad12b114c5170ddf");
    ("ring simulate default", "a0abfc7335e2f8c928a79cd0e1041fde");
    ("ring verify item 0 params", "b0b54def1afe66f451540d134166ec45");
    ("ring margin params", "bb3b77975d3e9f5fc1d9ec259fd7fb13");
    ("ring simulate params", "2e8b89d89b67d3606c3dfb4744576560");
    ("fd verify item 0 default", "2bce09a865ebd02de5ad298cc4f54997");
    ("fd verify item 1 default", "91fb87880f458b4a63cf681e5f75e2d0");
    ("fd margin default", "7a81613f73fee465f61e2ca7a3f3574f");
    ("fd simulate default", "dff3ef707d196e48c829aeb081c2f933");
    ("fd verify item 0 params", "b00a32bc39f0e067d18a0da096c5b2c7");
    ("fd verify item 1 params", "0a22ee65fb2bd5eaa268bae6c6b6ed24");
    ("fd margin params", "a27904ab179c233b82eaf67c329a24f2");
    ("fd simulate params", "6f61a659b9134eba00d3ca47e0dee5c0");
    ("two verify item 0 default", "525e70282c2883db857a7f820fd42b86");
    ("two verify item 1 default", "a635f5d076a03f74253f6989d61235e2");
    ("two verify item 2 default", "f8a92b2983a208c3d9982edb15fe2d5a");
    ("two margin default", "dfb0108a2820c84f2fdc30339cd438a8");
    ("two simulate default", "16f4a85777fbadbe40d66618ffae6f40");
    ("two verify item 0 params", "525e70282c2883db857a7f820fd42b86");
    ("two verify item 1 params", "a635f5d076a03f74253f6989d61235e2");
    ("two verify item 2 params", "f8a92b2983a208c3d9982edb15fe2d5a");
    ("two margin params", "dfb0108a2820c84f2fdc30339cd438a8");
    ("two simulate params", "d202c204b00f63741deefa3e20b8eec6");
    ("fischer verify ref", "efe4bed50d995db1b45ac0dc6581f4ef");
    ("fischer verify paranoid", "1fcda50852140efdce4fd734cc41765d");
    ("fd margin budgets", "e5c937414df336b65d352c7c126958b9");
    ("ring simulate knobs", "4552c57a8f240c318867758497782ec0");
    ("no op, no system", "de94c165d41c78e750476030c8bd76d4");
    ("fischer n clamp", "4cf82542a756439f07439fb3f5328ee4");
  ]

let test_fingerprints () =
  let got = List.map (fun (label, r) -> (label, digest r)) cases in
  let bad =
    List.filter
      (fun (label, d) -> List.assoc_opt label expected <> Some d)
      got
  in
  if bad <> [] then
    Alcotest.failf "fingerprints moved:\n%s"
      (String.concat "\n"
         (List.map (fun (l, d) -> Printf.sprintf "    (%S, %S);" l d) bad))

(* Request errors are part of the protocol: clients match on them. *)
let error_cases =
  [
    ( req ~params:[ ("n", 0) ] ~item:0 "verify" "relay",
      "Signal_relay.params: n < 1" );
    (req ~item:1 "verify" "rg", "item 1 out of range (rg has 1 items)");
    (req ~item:2 "verify" "fischer", "item 2 out of range (fischer has 2 items)");
    ( req ~params:[ ("z", 1) ] "verify" "rm",
      "unknown param \"z\" (known: k, c1, c2, l, n, d1, d2, a, b, g1, g2, m)" );
    ( obj [ ("op", Json.String "verify"); ("params", obj [ ("n", Json.String "3") ]) ],
      "param \"n\" must be an integer" );
    ( obj [ ("params", Json.Int 3) ],
      "\"params\" must be an object of integers" );
    ( req "verify" "nope",
      "unknown system \"nope\" (known: rm, im, relay, fischer, rg, ring, fd, two)" );
    (req "prove" "rm", "unknown op \"prove\" (verify | margin | simulate | ping | stats | shutdown)");
    ( req ~extra:[ ("engine", Json.String "fast") ] "verify" "rm",
      "unknown engine \"fast\" (auto | ref | paranoid)" );
    ( req ~extra:[ ("strategy", Json.String "foo") ] "simulate" "rm",
      "unknown strategy \"foo\" (eager | lazy | random)" );
    (Json.List [], "request must be a JSON object");
  ]

let test_errors () =
  List.iter
    (fun (r, msg) ->
      match Catalog.of_request r with
      | Ok _ -> Alcotest.failf "accepted: %s" (Json.to_string r)
      | Error m -> Alcotest.(check string) (Json.to_string r) msg m)
    error_cases

(* perfbench/mix.py's universe(), request for request *)
let mix_universe () =
  let fischer n =
    List.concat_map
      (fun a ->
        List.map
          (fun b -> req ~params:[ ("n", n); ("a", a); ("b", b) ] ~item:0 "verify" "fischer")
          [ 1; 2; 3; 4 ])
      [ 1; 2; 3 ]
  in
  let rm =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun (c1, c2, l) ->
            List.map
              (fun item ->
                req ~params:[ ("k", k); ("c1", c1); ("c2", c2); ("l", l) ] ~item
                  "verify" "rm")
              [ 0; 1 ])
          [ (2, 3, 1); (3, 4, 1); (3, 5, 2); (4, 6, 1); (2, 2, 1) ])
      (List.init 10 (fun i -> i + 1))
  in
  let line sys ns pairs =
    List.concat_map
      (fun n ->
        List.map
          (fun (d1, d2) -> req ~params:[ ("n", n); ("d1", d1); ("d2", d2) ] ~item:0 "verify" sys)
          pairs)
      ns
  in
  let relay =
    line "relay" (List.init 8 (fun i -> i + 1))
      [ (1, 2); (1, 3); (2, 3); (0, 1); (2, 2) ]
  in
  let ring =
    line "ring" (List.init 5 (fun i -> i + 2))
      [ (1, 2); (1, 3); (2, 3); (2, 2); (1, 1) ]
  in
  let fd =
    List.concat_map
      (fun g1 ->
        List.map
          (fun g2 -> req ~params:[ ("g1", g1); ("g2", g2); ("m", 1) ] "margin" "fd")
          [ g1; g1 + 1 ])
      [ 3; 4; 5; 6 ]
  in
  fischer 3 @ fischer 2 @ rm @ relay @ ring @ fd

let universe_digest = "7a58cd9ef704a7cb2c08bd7fca0a08db"

let test_mix_universe () =
  let fps =
    List.map
      (fun r ->
        match Catalog.of_request r with
        | Ok job -> job.Catalog.fingerprint
        | Error m -> Alcotest.failf "rejected %s: %s" (Json.to_string r) m)
      (mix_universe ())
  in
  Alcotest.(check int) "universe size" 197 (List.length fps);
  Alcotest.(check string) "universe fingerprints" universe_digest
    (Digest.to_hex (Digest.string (String.concat "\n" fps)))

(* ------------------------------------------------------------------ *)
(* the supervised runner's policy table *)

let exhausted ?checkpoint ?(zones = 5) reason =
  Error { Reach.reason; partial = { Reach.locations = 1; zones; edges = 2 };
          checkpoint }

let zone_limit = "zone budget exhausted (limit=5 stored zones)"
let deadline = "deadline exceeded (5 ms)"

(* A job whose attempts play [script] in turn; [resumes ()] lists the
   [~resume] each attempt received. *)
let scripted script =
  let left = ref script and resumes = ref [] in
  let exec ~limit:_ ~deadline_s:_ ~domains:_ ~checkpoint:_ ~resume =
    resumes := resume :: !resumes;
    match !left with
    | step :: rest ->
        left := rest;
        step ()
    | [] -> Alcotest.fail "an attempt beyond the script"
  in
  ( { Catalog.label = "fake"; op = "verify"; fingerprint = "fake-fp";
      req_limit = None; req_deadline_s = None; exec },
    fun () -> List.rev !resumes )

let show = function
  | Ok n -> Printf.sprintf "ok %d" n
  | Error (`Exhausted (e : Reach.exhausted)) ->
      Printf.sprintf "exhausted %s (%d zones)%s" e.reason e.partial.zones
        (match e.checkpoint with Some c -> " @" ^ c | None -> "")
  | Error (`Crashed m) -> "crashed " ^ m

let supervise ?(on_retry = fun ~attempt:_ ~delay_s:_ ~reason:_ -> ()) ?resume
    policy script =
  let job, resumes = scripted script in
  Fun.protect ~finally:Supervisor.clear_interrupt @@ fun () ->
  let r =
    Catalog.supervise policy ~attempts:3 ~backoff_s:0. ~on_retry ~domains:1
      ?resume job
  in
  (show r, resumes ())

let interrupt_then r () =
  Supervisor.request_interrupt ();
  r

let boom () = failwith "boom"
let ok () = Ok 7

(* name, script, then for each policy the final result and the
   [~resume] of every attempt; [None] for the result means the attempt's
   exception propagates *)
let policy_table =
  [
    ( "checkpointed exhaustions chain",
      [ (fun () -> exhausted ~checkpoint:"c1" zone_limit);
        (fun () -> exhausted ~checkpoint:"c2" zone_limit); ok ],
      (Some "ok 7", [ None; Some "c1"; Some "c2" ]),
      (Some "ok 7", [ None; Some "c1"; Some "c2" ]) );
    ( "checkpointed exhaustions run out of attempts",
      [ (fun () -> exhausted ~checkpoint:"c1" zone_limit);
        (fun () -> exhausted ~checkpoint:"c2" zone_limit);
        (fun () -> exhausted ~checkpoint:"c3" ~zones:15 zone_limit) ],
      ( Some ("exhausted " ^ zone_limit ^ " (15 zones) @c3"),
        [ None; Some "c1"; Some "c2" ] ),
      ( Some ("exhausted " ^ zone_limit ^ " (15 zones) @c3"),
        [ None; Some "c1"; Some "c2" ] ) );
    ( "deadline exhaustion without a checkpoint",
      [ (fun () -> exhausted deadline); ok ],
      (Some "ok 7", [ None; None ]),
      (Some ("exhausted " ^ deadline ^ " (5 zones)"), [ None ]) );
    ( "zone exhaustion without a checkpoint",
      [ (fun () -> exhausted zone_limit) ],
      (Some ("exhausted " ^ zone_limit ^ " (5 zones)"), [ None ]),
      (Some ("exhausted " ^ zone_limit ^ " (5 zones)"), [ None ]) );
    ( "interrupt during an attempt",
      [ interrupt_then
          (exhausted ~checkpoint:"c1" "interrupted (SIGINT/SIGTERM)") ],
      (Some "exhausted interrupted (SIGINT/SIGTERM) (5 zones) @c1", [ None ]),
      (Some "exhausted interrupted (SIGINT/SIGTERM) (5 zones) @c1", [ None ])
    );
    ( "raised exception",
      [ boom; ok ],
      (None, [ None ]),
      (Some "ok 7", [ None; None ]) );
    ( "raised exception every attempt",
      [ boom; boom; boom ],
      (None, [ None ]),
      (Some "crashed Failure(\"boom\")", [ None; None; None ]) );
    ( "second signal inside an attempt",
      [ (fun () -> raise Supervisor.Interrupted) ],
      (None, [ None ]),
      (Some "exhausted interrupted: daemon shutting down (0 zones)", [ None ])
    );
  ]

let test_policy_table () =
  List.iter
    (fun (name, script, cli, daemon) ->
      List.iter
        (fun (pname, policy, (want, want_resumes)) ->
          let what = Printf.sprintf "%s, %s policy" name pname in
          match (want, supervise policy script) with
          | Some want, (got, resumes) ->
              Alcotest.(check string) what want got;
              Alcotest.(check (list (option string)))
                (what ^ ": resumes") want_resumes resumes
          | None, (got, _) -> Alcotest.failf "%s: returned %s" what got
          | exception Failure _ when want = None -> ()
          | exception Supervisor.Interrupted when want = None -> ())
        [ ("cli", Catalog.cli_policy, cli);
          ("daemon", Catalog.daemon_policy, daemon) ])
    policy_table

(* An attempt that leaves no snapshot after a finished search removed
   the one it resumed from (a paranoid run whose check ran out of
   time) sends the next attempt back to the start. *)
let test_removed_resume_dropped () =
  let got, resumes =
    supervise ~resume:"/nonexistent/c0" Catalog.cli_policy
      [ (fun () -> exhausted deadline); ok ]
  in
  Alcotest.(check string) "retried" "ok 7" got;
  Alcotest.(check (list (option string)))
    "resumes" [ Some "/nonexistent/c0"; None ] resumes

(* An interrupt that arrives before an attempt stops the job with the
   policy's reason, the progress so far and the checkpoint to resume
   from — before the first attempt too. *)
let test_interrupt_before_attempt () =
  List.iter
    (fun (pname, (policy : Catalog.policy)) ->
      let got, resumes =
        supervise policy
          ~on_retry:(fun ~attempt:_ ~delay_s:_ ~reason:_ ->
            Supervisor.request_interrupt ())
          [ (fun () -> exhausted ~checkpoint:"c1" ~zones:9 zone_limit) ]
      in
      Alcotest.(check string) (pname ^ ": between attempts")
        (Printf.sprintf "exhausted %s (9 zones) @c1" policy.interrupted) got;
      Alcotest.(check (list (option string))) (pname ^ ": one attempt")
        [ None ] resumes;
      Supervisor.request_interrupt ();
      let got, resumes = supervise ~resume:"c0" policy [] in
      Alcotest.(check string) (pname ^ ": before the first")
        (Printf.sprintf "exhausted %s (0 zones) @c0" policy.interrupted) got;
      Alcotest.(check (list (option string))) (pname ^ ": no attempt") []
        resumes)
    [ ("cli", Catalog.cli_policy); ("daemon", Catalog.daemon_policy) ]

(* A refuted condition reports how far the search got when the
   observer's witness fired, and the verdict document carries those
   stats.  The relay line
   n=5, d=[1,2] delivers in [5, 10]: [5, 9] misses the deadline and
   [6, 10] admits an early delivery. *)
let test_refutation_stats () =
  let module SR = Tm_systems.Signal_relay in
  let module Registry = Tm_systems.Registry in
  let p = SR.params_of_ints ~n:5 ~d1:1 ~d2:2 in
  let u lo hi =
    Tm_timed.Condition.make ~name:"U(0,5)"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:
        (Tm_base.Interval.make
           (Tm_base.Rational.of_int lo)
           (Tm_base.Time.of_int hi))
      ~in_pi:(fun a -> a = SR.Signal 5)
      ()
  in
  let v =
    { Registry.system = SR.line p; boundmap = SR.boundmap p; checks = [] }
  in
  let case name c side =
    let job =
      Catalog.check_job (module Reach.Auto) ~label:name v (Registry.Cond c)
    in
    let st =
      match
        job.Catalog.exec ~limit:None ~deadline_s:None ~domains:1
          ~checkpoint:None ~resume:None
      with
      | Ok (Catalog.Lower_violation st) when side = `Lower -> st
      | Ok (Catalog.Upper_violation st) when side = `Upper -> st
      | Ok _ | Error _ -> Alcotest.failf "%s: not refuted as expected" name
    in
    Alcotest.(check bool)
      (name ^ ": stats nonzero") true
      (st.Reach.locations > 0 && st.Reach.zones > 0 && st.Reach.edges > 0);
    let outcome =
      if side = `Lower then Catalog.Lower_violation st
      else Catalog.Upper_violation st
    in
    Alcotest.(check string)
      (name ^ ": verdict doc")
      (Printf.sprintf
         {|{"item":"%s","result":"%s_violation","locations":%d,"zones":%d,"edges":%d}|}
         job.Catalog.label
         (if side = `Lower then "lower" else "upper")
         st.Reach.locations st.Reach.zones st.Reach.edges)
      (Json.to_string (Catalog.outcome_json ~item:job.Catalog.label outcome))
  in
  case "relay [5,9]" (u 5 9) `Upper;
  case "relay [6,10]" (u 6 10) `Lower

let suite =
  [
    Alcotest.test_case "fingerprints pinned (every system, op, item)" `Quick
      test_fingerprints;
    Alcotest.test_case "request errors pinned" `Quick test_errors;
    Alcotest.test_case "serve-mix universe accepted, fingerprints pinned"
      `Quick test_mix_universe;
    Alcotest.test_case "supervise: policy table (cli, daemon)" `Quick
      test_policy_table;
    Alcotest.test_case "supervise: a removed resume file is dropped" `Quick
      test_removed_resume_dropped;
    Alcotest.test_case "supervise: interrupt before an attempt" `Quick
      test_interrupt_before_attempt;
    Alcotest.test_case "refutations report their stats in the verdict"
      `Quick test_refutation_stats;
  ]
