(* Daemon cache keys.  A job's fingerprint is the verdict cache's
   content address and the checkpoint routing key, so a change to any
   fingerprint silently orphans every cached verdict and checkpoint a
   running daemon has written.  These tests pin the MD5 of
   [Catalog.of_request]'s fingerprint for every system x {each verify
   item, margin, simulate}, at default and at non-default parameters,
   plus the request errors the daemon returns, and the whole request
   universe of the serve-mix benchmark (perfbench/mix.py). *)

module Json = Tm_obs.Json
module Catalog = Tm_serve.Catalog

(* Fingerprints name the widening mode; the pins are taken with LU
   widening, and TM_NO_LU=1 (max-constant widening) must change exactly
   that field. *)
let canon fp =
  let mode =
    match Sys.getenv_opt "TM_NO_LU" with
    | Some ("1" | "true" | "yes") -> "maxc"
    | _ -> "lu"
  in
  let pat = "|widen=" ^ mode ^ "|" in
  let lp = String.length pat in
  let b = Buffer.create (String.length fp) in
  let rec go i =
    if i >= String.length fp then ()
    else if i + lp <= String.length fp && String.sub fp i lp = pat then begin
      Buffer.add_string b "|widen=lu|";
      go (i + lp)
    end
    else begin
      Buffer.add_char b fp.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let digest req =
  match Catalog.of_request req with
  | Ok job -> Digest.to_hex (Digest.string (canon job.Catalog.fingerprint))
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
    ("fischer verify paranoid", "5225411081fe5e8738dd2c41ef4cc9a9");
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
        | Ok job -> canon job.Catalog.fingerprint
        | Error m -> Alcotest.failf "rejected %s: %s" (Json.to_string r) m)
      (mix_universe ())
  in
  Alcotest.(check int) "universe size" 197 (List.length fps);
  Alcotest.(check string) "universe fingerprints" universe_digest
    (Digest.to_hex (Digest.string (String.concat "\n" fps)))

let suite =
  [
    Alcotest.test_case "fingerprints pinned (every system, op, item)" `Quick
      test_fingerprints;
    Alcotest.test_case "request errors pinned" `Quick test_errors;
    Alcotest.test_case "serve-mix universe accepted, fingerprints pinned"
      `Quick test_mix_universe;
  ]
