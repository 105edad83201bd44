module Interval = Tm_base.Interval
module Condition = Tm_timed.Condition
module Mapping = Tm_core.Mapping
module RM = Resource_manager
module IM = Interrupt_manager
module SR = Signal_relay
module F = Fischer
module RG = Request_grant
module TR = Token_ring
module FD = Failure_detector
module TS = Two_stage

type ('s, 'a) check =
  | Cond of ('s, 'a) Condition.t
  | Inv of { label : string; pred : 's -> bool; violated : string }
  | Note of {
      label : string;
      cond : ('s, 'a) Condition.t;
      upper_violated : string;
      verified : string;
    }

type ('s, 'a) verified = {
  system : ('s, 'a) Tm_ioa.Ioa.t;
  boundmap : Tm_timed.Boundmap.t;
  checks : ('s, 'a) check list;
}

type ('s, 'a) exact_row = {
  what : string;
  origin : ('s, 'a) origin;
  cond : int;
  reference : string;
}

and ('s, 'a) origin =
  | Start
  | After of { trigger : 's -> 'a -> 's -> bool; unreachable : string }

type ('s, 'a) exact = {
  exact_conds : ('s, 'a) Condition.t array;
  rows : ('s, 'a) exact_row list;
}

type ('s, 'a) simulated = {
  impl : ('s, 'a) Tm_core.Time_automaton.t;
  conds : ('s, 'a) Condition.t list;
  denominator : int;
  exact : ('s, 'a) exact option;
}

type model = {
  describe : string;
  label : string;
  verified : any_verified;
  simulated : any_simulated;
  map : unit -> string;
}

and any_verified = Verified : ('s, 'a) verified -> any_verified
and any_simulated = Simulated : ('s, 'a) simulated -> any_simulated

type param = {
  key : string;
  doc : string;
  default : int;
  margin_default : int option;
  clamp : (int * int) option;
}

type entry = {
  name : string;
  doc : string;
  params : param list;
  build : (string -> int) -> model;
}

let param ?margin_default ?clamp key default doc =
  { key; doc; default; margin_default; clamp }

(* Shorthands for the builders below. *)
let iv = Interval.to_string
let verified system boundmap checks = Verified { system; boundmap; checks }

let simulated ?exact impl conds ~denominator =
  let exact =
    Option.map (fun (exact_conds, rows) -> { exact_conds; rows }) exact
  in
  Simulated { impl; conds; denominator; exact }

(* Exact windows: of the first occurrence from the start state, or
   measured from every reachable trigger edge. *)
let from_start what ~cond ~reference =
  { what; origin = Start; cond; reference }

let after what trigger ~cond ~reference ~unreachable =
  { what; origin = After { trigger; unreachable }; cond; reference }

let no_mapping variant () = "no paper mapping for this " ^ variant

(* The report of a mapping hierarchy check: [ok] leads the success
   line, [failed] the failure line. *)
let hierarchy ~ok ~failed ~source levels =
  match Mapping.check_exhaustive ~source ~levels () with
  | Ok st ->
      Printf.sprintf "%s: OK (%d product states)" ok st.Mapping.product_states
  | Error e ->
      Printf.sprintf "%s FAILED at level %d (%s)" failed
        e.Mapping.level_index e.Mapping.level_name

(* ------------------------------------------------------------------ *)
(* the two managers: Section 4 and its interrupt-driven variant *)

let rm get =
  let k = get "k" and c1 = get "c1" and c2 = get "c2" and l = get "l" in
  let p = RM.params_of_ints ~k ~c1 ~c2 ~l in
  let impl = RM.impl p in
  let gs = [ RM.g1 p; RM.g2 p ] in
  let first = iv (RM.grant_interval_first p)
  and between = iv (RM.grant_interval_between p) in
  {
    describe =
      Printf.sprintf
        "resource manager (Section 4): k=%d c1=%d c2=%d l=%d; G1=%s G2=%s" k
        c1 c2 l first between;
    label = "manager";
    verified =
      verified (RM.system p) (RM.boundmap p) (List.map (fun g -> Cond g) gs);
    simulated =
      simulated impl gs ~denominator:4
        ~exact:
          ( Array.of_list gs,
            [
              from_start "first GRANT:      " ~cond:0
                ~reference:("paper " ^ first);
              after "between GRANTs:   "
                (fun _ act _ -> act = RM.Grant)
                ~cond:1 ~reference:("paper " ^ between)
                ~unreachable:"no GRANT edges reachable";
            ] );
    map =
      (fun () ->
        match
          Mapping.check_exhaustive ~source:impl
            ~levels:[ { Mapping.target = RM.spec p; map = RM.mapping p } ]
            ()
        with
        | Ok st ->
            Printf.sprintf
              "Lemma 4.3 mapping: OK (%d product states, %d edges)"
              st.Mapping.product_states st.Mapping.product_edges
        | Error e ->
            Format.asprintf "Lemma 4.3 mapping: FAILED@\n  %a"
              (Mapping.pp_failure impl) e.Mapping.failure);
  }

let im get =
  let k = get "k" and c1 = get "c1" and c2 = get "c2" and l = get "l" in
  let p = IM.params_of_ints ~k ~c1 ~c2 ~l in
  let gs = [ IM.g1 p; IM.g2 p ] in
  {
    describe =
      Printf.sprintf
        "interrupt-driven manager (footnote 7): k=%d c1=%d c2=%d l=%d" k c1 c2
        l;
    label = "interrupt";
    verified =
      verified (IM.system p) (IM.boundmap p) (List.map (fun g -> Cond g) gs);
    simulated =
      simulated (IM.impl p) gs ~denominator:4
        ~exact:
          ( Array.of_list gs,
            [
              from_start "first GRANT:    " ~cond:0
                ~reference:("predicted " ^ iv (IM.grant_interval_first p));
              after "between GRANTs: "
                (fun _ act _ -> act = IM.Grant)
                ~cond:1
                ~reference:("predicted " ^ iv (IM.grant_interval_between p))
                ~unreachable:"no GRANT edges reachable";
            ] );
    map = no_mapping "variant";
  }

(* ------------------------------------------------------------------ *)
(* the signal relay of Section 6 *)

let relay get =
  let n = get "n" and d1 = get "d1" and d2 = get "d2" in
  let p = SR.params_of_ints ~n ~d1 ~d2 in
  let impl = SR.impl p in
  let delay = iv (SR.delay_interval p) in
  (* U(0,n) over the undummified line, which the zone engine checks *)
  let u_line =
    Condition.make ~name:"U(0,n)"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:(SR.delay_interval p)
      ~in_pi:(fun a -> a = SR.Signal n)
      ()
  in
  {
    describe =
      Printf.sprintf "signal relay (Section 6): n=%d d1=%d d2=%d; U(0,n)=%s" n
        d1 d2 delay;
    label = "relay";
    verified = verified (SR.line p) (SR.boundmap p) [ Cond u_line ];
    simulated =
      simulated impl
        (List.init n (fun k -> SR.u_cond p ~k))
        ~denominator:2
        ~exact:
          ( [| SR.u_cond p ~k:0 |],
            [
              after "delay: "
                (fun _ act _ -> act = Tm_core.Dummify.Base (SR.Signal 0))
                ~cond:0 ~reference:("paper " ^ delay)
                ~unreachable:"SIGNAL_0 unreachable";
            ] );
    map =
      (fun () ->
        let levels = SR.chain p in
        hierarchy
          ~ok:
            (Printf.sprintf "Corollary 6.3 hierarchy (%d levels)"
               (List.length levels))
          ~failed:"hierarchy" ~source:impl levels);
  }

(* ------------------------------------------------------------------ *)
(* systems built in the paper's style *)

let fischer get =
  let n = get "n" and a = get "a" and b = get "b" in
  let p = F.params_of_ints ~n ~r:2 ~t:1 ~a ~b ~b2:(b + 1) ~e:2 in
  {
    describe =
      Printf.sprintf
        "Fischer mutual exclusion: n=%d a=%d b=%d (safe iff a<b or b>e=2)" n a
        b;
    label = "fischer";
    verified =
      verified (F.system p) (F.boundmap p)
        [
          Inv
            {
              label = "mutual exclusion";
              pred = F.mutual_exclusion;
              violated = "VIOLATED";
            };
          Cond (F.u_enter p);
        ];
    simulated = simulated (F.impl p) [ F.u_enter p ] ~denominator:2;
    map = no_mapping "system";
  }

let rg _ =
  let p = RG.params_of_ints ~r1:2 ~r2:5 ~w1:1 ~w2:3 in
  {
    describe =
      "request-grant (conclusions): REQ every [2,5], RESP within [1,3]";
    label = "request-grant";
    verified =
      verified (RG.system p) (RG.boundmap p)
        [
          Cond (RG.u_response p);
          Note
            {
              label = "without the disabling set";
              cond = RG.u_response_no_disable p;
              upper_violated = "UPPER BOUND VIOLATED (as designed)";
              verified = "verified (requests are spaced out)";
            };
        ];
    simulated = simulated (RG.impl p) [ RG.u_response p ] ~denominator:2;
    map = no_mapping "system";
  }

let ring get =
  let n = get "n" and d1 = get "d1" and d2 = get "d2" in
  let p = TR.params_of_ints ~n ~d1 ~d2 in
  let impl = TR.impl p in
  let rotation = iv (TR.rotation_interval p) in
  {
    describe =
      Printf.sprintf "token ring: n=%d, hop [%d,%d], rotation %s" n d1 d2
        rotation;
    label = "ring";
    verified =
      verified (TR.system p) (TR.boundmap p) [ Cond (TR.u_rotation p) ];
    simulated =
      simulated impl [ TR.u_rotation p ] ~denominator:2
        ~exact:
          ( [| TR.u_rotation p |],
            [
              after "rotation: "
                (fun _ act _ -> act = TR.Pass 0)
                ~cond:0 ~reference:("predicted " ^ rotation)
                ~unreachable:"no rotations reachable";
            ] );
    map =
      (fun () ->
        hierarchy ~ok:"ring hierarchy" ~failed:"ring hierarchy" ~source:impl
          (TR.chain p));
  }

let fd get =
  let g1 = get "g1" and g2 = get "g2" and m = get "m" in
  let p = FD.params_of_ints ~h1:1 ~h2:2 ~g1 ~g2 ~m in
  let detection = iv (FD.detection_interval p) in
  {
    describe =
      Printf.sprintf
        "failure detector: hb [1,2], poll [%d,%d], m=%d; detection %s%s" g1 g2
        m detection
        (if FD.accurate p then "" else " (INACCURATE regime)");
    label = "detector";
    verified =
      verified (FD.system p) (FD.boundmap p)
        [
          Inv
            {
              label = "accuracy";
              pred = FD.no_false_suspicion;
              violated = "false suspicion reachable";
            };
          Cond (FD.u_detect p);
        ];
    simulated =
      simulated (FD.impl p) [ FD.u_detect p ] ~denominator:2
        ~exact:
          ( [| FD.u_detect p |],
            [
              after "detection: "
                (fun _ act _ -> act = FD.Crash)
                ~cond:0 ~reference:("predicted " ^ detection)
                ~unreachable:"no crashes reachable";
            ] );
    map = no_mapping "system";
  }

let two _ =
  let p = TS.params_of_ints ~p1:1 ~p2:3 ~q1:1 ~q2:2 ~r1:2 ~r2:4 in
  let impl = TS.impl p in
  let us = [ TS.u_start_mid p; TS.u_mid_done p; TS.u_end_to_end p ] in
  let end_to_end = iv (TS.end_to_end_interval p) in
  {
    describe = "chained trigger (Sec. 8): end-to-end " ^ end_to_end;
    label = "two-stage";
    verified =
      verified (TS.system p) (TS.boundmap p) (List.map (fun u -> Cond u) us);
    simulated =
      simulated impl us ~denominator:2
        ~exact:
          ( [| TS.u_end_to_end p |],
            [
              after "end-to-end: "
                (fun _ act _ -> act = TS.Start)
                ~cond:0 ~reference:("predicted " ^ end_to_end)
                ~unreachable:"no Start edges reachable";
            ] );
    map =
      (fun () ->
        hierarchy ~ok:"stage hierarchy" ~failed:"stage hierarchy"
          ~source:impl (TS.chain p));
  }

(* ------------------------------------------------------------------ *)
(* the table *)

let manager_params =
  [
    param "k" 3 "ticks per grant";
    param "c1" 2 "clock lower bound";
    param "c2" 3 "clock upper bound";
    param "l" 1 "local-step bound";
  ]

let line_params =
  [
    param "n" 4 "line length / processes";
    param "d1" 1 "per-hop lower bound";
    param "d2" 2 "per-hop upper bound";
  ]

let entry name doc params build = { name; doc; params; build }

let entries =
  [
    entry "rm" "resource manager, Section 4" manager_params rm;
    entry "im" "interrupt-driven manager, footnote 7" manager_params im;
    entry "relay" "signal relay, Section 6" line_params relay;
    (* LU extrapolation and the int kernel keep fischer tractable well
       past n=3; n=5 completes in CI, n=6 is the safety stop *)
    entry "fischer" "Fischer mutual exclusion"
      [
        param "n" 4 "processes" ~clamp:(2, 6);
        param "a" 1 "fischer write deadline";
        param "b" 2 "fischer check delay";
      ]
      fischer;
    entry "rg" "request-grant" [] rg;
    entry "ring" "token ring" line_params ring;
    (* margin wants the single-miss detector, whose accuracy margin is
       the paper's exact slack g1 - h2; verify the safe regime m >= 2 *)
    entry "fd" "failure detector"
      [
        param "g1" 2 "poll gap lower bound" ~margin_default:3;
        param "g2" 3 "poll gap upper bound";
        param "m" 2 "misses before suspicion" ~margin_default:1;
      ]
      fd;
    entry "two" "chained trigger, Section 8" [] two;
  ]

let find name =
  match List.find_opt (fun e -> String.equal e.name name) entries with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown system %S (known: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) entries)))

let params =
  let reads key e = List.exists (fun (p : param) -> p.key = key) e.params in
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc (p : param) ->
          if List.mem_assoc p.key acc then acc else (p.key, p) :: acc)
        acc e.params)
    [] entries
  |> List.rev_map (fun (key, p) ->
         let users = List.filter (reads key) entries in
         (p, List.map (fun e -> e.name) users))

let known_param key =
  if List.exists (fun ((p : param), _) -> p.key = key) params then Ok ()
  else
    Error
      (Printf.sprintf "unknown param %S (known: %s)" key
         (String.concat ", " (List.map (fun ((p : param), _) -> p.key) params)))

let instantiate ?(margin = false) entry given =
  let given = List.rev given in
  let get key =
    let p = List.find (fun (p : param) -> p.key = key) entry.params in
    let v =
      match (List.assoc_opt key given, p.margin_default) with
      | Some v, _ -> v
      | None, Some d when margin -> d
      | None, _ -> p.default
    in
    match p.clamp with Some (lo, hi) -> max lo (min v hi) | None -> v
  in
  match entry.build get with
  | model -> Ok model
  | exception Invalid_argument m -> Error m
  | exception Failure m -> Error m

let check_label label = function
  | Cond c -> label ^ " " ^ c.Condition.cname
  | Inv { label = l; _ } -> l
  | Note { label = l; _ } -> label ^ " " ^ l
