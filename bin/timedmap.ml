(* timedmap — command-line driver for the timed-mappings library.

   Subcommands:
     simulate   run a system under a scheduling strategy, print the trace
     check      simulate many seeds and check the timing conditions
     verify     exact zone-based verification of the timing conditions
     run        supervised verification: retries, checkpoints, resume
     margin     exact robustness margins (largest surviving perturbation)
     map        check the strong possibilities mappings (paper proofs)
     exact      exact first-occurrence windows from the discretized graph
     progress   deadlock / Zeno-trap (time divergence) analysis

   verify/run/margin/exact take --budget-states/--budget-ms, simulate
   --budget-ms; running out of budget reports UNKNOWN with partial
   stats and exits 4.

   SIGINT/SIGTERM are routed through Tm_recover.Supervisor on every
   subcommand, so --metrics-out/--trace-out files are flushed on an
   interrupt.  Inside verify/run the interrupt is cooperative: the zone
   engine stops at the next batch boundary, writes a final checkpoint
   when --checkpoint is set, and the command exits 4 with partial
   stats.
*)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Tseq = Tm_timed.Tseq
module Semantics = Tm_timed.Semantics
module TA = Tm_core.Time_automaton
module Completeness = Tm_core.Completeness
module Reach = Tm_zones.Reach
module Simulator = Tm_sim.Simulator
module Strategy = Tm_sim.Strategy
module Registry = Tm_systems.Registry
module Catalog = Tm_serve.Catalog
module Progress = Tm_core.Progress
module Json = Tm_obs.Json
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Prof = Tm_obs.Prof
module Export = Tm_obs.Export
module Report = Tm_obs.Report
module Log = Tm_obs.Log
module Margin = Tm_faults.Margin
module Snapshot = Tm_recover.Snapshot
module Supervisor = Tm_recover.Supervisor

let q = Rational.of_int

(* Tool version: shown by --version, stamped into run reports and the
   event stream so saved artifacts are self-describing. *)
let version = "1.1.0"

(* Graceful-degradation budgets, from --budget-states / --budget-ms on
   the subcommands that explore: zone runs pass them to Reach, the
   exact analysis to Tgraph.  A budgeted run that gives up prints
   UNKNOWN and makes the command exit 4 — after metrics/trace files
   are flushed. *)
type budget = { limit : int option; deadline_s : float option }

let report_unknown whats (e : Reach.exhausted) =
  List.iter
    (fun what ->
      Format.printf
        "%s: UNKNOWN — %s (partial: %d locations, %d zones, %d edges)@." what
        e.Reach.reason e.Reach.partial.Reach.locations
        e.Reach.partial.Reach.zones e.Reach.partial.Reach.edges)
    whats;
  Option.iter
    (Format.printf
       "  checkpoint saved — resume with: timedmap run --resume %s@.")
    e.Reach.checkpoint

let print_trace (type s a) (aut : (s, a) TA.t) (seq : (s, a) Tseq.t)
    violations =
  let base = aut.TA.base in
  List.iter
    (fun ((act, t), _) ->
      Format.printf "  t=%-8s %a@." (Rational.to_string t)
        base.Tm_ioa.Ioa.pp_action act)
    seq.Tseq.moves;
  if violations = [] then Format.printf "conditions: all satisfied@."
  else
    List.iter
      (fun v -> Format.printf "VIOLATION: %a@." Semantics.pp_violation v)
      violations

(* Simulate, print the timed trace and any condition violations, and
   hand the stop reason back so the [simulate] command can fail loudly
   on deadlocks. *)
let run_simulation (type s a) (s : (s, a) Registry.simulated) ?deadline_s
    ~steps ~strategy ~seed () =
  let strategy =
    match Catalog.make_strategy strategy with
    | Ok make -> make ~seed ~denominator:s.Registry.denominator
    | Error m -> invalid_arg m (* [strategy_arg] admits known names only *)
  in
  let run =
    Simulator.simulate ?deadline_s ~steps ~strategy s.Registry.impl
  in
  let seq = Simulator.project run in
  print_trace s.Registry.impl seq
    (Semantics.semi_satisfies_all seq s.Registry.conds);
  Log.info "run stopped: %s" (Simulator.describe_stop run.Simulator.reason);
  run.Simulator.reason

let generic_check (type s a) (s : (s, a) Registry.simulated) ~domains ~runs
    ~steps =
  (* Seeds dispatch over the pool; run [i] is seeded exactly as the
     historical sequential loop, so the violation count is identical
     at any domain count. *)
  let results =
    Simulator.batch ~domains ~runs ~steps
      ~prng:(fun seed -> Prng.create seed)
      ~strategy:(fun prng ->
        Strategy.random ~prng ~denominator:s.Registry.denominator ~cap:(q 1))
      s.Registry.impl
  in
  Array.fold_left
    (fun acc run ->
      acc
      + List.length
          (Semantics.semi_satisfies_all (Simulator.project run)
             s.Registry.conds))
    0 results

(* The text line of a check's verdict, under the model's [label]. *)
let outcome_line label check (o : Catalog.outcome) =
  let item = Registry.check_label label check in
  match (check, o) with
  | Registry.Note n, Catalog.Upper_violation _ ->
      n.label ^ ": " ^ n.upper_violated
  | Registry.Note n, Catalog.Verified _ -> n.label ^ ": " ^ n.verified
  | Registry.Note n, _ -> n.label ^ ": other"
  | _, Catalog.Verified { bounds; stats } ->
      Printf.sprintf "%s %s: VERIFIED (%d locations, %d zones)" item
        (Interval.to_string bounds) stats.Reach.locations stats.Reach.zones
  | _, Catalog.Lower_violation _ -> item ^ ": LOWER BOUND VIOLATED"
  | _, Catalog.Upper_violation _ -> item ^ ": UPPER BOUND VIOLATED"
  | _, Catalog.Unsupported m -> Printf.sprintf "%s: unsupported (%s)" item m
  | _, Catalog.Invariant_ok st ->
      Printf.sprintf "%s: VERIFIED (%d zones)" item st.Reach.zones
  | _, Catalog.Invariant_violated s ->
      let phrase =
        match check with Registry.Inv i -> i.violated | _ -> "VIOLATED"
      in
      Printf.sprintf "%s: %s at %s" item phrase s

(* The model's checks as [verify] searches them: every invariant rides
   on the search of the first condition, at the place of the first of
   them; every other check is searched alone.  Each registry entry with
   an invariant lists it just before its condition, so the verdict
   lines keep the checks' order. *)
let groups checks =
  match
    List.find_opt (function Registry.Cond _ -> true | _ -> false) checks
  with
  | None -> List.map (fun c -> [ c ]) checks
  | Some cond ->
      let joins c =
        c == cond || match c with Registry.Inv _ -> true | _ -> false
      in
      let group = List.filter joins checks in
      List.filter_map
        (fun c ->
          if not (joins c) then Some [ c ]
          else if c == List.hd group then Some group
          else None)
        checks

(* Run the model's checks, print each verdict in order and return
   whether any came out UNKNOWN; [verify] is this loop with one attempt
   and no resume.  Each group of {!groups} is one search
   ({!Catalog.check_job}); an item it leaves unanswered runs its own
   search ({!Catalog.own_job}) — an invariant whose shared search the
   condition or an invariant stopped, or a condition an invariant
   stopped.  Every search runs through {!Catalog.supervise} under the
   CLI policy with the [budget]; a note is informational: unbudgeted,
   never UNKNOWN.  An exhausted shared search prints UNKNOWN for every
   item it covers.  [resume] routes a snapshot to the search whose
   fingerprint it carries, a shared or an own one.  The searches before
   it replay for their output only, with no checkpoint path, so they
   cannot overwrite or delete the snapshot.  A search that gives up
   with a checkpoint stops the loop: the file is its own. *)
let verify_model engine budget ~domains ~checkpoint ~attempts ~backoff_s
    ~resume (model : Registry.model) =
  let (Registry.Verified v) = model.Registry.verified in
  let label = model.Registry.label in
  let units =
    List.map
      (fun checks ->
        ( checks,
          Catalog.check_job engine ~label v checks,
          List.map (Catalog.own_job engine ~label v) checks ))
      (groups v.checks)
  in
  (* every search by its position in run order: a group's shared
     search (-1), then each item's own; a one-item group's own search
     is its shared one *)
  let searches =
    List.concat
      (List.mapi
         (fun u (_, (shared : _ Catalog.job), own) ->
           ((u, -1), shared.label, shared.fingerprint)
           :: List.mapi
                (fun k (j : _ Catalog.job) -> ((u, k), j.label, j.fingerprint))
                own)
         units)
  in
  let routed =
    Option.map
      (fun path ->
        let fp, info = Snapshot.inspect path in
        match
          List.find_opt (fun (_, _, f) -> String.equal f fp) searches
        with
        | Some (pos, what, _) ->
            Log.info "resuming %s from %s (%s)" what path info;
            (pos, path)
        | None ->
            Format.eprintf
              "run: snapshot %s does not belong to any verification item of \
               this job (snapshot fingerprint: %s)@."
              path fp;
            exit 2)
      resume
  in
  let on_retry what ~attempt ~delay_s ~reason =
    Format.eprintf "run: %s: attempt %d gave up (%s); retrying in %.1fs@."
      what attempt reason delay_s
  in
  (* The previous search's zones are garbage by now.  Collect them
     before the next search builds its own: the major GC is paced by
     allocation, so it would otherwise still be freeing them while this
     heap grows, and peak RSS would hold both. *)
  let searched = ref false in
  let fresh () = if !searched then Gc.full_major () else searched := true in
  let run pos (job : _ Catalog.job) =
    fresh ();
    let checkpoint, resume =
      match routed with
      | Some (r, _) when compare pos r < 0 -> (None, None)
      | Some (r, path) when pos = r -> (checkpoint, Some path)
      | _ -> (checkpoint, None)
    in
    Catalog.supervise Catalog.cli_policy ~attempts ~backoff_s
      ~on_retry:(on_retry job.label) ?limit:budget.limit
      ?deadline_s:budget.deadline_s ~domains ?checkpoint ?resume job
  in
  let stop = ref false and unknown = ref false in
  let running () = not (!stop || Supervisor.interrupt_requested ()) in
  let print check o = Format.printf "%s@." (outcome_line label check o) in
  let gave_up checks (e : Reach.exhausted) =
    report_unknown (List.map (Registry.check_label label) checks) e;
    unknown := true;
    if e.Reach.checkpoint <> None then stop := true
  in
  List.iteri
    (fun u (checks, shared, own) ->
      if running () then
        match (checks, own) with
        | [ (Registry.Note n as check) ], [ (job : _ Catalog.job) ] -> (
            fresh ();
            match
              job.exec ~limit:None ~deadline_s:None ~domains
                ~checkpoint:None ~resume:None
            with
            | Ok o -> print check o
            | Error _ -> Format.printf "%s: other@." n.label)
        | _ -> (
            match run (u, -1) shared with
            | Error (`Exhausted e) -> gave_up checks e
            | Error (`Crashed m) -> failwith m (* not under the CLI policy *)
            | Ok answers ->
                List.iteri
                  (fun k (check, answer) ->
                    if running () then
                      match answer with
                      | Some o ->
                          (match routed with
                          | Some (r, path) when r = (u, k) ->
                              Log.warn
                                "%s: answered by the shared search; snapshot \
                                 %s left unused"
                                (Registry.check_label label check) path
                          | _ -> ());
                          print check o
                      | None -> (
                          match run (u, k) (List.nth own k) with
                          | Ok o -> print check o
                          | Error (`Exhausted e) -> gave_up [ check ] e
                          | Error (`Crashed m) -> failwith m))
                  (List.combine checks answers)))
    units;
  !unknown

(* ------------------------------------------------------------------ *)
(* robustness margins *)

let print_margin_report (r : Margin.report) =
  Format.printf "%s@." r.Margin.subject;
  let pp_verdict fmt = function
    | Ok v -> Margin.pp_verdict fmt v
    | Error m -> Format.pp_print_string fmt m
  in
  Format.printf "  widen all classes:  e* = %a@." pp_verdict r.Margin.overall;
  List.iter
    (fun (row : Margin.row) ->
      Format.printf "  widen %-12s  e* = %a@." row.Margin.cls pp_verdict
        row.Margin.verdict)
    r.Margin.per_class;
  match r.Margin.critical with
  | Some c -> Format.printf "  critical class: %s@." c
  | None -> Format.printf "  critical class: none (all margins censored)@."

(* ------------------------------------------------------------------ *)
(* budget-aware exact analysis *)

(* The [exact] windows of a model, each measured on the one budgeted
   analysis of its conditions, and whether the budget ran out.  The
   discretized graph gets the node limit / wall-clock deadline, and the
   analysis refuses a truncated graph — its value tables would silently
   under-approximate the windows — so a truncation prints UNKNOWN. *)
let print_exact budget (model : Registry.model) =
  let (Registry.Simulated s) = model.Registry.simulated in
  match s.Registry.exact with
  | None ->
      Format.printf "exact analysis not wired for %s@." model.Registry.label;
      false
  | Some ex -> (
      let source = s.Registry.impl in
      let params =
        let p = Tm_core.Tgraph.default_params source in
        {
          p with
          Tm_core.Tgraph.limit = Option.value budget.limit ~default:p.limit;
          deadline_s = budget.deadline_s;
        }
      in
      match
        Completeness.analyze ~params ~source ~conds:ex.Registry.exact_conds ()
      with
      | exception Completeness.Truncated nodes ->
          Format.printf
            "exact: UNKNOWN — discretized graph truncated after %d nodes — \
             budget exhausted@."
            nodes;
          true
      | a ->
          List.iter
            (fun (row : _ Registry.exact_row) ->
              let print (lo, hi) =
                Format.printf "%sexact [%a, %a], %s@." row.what Time.pp lo
                  Time.pp hi row.reference
              in
              match row.origin with
              | Registry.Start ->
                  print (Completeness.start_bounds a ~cond:row.cond)
              | Registry.After { trigger; unreachable } -> (
                  match Completeness.bounds_after a ~trigger ~cond:row.cond with
                  | Some window -> print window
                  | None -> Format.printf "%s@." unreachable))
            ex.Registry.rows;
          false)

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing *)

open Cmdliner

(* A usage error (exit 124 with a usage hint, nothing on stdout)
   unless [ok v]. *)
let checked ok msg arg =
  Term.(
    ret (const (fun v -> if ok v then `Ok v else `Error (true, msg)) $ arg))

let system_arg =
  let doc =
    "System to analyze: "
    ^ String.concat ", "
        (List.map
           (fun (e : Registry.entry) -> e.name ^ " (" ^ e.doc ^ ")")
           Registry.entries)
    ^ "."
  in
  Arg.(value & opt string "rm" & info [ "system"; "S" ] ~docv:"SYSTEM" ~doc)

(* One flag per registry parameter; the term is the list of the flags
   given, which the registry completes with the system's defaults. *)
let params_term =
  List.fold_right
    (fun ((p : Registry.param), users) rest ->
      let doc =
        p.doc ^ " (" ^ String.concat ", " users ^ "; default "
        ^ string_of_int p.default
        ^ (match p.margin_default with
          | Some d -> ", " ^ string_of_int d ^ " under $(b,margin)"
          | None -> "")
        ^ ")"
      in
      let arg = Arg.(value & opt (some int) None & info [ p.key ] ~doc) in
      Term.(
        const (fun v given ->
            match v with Some i -> (p.key, i) :: given | None -> given)
        $ arg $ rest))
    Registry.params (Term.const [])

(* The system a subcommand analyzes, instantiated from the registry;
   an unknown system or parameters the system rejects are usage
   errors, with the messages the daemon returns. *)
let model_term ?(margin = false) () =
  let build system given =
    match
      Result.bind (Registry.find system) (fun e ->
          Registry.instantiate ~margin e given)
    with
    | Ok m -> `Ok m
    | Error msg -> `Error (true, msg)
  in
  Term.(ret (const build $ system_arg $ params_term))

let steps_arg =
  checked (fun n -> n >= 0) "--steps must be >= 0"
    Arg.(value & opt int 60 & info [ "steps" ] ~doc:"steps to simulate")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed")

let runs_arg =
  checked (fun n -> n >= 0) "--runs must be >= 0"
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"number of runs")

let strategy_arg =
  let parse name =
    match Catalog.make_strategy name with
    | Ok _ -> Ok name
    | Error m -> Error (`Msg m)
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_string)) "random"
    & info [ "strategy" ] ~doc:"eager | lazy | random")

(* ------------------------------------------------------------------ *)
(* observability options, shared by every analysis subcommand *)

type obs_opts = {
  metrics_out : string option;
  trace_out : string option;
  events_out : string option;
  prof_out : string option;
  progress : bool;
  level : Log.level;
}

let obs_term =
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot to $(docv) at exit.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Enable span tracing and write Chrome trace-event JSON \
             (loadable in Perfetto) to $(docv) at exit.")
  in
  let level_conv =
    let parse s =
      match Log.level_of_string s with
      | Ok l -> Ok l
      | Error m -> Error (`Msg m)
    in
    let print fmt l = Format.pp_print_string fmt (Log.level_to_string l) in
    Arg.conv (parse, print)
  in
  let level_arg =
    Arg.(
      value
      & opt (some level_conv) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Log level: quiet, error, warn, info or debug.")
  in
  let verbose_arg =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Increase verbosity ($(b,-v) info, $(b,-vv) debug).")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE"
          ~doc:
            "Stream NDJSON run events (batch boundaries, pool stats, \
             snapshots, probes) to $(docv) as they happen; $(b,-) \
             streams to stdout, moving normal output to stderr so \
             stdout stays pure NDJSON. Flushed line-by-line, so an \
             interrupted run leaves a well-formed stream.")
  in
  let prof_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prof-out" ] ~docv:"FILE"
          ~doc:
            "Enable the phase profiler and write collapsed-stack lines \
             (loadable in speedscope or flamegraph.pl) to $(docv) at \
             exit.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Live status line on stderr (stored zones, frontier, rate, \
             GC heap words, ETA). Never touches stdout.")
  in
  let mk metrics_out trace_out events_out prof_out progress level verbose =
    let level =
      match level with
      | Some l -> l
      | None -> (
          match List.length verbose with
          | 0 -> Log.Warn
          | 1 -> Log.Info
          | _ -> Log.Debug)
    in
    { metrics_out; trace_out; events_out; prof_out; progress; level }
  in
  Term.(
    const mk $ metrics_arg $ trace_arg $ events_arg $ prof_arg
    $ progress_arg $ level_arg $ verbose_arg)

(* Run a subcommand body under the requested observability setup and
   flush every sink afterwards — also when the body raises or plans to
   exit nonzero, so an interrupt still leaves complete artifacts.
   [engine] and [domains] are provenance for the event stream and the
   run report; [engine] is [None] for the subcommands without a zone
   engine. *)
let with_obs name ?engine ~domains o f =
  Log.set_level o.level;
  if o.trace_out <> None then Tracing.enable ();
  if o.prof_out <> None then Prof.enable ();
  (match o.events_out with
  | Some spec ->
      Events.open_path spec;
      (* When the event stream owns stdout, human-facing output moves
         to stderr so stdout stays parseable NDJSON. *)
      if Events.sink_is_stdout () then
        Format.set_formatter_out_channel stderr
  | None -> ());
  Events.set_progress o.progress;
  let t0 = Tracing.now_s () in
  Events.emit "run.start"
    [
      ("command", Json.String name);
      ("version", Json.String version);
      ( "engine",
        Option.fold engine ~none:Json.Null ~some:(fun e -> Json.String e) );
      ("domains", Json.Int domains);
    ];
  let finish () =
    let wall = Tracing.now_s () -. t0 in
    Events.progress_clear ();
    (match o.metrics_out with
    | Some path ->
        Json.to_file path (Metrics.to_json (Metrics.snapshot ()));
        Log.info "metrics snapshot written to %s" path
    | None -> ());
    (match o.trace_out with
    | Some path ->
        Tracing.write path;
        Log.info "trace (%d events) written to %s"
          (List.length (Tracing.events ()))
          path
    | None -> ());
    (match o.prof_out with
    | Some path ->
        Prof.write_folded path;
        Prof.disable ();
        Log.info "phase profile (%d phases) written to %s"
          (List.length (Prof.nodes ()))
          path
    | None -> ());
    Events.emit "run.done" [ ("wall_s", Json.Float wall) ];
    Events.close ();
    if Log.at_least Log.Info then
      Format.eprintf "%a" Report.pp
        (Report.make ~command:name ~version ?engine ~domains ~wall_s:wall ())
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Budget flags shared by the exploring subcommands.  [simulate] takes
   only the wall-clock budget: its watchdog has no state count to cap. *)
let deadline_term =
  Term.(
    const (Option.map (fun ms -> ms /. 1000.))
    $ checked
        (function None -> true | Some ms -> ms > 0.)
        "--budget-ms must be > 0"
        Arg.(
          value
          & opt (some float) None
          & info [ "budget-ms" ] ~docv:"MS"
              ~doc:
                "Wall-clock budget in milliseconds. A run that exceeds it \
                 reports UNKNOWN (exit 4) instead of hanging."))

let budget_term =
  let states_arg =
    checked
      (function None -> true | Some n -> n >= 1)
      "--budget-states must be >= 1"
      Arg.(
        value
        & opt (some int) None
        & info [ "budget-states" ] ~docv:"N"
            ~doc:
              "Give up after storing $(docv) zones (or discretized \
               nodes). An exhausted run reports UNKNOWN with partial \
               statistics and exits 4.")
  in
  Term.(
    const (fun limit deadline_s -> { limit; deadline_s })
    $ states_arg $ deadline_term)

(* --domains.  [domains_term] is for the subcommands that fan out;
   [sequential_domains_term] accepts only 1, for verify and run, whose
   zone search is sequential. *)
let domains_arg doc =
  checked (fun d -> d >= 1) "--domains must be >= 1"
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let domains_term =
  domains_arg
    "Fan the independent work out over $(docv) domains (OS threads): the \
     simulation runs of $(b,check), the margin searches of $(b,margin) and \
     of each $(b,serve) margin job. The output is identical at any domain \
     count; the default 1 is the exact sequential path."

let sequential_domains_term =
  checked (fun d -> d = 1)
    "--domains must be 1 (zone exploration is sequential)"
    (domains_arg
       "Accepted for compatibility and must be 1: zone exploration is \
        sequential.")

let simulate_cmd =
  let run model steps strategy seed deadline_s obs =
    let reason =
      with_obs "simulate" ~domains:1 obs (fun () ->
          Format.printf "%s@." model.Registry.describe;
          Log.debug "strategy=%s seed=%d steps=%d" strategy seed steps;
          let (Registry.Simulated s) = model.Registry.simulated in
          run_simulation s ?deadline_s ~steps ~strategy ~seed ())
    in
    match reason with
    | Simulator.Deadlock ->
        (* Scripted runs need to see this: a deadlocked run means the
           system ran out of enabled moves before the step limit —
           typically an un-dummified finite system. *)
        Format.eprintf
          "simulate: run ended in deadlock (no enabled move before the \
           step limit; un-dummified finite systems do this once their \
           events are exhausted)@.";
        exit 3
    | Simulator.Watchdog ->
        Format.eprintf
          "simulate: UNKNOWN — wall-clock budget exhausted before the \
           step limit@.";
        exit 4
    | Simulator.Step_limit | Simulator.Strategy_stop | Simulator.Stopped ->
        ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a system and print the timed trace")
    Term.(
      const run $ model_term () $ steps_arg $ strategy_arg $ seed_arg
      $ deadline_term $ obs_term)

let check_cmd =
  let run model runs steps domains obs =
    let v =
      with_obs "check" ~domains obs (fun () ->
          Format.printf "%s@." model.Registry.describe;
          let (Registry.Simulated s) = model.Registry.simulated in
          generic_check s ~domains ~runs ~steps)
    in
    Format.printf "%d runs x %d steps: %d violations@." runs steps v;
    if v > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Simulate many seeds and check the timing conditions")
    Term.(
      const run $ model_term () $ runs_arg $ steps_arg $ domains_term
      $ obs_term)

let simple_cmd name ~doc body =
  let run model obs =
    with_obs name ~domains:1 obs (fun () ->
        Format.printf "%s@." model.Registry.describe;
        body model)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ model_term () $ obs_term)

(* --engine: the kernel's name (for provenance and the daemon's
   default) with the engine {!Catalog.engine_of} gives it. *)
let engine_arg =
  let parse name =
    match Catalog.engine_of name with
    | Ok e -> Ok (name, e)
    | Error m -> Error (`Msg m)
  in
  let print fmt (name, _) = Format.pp_print_string fmt name in
  Arg.(
    value
    & opt (conv (parse, print)) ("auto", (module Reach.Auto : Reach.S))
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "DBM kernel for zone exploration: $(b,auto) (default: the \
           packed-int kernel; rational bounds are scaled to integers by \
           the LCM of their denominators first), $(b,ref) (exact \
           rational reference kernel, unscaled, for cross-checking a \
           verdict) or $(b,paranoid) ($(b,auto), its verdict checked \
           afterwards by an independent certificate checker or a \
           $(b,ref) rerun; a failed check degrades the run to \
           $(b,ref)). All run the identical exploration and must agree.")

(* Checkpoint flags shared by verify/run: where the zone engine
   snapshots its frontier, and how often (0 = only on exhaustion or
   interrupt). *)
let recover_term =
  let ck_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write atomic snapshots of the zone-search frontier to \
             $(docv): on budget exhaustion, on SIGINT/SIGTERM, and \
             (with $(b,--checkpoint-every)) periodically. A run that \
             completes removes the file; an exhausted run prints how \
             to resume.")
  in
  let every_arg =
    checked (fun n -> n >= 0) "--checkpoint-every must be >= 0"
      Arg.(
        value & opt int 0
        & info [ "checkpoint-every" ] ~docv:"N"
            ~doc:
              "Also snapshot after every $(docv) newly stored zones \
               (default 0: only final snapshots).")
  in
  Term.(const (fun ck every -> (ck, every)) $ ck_arg $ every_arg)

(* The body of verify and run: [verify] is [run] with one attempt, no
   backoff and no resume.  A resumed run keeps saving progress to the
   file it resumed from, unless --checkpoint points elsewhere. *)
let verify_run name ~resume ~attempts ~backoff_s model (ename, engine)
    budget domains (checkpoint, every) obs =
  let checkpoint =
    Option.map (fun p -> (p, every))
      (if checkpoint = None then resume else checkpoint)
  in
  let unknown =
    with_obs name ~engine:ename ~domains obs (fun () ->
        Format.printf "%s@." model.Registry.describe;
        Supervisor.graceful (fun () ->
            verify_model engine budget ~domains ~checkpoint ~attempts
              ~backoff_s ~resume model))
  in
  if unknown then exit 4

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"Exact zone-based verification")
    Term.(
      const (verify_run "verify" ~resume:None ~attempts:1 ~backoff_s:0.)
      $ model_term () $ engine_arg $ budget_term $ sequential_domains_term
      $ recover_term $ obs_term)

let run_cmd =
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a checkpoint written by a previous interrupted \
             or budget-exhausted run. The snapshot's job fingerprint \
             routes it to the matching verification item; earlier items \
             re-run from scratch without a checkpoint, so the combined \
             output matches an uninterrupted $(b,verify) of the same \
             system.")
  in
  let attempts_arg =
    checked (fun n -> n >= 1) "--attempts must be >= 1"
      Arg.(
        value & opt int 3
        & info [ "attempts" ] ~docv:"N"
            ~doc:
              "Give each verification item up to $(docv) attempts; only \
               failures that can make progress (a checkpoint to chain \
               from, or a wall-clock deadline) are retried. An item that \
               gives up with a checkpoint stops the run.")
  in
  let backoff_arg =
    checked (fun ms -> ms >= 0.) "--backoff-ms must be >= 0"
      Arg.(
        value & opt float 500.
        & info [ "backoff-ms" ] ~docv:"MS"
            ~doc:
              "Base delay before the first retry; doubles on each \
               further retry.")
  in
  let run resume attempts backoff_ms =
    verify_run "run" ~resume ~attempts ~backoff_s:(backoff_ms /. 1000.)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Supervised zone-based verification: bounded retries with \
          exponential backoff, per-attempt budgets chained through \
          checkpoints, resumable after interrupts")
    Term.(
      const run $ resume_arg $ attempts_arg $ backoff_arg $ model_term ()
      $ engine_arg $ budget_term $ sequential_domains_term $ recover_term
      $ obs_term)

let margin_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the reports as a JSON array on stdout instead of \
             tables.")
  in
  let run model (ename, engine) json budget domains obs =
    let reports =
      with_obs "margin" ~engine:ename ~domains obs (fun () ->
          if not json then Format.printf "%s@." model.Registry.describe;
          let reports =
            Catalog.margin_reports engine ?limit:budget.limit
              ?deadline_s:budget.deadline_s ~domains model
          in
          if not json then List.iter print_margin_report reports;
          reports)
    in
    if json then
      Format.printf "%s@."
        (Json.to_string (Json.List (List.map Margin.to_json reports)));
    (* a refutation at e = 0 is a definite answer; any other failed
       search (a probe ran out of budget) leaves the margin unknown *)
    if
      List.exists
        (fun (r : Margin.report) ->
          match r.Margin.overall with
          | Error m -> m <> "refuted with no perturbation (e = 0)"
          | Ok _ -> false)
        reports
    then exit 4
  in
  Cmd.v
    (Cmd.info "margin"
       ~doc:
         "Exact robustness margins: the largest uniform bound widening \
          each property survives, per class and overall")
    Term.(
      const run
      $ model_term ~margin:true ()
      $ engine_arg $ json_arg $ budget_term $ domains_term $ obs_term)

let map_cmd =
  simple_cmd "map" ~doc:"Check the paper's strong possibilities mappings"
    (fun model -> Format.printf "%s@." (model.Registry.map ()))

let exact_cmd =
  let run model budget obs =
    let unknown =
      with_obs "exact" ~domains:1 obs (fun () ->
          Format.printf "%s@." model.Registry.describe;
          print_exact budget model)
    in
    if unknown then exit 4
  in
  Cmd.v
    (Cmd.info "exact"
       ~doc:"Exact first-occurrence windows from the discretized graph")
    Term.(const run $ model_term () $ budget_term $ obs_term)

let progress_cmd =
  simple_cmd "progress"
    ~doc:"Deadlock and Zeno-trap (time divergence) analysis" (fun model ->
      let (Registry.Simulated s) = model.Registry.simulated in
      Format.printf "%a@." Progress.pp_report
        (Progress.analyze s.Registry.impl))

(* Load a metrics artifact for obs and bench-diff: a bare metrics
   document or a run report nesting one under "metrics", plus whatever
   provenance it carries. *)
type bench_doc = {
  bd_metrics : Metrics.snapshot;
  bd_command : string option;
  bd_engine : string option;
  bd_domains : int option;
  bd_version : string option;
}

let load_bench_doc file =
  match Json.of_file file with
  | Error m -> Error (Printf.sprintf "%s: %s" file m)
  | Ok j -> (
      let parsed =
        match Metrics.of_json j with
        | Ok snap -> Ok snap
        | Error _ as e -> (
            match Json.member "metrics" j with
            | Some nested -> Metrics.of_json nested
            | None -> e)
      in
      match parsed with
      | Error m -> Error (Printf.sprintf "%s: %s" file m)
      | Ok snap ->
          let str k = Option.bind (Json.member k j) Json.string_opt in
          Ok
            {
              bd_metrics = snap;
              bd_command = str "command";
              bd_engine = str "engine";
              bd_domains = Option.bind (Json.member "domains" j) Json.int_opt;
              bd_version = str "version";
            })

let obs_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"METRICS_JSON"
          ~doc:"File written by --metrics-out (or a bench metrics dump).")
  in
  let run file =
    match load_bench_doc file with
    | Error m ->
        Format.eprintf "obs: %s@." m;
        exit 2
    | Ok d ->
        (* report-wrapped dumps are self-describing: surface the
           provenance before the metrics *)
        (match (d.bd_command, d.bd_engine, d.bd_domains, d.bd_version) with
        | None, None, None, None -> ()
        | cmd, eng, dom, ver ->
            Format.printf "run: %s (engine=%s domains=%d version=%s)@."
              (Option.value cmd ~default:"?")
              (match eng with Some e when e <> "" -> e | _ -> "?")
              (Option.value dom ~default:1)
              (match ver with Some v when v <> "" -> v | _ -> "?"));
        Format.printf "%a" Metrics.pp d.bd_metrics
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:"Pretty-print a metrics dump written by --metrics-out")
    Term.(const run $ file_arg)

let bench_diff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE_JSON"
          ~doc:"Committed baseline (BENCH_metrics.json or --metrics-out).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT_JSON" ~doc:"Freshly produced metrics file.")
  in
  let run old_f new_f =
    match (load_bench_doc old_f, load_bench_doc new_f) with
    | Error m, _ | _, Error m ->
        Format.eprintf "bench-diff: %s@." m;
        exit 2
    | Ok old_d, Ok new_d ->
        (* Counters, gauges and histograms in this project are
           deterministic at any domain count — except the [par.*]
           family, which records the fan-out itself (pool size, chunks
           run) and so moves with the domain count. *)
        let drifts =
          Export.diff ~ignore_prefixes:[ "par." ] ~baseline:old_d.bd_metrics
            ~current:new_d.bd_metrics ()
        in
        List.iter (fun d -> Format.printf "DRIFT %a@." Export.pp_drift d)
          drifts;
        (match (old_d.bd_engine, new_d.bd_engine) with
        | Some a, Some b when a <> b && a <> "" && b <> "" ->
            Format.printf
              "note: engines differ (baseline %s, current %s)@." a b
        | _ -> ());
        if drifts = [] then
          Format.printf "bench-diff: OK (%d baseline metrics, %d current)@."
            (List.length old_d.bd_metrics)
            (List.length new_d.bd_metrics)
        else begin
          Format.printf "bench-diff: FAIL (%d drifts)@." (List.length drifts);
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two metrics dumps as a determinism gate: counters and \
          deterministic gauges/histograms must match exactly.")
    Term.(const run $ old_arg $ new_arg)

(* ------------------------------------------------------------------ *)
(* the verification daemon and its client *)

module Server = Tm_serve.Server

let socket_arg =
  Arg.(
    value
    & opt string "timedmap.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Durable state: verdict cache and job checkpoints. Without \
             it the daemon still serves, but a restart forgets verdicts \
             and in-flight progress.")
  in
  let queue_arg =
    checked (fun n -> n >= 0) "--queue must be >= 0"
      Arg.(
        value & opt int 16
        & info [ "queue" ] ~docv:"N"
            ~doc:
              "Admission queue depth. A request arriving on a full queue \
               is shed: answered UNKNOWN with a retry hint, never left \
               hanging.")
  in
  let max_states_arg =
    checked (fun n -> n >= 1) "--max-states must be >= 1"
      Arg.(
        value & opt int 200_000
        & info [ "max-states" ] ~docv:"N"
            ~doc:
              "Per-job zone budget cap (and default). Requests may ask \
               for less, never for more.")
  in
  let max_deadline_arg =
    checked (fun ms -> ms > 0.) "--max-deadline-ms must be > 0"
      Arg.(
        value & opt float 30_000.
        & info [ "max-deadline-ms" ] ~docv:"MS"
            ~doc:"Per-job wall-clock cap (and default).")
  in
  let attempts_arg =
    checked (fun n -> n >= 1) "--attempts must be >= 1"
      Arg.(
        value & opt int 3
        & info [ "attempts" ] ~docv:"N"
            ~doc:
              "Supervisor attempts per job: contained worker failures and \
               checkpoint-chained budget exhaustions retry up to $(docv) \
               times with jittered backoff.")
  in
  let workers_arg =
    checked (fun n -> n >= 1) "--workers must be >= 1"
      Arg.(
        value & opt int 1
        & info [ "workers" ] ~docv:"N"
            ~doc:
              "Run jobs in $(docv) supervised worker processes: a crashing \
               or killed job costs one worker (it is restarted with \
               backoff), never the daemon, and up to $(docv) jobs run \
               concurrently.")
  in
  let quarantine_arg =
    checked (fun k -> k >= 1) "--quarantine-after must be >= 1"
      Arg.(
        value & opt int 3
        & info [ "quarantine-after" ] ~docv:"K"
            ~doc:
              "Quarantine a job fingerprint after it crashes $(docv) \
               workers: further requests for it answer a structured error \
               instead of grinding the pool down.")
  in
  let hb_timeout_arg =
    checked (fun ms -> ms > 0.) "--hb-timeout-ms must be > 0"
      Arg.(
        value & opt float 5_000.
        & info [ "hb-timeout-ms" ] ~docv:"MS"
            ~doc:
              "Declare a worker wedged (and SIGKILL it) after $(docv) of \
               heartbeat silence.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "chaos-kill-every" ] ~docv:"MS"
          ~doc:
            "Chaos harness: SIGKILL a random worker (preferring a busy \
             one) every $(docv) milliseconds. Testing only.")
  in
  let run socket state_dir queue max_states max_deadline_ms attempts workers
      quarantine_after hb_timeout_ms chaos_ms (ename, _) domains obs =
    let cfg =
      {
        (Server.default_config ~socket_path:socket) with
        Server.state_dir;
        max_queue = queue;
        max_limit = Some max_states;
        max_deadline_s = Some (max_deadline_ms /. 1000.);
        domains;
        attempts;
        default_engine = ename;
        workers;
        quarantine_after;
        hb_timeout_s = hb_timeout_ms /. 1000.;
        chaos_kill_every_s = Option.map (fun ms -> ms /. 1000.) chaos_ms;
      }
    in
    with_obs "serve" ~engine:ename ~domains obs (fun () ->
        match Server.run cfg with
        | () -> ()
        | exception Server.Already_running path ->
            Format.eprintf
              "serve: %s is live — another daemon answered; refusing to \
               take over the socket@."
              path;
            exit 3
        | exception Unix.Unix_error (err, syscall, arg) ->
            Format.eprintf "serve: %s %s: %s@." syscall arg
              (Unix.error_message err);
            exit 3)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running verification daemon: length-prefixed JSON jobs \
          over a Unix socket, with admission control, verdict caching \
          and crash tolerance")
    Term.(
      const run $ socket_arg $ state_dir_arg $ queue_arg $ max_states_arg
      $ max_deadline_arg $ attempts_arg $ workers_arg $ quarantine_arg
      $ hb_timeout_arg $ chaos_arg $ engine_arg $ domains_term $ obs_term)

let client_cmd =
  let requests_arg =
    checked (fun l -> l <> []) "no requests given"
      Arg.(
        value & pos_all string []
        & info [] ~docv:"REQUEST"
            ~doc:
              "Request JSON objects, or the bare words $(b,ping), \
               $(b,stats), $(b,shutdown). All requests are pipelined, \
               then every response is printed as one NDJSON line.")
  in
  let timeout_arg =
    checked
      (function Some ms -> ms > 0. | None -> true)
      "--timeout must be > 0"
      Arg.(
        value
        & opt (some float) None
        & info [ "timeout" ] ~docv:"MS"
            ~doc:
              "Give up if all responses have not arrived within $(docv) \
               milliseconds (a single deadline for the whole pipeline) \
               and exit 3 — a wedged or drowned daemon never hangs the \
               caller.")
  in
  let run socket timeout_ms requests =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect sock (Unix.ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error (err, _, _) ->
        Format.eprintf "client: cannot connect to %s: %s@." socket
          (Unix.error_message err);
        exit 3);
    (* Tag each request with an id so pipelined responses (which may
       arrive out of order: cache hits and sheds answer immediately,
       computed jobs later) stay attributable. *)
    List.iteri
      (fun i req ->
        let payload =
          if String.length req > 0 && req.[0] = '{' then
            match Json.of_string req with
            | Ok (Json.Obj kvs) when not (List.mem_assoc "id" kvs) ->
                Json.to_string (Json.Obj (("id", Json.Int i) :: kvs))
            | _ -> req
          else Json.to_string (Json.Obj [ ("id", Json.Int i);
                                          ("op", Json.String req) ])
        in
        Tm_serve.Protocol.write_frame sock payload)
      requests;
    let worst = ref 0 in
    let note_status = function
      | Some "error" -> worst := max !worst 2
      | Some "unknown" -> worst := max !worst 1
      | _ -> ()
    in
    let stdout_open = ref true in
    (* one reader for the whole connection: pipelined responses may
       coalesce into a single read, and the surplus frames live in the
       reader between calls *)
    let rd = Tm_serve.Protocol.reader () in
    let deadline =
      Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) timeout_ms
    in
    let read_one () = Tm_serve.Protocol.read_frame ?deadline rd sock in
    let rec read_all n =
      if n > 0 then
        match read_one () with
        | None ->
            Format.eprintf "client: daemon closed after %d of %d responses@."
              (List.length requests - n)
              (List.length requests);
            worst := max !worst 2
        | Some payload ->
            (match Json.of_string payload with
            | Ok doc -> note_status (Tm_serve.Protocol.status_of_response doc)
            | Error _ -> worst := max !worst 2);
            (if !stdout_open then
               (* a consumer that stopped reading (head, closed pipe) must
                  not kill the client: stop printing, keep draining so the
                  exit code still reflects every response *)
               try
                 print_string payload;
                 print_newline ();
                 flush stdout
               with Sys_error _ -> stdout_open := false);
            read_all (n - 1)
    in
    (match read_all (List.length requests) with
    | () -> ()
    | exception Tm_serve.Protocol.Timeout ->
        Format.eprintf
          "client: timed out after %.0f ms waiting for responses@."
          (Option.value ~default:0. timeout_ms);
        (try Unix.close sock with Unix.Unix_error _ -> ());
        exit 3
    | exception Failure m ->
        Format.eprintf "client: %s@." m;
        worst := max !worst 2
    | exception Unix.Unix_error (err, _, _) ->
        Format.eprintf "client: %s@." (Unix.error_message err);
        worst := max !worst 2);
    (try Unix.close sock with Unix.Unix_error _ -> ());
    match !worst with 0 -> () | 1 -> exit 4 | _ -> exit 2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running $(b,timedmap serve) daemon and \
          print the NDJSON responses")
    Term.(const run $ socket_arg $ timeout_arg $ requests_arg)

let () =
  (* If this process was re-executed as a serve worker, the guard runs
     the worker loop and never returns — before any CLI parsing. *)
  Tm_serve.Workers.maybe_worker_main ();
  (* Signals are routed through the supervisor for every subcommand, so
     a Ctrl-C still flushes --metrics-out/--trace-out (the with_obs
     cleanup runs on the Interrupted exception) before exiting. *)
  Supervisor.install_handlers ();
  let doc = "timing properties via mappings (Lynch & Attiya, PODC 1990)" in
  let group =
    Cmd.group
      (Cmd.info "timedmap" ~version ~doc)
      [ simulate_cmd; check_cmd; verify_cmd; run_cmd; margin_cmd; map_cmd;
        exact_cmd; progress_cmd; obs_cmd; bench_diff_cmd; serve_cmd;
        client_cmd ]
  in
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Supervisor.Interrupted ->
      Format.eprintf "timedmap: interrupted — observability sinks flushed@.";
      exit 130
  | exception Snapshot.Bad_snapshot m ->
      Format.eprintf "timedmap: snapshot error: %s@." m;
      exit 2
  | exception Sys_error m ->
      Format.eprintf "timedmap: %s@." m;
      exit 2
  | exception Failure m ->
      Format.eprintf "timedmap: %s@." m;
      exit 125
  | exception e ->
      Format.eprintf "timedmap: uncaught exception: %s@."
        (Printexc.to_string e);
      exit 125
