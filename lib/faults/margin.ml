module Rational = Tm_base.Rational
module Boundmap = Tm_timed.Boundmap
module Reach = Tm_zones.Reach
module Metrics = Tm_obs.Metrics
module Json = Tm_obs.Json

let c_probes = Metrics.counter "faults.margin_probes"

type status = Sat | Unsat | Unknown of string

type verdict = {
  threshold : Rational.t;
  attained : bool;
  refuted_at : Rational.t option;
  exact : bool;
  probes : int;
}

type row = { cls : string; verdict : (verdict, string) result }

type report = {
  subject : string;
  overall : (verdict, string) result;
  per_class : row list;
  critical : string option;
}

let ( let* ) = Result.bind

(* Mediant of two reduced fractions.  On a unimodular bracket this is
   the Stern–Brocot descent: the mediant is already reduced and the
   bracket stays unimodular, so every rational inside is reachable. *)
let mediant lo hi =
  Rational.make
    (lo.Rational.num + hi.Rational.num)
    (lo.Rational.den + hi.Rational.den)

(* One check actually run: one [faults.margin_probes] increment and
   one [faults.probe] event, whichever search (or the shared base of a
   report) asked for it. *)
let run_check ~check e bm =
  Metrics.incr c_probes;
  let res =
    match check bm with
    | Sat -> Ok true
    | Unsat -> Ok false
    | Unknown m ->
        Error
          (Printf.sprintf "inconclusive at e = %s: %s" (Rational.to_string e) m)
  in
  (* Probe events stream from the pool workers [report] fans over; the
     sink serializes concurrent emissions. *)
  Tm_obs.Events.emit "faults.probe"
    [
      ("e", Json.String (Rational.to_string e));
      ("sat", match res with Ok b -> Json.Bool b | Error _ -> Json.Null);
    ];
  res

let validate ~eps_max ~stable =
  if eps_max < 1 then invalid_arg "Margin.search: eps_max must be >= 1";
  if stable < 2 then invalid_arg "Margin.search: stable must be >= 2"

(* [base], when given, is the outcome of the unperturbed check: the
   [e = 0] step takes it instead of running [check] again.  That is
   sound for families with [family 0] the identity on [bm] (every
   family [report] uses), and the step still counts as a probe. *)
let descend ~eps_max ~stable ~max_probes ?base ~family ~check bm =
  let probes = ref 0 in
  let probe e =
    match Perturb.apply (family e) bm with
    | Error m -> Error m
    | Ok bm' ->
        incr probes;
        run_check ~check e bm'
  in
  let* sat0 =
    match base with
    | None -> probe Rational.zero
    | Some r ->
        incr probes;
        r
  in
  if not sat0 then Error "refuted with no perturbation (e = 0)"
  else
    let* sat_top = probe (Rational.of_int eps_max) in
    if sat_top then
      Ok
        {
          threshold = Rational.of_int eps_max;
          attained = true;
          refuted_at = None;
          exact = false;
          probes = !probes;
        }
    else
      (* Bracket e* between consecutive integers: [ilo] verified,
         [ihi = ilo + 1] refuted.  This keeps the rational bracket
         below unimodular, which the exactness argument needs. *)
      let rec int_bracket ilo ihi =
        if ihi - ilo <= 1 then Ok (ilo, ihi)
        else
          let mid = ilo + ((ihi - ilo) / 2) in
          let* sat = probe (Rational.of_int mid) in
          if sat then int_bracket mid ihi else int_bracket ilo mid
      in
      let* ilo, ihi = int_bracket 0 eps_max in
      (* Mediant walk: [lo] always verified, [hi] always refuted.  The
         walk reaches e* exactly; from then on only one endpoint ever
         moves, and which one it is tells whether e* is attained. *)
      let rec walk lo hi sat_run unsat_run =
        if unsat_run >= stable then
          Ok
            {
              threshold = lo;
              attained = true;
              refuted_at = Some hi;
              exact = true;
              probes = !probes;
            }
        else if sat_run >= stable then
          Ok
            {
              threshold = hi;
              attained = false;
              refuted_at = Some hi;
              exact = true;
              probes = !probes;
            }
        else if !probes >= max_probes then
          Ok
            {
              threshold = lo;
              attained = true;
              refuted_at = Some hi;
              exact = false;
              probes = !probes;
            }
        else
          let m = mediant lo hi in
          let* sat = probe m in
          if sat then walk m hi (sat_run + 1) 0
          else walk lo m 0 (unsat_run + 1)
      in
      walk (Rational.of_int ilo) (Rational.of_int ihi) 0 0

let search ?(eps_max = 8) ?(stable = 12) ?(max_probes = 96) ~family ~check
    bm =
  validate ~eps_max ~stable;
  descend ~eps_max ~stable ~max_probes ~family ~check bm

let report ?(eps_max = 8) ?(stable = 12) ?(max_probes = 96) ?(domains = 1)
    ~subject ~check bm =
  validate ~eps_max ~stable;
  (* The overall search and each per-class search are independent
     Stern–Brocot descents, so they fan out over the pool as whole
     tasks (the walk inside a search is adaptive and stays
     sequential).  They all start from the unperturbed map ([widen 0]
     and [widen_class c 0] leave it as it is), so that check runs once,
     before the fan-out, and every search takes its outcome as its
     [e = 0] step.  Each search then draws a self-contained probe
     sequence, so verdicts and probe counts are identical at any domain
     count; with [domains = 1] the inline pool runs them in the exact
     sequential order. *)
  let search ~base family =
    descend ~eps_max ~stable ~max_probes ~base ~family ~check bm
  in
  Tm_obs.Tracing.with_span "faults.margin_report"
    ~args:[ ("subject", subject) ]
  @@ fun () ->
  let base = run_check ~check Rational.zero bm in
  let tasks =
    (fun () -> `Overall (search ~base Perturb.widen))
    :: List.map
         (fun cls () ->
           `Row { cls; verdict = search ~base (Perturb.widen_class cls) })
         (Boundmap.classes bm)
  in
  let results =
    Tm_par.Pool.run ~domains (fun p ->
        Tm_par.Pool.map_list p (fun task -> task ()) tasks)
  in
  let overall =
    match results with
    | `Overall v :: _ -> v
    | _ -> assert false
  in
  let per_class =
    List.filter_map (function `Row r -> Some r | `Overall _ -> None) results
  in
  let critical =
    List.fold_left
      (fun acc r ->
        match r.verdict with
        | Ok v when v.refuted_at <> None -> (
            match acc with
            | Some (_, best) when Rational.(best <= v.threshold) -> acc
            | _ -> Some (r.cls, v.threshold))
        | Ok _ | Error _ -> acc)
      None per_class
    |> Option.map fst
  in
  { subject; overall; per_class; critical }

let probe_engine ~name:_ (e : (module Reach.S)) = e

let status (module E : Reach.S) ?limit ?deadline_s a prop bm =
  match E.check ?limit ?deadline_s a bm [ prop ] with
  | Ok (Reach.Verified _) -> Sat
  | Ok (Reach.Lower_violation _ | Reach.Upper_violation _) | Error _ -> Unsat
  | Ok (Reach.Unknown e) -> Unknown e.Reach.reason
  | Ok (Reach.Unsupported m) -> Unknown ("unsupported: " ^ m)

let condition_status e ?limit ?deadline_s a c =
  status e ?limit ?deadline_s a (Reach.Condition c)

let invariant_status e ?limit ?deadline_s a pred =
  status e ?limit ?deadline_s a (Reach.Invariant pred)

let pp_verdict fmt v =
  if v.refuted_at = None then
    Format.fprintf fmt ">= %s (censored, %d probes)"
      (Rational.to_string v.threshold)
      v.probes
  else
    Format.fprintf fmt "%s (%s%s, %d probes%s)"
      (Rational.to_string v.threshold)
      (if v.attained then "attained" else "open")
      (if v.exact then ", exact" else ", inexact")
      v.probes
      (match v.refuted_at with
      | Some r -> Printf.sprintf "; refuted at %s" (Rational.to_string r)
      | None -> "")

let verdict_to_json = function
  | Error m -> Json.Obj [ ("error", Json.String m) ]
  | Ok v ->
      Json.Obj
        [
          ("threshold", Json.String (Rational.to_string v.threshold));
          ("attained", Json.Bool v.attained);
          ("exact", Json.Bool v.exact);
          ( "refuted_at",
            match v.refuted_at with
            | Some r -> Json.String (Rational.to_string r)
            | None -> Json.Null );
          ("probes", Json.Int v.probes);
        ]

let to_json r =
  Json.Obj
    [
      ("subject", Json.String r.subject);
      ("overall", verdict_to_json r.overall);
      ( "per_class",
        Json.Obj
          (List.map (fun row -> (row.cls, verdict_to_json row.verdict))
             r.per_class) );
      ( "critical",
        match r.critical with
        | Some c -> Json.String c
        | None -> Json.Null );
    ]
