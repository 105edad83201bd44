module Rational = Tm_base.Rational
module Interval = Tm_base.Interval

let occurrence_times pred (seq : ('s, 'a) Tm_timed.Tseq.t) =
  List.filter_map
    (fun ((act, tm), _) -> if pred act then Some tm else None)
    seq.Tm_timed.Tseq.moves

let first_time pred seq =
  match occurrence_times pred seq with [] -> None | t :: _ -> Some t

let gaps = function
  | [] -> []
  | first :: rest ->
      let rec go prev = function
        | [] -> []
        | t :: ts -> Rational.sub t prev :: go t ts
      in
      go first rest

type envelope = {
  count : int;
  min : Rational.t;
  max : Rational.t;
  mean : float;
}

let envelope = function
  | [] -> None
  | t :: ts ->
      let count, mn, mx, sum =
        List.fold_left
          (fun (c, mn, mx, sum) t ->
            (c + 1, Rational.min mn t, Rational.max mx t,
             sum +. Rational.to_float t))
          (1, t, t, Rational.to_float t)
          ts
      in
      Some { count; min = mn; max = mx; mean = sum /. float_of_int count }

let merge a b =
  {
    count = a.count + b.count;
    min = Rational.min a.min b.min;
    max = Rational.max a.max b.max;
    mean =
      ((a.mean *. float_of_int a.count) +. (b.mean *. float_of_int b.count))
      /. float_of_int (a.count + b.count);
  }

let within iv e = Interval.mem e.min iv && Interval.mem e.max iv

let pp_envelope fmt e =
  Format.fprintf fmt "{n=%d; min=%a; max=%a; mean=%.4f}" e.count Rational.pp
    e.min Rational.pp e.max e.mean

let quantile samples p =
  Tm_obs.Metrics.quantile_of_samples ~who:"Measure.quantile" samples p

let summary samples =
  match envelope samples with
  | None -> "(no samples)"
  | Some e ->
      let q p =
        match quantile samples p with
        | Some v -> Rational.to_string v
        | None -> "-"
      in
      Printf.sprintf "n=%d min=%s p50=%s p90=%s max=%s" e.count
        (Rational.to_string e.min) (q 0.5) (q 0.9)
        (Rational.to_string e.max)

type ('s, 'a) ensemble = {
  runs : int;
  seeds_with_events : int;
  first : envelope option;
  gap : envelope option;
}

let ensemble ?(domains = 1) ~runs ~steps ~denominator ~cap ~event aut =
  (* Run i is seeded with [Prng.create i], exactly as the historical
     sequential loop, so measured envelopes are bit-identical at any
     domain count (and to pre-parallel versions of this library). *)
  let results =
    Simulator.batch ~domains ~runs ~steps
      ~prng:(fun seed -> Tm_base.Prng.create seed)
      ~strategy:(fun prng -> Strategy.random ~prng ~denominator ~cap)
      aut
  in
  let firsts = ref [] and gap_samples = ref [] in
  let seeds_with_events = ref 0 in
  Array.iter
    (fun run ->
      let ts = occurrence_times event (Simulator.project run) in
      if ts <> [] then incr seeds_with_events;
      (match ts with t :: _ -> firsts := t :: !firsts | [] -> ());
      gap_samples := gaps ts @ !gap_samples)
    results;
  {
    runs;
    seeds_with_events = !seeds_with_events;
    first = envelope !firsts;
    gap = envelope !gap_samples;
  }
