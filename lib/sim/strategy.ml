module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Prng = Tm_base.Prng

type ('s, 'a) t =
  ('s, 'a) Tm_core.Time_automaton.t ->
  's Tm_core.Tstate.t ->
  ('a * Rational.t * Time.t) list ->
  ('a * Rational.t) option

let eager _aut _s moves =
  match moves with
  | [] -> None
  | (a0, lo0, _) :: rest ->
      let act, lo =
        List.fold_left
          (fun (act, lo) (a, l, _) ->
            if Rational.(l < lo) then (a, l) else (act, lo))
          (a0, lo0) rest
      in
      Some (act, lo)

let lazy_ ?prefer:(pref = fun _ -> false) ~cap () =
  (* Actions already fired at the instant currently being processed;
     a preferred action is scheduled before the others at a shared
     instant, but at most once per instant (repeating it forever would
     produce a Zeno run that never lets deadlines force progress). *)
  let fired_at : (Rational.t * int) ref = ref (Rational.zero, 0) in
  fun _aut s moves ->
    match moves with
    | [] -> None
    | _ ->
        (* All windows share the same upper endpoint (min over all Lt);
           the latest legal instant is that global deadline. *)
        let deadline =
          List.fold_left (fun acc (_, _, hi) -> Time.min acc hi)
            Time.infinity moves
        in
        let t =
          match deadline with
          | Time.Fin q -> q
          | Time.Inf ->
              let max_lo =
                List.fold_left
                  (fun acc (_, lo, _) -> Rational.max acc lo)
                  s.Tm_core.Tstate.now moves
              in
              Rational.add max_lo cap
        in
        let candidates =
          List.filter (fun (_, lo, _) -> Rational.(lo <= t)) moves
        in
        let prev_t, prev_pref = !fired_at in
        let pref_budget =
          if Rational.equal prev_t t then prev_pref = 0 else true
        in
        let preferred =
          if pref_budget then
            List.filter (fun (a, _, _) -> pref a) candidates
          else []
        in
        (* Otherwise fire the move released first (waiting longest). *)
        let pick = function
          | [] -> None
          | (a0, lo0, _) :: rest ->
              let act, _ =
                List.fold_left
                  (fun (act, lo) (a, l, _) ->
                    if Rational.(l < lo) then (a, l) else (act, lo))
                  (a0, lo0) rest
              in
              Some act
        in
        (match (pick preferred, pick candidates) with
        | Some act, _ ->
            fired_at :=
              (t, if Rational.equal prev_t t then prev_pref + 1 else 1);
            Some (act, t)
        | None, Some act ->
            fired_at := (t, if Rational.equal prev_t t then prev_pref else 0);
            Some (act, t)
        | None, None ->
            (* Cannot happen for nonempty windows: lo <= hi <= t. *)
            None)

let random ~prng ~denominator ~cap _aut s moves =
  match moves with
  | [] -> None
  | _ ->
      let act, lo, hi = Prng.pick prng moves in
      let hi_capped =
        let cap_abs =
          Rational.add (Rational.max s.Tm_core.Tstate.now lo) cap
        in
        match hi with
        | Time.Fin q -> Rational.min q cap_abs
        | Time.Inf -> cap_abs
      in
      let hi_capped = Rational.max hi_capped lo in
      Some (act, Prng.rational_in prng ~denominator lo hi_capped)

let prefer pred inner aut s moves =
  let preferred = List.filter (fun (a, _, _) -> pred a) moves in
  inner aut s (if preferred = [] then moves else preferred)
