(* Shared helpers for the benchmark/experiment harness. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Prng = Tm_base.Prng
module Measure = Tm_sim.Measure

let section title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

let pp_env = function
  | None -> "(no samples)"
  | Some e ->
      Printf.sprintf "[%s, %s] n=%d mean=%.3f"
        (Rational.to_string e.Measure.min)
        (Rational.to_string e.Measure.max)
        e.Measure.count e.Measure.mean

let pp_bounds (lo, hi) =
  Printf.sprintf "[%s, %s]" (Time.to_string lo) (Time.to_string hi)

let pp_interval iv = Interval.to_string iv

let verdict ok = if ok then "OK" else "MISMATCH"

let check_in iv env =
  match env with None -> false | Some e -> Measure.within iv e

(* exact (grid) bounds equal the closed-form interval? *)
let exact_matches iv (lo, hi) =
  Time.equal lo (Time.Fin (Interval.lo iv)) && Time.equal hi (Interval.hi iv)

(* GC accounting for the allocation ablation (E17): run [f] and return
   its result together with the minor words allocated, total allocated
   bytes, and how far the major-heap peak (top_heap_words) grew during
   the run.  The peak itself is process-wide and never falls, so a run
   after a bigger one would only repeat the earlier peak; its growth is
   what this run added.  OCaml 5 GC stats are domain-local, so callers
   that want deterministic figures must keep the measured work on this
   domain.  Minor words come from [Gc.minor_words], which reads this
   domain's allocation pointer.  The [minor_words] of [Gc.quick_stat]
   (and [Gc.counters], so [Gc.allocated_bytes] too) are only brought up
   to date at minor collections on OCaml 5.1, so that figure moves by up
   to a minor heap (256k words) whenever anything allocated before the
   run shifts where the collections fall. *)
let with_gc_stats f =
  let b0 = Gc.allocated_bytes () in
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let r = f () in
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let b1 = Gc.allocated_bytes () in
  ( r,
    m1 -. m0,
    b1 -. b0,
    g1.Gc.top_heap_words - g0.Gc.top_heap_words )
