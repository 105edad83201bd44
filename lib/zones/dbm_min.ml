(* Minimal-constraint form of a canonical DBM (Larsen–Larsson–
   Pettersson–Yi, RTSS'97): the non-redundant subset of constraints
   from which re-closing reconstructs the exact matrix.

   The reduction runs in two steps on a canonical nonempty matrix:

   1. Collapse zero-equivalence classes.  [i ~ j] iff the 2-cycle
      [m_ij + m_ji] is exactly [Le 0] (both edges weak, constants
      negating).  In a canonical matrix this relation is transitive,
      so each clock's representative is the smallest class member.
      For a class [c_0 < c_1 < ... < c_k] (k >= 1) the kept edges are
      the cycle [c_0 -> c_1 -> ... -> c_k -> c_0] with the original
      bounds — within a zero class [m_ab = m_ac + m_cb] holds with
      equality, so the cycle regenerates every intra-class entry.

   2. Among representatives every cycle is strictly positive (a zero
      cycle would have merged its classes, a negative one means the
      zone is empty), so redundant edges can all be removed
      simultaneously: drop [(i, j)] iff some third representative [k]
      gives [m_ik + m_kj <= m_ij].  [Inf] edges are never kept —
      closure over a subset of a closed matrix can only stay above it.

   Construction is deterministic (fixed iteration order), so two
   reductions of equal matrices are structurally equal — [equal] is
   exact, no re-closure needed.

   This module is the rational-bound instance used by {!Dbm_ref};
   {!Dbm_int} hand-specializes the same algorithm over packed ints to
   keep its subsumption probe allocation-free.  The QCheck round-trip
   in test/test_dbm_min.ml pins both to the dense kernels. *)

module Rational = Tm_base.Rational

type t = {
  mn : int;  (* clock count of the source matrix *)
  midx : int array;  (* kept constraint positions, [i * mn + j] *)
  mbnd : Dbm_bound.t array;  (* bound of each kept constraint *)
}

let count t = Array.length t.midx
let le_zero = Dbm_bound.Le Rational.zero

(* [r i j] reads entry (i, j) of the source matrix — canonical and
   nonempty, callers guarantee both. *)
let reduce n r =
  (* rep.(i) = smallest clock zero-equivalent to i.  Transitivity lets
     us compare i against earlier representatives only. *)
  let rep = Array.init n (fun i -> i) in
  for i = 1 to n - 1 do
    (try
       for j = 0 to i - 1 do
         if
           rep.(j) = j
           && Dbm_bound.compare (Dbm_bound.add (r j i) (r i j)) le_zero = 0
         then begin
           rep.(i) <- j;
           raise Exit
         end
       done
     with Exit -> ())
  done;
  let idx = ref [] and bnd = ref [] in
  let keep i j b =
    idx := ((i * n) + j) :: !idx;
    bnd := b :: !bnd
  in
  (* Class cycles, classes in representative order, members ascending. *)
  for c = 0 to n - 1 do
    if rep.(c) = c then begin
      let members = ref [] in
      for i = n - 1 downto c do
        if rep.(i) = c then members := i :: !members
      done;
      match !members with
      | [] | [ _ ] -> ()
      | first :: _ as ms ->
          let rec cyc = function
            | [ last ] -> keep last first (r last first)
            | a :: (b :: _ as tl) ->
                keep a b (r a b);
                cyc tl
            | [] -> ()
          in
          cyc ms
    end
  done;
  (* Representative-to-representative edges, minus redundant ones. *)
  for i = 0 to n - 1 do
    if rep.(i) = i then
      for j = 0 to n - 1 do
        if j <> i && rep.(j) = j then begin
          match r i j with
          | Dbm_bound.Inf -> ()
          | b ->
              let redundant = ref false in
              let k = ref 0 in
              while (not !redundant) && !k < n do
                if !k <> i && !k <> j && rep.(!k) = !k then begin
                  let via = Dbm_bound.add (r i !k) (r !k j) in
                  if Dbm_bound.compare via b <= 0 then redundant := true
                end;
                incr k
              done;
              if not !redundant then keep i j b
        end
      done
  done;
  {
    mn = n;
    midx = Array.of_list (List.rev !idx);
    mbnd = Array.of_list (List.rev !bnd);
  }

(* Rebuild the full canonical matrix: kept constraints over an
   unconstrained diagonal-zero skeleton, then a full Floyd–Warshall
   re-closure.  Test/diagnostic path — clarity over speed. *)
let to_matrix t =
  let n = t.mn in
  let m = Array.make (n * n) Dbm_bound.Inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- le_zero
  done;
  Array.iteri (fun e ij -> m.(ij) <- t.mbnd.(e)) t.midx;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = Dbm_bound.add m.((i * n) + k) m.((k * n) + j) in
        if Dbm_bound.compare via m.((i * n) + j) < 0 then
          m.((i * n) + j) <- via
      done
    done
  done;
  m

(* Does the zone this reduction came from include the (canonical,
   nonempty) zone read by [r]?  Dense inclusion checks all n² entries;
   here it suffices to check the kept constraints: any reconstructed
   entry is a path sum of kept bounds, and a canonical [r] satisfies
   the triangle inequality along that path. *)
let subsumes t r =
  let ne = Array.length t.midx in
  let ok = ref true in
  let e = ref 0 in
  while !ok && !e < ne do
    let ij = t.midx.(!e) in
    if Dbm_bound.compare (r (ij / t.mn) (ij mod t.mn)) t.mbnd.(!e) > 0 then
      ok := false;
    incr e
  done;
  !ok

let equal a b =
  a.mn = b.mn
  && Array.length a.midx = Array.length b.midx
  && a.midx = b.midx
  &&
  let ne = Array.length a.mbnd in
  let eq = ref true in
  let e = ref 0 in
  while !eq && !e < ne do
    if Dbm_bound.compare a.mbnd.(!e) b.mbnd.(!e) <> 0 then eq := false;
    incr e
  done;
  !eq
