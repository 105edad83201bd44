(* Reference DBM kernel: the original straightforward implementation
   over exact rationals, kept verbatim (minus metrics) as the oracle for
   differential testing of the packed-int kernel {!Dbm_int}.  Unlike
   that kernel it runs every job unscaled, so each int-vs-ref
   differential also checks the time-unit scaling in {!Reach}.  It is
   the one kernel with the persistent zone algebra; its [Scratch] is
   the literal sequence of those ops.  Every operation copies the
   matrix; [sat] re-runs a full constrain; [zero]/[top]/[intersect]
   re-canonicalize from scratch.  Slow on purpose — do not optimise. *)

module Rational = Tm_base.Rational

type bnd = Dbm_bound.t = Lt of Rational.t | Le of Rational.t | Inf

let bnd_compare = Dbm_bound.compare
let bnd_min = Dbm_bound.min_b
let bnd_add = Dbm_bound.add
let bnd_neg_ok = Dbm_bound.neg_ok

type t = { n : int; m : bnd array; empty : bool }

let name = "ref"
let compact = false
let headroom = None
let dim z = z.n
let get z i j = z.m.(i * z.n + j)
let is_empty z = z.empty

(* Floyd–Warshall tightening; detects emptiness via negative diagonal. *)
let canonicalize_arr n m =
  let idx i j = (i * n) + j in
  (try
     for k = 0 to n - 1 do
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           let via = bnd_add m.(idx i k) m.(idx k j) in
           if bnd_compare via m.(idx i j) < 0 then m.(idx i j) <- via
         done;
         if not (bnd_neg_ok m.(idx i i)) then raise Exit
       done
     done
   with Exit -> m.(0) <- Lt Rational.zero);
  let empty = not (bnd_neg_ok m.(0)) in
  empty

let of_arr n m =
  let empty = canonicalize_arr n m in
  { n; m; empty }

let zero n =
  if n < 1 then invalid_arg "Dbm_ref.zero";
  of_arr n (Array.make (n * n) (Le Rational.zero))

let top n =
  if n < 1 then invalid_arg "Dbm_ref.top";
  let m = Array.make (n * n) Inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- Le Rational.zero;
    (* reference minus any clock is <= 0: clocks are nonnegative *)
    m.(i) <- Le Rational.zero
  done;
  m.(0) <- Le Rational.zero;
  of_arr n m

(* Incremental tightening after adding x_i - x_j <= b to a canonical
   DBM: every entry can only improve through the new edge, so one
   O(n^2) pass over pairs (x, y) via x -> i -> j -> y suffices. *)
let constrain z i j b =
  if i < 0 || i >= z.n || j < 0 || j >= z.n then invalid_arg "Dbm_ref.constrain";
  if z.empty then z
  else if bnd_compare b (get z i j) >= 0 then z
  else begin
    let n = z.n in
    let m = Array.copy z.m in
    let idx x y = (x * n) + y in
    if i = j then m.(idx i i) <- bnd_min m.(idx i i) b
    else begin
      for x = 0 to n - 1 do
        let x_to_i = m.(idx x i) in
        if x_to_i <> Inf then begin
          let via = bnd_add x_to_i b in
          for y = 0 to n - 1 do
            let cand = bnd_add via m.(idx j y) in
            if bnd_compare cand m.(idx x y) < 0 then m.(idx x y) <- cand
          done
        end
      done
    end;
    let empty =
      let ok = ref true in
      for x = 0 to n - 1 do
        if not (bnd_neg_ok m.(idx x x)) then ok := false
      done;
      not !ok
    in
    { n; m; empty }
  end

(* Both [up] and [reset] preserve canonical form (standard DBM
   results), so no re-closing is needed. *)
let up z =
  if z.empty then z
  else begin
    let m = Array.copy z.m in
    for i = 1 to z.n - 1 do
      m.((i * z.n) + 0) <- Inf
    done;
    { z with m }
  end

let reset z x =
  if x < 1 || x >= z.n then invalid_arg "Dbm_ref.reset";
  if z.empty then z
  else begin
    let n = z.n in
    let m = Array.copy z.m in
    for j = 0 to n - 1 do
      m.((x * n) + j) <- z.m.(j);
      (* x_x − x_j = 0 − x_j *)
      m.((j * n) + x) <- z.m.((j * n) + 0)
    done;
    m.((x * n) + x) <- Le Rational.zero;
    { z with m }
  end

(* Like [up] and [reset], [free] preserves canonical form. *)
let free z x =
  if x < 1 || x >= z.n then invalid_arg "Dbm_ref.free";
  if z.empty then z
  else begin
    let n = z.n in
    let m = Array.copy z.m in
    for j = 0 to n - 1 do
      if j <> x then begin
        m.((x * n) + j) <- Inf;
        m.((j * n) + x) <- z.m.((j * n) + 0)
      end
    done;
    { z with m }
  end

let intersect a b =
  if a.n <> b.n then invalid_arg "Dbm_ref.intersect";
  if a.empty then a
  else if b.empty then b
  else begin
    let m = Array.init (a.n * a.n) (fun k -> bnd_min a.m.(k) b.m.(k)) in
    of_arr a.n m
  end

let includes big small =
  if big.n <> small.n then invalid_arg "Dbm_ref.includes";
  if small.empty then true
  else if big.empty then false
  else
    let ok = ref true in
    Array.iteri
      (fun k b -> if bnd_compare small.m.(k) b > 0 then ok := false)
      big.m;
    !ok

(* LU relaxation: entry (i, j) with constant c goes to Inf when
   c > lower.(i), else to Lt (-upper.(j)) when c < -upper.(j); a [None]
   bound is -inf and wipes unconditionally.  Comparisons are on the
   constant only (strictness does not matter), exactly as in the int
   kernel.  Straightforward copy-and-reclose. *)
let extrapolate_lu ~lower ~upper z =
  if z.empty then z
  else begin
    let n = z.n in
    let m = Array.copy z.m in
    let changed = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          match m.((i * n) + j) with
          | Inf -> ()
          | Le c | Lt c -> (
              let wipe =
                match lower.(i) with
                | None -> true
                | Some l -> Rational.compare c l > 0
              in
              if wipe then begin
                m.((i * n) + j) <- Inf;
                changed := true
              end
              else
                match upper.(j) with
                | None ->
                    m.((i * n) + j) <- Inf;
                    changed := true
                | Some u ->
                    let nu = Rational.neg u in
                    if Rational.compare c nu < 0 then begin
                      m.((i * n) + j) <- Lt nu;
                      changed := true
                    end)
      done
    done;
    if not !changed then z
    else begin
      ignore (canonicalize_arr n m);
      { z with m }
    end
  end

type lu = {
  invs : (int * bnd) array;
  lower : Rational.t option array;
  upper : Rational.t option array;
}

let prepare_lu ~invs ~lower ~upper =
  Array.iter
    (fun (x, _) ->
      if x < 1 || x >= Array.length lower then
        invalid_arg "Dbm_ref.prepare_lu: clock")
    invs;
  { invs; lower; upper }

let sat z i j b = not (is_empty (constrain z i j b))

(* The clock map of {!Dbm_sig.remap}, entry by entry: a freed row is
   [Inf], a freed column repeats the row's bound against clock 0, and
   everything else is read from the source through [src]. *)
let remap z (r : Dbm_sig.remap) =
  let src = r.Dbm_sig.src in
  let n' = Array.length src in
  if n' < 1 || src.(0) <> 0 then invalid_arg "Dbm_ref.remap";
  Array.iter
    (fun j -> if j < -1 || j >= z.n then invalid_arg "Dbm_ref.remap")
    src;
  if z.empty then { z with n = n'; m = Array.make (n' * n') Inf }
  else
    let entry k l =
      if k = l then Le Rational.zero
      else if src.(k) < 0 then Inf
      else
        let sl = if src.(l) < 0 then 0 else src.(l) in
        get z src.(k) sl
    in
    {
      n = n';
      m = Array.init (n' * n') (fun e -> entry (e / n') (e mod n'));
      empty = false;
    }

let loose z =
  if z.empty then 0
  else Array.fold_left (fun acc b -> if b = Inf then acc + 1 else acc) 0 z.m

let equal a b =
  a.n = b.n && a.empty = b.empty
  && (a.empty || Array.for_all2 (fun x y -> bnd_compare x y = 0) a.m b.m)

let hash z =
  if z.empty then 0
  else Array.fold_left (fun h b -> (h * 31) + Dbm_bound.hash b) z.n z.m

(* The reference kernel stores plain persistent zones, so its arena is
   a unit token: [freeze_into] changes nothing, which is exactly what
   the oracle should do — the differential wall then pins the
   arena-backed kernel to these semantics. *)
module Arena = struct
  type arena = unit

  let create () = ()
end

(* Minimal-constraint form via the shared {!Dbm_min} reduction. *)
module Min = struct
  type min = MEmpty | M of Dbm_min.t

  let of_zone z =
    if z.empty then MEmpty
    else M (Dbm_min.reduce z.n (fun i j -> z.m.((i * z.n) + j)))

  let subsumes mn z =
    match mn with
    | MEmpty -> z.empty
    | M r ->
        if z.n <> r.Dbm_min.mn then invalid_arg "Dbm_ref.Min.subsumes";
        z.empty || Dbm_min.subsumes r (fun i j -> z.m.((i * z.n) + j))

  let zone = function
    | MEmpty -> invalid_arg "Dbm_ref.Min.zone: empty form"
    | M r -> { n = r.Dbm_min.mn; m = Dbm_min.to_matrix r; empty = false }
end

(* Scratch for the reference kernel is just a cell holding a persistent
   zone: every "destructive" op pays the full persistent cost, which is
   exactly what the differential benchmark wants to compare against.
   [src] remembers the loaded zone so a pipeline that rebuilt an equal
   matrix still freezes to the original (matching the int kernel's
   short-circuit). *)
module Scratch = struct
  type scratch = { mutable cur : t; mutable src : t option }

  let create n = { cur = zero n; src = None }

  let load s z =
    s.cur <- z;
    s.src <- Some z

  (* The executable specification of the fused tail: the literal
     sequence the int kernel's one sweep must reproduce. *)
  let settle lu s =
    let z =
      Array.fold_left (fun z (x, b) -> constrain z x 0 b) (up s.cur) lu.invs
    in
    s.cur <- extrapolate_lu ~lower:lu.lower ~upper:lu.upper z

  let constrain s i j b = s.cur <- constrain s.cur i j b
  let remap s r = s.cur <- remap s.cur r

  let is_empty s = is_empty s.cur
  let sat s i j b = sat s.cur i j b
  let subsumed_by s mn = Min.subsumes mn s.cur
  let minimize s = Min.of_zone s.cur

  let hash s = hash s.cur
  let equal_zone s z = equal s.cur z

  let freeze_into ?hash:_ () s =
    match s.src with Some z when equal z s.cur -> z | _ -> s.cur
end
