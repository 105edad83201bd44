module Rational = Tm_base.Rational
module Hstore = Tm_base.Hstore
module Ioa = Tm_ioa.Ioa

(* A clock is either strictly above the ceiling, exactly at an integer,
   or strictly between two integers; the fractional ordering of the
   Between clocks is kept separately. *)
type clock_val = Large | Exact of int | Between of int

type t = {
  vals : clock_val array;
  frac_order : int list list;
      (* groups of clock indices with equal nonzero fractional part, in
         increasing fractional order; contains exactly the Between
         clocks *)
  max_const : int;
}

let initial ~nclocks ~max_const =
  if nclocks < 0 || max_const < 0 then invalid_arg "Region.initial";
  { vals = Array.make nclocks (Exact 0); frac_order = []; max_const }

let remove_from_order x order =
  List.filter_map
    (fun group ->
      match List.filter (fun c -> c <> x) group with
      | [] -> None
      | g -> Some g)
    order

let reset r x =
  if x < 0 || x >= Array.length r.vals then invalid_arg "Region.reset";
  let vals = Array.copy r.vals in
  vals.(x) <- Exact 0;
  { r with vals; frac_order = remove_from_order x r.frac_order }

let free r x =
  if x < 0 || x >= Array.length r.vals then invalid_arg "Region.free";
  let vals = Array.copy r.vals in
  vals.(x) <- Large;
  { r with vals; frac_order = remove_from_order x r.frac_order }

let time_successor r =
  let at_integer = ref [] in
  Array.iteri
    (fun i v -> match v with Exact _ -> at_integer := i :: !at_integer
                           | Large | Between _ -> ())
    r.vals;
  match List.rev !at_integer with
  | _ :: _ as zeros ->
      (* The integer-valued clocks move into the open interval just
         above, acquiring the smallest fractional parts. *)
      let vals = Array.copy r.vals in
      let moved =
        List.filter
          (fun i ->
            match vals.(i) with
            | Exact k when k >= r.max_const ->
                vals.(i) <- Large;
                false
            | Exact k ->
                vals.(i) <- Between k;
                true
            | Large | Between _ -> false)
          zeros
      in
      let frac_order =
        if moved = [] then r.frac_order else moved :: r.frac_order
      in
      { r with vals; frac_order }
  | [] -> (
      (* No clock at an integer: the largest fractional group reaches
         the next integer.  With no Between clocks either, every clock
         is Large and the region is time-closed. *)
      match List.rev r.frac_order with
      | [] -> r
      | last :: rest_rev ->
          let vals = Array.copy r.vals in
          List.iter
            (fun i ->
              match vals.(i) with
              | Between k -> vals.(i) <- Exact (k + 1)
              | Large | Exact _ -> assert false)
            last;
          { r with vals; frac_order = List.rev rest_rev })

let sat_ge r x c =
  match r.vals.(x) with
  | Large -> true
  | Exact k | Between k -> k >= c

let sat_le r x c =
  match r.vals.(x) with
  | Large -> false
  | Exact k -> k <= c
  | Between k -> k < c

let equal a b =
  a.max_const = b.max_const && a.vals = b.vals
  && a.frac_order = b.frac_order

let hash r = Hashtbl.hash (r.vals, r.frac_order)

let pp fmt r =
  Format.fprintf fmt "@[<h>{";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt "; ";
      match v with
      | Large -> Format.fprintf fmt "x%d>%d" i r.max_const
      | Exact k -> Format.fprintf fmt "x%d=%d" i k
      | Between k -> Format.fprintf fmt "x%d in(%d,%d)" i k (k + 1))
    r.vals;
  Format.fprintf fmt " | %s}"
    (String.concat "<"
       (List.map
          (fun g -> String.concat "=" (List.map string_of_int g))
          r.frac_order))

type stats = { locations : int; regions : int; edges : int }

let explore (type s a) ?(limit = 500_000) (a : (s, a) Ioa.t) bm
    ~(inspect : s -> t -> unit) =
  let enc = Clock_enc.make a bm in
  let scale = Clock_enc.scale enc in
  let to_int q =
    let scaled = Rational.mul_int scale q in
    assert (Rational.is_integer scaled);
    Rational.floor scaled
  in
  let max_const =
    let m = Rational.mul_int scale enc.Clock_enc.max_const in
    Rational.ceil m
  in
  let nclocks = enc.Clock_enc.nclasses in
  (* Clock_enc indices are 1-based (0 is the DBM reference); regions
     use 0-based clocks. *)
  let cx x = x - 1 in
  let sat_invariant s r =
    List.for_all
      (fun (x, q) -> sat_le r (cx x) (to_int q))
      (Clock_enc.invariant enc s)
  in
  let sat_guard k r =
    match Clock_enc.guard enc k with
    | None -> true
    | Some (x, bl) -> sat_ge r (cx x) (to_int bl)
  in
  let apply_ops r ops =
    List.fold_left
      (fun r op ->
        match op with
        | Clock_enc.Reset x -> reset r (cx x)
        | Clock_enc.Free x -> free r (cx x))
      r ops
  in
  let store =
    Hstore.create
      ~equal:(fun (s1, r1) (s2, r2) -> a.Ioa.equal_state s1 s2 && equal r1 r2)
      ~hash:(fun (s, r) -> (a.Ioa.hash_state s * 31) + hash r)
      256
  in
  let locs =
    Hstore.create ~equal:a.Ioa.equal_state ~hash:a.Ioa.hash_state 64
  in
  let edges = ref 0 in
  let queue = Queue.create () in
  let exception Limit in
  let add s r =
    if Hstore.length store >= limit then raise Limit;
    match Hstore.add store (s, r) with
    | `Added _ ->
        ignore (Hstore.add locs s);
        inspect s r;
        Queue.add (s, r) queue
    | `Present _ -> ()
  in
  (try
     List.iter
       (fun s0 ->
         let r0 =
           apply_ops (initial ~nclocks ~max_const)
             (Clock_enc.start_ops enc s0)
         in
         if sat_invariant s0 r0 then add s0 r0)
       a.Ioa.start;
     while not (Queue.is_empty queue) do
       let s, r = Queue.pop queue in
       (* time successor *)
       let r' = time_successor r in
       if (not (equal r' r)) && sat_invariant s r' then begin
         incr edges;
         add s r'
       end;
       (* discrete successors *)
       List.iteri
         (fun k act ->
           if sat_guard k r then
             List.iter
               (fun s' ->
                 incr edges;
                 let r2 = apply_ops r (Clock_enc.step_ops enc s k s') in
                 if sat_invariant s' r2 then add s' r2)
               (a.Ioa.delta s act))
         a.Ioa.alphabet
     done
   with Limit -> raise (Clock_enc.Open_system "region limit exceeded"));
  ( {
      locations = Hstore.length locs;
      regions = Hstore.length store;
      edges = !edges;
    },
    Hstore.to_list locs )

let reachable ?limit (a : ('s, 'a) Ioa.t) bm =
  explore ?limit a bm ~inspect:(fun _ _ -> ())

let check_state_invariant (type s a) ?limit (a : (s, a) Ioa.t) bm pred =
  let bad = ref None in
  let exception Found in
  match
    explore ?limit a bm ~inspect:(fun s _ ->
        if not (pred s) then begin
          bad := Some s;
          raise Found
        end)
  with
  | exception Found -> (
      match !bad with Some s -> Error s | None -> assert false)
  | stats, _ -> Ok stats
