(* Shared QCheck generators and Alcotest testables. *)

module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval

let rational : Rational.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map2
      (fun n d -> Rational.make n d)
      (int_range (-200) 200) (int_range 1 12))

let pos_rational : Rational.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map2 (fun n d -> Rational.make n d) (int_range 1 200) (int_range 1 12))

let nonneg_rational : Rational.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map2 (fun n d -> Rational.make n d) (int_range 0 200) (int_range 1 12))

let time : Time.t QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun q -> Time.Fin q) rational); (1, return Time.Inf) ])

let interval : Interval.t QCheck2.Gen.t =
  QCheck2.Gen.(
    bind nonneg_rational (fun lo ->
        frequency
          [
            ( 4,
              map
                (fun w ->
                  Interval.make lo (Time.Fin (Rational.add lo w)))
                pos_rational );
            (1, return (Interval.unbounded_above lo));
          ]))

let print_rational = Rational.to_string
let print_time = Time.to_string

(* Alcotest testables *)
let rational_t = Alcotest.testable Rational.pp Rational.equal
let time_t = Alcotest.testable Time.pp Time.equal
let interval_t = Alcotest.testable Interval.pp Interval.equal

let q = Rational.of_int
let qq n d = Rational.make n d

let check_holds name ?(count = 200) ?print gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ?print gen prop)

(* Random metric-update scripts for the Tm_obs round-trip property:
   indices select from a small per-kind name pool so one script mixes
   updates to a handful of counters, gauges and histograms. *)
type metric_update =
  | Incr_counter of int
  | Add_counter of int * int
  | Set_gauge of int * float
  | Max_gauge of int * float
  | Observe of int * Rational.t

let metric_update : metric_update QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> Incr_counter i) (int_range 0 3));
        ( 2,
          map2 (fun i n -> Add_counter (i, n)) (int_range 0 3)
            (int_range 0 50) );
        (2, map2 (fun i v -> Set_gauge (i, v)) (int_range 0 2) float);
        (1, map2 (fun i v -> Max_gauge (i, v)) (int_range 0 2) float);
        ( 3,
          map2 (fun i s -> Observe (i, s)) (int_range 0 2) nonneg_rational );
      ])

let metric_updates : metric_update list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 40) metric_update)

let print_metric_update = function
  | Incr_counter i -> Printf.sprintf "incr c%d" i
  | Add_counter (i, n) -> Printf.sprintf "add c%d %d" i n
  | Set_gauge (i, v) -> Printf.sprintf "set g%d %h" i v
  | Max_gauge (i, v) -> Printf.sprintf "max g%d %h" i v
  | Observe (i, s) -> Printf.sprintf "observe h%d %s" i (Rational.to_string s)

(* ------------------------------------------------------------------ *)
(* Random DBM-operation scripts for the kernel differential harness
   (test_dbm_diff).  The ops are the ones the scratch-only int kernel
   has: a guard constraint, a location change ([Reset]/[Free] of one
   clock, or a general [Remap] that may change the dimension) and a
   successor's timing tail ([Settle]).  Clock indices, LU bounds and
   clock maps are generated raw and normalized by the applier against
   the zone's current dimension, so shrinking stays structural. *)

type dbm_constraint = {
  ci : int;  (** raw row index, applier takes [mod nclocks] *)
  cj : int;  (** raw column index *)
  cnum : int;
  cden : int;  (** bound is [cnum/cden] *)
  cstrict : bool;
}

(* An invariant [x - 0 <= inum/iden] ([<] if [istrict]). *)
type dbm_inv = {
  ix : int;  (** raw clock, applier maps into [1..nclocks-1] *)
  inum : int;
  iden : int;
  istrict : bool;
}

type dbm_op =
  | Constrain of dbm_constraint
  | Reset of int  (** raw clock, applier maps into [1..nclocks-1] *)
  | Free of int
  | Remap of int list
      (** one raw source code per target clock [k >= 1]: the applier
          maps code [c] to source clock [c mod (nclocks + 1) - 1], so
          [-1] frees and [0] resets; a source clock already taken
          resets instead *)
  | Settle of dbm_inv list * int option list * int option list
      (** a successor's timing tail: [up], the invariants, then LU
          widening with these bounds (per clock, reference clock
          included, [None] is [-inf]; the applier reads the first
          [nclocks]) *)

type dbm_script = { ds_clocks : int; ds_ops : dbm_op list }

(* Largest dimension a {!dbm_script} zone takes, remaps included. *)
let dbm_max_clocks = 6

let dbm_constraint : dbm_constraint QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun (ci, cj, cnum, (cden, cstrict)) ->
        { ci; cj; cnum; cden; cstrict })
      (quad (int_range 0 4) (int_range 0 4) (int_range (-12) 12)
         (pair (int_range 1 4) bool)))

(* LU bounds of an [n]-clock zone: random per clock, [None] allowed,
   [Some 0] on the reference clock. *)
let lu_bounds n =
  QCheck2.Gen.(
    let bound = option ~ratio:0.6 (int_range 0 6) in
    map
      (fun (l, u) -> (Some 0 :: l, Some 0 :: u))
      (pair (list_repeat (n - 1) bound) (list_repeat (n - 1) bound)))

(* A settle with up to three invariants on raw clocks [0..wide]
   (strict or not, rarely negative, so some empty the zone), or none. *)
let settle_op ?(wide = 4) n : dbm_op QCheck2.Gen.t =
  QCheck2.Gen.(
    let inv =
      map
        (fun (ix, inum, iden, istrict) -> { ix; inum; iden; istrict })
        (quad (int_range 0 wide) (int_range (-2) 12) (int_range 1 4) bool)
    in
    map2
      (fun invs (l, u) -> Settle (invs, l, u))
      (list_size (int_range 0 3) inv)
      (lu_bounds n))

let dbm_op : dbm_op QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun c -> Constrain c) dbm_constraint);
        (2, map (fun x -> Reset x) (int_range 0 4));
        (2, map (fun x -> Free x) (int_range 0 4));
        ( 1,
          map
            (fun cs -> Remap cs)
            (list_size (int_range 1 (dbm_max_clocks - 1)) (int_range 0 6)) );
        (3, settle_op dbm_max_clocks);
      ])

let dbm_script : dbm_script QCheck2.Gen.t =
  QCheck2.Gen.(
    int_range 2 5 >>= fun n ->
    map
      (fun ds_ops -> { ds_clocks = n; ds_ops })
      (list_size (int_range 1 25) dbm_op))

let print_dbm_constraint c =
  Printf.sprintf "x%d-x%d %s %d/%d" c.ci c.cj
    (if c.cstrict then "<" else "<=")
    c.cnum c.cden

let print_lu l u =
  let bs = List.map (function None -> "-" | Some c -> string_of_int c) in
  Printf.sprintf "L=[%s] U=[%s]" (String.concat "," (bs l))
    (String.concat "," (bs u))

let print_dbm_op = function
  | Constrain c -> print_dbm_constraint c
  | Reset x -> Printf.sprintf "reset x%d" x
  | Free x -> Printf.sprintf "free x%d" x
  | Remap cs ->
      Printf.sprintf "remap [%s]"
        (String.concat "," (List.map string_of_int cs))
  | Settle (invs, l, u) ->
      let inv i =
        Printf.sprintf "x%d %s %d/%d" i.ix
          (if i.istrict then "<" else "<=")
          i.inum i.iden
      in
      Printf.sprintf "settle inv=[%s] %s"
        (String.concat "; " (List.map inv invs))
        (print_lu l u)

let print_dbm_script s =
  Printf.sprintf "clocks=%d: %s" s.ds_clocks
    (String.concat " | " (List.map print_dbm_op s.ds_ops))

(* The same script with every constant multiplied by [k], the LCM of
   its bound denominators: a change of time unit that leaves only
   integer constants — what the packed-int kernel runs.  Returns [k]
   too, so results can be divided back. *)
let scale_dbm_script s =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let dens =
    List.concat_map
      (function
        | Constrain c -> [ c.cden ]
        | Settle (invs, _, _) -> List.map (fun i -> i.iden) invs
        | Reset _ | Free _ | Remap _ -> [])
      s.ds_ops
  in
  let k = List.fold_left (fun k d -> k / gcd k d * d) 1 dens in
  let sc c = { c with cnum = c.cnum * (k / c.cden); cden = 1 } in
  let sc_inv i = { i with inum = i.inum * (k / i.iden); iden = 1 } in
  let sc_lu = List.map (Option.map (fun c -> c * k)) in
  let op = function
    | Constrain c -> Constrain (sc c)
    | Settle (invs, l, u) -> Settle (List.map sc_inv invs, sc_lu l, sc_lu u)
    | (Reset _ | Free _ | Remap _) as o -> o
  in
  (k, { s with ds_ops = List.map op s.ds_ops })

(* Fischer-shaped scripts for the dead-row paths of the int kernel.
   A zone of 9-16 clocks goes through rounds; each round applies a few
   random guards and resets, then frees every clock but at most a
   quarter of them (a disabled class's clock after [free]: its row is
   [Inf] off the diagonal) and settles, as every successor pipeline of
   an MMT exploration does.  Constants and bounds are as in
   {!dbm_script}, so the zones still hit fractional corners and go
   empty now and then. *)
let dead_row_script : dbm_script QCheck2.Gen.t =
  QCheck2.Gen.(
    let wide = int_range 0 15 in
    let constr =
      map
        (fun (ci, cj, cnum, (cden, cstrict)) ->
          { ci; cj; cnum; cden; cstrict })
        (quad wide wide (int_range (-12) 12) (pair (int_range 1 4) bool))
    in
    let op =
      frequency
        [
          (6, map (fun c -> Constrain c) constr);
          (2, map (fun x -> Reset x) wide);
        ]
    in
    let round n =
      map3
        (fun ops keep settle ->
          let keep =
            List.filteri (fun i _ -> i < (n - 1) / 4)
              (List.map (fun x -> 1 + (x mod (n - 1))) keep)
          in
          let frees =
            List.filter_map
              (fun x -> if List.mem x keep then None else Some (Free x))
              (List.init (n - 1) (fun i -> i + 1))
          in
          ops @ frees @ [ settle ])
        (list_size (int_range 0 6) op)
        (list_size (int_range 0 4) wide)
        (settle_op ~wide:15 n)
    in
    int_range 9 16 >>= fun n ->
    map
      (fun rounds -> { ds_clocks = n; ds_ops = List.concat rounds })
      (list_size (int_range 1 4) (round n)))

(* Fischer n=2 with bounds in quarter units: a fractional system the
   int engine runs scaled by 4. *)
let quarter_fischer () =
  Tm_systems.Fischer.params ~n:2 ~r:(qq 5 2) ~t:(qq 1 2) ~a:(qq 3 4)
    ~b:(qq 3 2) ~b2:(qq 5 2) ~e:(qq 7 4)

(* ------------------------------------------------------------------ *)
(* Small random MMT automata (boundmap + closed IOA) for the
   fixpoint-for-fixpoint engine differential.  States are [0..ns-1],
   actions [0..na-1] with action [a] in class [a mod nc]; bounds use
   small numerators over denominators 1-2 so zones hit fractional
   corners without blowing up the constant range. *)

type raut = {
  ra_states : int;
  ra_nclasses : int;
  ra_delta : int list array array;  (** [state].(action) -> successors *)
  ra_bounds : ((int * int) * (int * int) option) array;
      (** per class: lower [(num, den)]; upper is lower + width, or
          unbounded when [None] *)
}

let boundmap_automaton : raut QCheck2.Gen.t =
  QCheck2.Gen.(
    int_range 1 4 >>= fun ns ->
    int_range 1 3 >>= fun nc ->
    int_range nc (nc + 2) >>= fun na ->
    let successors =
      frequency
        [
          (1, return []);
          (2, map (fun s -> [ s ]) (int_range 0 (ns - 1)));
          ( 1,
            map2 (fun s s' -> [ s; s' ]) (int_range 0 (ns - 1))
              (int_range 0 (ns - 1)) );
        ]
    in
    array_size (return ns) (array_size (return na) successors)
    >>= fun ra_delta ->
    let bound = pair (int_range 0 8) (int_range 1 2) in
    let upper =
      frequency [ (5, map (fun b -> Some b) bound); (1, return None) ]
    in
    array_size (return nc) (pair bound upper) >>= fun ra_bounds ->
    return { ra_states = ns; ra_nclasses = nc; ra_delta; ra_bounds })

let build_boundmap_automaton (r : raut) :
    (int, int) Tm_ioa.Ioa.t * Tm_timed.Boundmap.t =
  let module Ioa = Tm_ioa.Ioa in
  let module Boundmap = Tm_timed.Boundmap in
  let nc = r.ra_nclasses in
  let cname i = "k" ^ string_of_int i in
  let classes = List.init nc cname in
  let na = Array.length r.ra_delta.(0) in
  let aut =
    {
      Ioa.name = "rand_mmt";
      start = [ 0 ];
      alphabet = List.init na Fun.id;
      kind_of = (fun _ -> Ioa.Output);
      delta =
        (fun s a ->
          if s < 0 || s >= r.ra_states || a < 0 || a >= na then []
          else r.ra_delta.(s).(a));
      classes;
      class_of = (fun a -> Some (cname (a mod nc)));
      equal_state = Int.equal;
      hash_state = Hashtbl.hash;
      pp_state = Format.pp_print_int;
      equal_action = Int.equal;
      pp_action = Format.pp_print_int;
    }
  in
  let bm =
    Boundmap.of_list
      (List.mapi
         (fun i c ->
           let (ln, ld), ub = r.ra_bounds.(i) in
           let lo = Rational.make ln ld in
           let hi =
             match ub with
             | None -> Time.Inf
             | Some (wn, wd) ->
                 let w = Rational.make wn wd in
                 (* MMT boundmaps need b_u > 0. *)
                 let w =
                   if Rational.sign lo = 0 && Rational.sign w = 0 then
                     Rational.one
                   else w
                 in
                 Time.Fin (Rational.add lo w)
           in
           (c, Interval.make lo hi))
         classes)
  in
  (aut, bm)

(* Random fault-model perturbations over a given class set, paired
   with {!boundmap_automaton} (classes "k0".."k2") by the robustness
   metamorphic suite. *)
let perturbation ~classes : Tm_faults.Perturb.spec QCheck2.Gen.t =
  let module P = Tm_faults.Perturb in
  QCheck2.Gen.(
    let cls = oneofl classes in
    let mag =
      map2 (fun n d -> Rational.make n d) (int_range 0 8) (int_range 1 4)
    in
    let base =
      frequency
        [
          (3, map P.widen mag);
          (3, map2 P.widen_class cls mag);
          (2, map P.drift mag);
          (2, map2 P.drift_class cls mag);
          (1, map2 P.rebound cls interval);
        ]
    in
    frequency
      [ (5, base); (1, map P.seq (list_size (int_range 0 3) base)) ])

let print_perturbation = Tm_faults.Perturb.to_string

let print_raut (r : raut) =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "states=%d classes=%d bounds=[" r.ra_states r.ra_nclasses);
  Array.iteri
    (fun i ((ln, ld), ub) ->
      Buffer.add_string b
        (Printf.sprintf "%sk%d:[%d/%d,%s]"
           (if i > 0 then " " else "")
           i ln ld
           (match ub with
           | None -> "inf"
           | Some (wn, wd) -> Printf.sprintf "+%d/%d" wn wd)))
    r.ra_bounds;
  Buffer.add_string b "] delta=";
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun a succs ->
          if succs <> [] then
            Buffer.add_string b
              (Printf.sprintf "(%d,a%d->%s)" s a
                 (String.concat "," (List.map string_of_int succs))))
        row)
    r.ra_delta;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Byte-level scripts for the serve-protocol fuzz tests.  A script is
   rendered to one byte stream (length-prefixed frames, oversized
   announcements, raw garbage, a frame cut off mid-payload) and fed to
   the reader in arbitrary chunk sizes; encoding lives here so the
   generator stays independent of the library under test. *)

type frame_item =
  | Wire_frame of string  (* well-formed: header + payload *)
  | Wire_oversized of int  (* header announcing [n] > max_frame, body sent *)
  | Wire_garbage of string  (* raw bytes: desyncs framing on purpose *)
  | Wire_truncated of string  (* header claims one byte more than sent *)

let frame_header n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

(* [max_frame] the matching reader must use; oversized bodies stay small
   so rendering an announcement of millions of bytes costs nothing. *)
let fuzz_max_frame = 256

let render_frame_item = function
  | Wire_frame p -> frame_header (String.length p) ^ p
  | Wire_oversized n -> frame_header n ^ String.make (min n 4096) 'x'
  | Wire_garbage g -> g
  | Wire_truncated p -> frame_header (String.length p + 1) ^ p

let render_frame_script items = String.concat "" (List.map render_frame_item items)

let frame_payload : string QCheck2.Gen.t =
  QCheck2.Gen.(string_size ~gen:char (int_range 0 fuzz_max_frame))

let frame_item : frame_item QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun p -> Wire_frame p) frame_payload);
        ( 1,
          map
            (fun n -> Wire_oversized n)
            (int_range (fuzz_max_frame + 1) (1 lsl 28)) );
        (1, map (fun g -> Wire_garbage g) (string_size ~gen:char (int_range 1 40)));
        (1, map (fun p -> Wire_truncated p) frame_payload);
      ])

(* Scripts whose decode is exactly predictable: only complete frames and
   oversized announcements small enough that the full body is sent, so
   the expected event list is the script. *)
let clean_frame_script : frame_item list QCheck2.Gen.t =
  QCheck2.Gen.(
    list_size (int_range 0 8)
      (frequency
         [
           (4, map (fun p -> Wire_frame p) frame_payload);
           ( 1,
             map
               (fun n -> Wire_oversized n)
               (int_range (fuzz_max_frame + 1) 4096) );
         ]))

let frame_script : frame_item list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 0 8) frame_item)

(* Chunk sizes used to slice the stream on its way into the reader. *)
let chunk_sizes : int list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range 1 12) (int_range 1 17))

let print_frame_item = function
  | Wire_frame p -> Printf.sprintf "frame(%d)" (String.length p)
  | Wire_oversized n -> Printf.sprintf "oversized(%d)" n
  | Wire_garbage g -> Printf.sprintf "garbage(%d)" (String.length g)
  | Wire_truncated p -> Printf.sprintf "truncated(%d)" (String.length p)

let print_frame_script items =
  String.concat "; " (List.map print_frame_item items)
