module Rational = Tm_base.Rational
module Time = Tm_base.Time
module Interval = Tm_base.Interval
module Hstore = Tm_base.Hstore
module Ioa = Tm_ioa.Ioa
module Boundmap = Tm_timed.Boundmap
module Condition = Tm_timed.Condition
module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Json = Tm_obs.Json
module Log = Tm_obs.Log
module Snapshot = Tm_recover.Snapshot
module Supervisor = Tm_recover.Supervisor

(* Counter handles are shared by every engine instantiation, so the
   int and reference engines report into the same metrics. *)
let c_zones_stored = Metrics.counter "zones.stored"
let c_zones_subsumed = Metrics.counter "zones.subsumed"
let c_zone_edges = Metrics.counter "zones.edges"
let c_zones_pruned_waiting = Metrics.counter "zones.pruned_waiting"
let c_zones_interned = Metrics.counter "zones.interned"
let g_waiting_max = Metrics.gauge "zones.waiting_max"

let c_budget_states =
  Metrics.counter "zones.budget_exhausted" ~labels:[ ("kind", "states") ]

let c_budget_deadline =
  Metrics.counter "zones.budget_exhausted" ~labels:[ ("kind", "deadline") ]

let c_resumed = Metrics.counter "recover.resumed"
let c_interrupted = Metrics.counter "recover.interrupted"

type stats = { locations : int; zones : int; edges : int }

type exhausted = {
  reason : string;
  partial : stats;
  checkpoint : string option;
}

type outcome =
  | Verified of stats
  | Lower_violation of stats
  | Upper_violation of stats
  | Unknown of exhausted
  | Unsupported of string

exception Open_system = Clock_enc.Open_system
exception Out_of_budget of exhausted

type phase = Idle | Armed

(* A search's witness: a [Π]-step that may come too early, an armed
   zone that may pass its deadline, or a stored state that breaks an
   invariant (the caller keeps the state). *)
exception Refuted of [ `Lower | `Upper | `Invariant ]

(* The no-op observer of an invariant's search:
   phases never change and the observer clock is untouched.  The result
   values are preallocated — this runs once per explored edge. *)
let keep_idle = Ok (Idle, `Keep)
let keep_armed = Ok (Armed, `Keep)

let keep_phase p _ _ _ ~sat:_ =
  match p with Idle -> keep_idle | Armed -> keep_armed

(* Time-unit scaling.  Multiplying every boundmap endpoint and every
   condition bound by the same integer k >= 1 maps timed executions one
   to one (Defs 2.1/2.2/3.1 do not depend on the unit of time), so
   verdicts are preserved and so is the zone graph: LU bounds and the
   max constant scale with it (Alur & Dill, TCS 1994).  An integer-only
   kernel therefore runs every job scaled by the LCM of the
   denominators of its finite constants; an integral job has k = 1 and
   passes through untouched.  Scaling uses checked arithmetic and fails
   with [Invalid_argument] — there is no fallback kernel. *)
let time_scale bm cond_bounds =
  let lcm k iv =
    try Interval.lcm_den k iv
    with Invalid_argument m -> invalid_arg ("Reach: " ^ m)
  in
  let k = List.fold_left (fun k (_, iv) -> lcm k iv) 1 (Boundmap.to_list bm) in
  match cond_bounds with None -> k | Some iv -> lcm k iv

let scale_interval k iv =
  if k = 1 then iv
  else
    try Interval.scale k iv
    with Rational.Overflow ->
      invalid_arg
        (Printf.sprintf "Reach: time scale %d overflows the constants of %s" k
           (Interval.to_string iv))

let scale_boundmap k bm =
  if k = 1 then bm else Boundmap.map (fun _ iv -> scale_interval k iv) bm

type ('s, 'a) property = ('s, 'a) Certificate.property =
  | Invariant of ('s -> bool)
  | Condition of ('s, 'a) Condition.t

module type S = sig
  val check :
    ?limit:int -> ?deadline_s:float -> ?checkpoint:string * int ->
    ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) property list ->
    (outcome, 's) result

  val reachable :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> stats * 's list

  val check_state_invariant :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s -> bool) -> (stats, 's) result

  val check_condition :
    ?limit:int -> ?deadline_s:float -> ?domains:int ->
    ?checkpoint:string * int -> ?resume:string ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) Condition.t -> outcome

  val fingerprint :
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) property list -> string

  val fingerprint_reachable : ('s, 'a) Ioa.t -> Boundmap.t -> string
end

(* An engine's core: one search for any list of properties (at most one
   condition).  [certificate] sees a positive verdict's certificate and
   [reached] the states with a stored zone; [reached] also makes an
   invariant's search a reachability run, with its own span and
   fingerprint kind.  {!Engine} derives everything in [S] from it. *)
module type CORE = sig
  val check :
    ?limit:int -> ?deadline_s:float -> ?checkpoint:string * int ->
    ?resume:string -> ?certificate:('s Certificate.t -> unit) ->
    ?reached:('s list -> unit) ->
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) property list ->
    (outcome, 's) result

  val fingerprint :
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) property list -> string

  val fingerprint_reachable : ('s, 'a) Ioa.t -> Boundmap.t -> string
end

(* The exploration discipline — waiting-list policy, subsumption,
   caches, metrics — lives in this functor and is therefore shared by
   the int engine and the reference engine; only the DBM arithmetic
   differs.  That makes [zones.stored] identical across kernels by
   construction, which the CI determinism guard and the differential
   harness both rely on. *)
module Core (K : Dbm_sig.S) : CORE = struct
  (* The zone engine's view of the encoding: the shared class clocks of
     {!Clock_enc} (logical clocks 1..n, 0 is the reference), plus an
     optional observer clock n+1.  A zone's own indices are those of
     its location's [layout] below.  Guards and invariants are
     precomputed into arrays so the per-edge pipeline does no boundmap
     lookups and allocates no bound values. *)
  type ('s, 'a) enc = {
    cenc : ('s, 'a) Clock_enc.t;
    nclocks : int;  (** logical clocks, reference included *)
    y : int option;  (** observer clock *)
    max_const : Rational.t;
    guards : ('a * (int * Dbm_bound.t) option * int) array;
        (** per action: guard [(logical clock, Le (-b_l))] and class
            index ([-1] when classless) *)
    uppers : Dbm_bound.t option array;
        (** per class index: invariant bound [Le b_u] when finite *)
    lu : Rational.t option array * Rational.t option array;
        (** per logical clock LU-extrapolation bounds [(lower, upper)] *)
    scale : int;
        (** time-unit factor every constant above was multiplied by;
            [1] on a rational kernel *)
  }

  let make_enc a bm ~cond_bounds =
    let scale =
      match K.headroom with None -> 1 | Some _ -> time_scale bm cond_bounds
    in
    let bm = scale_boundmap scale bm in
    let cond_bounds = Option.map (scale_interval scale) cond_bounds in
    let cenc = Clock_enc.make a bm in
    let max_const =
      match cond_bounds with
      | None -> cenc.Clock_enc.max_const
      | Some iv -> (
          let m = Rational.max cenc.Clock_enc.max_const (Interval.lo iv) in
          match Interval.hi iv with
          | Time.Fin q -> Rational.max m q
          | Time.Inf -> m)
    in
    let nreal = cenc.Clock_enc.nclasses in
    let guards =
      Array.of_list
        (List.mapi
           (fun k act ->
             let g =
               match Clock_enc.guard cenc k with
               | None -> None
               | Some (x, bl) -> Some (x, Dbm_bound.Le (Rational.neg bl))
             in
             (act, g, cenc.Clock_enc.act_class.(k)))
           a.Ioa.alphabet)
    in
    let uppers =
      Array.map
        (fun c ->
          match Boundmap.upper bm c with
          | Time.Fin q -> Some (Dbm_bound.Le q)
          | Time.Inf -> None)
        cenc.Clock_enc.classes
    in
    let nclocks = nreal + if Option.is_none cond_bounds then 1 else 2 in
    (match K.headroom with
    | Some h when Rational.(max_const > of_int (h nclocks)) ->
        invalid_arg
          (Format.asprintf
             "Reach: constant %a at time scale %d exceeds the %s kernel's \
              headroom %d for %d clocks"
             Rational.pp max_const scale K.name (h nclocks) nclocks)
    | Some _ | None -> ());
    let y = Option.map (fun _ -> nreal + 1) cond_bounds in
    let lu = Clock_enc.lu_bounds cenc ~observer:cond_bounds in
    { cenc; nclocks; y; max_const; guards; uppers; lu; scale }

  (* The job fingerprint ties a checkpoint to the run shape that wrote
     it: kernel, entry point, and the whole timing side of the encoding
     (class bounds, max constant, alphabet size, DBM dimension).  It
     cannot observe the automaton's transition function — that is
     re-supplied at resume (closures do not marshal) and trusted to be
     the same program calling again.  It is built from the caller's
     unscaled [bm] and max constant, so [bm] and [2·bm] never share a
     fingerprint, and an integral job's fingerprint does not depend on
     scaling at all.  [widen=lu] is a constant since LU became the
     only widening; it stays so that existing fingerprints still match. *)
  let fingerprint_of ~kind bm (enc : _ enc) =
    Format.asprintf
      "tmjob1|kernel=%s|widen=lu|kind=%s|nclocks=%d|maxc=%a|alpha=%d|%a"
      K.name kind enc.nclocks Rational.pp
      (Rational.div enc.max_const (Rational.of_int enc.scale))
      (Array.length enc.guards)
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_char f ',')
         (fun f (c, iv) -> Format.fprintf f "%s:%a" c Interval.pp iv))
      (Boundmap.to_list bm)

  (* A search's condition, which sets its observer, and its state
     invariants, each an extra [inspect] predicate: a list names at least
     one property and at most one condition. *)
  let split props =
    let conds, preds =
      List.partition_map
        (function Condition c -> Left c | Invariant p -> Right p)
        props
    in
    match (props, conds) with
    | [], _ -> invalid_arg "Reach.check: no property"
    | _, [] -> (None, preds)
    | _, [ c ] -> (Some c, preds)
    | _, _ :: _ :: _ -> invalid_arg "Reach.check: more than one condition"

  let cond_bounds props =
    Option.map (fun c -> c.Condition.bounds) (fst (split props))

  (* A search's span, its arguments and its fingerprint kind, which
     names every property in list order; [reached] marks a reachability
     run. *)
  let job ~reached props =
    let kind = function
      | Invariant _ when reached -> "reachable"
      | Invariant _ -> "invariant"
      | Condition c ->
          Format.asprintf "condition:%s:%a" c.Condition.cname Interval.pp
            c.Condition.bounds
    in
    let kind = String.concat "+" (List.map kind props) in
    match fst (split props) with
    | Some c -> ("zones.check_condition", [ ("cond", c.Condition.cname) ], kind)
    | None when reached -> ("zones.reachable", [], kind)
    | None -> ("zones.check_state_invariant", [], kind)

  let fingerprint_job ~reached a bm props =
    let _, _, kind = job ~reached props in
    fingerprint_of ~kind bm (make_enc a bm ~cond_bounds:(cond_bounds props))

  let fingerprint a bm props = fingerprint_job ~reached:false a bm props

  let fingerprint_reachable a bm =
    fingerprint_job ~reached:true a bm [ Invariant (fun _ -> true) ]

  (* A record of the hash-consing store: a distinct stored matrix [z]
     and its minimal-constraint form [zmin], reduced once, when [z]'s
     matrix is first stored, and shared by every entry that stores the
     same matrix.  [zmin] prunes the zones [z] covers at store time,
     and afterwards tests every later successor at the location for
     inclusion in [z], in O(kept constraints) instead of scanning the
     full n² matrix.  [z] is written only by a checkpoint, which parks
     it while the tables are marshaled, and by the resume that rebuilds
     it. *)
  type zrec = { mutable z : K.t; zmin : K.Min.min }

  (* A stored zone doubling as a waiting-list entry, pointing at its
     store record.  [alive] is cleared when a later, larger zone at the
     same location subsumes it; [expanded] distinguishes passed-list
     members from entries pruned while still waiting (the
     [zones.pruned_waiting] signal). *)
  type zentry = {
    zr : zrec;
    zloose : int;
    seq : int;
    mutable alive : bool;
    mutable expanded : bool;
  }

  (* A location's clock layout: the logical clocks its zones carry, in
     ascending order.  On a compact kernel these are the live clocks —
     clock 0, the enabled classes' clocks, and the observer clock while
     armed; a disabled class has no timing obligation (its bounds
     constrain it only while it is enabled, Defs 2.1/2.2), and the
     observer clock is freed whenever the observer disarms, so no other
     clock carries information.  On a full-width kernel every logical
     clock is in the layout, and [refree] frees the dead ones again
     after widening, so the kernel stores the cylinder of the compact
     zone.  One layout is built per live set and shared by every
     location with that set, LU bounds and invariants included. *)
  type layout = {
    en : bool array;  (** enabled classes *)
    live : int array;  (** layout index -> logical clock *)
    pos : int array;  (** logical clock -> layout index, [-1] if absent *)
    dead : int;  (** logical clocks absent from the layout *)
    lu : K.lu;
        (** the timing tail at layout indices: the enabled classes'
            invariants [x <= b_u] and the LU bounds *)
    refree : Dbm_sig.remap option;
        (** full-width layout with dead clocks: the map that frees them *)
    src : int array;
        (** the location-change map into this layout, refilled in place
            by [remap_to] for every edge that ends here *)
    remap_free : Dbm_sig.remap;
        (** [src] when the observer clock is freed; its [frees] counts
            the disabled classes, and the observer clock if the job has
            one *)
    remap_other : Dbm_sig.remap;
        (** [src] in every other case; [frees] counts the disabled
            classes *)
  }

  (* The state table's records: one per automaton state the search has
     met, as a start state or as a successor's target.  In the MMT
     encoding of (A, b) the discrete part of a location depends on its
     state only, so everything here is worked out once per state, on
     first use: the successors, from one [delta] call per action —
     [(guard index, target record)] pairs held in two arrays, in
     alphabet order, then [delta]'s order, the order the edges are
     explored in (the enabled classes are the classes of the guards
     that occur); the layout of each phase (without an observer clock
     only [idle] is used); and the location id of each phase ([-1]
     until the location stores its first zone).  A target record starts
     with no successors ([stepped] false): its own [delta] calls wait
     until it is first used. *)
  type 's srec = {
    st : 's;
    mutable stepped : bool;  (** [gis] and [targets] are filled *)
    mutable gis : int array;  (** per successor: guard index *)
    mutable targets : 's srec array;  (** per successor: target *)
    mutable idle : layout;
    mutable armed : layout;
    mutable loc_idle : int;
    mutable loc_armed : int;
  }

  (* A location's record, indexed by its id: state, phase and layout,
     the passed + waiting zones [cell], the ones still waiting
     [pending], and whether the location is on the FIFO of locations
     with pending zones. *)
  type 's loc = {
    lid : int;
    sr : 's srec;
    ph : phase;
    lay : layout;
    mutable cell : zentry list;
    mutable pending : zentry list;
    mutable queued : bool;
  }

  (* Checkpoint payload: the search's own tables at a batch boundary —
     the hash-consing store's records in id order, and each location's
     cell and pending entries, which point at those records.  Records
     and entries are plain data, so one [Marshal] call writes each
     record once and keeps every sharing of the search: the entries of
     one matrix share its record, and a pending entry comes back as the
     same entry as its cell copy.  A record is written as its minimal
     form alone — its zone is parked for the write, and rebuilt from
     the form at resume — so no n² matrix, let alone the arena chunk it
     is a slice of, reaches the file.  States must
     themselves be marshalable — true of every system in this
     repository.  Counter deltas are this job's contribution to the
     shared metrics, replayed with [Metrics.add] at resume so a resumed
     run's totals equal an uninterrupted one's. *)
  type 's snap = {
    p_keys : ('s * phase) array;  (** location keys in id order *)
    p_store : zrec array;  (** zone store records in id order *)
    p_cells : (int * zentry list) array;
    p_pending : (int * zentry list) array;
    p_locq : int array;
    p_edges : int;
    p_zones : int;
    p_seq : int;
    p_subsumed_d : int;
    p_pruned_d : int;
    p_interned_d : int;
    p_waiting_max : float;
  }

  (* The successor context: the scratch matrix every successor pipeline
     and seed runs in. *)
  type ctx = {
    scr : K.Scratch.scratch;
    sat : int -> int -> Dbm_bound.t -> bool;
        (** shared satisfiability probe over [scr] in logical clocks,
            through [cur]'s layout, so the per-edge [observe] call
            allocates no closure *)
    mutable cur : layout;  (** layout of the zone loaded in [scr] *)
    mutable phase : phase;
        (** observer phase of the last successor that survived *)
  }

  (* Generic exploration.  [observe] sees each discrete step plus a
     satisfiability query on the guard-constrained successor zone and
     returns the observer phase transition and the operation on the
     observer clock ([`Reset], [`Free] while it is not being read, or
     [`Keep]); [inspect] sees every stored (state, phase, zone).  The
     automaton's [delta] runs once per (state, action), when the state
     table first meets the state.

     Checkpointing discipline: snapshots, the (deterministic) zone
     budget, and cooperative interrupts all act only at batch
     boundaries — the top of the drain loop — where the frontier state
     is exactly [cells]/[pending]/[locq].  That is what makes a resumed
     run replay the identical sequence of stores.
     The wall-clock deadline is the one check allowed to fire
     mid-batch (per successor pipeline, so one slow pipeline cannot
     overshoot by more than one zone expansion); its final snapshot
     re-queues the unfinished remainder of the current batch, which
     keeps resumption sound (subsumption absorbs re-derived
     successors) at the cost of exact counter equality — the deadline
     is documented as non-deterministic anyway.  The job [fingerprint]
     is forced only by a snapshot write or a resume, so a run that does
     neither never formats it. *)
  let explore (type s a) ?limit ?deadline_s ?checkpoint ?resume
      ~(fingerprint : string Lazy.t)
      (enc : (s, a) enc)
      ~(initial_phase : s -> phase)
      ~(observe :
         phase -> s -> a -> s -> sat:(int -> int -> Dbm_bound.t -> bool)
         -> (phase * [ `Reset | `Free | `Keep ], string) result)
      ~(inspect : phase -> s -> K.t -> int array -> unit) =
    let a = enc.cenc.Clock_enc.aut in
    let nclasses = enc.cenc.Clock_enc.nclasses in
    let nclocks = enc.nclocks in
    let lower, upper = enc.lu in
    let all_clocks = Array.init nclocks Fun.id in
    let build_layout en armed =
      let in_set x =
        x = 0 || (x <= nclasses && en.(x - 1)) || (armed && enc.y = Some x)
      in
      let live =
        if K.compact then
          Array.of_seq (Seq.filter in_set (Array.to_seq all_clocks))
        else all_clocks
      in
      let pos = Array.make nclocks (-1) in
      Array.iteri (fun k x -> pos.(x) <- k) live;
      let disabled =
        Array.fold_left (fun n e -> if e then n else n + 1) 0 en
      in
      let src = Array.make (Array.length live) 0 in
      let y_frees = if Option.is_some enc.y then 1 else 0 in
      let at bounds = Array.map (fun x -> bounds.(x)) live in
      let invs = ref [] in
      Array.iteri
        (fun k x ->
          if x >= 1 && x <= nclasses && en.(x - 1) then
            Option.iter (fun b -> invs := (k, b) :: !invs) enc.uppers.(x - 1))
        live;
      {
        en;
        live;
        pos;
        dead = nclocks - Array.length live;
        lu =
          K.prepare_lu
            ~invs:(Array.of_list (List.rev !invs))
            ~lower:(at lower) ~upper:(at upper);
        refree =
          (if Array.for_all in_set live then None
           else
             Some
               {
                 Dbm_sig.src =
                   Array.map (fun x -> if in_set x then x else -1) live;
                 frees = 0;
               });
        src;
        remap_free = { Dbm_sig.src; frees = disabled + y_frees };
        remap_other = { Dbm_sig.src; frees = disabled };
      }
    in
    (* Layouts are shared per live set (enabled classes, observer
       armed), so each set's invariants and LU bounds are prepared once. *)
    let sets : (bool array * bool, layout) Hashtbl.t = Hashtbl.create 64 in
    (* The layout [Scratch.create]'s zone is in until the first load:
       every logical clock, none of them dead.  In a state record it
       marks a layout not built yet. *)
    let full = build_layout (Array.make nclasses true) true in
    (* The state table: one record per state, hashed once per state. *)
    let states : s srec Hstore.t =
      Hstore.create
        ~equal:(fun r1 r2 -> a.Ioa.equal_state r1.st r2.st)
        ~hash:(fun r -> a.Ioa.hash_state r.st)
        64
    in
    let state_rec s =
      match
        Hstore.intern_scratch states ~hash:(a.Ioa.hash_state s)
          ~equal:(fun r -> a.Ioa.equal_state s r.st)
          ~freeze:(fun () ->
            {
              st = s;
              stepped = false;
              gis = [||];
              targets = [||];
              idle = full;
              armed = full;
              loc_idle = -1;
              loc_armed = -1;
            })
      with
      | `Hit r | `Miss r -> r
    in
    (* [r]'s successors, computed on first use. *)
    let step_state r =
      if not r.stepped then begin
        let acc = ref [] in
        Array.iteri
          (fun gi (act, _, _) ->
            List.iter
              (fun s' -> acc := (gi, state_rec s') :: !acc)
              (a.Ioa.delta r.st act))
          enc.guards;
        let succ = Array.of_list (List.rev !acc) in
        r.gis <- Array.map fst succ;
        r.targets <- Array.map snd succ;
        r.stepped <- true
      end
    in
    (* A class is enabled iff one of its actions has a successor. *)
    let build_layout_of r armed =
      step_state r;
      let en = Array.make nclasses false in
      Array.iter
        (fun gi ->
          let _, _, ci = enc.guards.(gi) in
          if ci >= 0 then en.(ci) <- true)
        r.gis;
      match Hashtbl.find_opt sets (en, armed) with
      | Some l -> l
      | None ->
          let l = build_layout en armed in
          Hashtbl.add sets (en, armed) l;
          l
    in
    let layout_of r p =
      match (p, enc.y) with
      | Armed, Some _ ->
          if r.armed == full then r.armed <- build_layout_of r true;
          r.armed
      | Idle, _ | Armed, None ->
          if r.idle == full then r.idle <- build_layout_of r false;
          r.idle
    in
    (* The location table, indexed by location id.  A location gets the
       next id when it stores its first zone, so ids (and the snapshot's
       [p_keys]) follow first-storage order. *)
    let locs : s loc array ref = ref [||] in
    let nlocs = ref 0 in
    let loc_id r p = match p with Idle -> r.loc_idle | Armed -> r.loc_armed in
    let loc_of r p =
      let id = loc_id r p in
      if id >= 0 then !locs.(id)
      else begin
        let id = !nlocs in
        let lc =
          {
            lid = id;
            sr = r;
            ph = p;
            lay = layout_of r p;
            cell = [];
            pending = [];
            queued = false;
          }
        in
        if id = Array.length !locs then begin
          let bigger = Array.make (max 64 (2 * id)) lc in
          Array.blit !locs 0 bigger 0 id;
          locs := bigger
        end;
        !locs.(id) <- lc;
        nlocs := id + 1;
        (match p with Idle -> r.loc_idle <- id | Armed -> r.loc_armed <- id);
        lc
      end
    in
    (* Hash-consed zone store of [zrec]s, keyed by the zone: a stored
       zone whose matrix equals one stored before (at any location)
       shares that zone's record, so each distinct stored matrix is
       frozen and reduced once.  Only stored zones are hashed and
       interned: a successor a stored zone covers is dropped first. *)
    let zstore =
      Hstore.create
        ~equal:(fun r1 r2 -> K.equal r1.z r2.z)
        ~hash:(fun r -> K.hash r.z)
        64
    in
    (* Waiting list: locations with pending zones, drained in FIFO
       order, largest zone first within a location. *)
    let locq = Queue.create () in
    let main =
      let scr = K.Scratch.create nclocks in
      let rec c =
        {
          scr;
          sat = (fun i j b -> K.Scratch.sat scr c.cur.pos.(i) c.cur.pos.(j) b);
          cur = full;
          phase = Idle;
        }
      in
      c
    in
    (* The batch order key: the number of [Inf] entries of the zone's
       full-width cylinder, so that every kernel expands a batch in the
       same order.  Each dead clock adds an [Inf] row (all but its
       diagonal) and repeats clock 0's column, whose [Inf] entries are
       the live clocks without an upper bound. *)
    let loose lay z =
      if lay.dead = 0 then K.loose z
      else begin
        let unbounded = ref 0 in
        for k = 1 to Array.length lay.live - 1 do
          match K.get z k 0 with
          | Dbm_bound.Inf -> incr unbounded
          | Dbm_bound.Le _ | Dbm_bound.Lt _ -> ()
        done;
        K.loose z + (lay.dead * (nclocks - 1 + !unbounded))
      end
    in
    (* The arena holds every stored zone's payload: only a stored zone
       is ever frozen into it. *)
    let arena = K.Arena.create () in
    let z_init = K.zero nclocks in
    let edges = ref 0 in
    let zone_count = ref 0 in
    (* absolute; [restore] re-bases an explicit [limit] *)
    let zone_limit = ref (Option.value limit ~default:1_000_000) in
    let waiting = ref 0 in
    let seq = ref 0 in
    (* This job's baseline of the shared counters, taken before any
       restore: [value - base] is the delta a snapshot must carry. *)
    let base_subsumed = Metrics.value c_zones_subsumed in
    let base_pruned = Metrics.value c_zones_pruned_waiting in
    let base_interned = Metrics.value c_zones_interned in
    let exception Unsupported_shape of string in
    let exception Budget of [ `States | `Deadline | `Interrupt ] in
    (* Absolute wall-clock deadline; probed at every batch boundary and
       before every successor pipeline, so a single expensive pipeline
       cannot overshoot by more than one zone expansion. *)
    let deadline =
      match deadline_s with
      | None -> None
      | Some d -> Some (Tracing.now_s () +. d)
    in
    let check_deadline =
      match deadline with
      | None -> fun () -> ()
      | Some t ->
          fun () -> if Tracing.now_s () > t then raise (Budget `Deadline)
    in
    (* Streaming telemetry.  Observation-only: it reads the loop's own
       counters and never influences what gets explored, so verdicts
       and [zones.stored] are byte-identical with telemetry on or off.
       With neither an event sink nor the progress line active, the
       per-batch cost is two flag reads and no clock access. *)
    let t_start =
      if Events.enabled () || Events.progress_enabled () then
        Tracing.now_s ()
      else 0.
    in
    let last_emit = ref neg_infinity in
    let emit_telemetry ?(force = false) ?(ev = "zones.batch") () =
      if Events.enabled () || Events.progress_enabled () then begin
        let now = Tracing.now_s () in
        if force || now -. !last_emit >= 0.05 then begin
          last_emit := now;
          let elapsed = now -. t_start in
          let rate =
            if elapsed > 0. then float_of_int !zone_count /. elapsed else 0.
          in
          if Events.enabled () then
            Events.emit ev
              [
                ("stored", Json.Int !zone_count);
                ("frontier", Json.Int !waiting);
                ("locations", Json.Int !nlocs);
                ("edges", Json.Int !edges);
                ( "subsumed",
                  Json.Int (Metrics.value c_zones_subsumed - base_subsumed) );
                ( "pruned",
                  Json.Int (Metrics.value c_zones_pruned_waiting - base_pruned)
                );
                ("rate", Json.Float rate);
              ];
          let eta_s =
            (* ETA toward whichever budget will end the run first: the
               wall-clock deadline, or the state budget at the current
               rate. *)
            match deadline with
            | Some t -> Some (Float.max 0. (t -. now))
            | None ->
                if rate > 0. then
                  Some
                    (float_of_int (max 0 (!zone_limit - !zone_count)) /. rate)
                else None
          in
          Events.progress ?eta_s ~stored:!zone_count ~frontier:!waiting
            ~rate ()
        end
      end
    in
    let stats_now () =
      { locations = !nlocs; zones = !zone_count; edges = !edges }
    in
    (* [cell] without the entries [zmin] includes, each marked dead
       ([zones.pruned_waiting] counts those still waiting), tested head
       first; the list itself when none goes, so a store that prunes
       nothing copies nothing. *)
    let rec prune zmin = function
      | [] -> []
      | e :: rest as cell ->
          if K.Min.subsumes zmin e.zr.z then begin
            e.alive <- false;
            if not e.expanded then Metrics.incr c_zones_pruned_waiting;
            prune zmin rest
          end
          else
            let rest' = prune zmin rest in
            if rest' == rest then cell else e :: rest'
    in
    (* Store a successor that no zone of [lc] covers, given the outcome
       of interning it in the hash-consing store: pruning the zones it
       covers (through its minimal-constraint form), storing,
       inspection, queueing. *)
    let store lc interned =
      let zr =
        match interned with
        | `Hit zr ->
            Metrics.incr c_zones_interned;
            zr
        | `Miss zr -> zr
      in
      lc.cell <- prune zr.zmin lc.cell;
      incr seq;
      let e =
        {
          zr;
          zloose = loose lc.lay zr.z;
          seq = !seq;
          alive = true;
          expanded = false;
        }
      in
      lc.cell <- e :: lc.cell;
      incr zone_count;
      Metrics.incr c_zones_stored;
      inspect lc.ph lc.sr.st zr.z lc.lay.pos;
      lc.pending <- e :: lc.pending;
      if not lc.queued then begin
        lc.queued <- true;
        Queue.add lc.lid locq
      end;
      incr waiting;
      Metrics.set_max g_waiting_max (float_of_int !waiting)
    in
    (* Does [e] include the successor in [main.scr]? *)
    let covers_main e = K.Scratch.subsumed_by main.scr e.zr.zmin in
    (* Commit the successor in [main.scr].  The inclusion test reads it
       in place, so a covered successor (most of them) is never hashed,
       interned or frozen.  A survivor is hashed and probed in place: a
       hit never copies the matrix and takes the stored minimal form; a
       miss freezes exactly once, into the arena, and reduces the
       scratch to its minimal form. *)
    let equal_main r = K.Scratch.equal_zone main.scr r.z in
    let add_scratch r p =
      let lc = loc_of r p and scr = main.scr in
      if List.exists covers_main lc.cell then Metrics.incr c_zones_subsumed
      else
        let h = K.Scratch.hash scr in
        store lc
          (Hstore.intern_scratch zstore ~hash:h ~equal:equal_main
             ~freeze:(fun () ->
               {
                 z = K.Scratch.freeze_into ~hash:h arena scr;
                 zmin = K.Scratch.minimize scr;
               }))
    in
    (* The unfinished tail of the batch being drained: the entry under
       expansion plus the ones not yet reached.  Only a mid-batch
       deadline can observe a nonempty tail; it is folded back into the
       snapshot so no stored-but-unexpanded work is lost. *)
    let batch_loc = ref (-1) in
    let batch_left : zentry list ref = ref [] in
    let pop_batch_left () =
      batch_left := (match !batch_left with _ :: t -> t | [] -> [])
    in
    (* ---------------- checkpointing ---------------- *)
    let wrote_snapshot = ref false in
    let last_snap = ref 0 in
    let save_snapshot () =
      match checkpoint with
      | None -> None
      | Some (path, _) ->
          Tracing.with_span "recover.snapshot" @@ fun () ->
          let locs = Array.sub !locs 0 !nlocs in
          let p_keys = Array.map (fun lc -> (lc.sr.st, lc.ph)) locs in
          let p_store =
            Array.init (Hstore.length zstore) (Hstore.key_of_id zstore)
          in
          let p_cells = Array.map (fun lc -> (lc.lid, lc.cell)) locs in
          (* Fold the unfinished batch tail back into the frontier. *)
          let p_pending =
            Array.of_seq
              (Seq.filter_map
                 (fun lc ->
                   let es =
                     if lc.lid = !batch_loc then !batch_left @ lc.pending
                     else lc.pending
                   in
                   match es with
                   | [] -> None
                   | _ -> Some (lc.lid, es))
                 (Array.to_seq locs))
          in
          let q_extra =
            match !batch_left with
            | _ :: _ when not locs.(!batch_loc).queued -> [ !batch_loc ]
            | _ -> []
          in
          let p_locq =
            Array.of_list (q_extra @ List.of_seq (Queue.to_seq locq))
          in
          let snap =
            {
              p_keys;
              p_store;
              p_cells;
              p_pending;
              p_locq;
              p_edges = !edges;
              p_zones = !zone_count;
              p_seq = !seq;
              p_subsumed_d = Metrics.value c_zones_subsumed - base_subsumed;
              p_pruned_d =
                Metrics.value c_zones_pruned_waiting - base_pruned;
              p_interned_d = Metrics.value c_zones_interned - base_interned;
              p_waiting_max = Metrics.gauge_value g_waiting_max;
            }
          in
          let info =
            Printf.sprintf "zones=%d locations=%d edges=%d" !zone_count
              !nlocs !edges
          in
          (* Park every record's zone on one shared stand-in while the
             tables are written, then put each back. *)
          let zs = Array.map (fun r -> r.z) p_store in
          Array.iter (fun r -> r.z <- z_init) p_store;
          let unpark () = Array.iteri (fun i r -> r.z <- zs.(i)) p_store in
          let payload =
            Fun.protect ~finally:unpark (fun () ->
                Marshal.to_bytes (snap : s snap) [])
          in
          Snapshot.write ~path ~fingerprint:(Lazy.force fingerprint) ~info
            payload;
          wrote_snapshot := true;
          last_snap := !zone_count;
          Some path
    in
    let restore path =
      let fp_got, info, payload = Snapshot.read path in
      let fp = Lazy.force fingerprint in
      if fp_got <> fp then
        raise
          (Snapshot.Bad_snapshot
             (Printf.sprintf
                "%s: snapshot belongs to a different job\n\
                \  snapshot: %s\n\
                \  this run: %s" path fp_got fp));
      let snap = (Marshal.from_bytes payload 0 : s snap) in
      (* Ids are assigned in order, so re-interning the store's records
         (each with its zone rebuilt from its minimal form) and
         re-creating the locations in id order reproduces every id
         exactly.  The store gets back its whole key set, matrices whose
         entries were all pruned included, so the resumed run freezes
         and reduces exactly the matrices the uninterrupted one does. *)
      Array.iter
        (fun r ->
          r.z <- K.Min.zone r.zmin;
          ignore (Hstore.intern zstore r))
        snap.p_store;
      Array.iter (fun (s, p) -> ignore (loc_of (state_rec s) p)) snap.p_keys;
      Array.iter (fun (id, es) -> !locs.(id).cell <- es) snap.p_cells;
      Array.iter (fun (id, es) -> !locs.(id).pending <- es) snap.p_pending;
      Array.iter
        (fun id ->
          Queue.add id locq;
          !locs.(id).queued <- true)
        snap.p_locq;
      edges := snap.p_edges;
      zone_count := snap.p_zones;
      (* an explicit [limit] counts zones stored after this point *)
      Option.iter
        (fun l -> zone_limit := snap.p_zones + min l (max_int - snap.p_zones))
        limit;
      seq := snap.p_seq;
      waiting :=
        Array.fold_left (fun n (_, es) -> n + List.length es) 0 snap.p_pending;
      last_snap := !zone_count;
      (* Replay this job's counter contribution so a resumed run's
         totals equal an uninterrupted one's. *)
      Metrics.add c_zones_stored snap.p_zones;
      Metrics.add c_zone_edges snap.p_edges;
      Metrics.add c_zones_subsumed snap.p_subsumed_d;
      Metrics.add c_zones_pruned_waiting snap.p_pruned_d;
      Metrics.add c_zones_interned snap.p_interned_d;
      Metrics.set_max g_waiting_max snap.p_waiting_max;
      Metrics.incr c_resumed;
      Events.emit "recover.resume"
        [
          ("path", Json.String path);
          ("zones", Json.Int !zone_count);
          ("edges", Json.Int !edges);
          ("info", Json.String info);
        ];
      Log.info "resumed from %s (%s)" path info;
      (* Replay [inspect] over the restored frontier in original
         storage order: reachable-set accumulators see every stored
         location again, and condition probes re-audit zones that
         already passed (pure, so they pass again). *)
      let entries = ref [] in
      for id = 0 to !nlocs - 1 do
        let lc = !locs.(id) in
        List.iter (fun e -> entries := (lc, e) :: !entries) lc.cell
      done;
      let entries =
        List.sort (fun (_, e1) (_, e2) -> compare e1.seq e2.seq) !entries
      in
      List.iter
        (fun (lc, e) -> inspect lc.ph lc.sr.st e.zr.z lc.lay.pos)
        entries
    in
    (* The states with a stored zone, in first-stored order: a location
       gets its id at its first stored zone, and a state's first
       location is the one with the smaller id. *)
    let stored_states () =
      let acc = ref [] in
      for id = !nlocs - 1 downto 0 do
        let lc = !locs.(id) in
        let other =
          loc_id lc.sr (match lc.ph with Idle -> Armed | Armed -> Idle)
        in
        if other < 0 || other > id then acc := lc.sr.st :: !acc
      done;
      !acc
    in
    (* The certificate of a finished run (see {!Certificate}): every
       location in id order with its stored zones, each projected on the
       logical clocks live there (all of a compact layout; a full-width
       cylinder drops its dead clocks, so both kinds lift alike),
       unscaled, in minimal-constraint form ({!Dbm_min}). *)
    let certificate () =
      let k = Rational.of_int enc.scale in
      let unscale : Dbm_bound.t -> Dbm_bound.t = function
        | Le q -> Le (Rational.div q k)
        | Lt q -> Lt (Rational.div q k)
        | Inf -> Inf
      in
      Array.init !nlocs (fun id ->
          let lc = !locs.(id) in
          let armed = lc.ph = Armed in
          let live = lc.lay.live in
          let idx =
            Array.of_seq
              (Seq.filter
                 (fun i ->
                   let x = live.(i) in
                   x = 0
                   || (x <= nclasses && lc.lay.en.(x - 1))
                   || (armed && enc.y = Some x))
                 (Seq.init (Array.length live) Fun.id))
          in
          let n = Array.length idx in
          let lift e =
            let m =
              Array.init (n * n) (fun p ->
                  unscale (K.get e.zr.z idx.(p / n) idx.(p mod n)))
            in
            let r = Dbm_min.reduce n (fun i j -> m.((i * n) + j)) in
            let clock p = live.(idx.(p)) in
            List.mapi
              (fun c p -> (clock (p / n), clock (p mod n), r.mbnd.(c)))
              (Array.to_list r.midx)
          in
          let zones = List.rev_map lift lc.cell in
          { Certificate.state = lc.sr.st; armed; zones })
    in
    (* The search has its answer (a fixpoint, a witness, an unsupported
       shape): a leftover snapshot — periodic from this run, or the one
       this run resumed from when it doubles as the checkpoint path —
       would only invite resuming a finished job, so drop it.  A file at
       the checkpoint path this run neither wrote nor consumed is someone
       else's and stays. *)
    let finished () =
      match checkpoint with
      | Some (path, _)
        when !wrote_snapshot
             || match resume with Some r -> String.equal r path | None -> false
        -> (
          try Sys.remove path with Sys_error _ -> ())
      | _ -> ()
    in
    (* Batch-boundary discipline: deterministic budget, cooperative
       interrupt, periodic snapshot — in that order, so an exhausted
       run never first spends time snapshotting. *)
    let boundary_checks () =
      if !zone_count > !zone_limit then raise (Budget `States);
      if Supervisor.interrupt_requested () then raise (Budget `Interrupt);
      match checkpoint with
      | Some (_, every) when every > 0 && !zone_count - !last_snap >= every ->
          ignore (save_snapshot ())
      | _ -> ()
    in
    (* The location-change map from a zone over [pre_pos] (logical clock
       -> index, [-1] if absent) with enabled classes [pre_en] to the
       layout [post]: a class that fires ([ci]) or becomes enabled is
       reset, a disabled one is freed, the observer clock follows
       [y_op], every other clock keeps its bounds.  A clock absent from
       [post] is dropped; the map still counts its logical [free].  The
       map is [post]'s own, filled in place: [settle] hands it to the
       kernel at once, and a search runs on one domain, so no other
       edge can see it half-filled. *)
    let remap_to ~ci pre_en pre_pos post y_op =
      let live = post.live and src = post.src in
      (* [live.(0)] is clock 0, which maps to itself: [src.(0)] stays 0 *)
      for k = 1 to Array.length live - 1 do
        let x = live.(k) in
        src.(k) <-
          (if x <= nclasses then
             if not post.en.(x - 1) then -1
             else if ci = x - 1 || not pre_en.(x - 1) then 0
             else pre_pos.(x)
           else
             match y_op with `Reset -> 0 | `Free -> -1 | `Keep -> pre_pos.(x))
      done;
      match y_op with
      | `Free -> post.remap_free
      | `Reset | `Keep -> post.remap_other
    in
    (* The one successor pipeline, in the paper's MMT encoding of
       (A, b).  [settle] is its tail, shared with the seeds: move to the
       successor's layout (reset the classes that fire or become
       enabled, free the disabled ones, apply the observer clock's
       operation), then one kernel call for the timing obligations:
       let time elapse while every enabled class C keeps
       [x_C <= b_u(C)] (Defs 2.1/2.2), and widen with LU-bound
       extrapolation — the one widening, which every zone reaches
       through here whatever the kernel, so [zones.stored] stays
       identical by construction.  A seed is a successor from the
       all-clocks layout with no firing class ([ci = -1]), so it frees
       exactly the disabled classes.  [true] iff the zone left in
       [main.scr] is nonempty. *)
    let settle ~ci pre_en pre_pos post y_op =
      let scr = main.scr in
      K.Scratch.remap scr (remap_to ~ci pre_en pre_pos post y_op);
      K.Scratch.settle post.lu scr;
      Option.iter (K.Scratch.remap scr) post.refree;
      not (K.Scratch.is_empty scr)
    in
    (* One edge [s -act-> t.st] out of zone [z] at layout [pre]: load,
       guard [x_C >= b_l(C)], observer, then [settle].  On [true] the
       survivor is in [main.scr] and its phase in [main.phase] — a
       field rather than a returned tuple, and the clock map is the
       target layout's, so the pipeline allocates nothing per edge.  An
       unsupported observer shape raises. *)
    let successor s p pre z (act, gopt, ci) t =
      let scr = main.scr in
      K.Scratch.load scr z;
      main.cur <- pre;
      (match gopt with
      | None -> ()
      | Some (x, b) -> K.Scratch.constrain scr 0 pre.pos.(x) b);
      (not (K.Scratch.is_empty scr))
      &&
      match observe p s act t.st ~sat:main.sat with
      | Error m -> raise (Unsupported_shape m)
      | Ok (p', y_op) ->
          main.phase <- p';
          settle ~ci pre.en pre.pos (layout_of t p') y_op
    in
    let expand r p pre z =
      step_state r;
      for k = 0 to Array.length r.targets - 1 do
        incr edges;
        Metrics.incr c_zone_edges;
        check_deadline ();
        let t = r.targets.(k) in
        if successor r.st p pre z enc.guards.(r.gis.(k)) t then
          add_scratch t main.phase
      done
    in
    let result =
      try
        (match resume with
        | Some path -> restore path
        | None ->
            List.iter
              (fun s0 ->
                K.Scratch.load main.scr z_init;
                let p0 = initial_phase s0 in
                let r = state_rec s0 in
                let post = layout_of r p0 in
                let y_op = match p0 with Idle -> `Free | Armed -> `Keep in
                if settle ~ci:(-1) post.en all_clocks post y_op then
                  add_scratch r p0)
              a.Ioa.start);
        while
          boundary_checks ();
          not (Queue.is_empty locq)
        do
          check_deadline ();
          emit_telemetry ();
          let lc = !locs.(Queue.pop locq) in
          lc.queued <- false;
          let batch = lc.pending in
          lc.pending <- [];
          (* Largest zone first: the biggest zone subsumes the most
             successors, so expanding it first maximizes pruning.  The
             insertion sequence breaks ties for determinism. *)
          let batch =
            List.sort
              (fun e1 e2 ->
                if e1.zloose <> e2.zloose then compare e2.zloose e1.zloose
                else compare e1.seq e2.seq)
              batch
          in
          let r = lc.sr and p = lc.ph and pre = lc.lay in
          batch_loc := lc.lid;
          batch_left := batch;
          List.iter
            (fun e ->
              decr waiting;
              (if e.alive then begin
                 e.expanded <- true;
                 expand r p pre e.zr.z
               end);
              pop_batch_left ())
            batch
        done;
        finished ();
        emit_telemetry ~force:true ~ev:"zones.done" ();
        Events.progress_clear ();
        Ok (stats_now (), stored_states, certificate)
      with
      | Unsupported_shape m ->
          finished ();
          Error (`Unsupported m)
      | Refuted side ->
          (* The witness: the stats so far are deterministic. *)
          finished ();
          Events.progress_clear ();
          Error (`Refuted (side, stats_now ()))
      | Budget kind ->
          (* Exhaustion must never masquerade as a verdict: surface the
             partial stats so the caller can report how far the search
             got before the budget ran out — and leave a final snapshot
             behind so none of that work is lost. *)
          let ck = save_snapshot () in
          let partial = stats_now () in
          let reason =
            match kind with
            | `States ->
                Metrics.incr c_budget_states;
                Printf.sprintf "zone budget exhausted (limit=%d stored zones)"
                  !zone_limit
            | `Deadline ->
                Metrics.incr c_budget_deadline;
                let d = match deadline_s with Some d -> d | None -> 0. in
                Printf.sprintf "deadline exceeded (%.0f ms)" (d *. 1000.)
            | `Interrupt ->
                Metrics.incr c_interrupted;
                "interrupted (SIGINT/SIGTERM)"
          in
          emit_telemetry ~force:true ~ev:"zones.exhausted" ();
          Events.emit "zones.budget"
            [
              ("reason", Json.String reason);
              ( "checkpoint",
                match ck with
                | Some p -> Json.String p
                | None -> Json.Null );
            ];
          Events.progress_clear ();
          Error (`Budget { reason; partial; checkpoint = ck })
    in
    result

  (* A condition's observer (see reach.mli): [initial_phase], [observe]
     and [inspect] for {!explore}. *)
  let condition_observer enc (c : _ Condition.t) =
    let y = match enc.y with Some y -> y | None -> assert false in
    let bounds = scale_interval enc.scale c.Condition.bounds in
    let bl = Interval.lo bounds in
    let bu = Interval.hi bounds in
    let check_lower = Rational.sign bl > 0 in
    let lt_bl = Dbm_bound.Lt bl in
    let upper_probe =
      match bu with
      | Time.Fin q -> Some (Dbm_bound.Lt (Rational.neg q))
      | Time.Inf -> None
    in
    let observe p s act s' ~sat =
      let triggered = c.Condition.t_step s act s' in
      let pi = c.Condition.in_pi act in
      match p with
      | Armed when pi ->
          (* Occurrence: too early iff the zone admits y < b_l. *)
          if check_lower && sat y 0 lt_bl then raise (Refuted `Lower);
          if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
      | Armed when triggered ->
          Error
            "trigger fired while armed with a non-Pi action (needs deadline \
             merge)"
      | Armed ->
          if c.Condition.in_s s' then Ok (Idle, `Free) else Ok (Armed, `Keep)
      | Idle -> if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
    in
    let inspect p _s z pos =
      match (p, upper_probe) with
      | Armed, Some probe ->
          (* Violation iff time can pass the deadline while still armed:
             the zone admits y > q, i.e. 0 − y < −q is satisfiable. *)
          if K.sat z 0 pos.(y) probe then raise (Refuted `Upper)
      | Armed, None | Idle, _ -> ()
    in
    let initial_phase s0 = if c.Condition.t_start s0 then Armed else Idle in
    (initial_phase, observe, inspect)

  (* One search checks every property of [props]: the condition's
     observer never blocks a step, so its search stores a zone at every
     state the invariants' own search would reach (Lemmas 3.2/3.3), and
     each invariant is tested there. *)
  let check (type s a) ?limit ?deadline_s ?checkpoint ?resume ?certificate
      ?reached (a : (s, a) Ioa.t) bm (props : (s, a) property list) :
      (outcome, s) result =
    let span, args, kind = job ~reached:(reached <> None) props in
    Tracing.with_span span ~args @@ fun () ->
    let enc = make_enc a bm ~cond_bounds:(cond_bounds props) in
    let fingerprint = lazy (fingerprint_of ~kind bm enc) in
    let found = ref None in
    let cond, preds = split props in
    (* runs once per stored zone, so it allocates nothing *)
    let holds =
      match preds with
      | [ pred ] -> pred
      | _ ->
          let rec all s = function [] -> true | p :: ps -> p s && all s ps in
          fun s -> all s preds
    in
    let violated s =
      found := Some s;
      raise (Refuted `Invariant)
    in
    let initial_phase, observe, inspect =
      match cond with
      | None ->
          ( (fun _ -> Idle),
            keep_phase,
            fun _ s _ _ -> if not (holds s) then violated s )
      | Some c -> (
          let initial_phase, observe, inspect = condition_observer enc c in
          match preds with
          | [] -> (initial_phase, observe, inspect)
          | _ :: _ ->
              ( initial_phase,
                observe,
                fun p s z pos ->
                  if not (holds s) then violated s;
                  inspect p s z pos ))
    in
    match
      explore ?limit ?deadline_s ?checkpoint ?resume ~fingerprint enc
        ~initial_phase ~observe ~inspect
    with
    | Ok (stats, stored_states, cert) ->
        Option.iter (fun f -> f (cert ())) certificate;
        Option.iter (fun f -> f (stored_states ())) reached;
        Ok (Verified stats)
    | Error (`Unsupported m) -> Ok (Unsupported m)
    | Error (`Budget e) -> Ok (Unknown e)
    | Error (`Refuted (`Lower, st)) -> Ok (Lower_violation st)
    | Error (`Refuted (`Upper, st)) -> Ok (Upper_violation st)
    | Error (`Refuted (`Invariant, _)) -> Error (Option.get !found)
end

(* Every engine's [S], derived once from its core.  The trio is [check]
   under the conventions its pinned callers expect, and the only place
   an exhausted search raises [Out_of_budget] (and an invariant's
   unsupported search [Open_system]). *)
module Engine (C : CORE) : S = struct
  include C

  let check ?limit ?deadline_s ?checkpoint ?resume a bm props =
    C.check ?limit ?deadline_s ?checkpoint ?resume a bm props

  let invariant ?limit ?deadline_s ?checkpoint ?resume ?reached a bm pred =
    match
      C.check ?limit ?deadline_s ?checkpoint ?resume ?reached a bm
        [ Invariant pred ]
    with
    | Ok (Verified stats) -> Ok stats
    | Error s -> Error s
    | Ok (Unknown e) -> raise (Out_of_budget e)
    | Ok (Unsupported m) -> raise (Open_system m)
    | Ok (Lower_violation _ | Upper_violation _) ->
        assert false (* an invariant's search has no observer *)

  let reachable ?limit ?deadline_s ?domains:_ ?checkpoint ?resume a bm =
    let states = ref [] in
    match
      invariant ?limit ?deadline_s ?checkpoint ?resume
        ~reached:(( := ) states) a bm (fun _ -> true)
    with
    | Ok stats -> (stats, !states)
    | Error _ -> assert false

  let check_state_invariant ?limit ?deadline_s ?domains:_ ?checkpoint ?resume
      a bm pred =
    invariant ?limit ?deadline_s ?checkpoint ?resume a bm pred

  let check_condition ?limit ?deadline_s ?domains:_ ?checkpoint ?resume a bm c
      =
    match check ?limit ?deadline_s ?checkpoint ?resume a bm [ Condition c ] with
    | Ok o -> o
    | Error _ -> assert false (* only an invariant has a violating state *)
end

module Make (K : Dbm_sig.S) = Engine (Core (K))

(* The production engine: the packed-int kernel, every job scaled to
   integers by [make_enc].  [Ref] runs the same exploration unscaled on
   exact rationals, so every int-vs-ref differential also checks the
   scaling. *)
module Auto_core = Core (Dbm_int)
module Ref_core = Core (Dbm_ref)
module Auto = Engine (Auto_core)
module Ref = Engine (Ref_core)

(* Test hooks; see reach.mli. *)
module For_testing = struct
  let corrupt_certificate = ref false
  let reset () = corrupt_certificate := false

  let certificate kernel a bm props =
    let cert = ref None in
    let check =
      match kernel with `Int -> Auto_core.check | `Ref -> Ref_core.check
    in
    ignore (check ~certificate:(fun c -> cert := Some c) a bm props);
    !cert
end

(* Paranoid engine: the production exploration with its verdict
   checked after the fact; see reach.mli.  The kernel is {!Dbm_int}
   under its own name, so fingerprints keep paranoid checkpoints and
   cached daemon verdicts apart from [auto] ones.  A {!Ref} run starts
   fresh — a snapshot of the (suspect) int run must not seed it, so a
   [limit] given with [resume] bounds it from zero — within what is
   left of the deadline, and writes no checkpoint: its snapshots would
   carry {!Ref}'s fingerprint, which a retry of this engine refuses. *)
module Paranoid = Engine (struct
  module P = Core (struct
    include Dbm_int

    let name = "int+cert"
  end)

  include P

  let c_checked = Metrics.counter "recover.selfcheck_total"
  let c_mismatch = Metrics.counter "recover.selfcheck_mismatch"
  let c_degraded = Metrics.counter "recover.degraded"

  (* Why a call ran out of its [deadline_s] during [stage]. *)
  let late deadline_s stage =
    Printf.sprintf "deadline exceeded (%.0f ms) %s"
      (Option.value deadline_s ~default:0. *. 1000.)
      stage

  (* The int engine's verdict decides what to check: a proof, its
     certificate, of every property of the list; a refutation, that a
     {!Ref} run returns the same violating state (an invariant) or the
     same outcome (a condition).
     A failed check answers with the {!Ref} run's verdict.  A check or
     confirming run the deadline cuts short confirms nothing and ends
     [Unknown]. *)
  let check ?limit ?deadline_s ?checkpoint ?resume ?certificate ?reached
      (a : (_, _) Ioa.t) bm props =
    let t0 = Tracing.now_s () and cert = ref [||] in
    let r =
      P.check ?limit ?deadline_s ?checkpoint ?resume ~certificate:(( := ) cert)
        ?reached a bm props
    in
    let run_ref () =
      let spent = Tracing.now_s () -. t0 in
      let deadline_s =
        Option.map (fun d -> Float.max 0. (d -. spent)) deadline_s
      in
      Ref_core.check ?limit ?deadline_s ?certificate ?reached a bm props
    in
    let degrade why =
      let what =
        match reached with
        | Some _ -> "reachable"
        | None ->
            String.concat "+"
              (List.map
                 (function
                   | Invariant _ -> "invariant" | Condition _ -> "condition")
                 props)
      in
      Metrics.incr c_mismatch;
      Metrics.incr c_degraded;
      Events.emit "recover.degraded"
        [ ("what", Json.String what); ("mismatch", Json.String why) ];
      Log.warn "paranoid %s: %s — degrading to the reference kernel" what why
    in
    match r with
    | Ok (Unknown _ | Unsupported _) -> r
    | Ok (Verified partial) -> (
        let cert : _ Certificate.t = !cert in
        (* the test hook drops the zone the first start state seeded *)
        if !For_testing.corrupt_certificate then
          cert.(0) <-
            { (cert.(0)) with zones = List.tl cert.(0).Certificate.zones };
        let deadline = Option.map (( +. ) t0) deadline_s in
        match
          Tracing.with_span "zones.certify" (fun () ->
              Certificate.check ?deadline a bm props cert)
        with
        | Ok n ->
            Metrics.add c_checked n;
            Option.iter (fun f -> f cert) certificate;
            r
        | Error why ->
            degrade ("certificate rejected: " ^ why);
            run_ref ()
        | exception Certificate.Out_of_time ->
            let reason = late deadline_s "checking the certificate" in
            Ok (Unknown { reason; partial; checkpoint = None }))
    | Ok (Lower_violation _ | Upper_violation _) | Error _ -> (
        let same r' =
          match (r, r') with
          | Error s, Error s' -> a.Ioa.equal_state s s'
          | Ok o, Ok o' -> o = o'
          | _ -> false
        in
        match run_ref () with
        | Ok (Unknown e) as r' ->
            if String.starts_with ~prefix:"deadline" e.reason then
              let reason = late deadline_s "confirming the refutation" in
              Ok (Unknown { e with reason })
            else r'
        | r' when same r' ->
            Metrics.incr c_checked;
            r
        | r' ->
            degrade "the reference kernel does not reproduce the refutation";
            r')
end)

include Auto
