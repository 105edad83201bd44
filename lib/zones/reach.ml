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
module Pool = Tm_par.Pool
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

(* The no-op observer of the observer-free checks ([explore_states]):
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
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let lcm k q =
    let d = q.Rational.den in
    let m = k / gcd k d in
    if m > max_int / d then
      invalid_arg
        (Printf.sprintf "Reach: time scale %d * %d overflows (constant %s)" m
           d (Rational.to_string q));
    m * d
  in
  let of_interval k iv =
    let k = lcm k (Interval.lo iv) in
    match Interval.hi iv with Time.Fin q -> lcm k q | Time.Inf -> k
  in
  let k =
    List.fold_left (fun k (_, iv) -> of_interval k iv) 1 (Boundmap.to_list bm)
  in
  match cond_bounds with None -> k | Some iv -> of_interval k iv

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

module type S = sig
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

  val fingerprint_reachable : ('s, 'a) Ioa.t -> Boundmap.t -> string

  val fingerprint_invariant : ('s, 'a) Ioa.t -> Boundmap.t -> string

  val fingerprint_condition :
    ('s, 'a) Ioa.t -> Boundmap.t -> ('s, 'a) Condition.t -> string
end

(* The exploration discipline — waiting-list policy, subsumption,
   caches, metrics — lives in this functor and is therefore shared by
   the int engine and the reference engine; only the DBM arithmetic
   differs.  That makes [zones.stored] identical across kernels by
   construction, which the CI determinism guard and the differential
   harness both rely on. *)
module Make (K : Dbm_sig.S) : S = struct
  (* The zone engine's view of the encoding: the shared class clocks of
     {!Clock_enc} (DBM indices 1..n, index 0 is the reference), plus an
     optional observer clock.  Guards and invariants are precomputed
     into arrays so the per-edge pipeline does no boundmap lookups and
     allocates no bound values. *)
  type ('s, 'a) enc = {
    cenc : ('s, 'a) Clock_enc.t;
    nclocks : int;  (** DBM dimension *)
    y : int option;  (** observer clock *)
    max_const : Rational.t;
    guards : ('a * (int * Dbm_bound.t) option * int) array;
        (** per action: guard [(clock, Le (-b_l))] and class index
            ([-1] when classless) *)
    uppers : Dbm_bound.t option array;
        (** per class index: invariant bound [Le b_u] when finite *)
    lu : Rational.t option array * Rational.t option array;
        (** per DBM clock LU-extrapolation bounds [(lower, upper)] *)
    scale : int;
        (** time-unit factor every constant above was multiplied by;
            [1] on a rational kernel *)
  }

  let make_enc a bm ~with_observer ~cond_bounds =
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
        (List.map
           (fun act ->
             let g =
               match Clock_enc.guard cenc act with
               | None -> None
               | Some (x, bl) ->
                   Some (x, Dbm_bound.Le (Rational.neg bl))
             in
             let ci =
               match Clock_enc.class_index cenc act with
               | Some i -> i
               | None -> -1
             in
             (act, g, ci))
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
    let nclocks = nreal + 1 + (if with_observer then 1 else 0) in
    (match K.headroom with
    | Some h when Rational.(max_const > of_int (h nclocks)) ->
        invalid_arg
          (Format.asprintf
             "Reach: constant %a at time scale %d exceeds the %s kernel's \
              headroom %d for %d clocks"
             Rational.pp max_const scale K.name (h nclocks) nclocks)
    | Some _ | None -> ());
    let y = if with_observer then Some (nreal + 1) else None in
    let lu =
      (* L(x) / U(x) must dominate every constant the exploration
         ever compares clock x against.  Class clocks only meet their
         guard (x >= b_l, a lower comparison) and their invariant
         (x <= b_u, an upper comparison) — {!Boundmap.lu_bounds}.
         The observer clock is only met by the condition probes, and
         those INVERT: [y < b_l] is an upper-type comparison (so b_l
         feeds U(y)) and [y > b_u] is a lower-type one (so b_u feeds
         L(y)).  The reference clock carries [Some 0] on both sides.
         A clock with no comparison on a side keeps [None] (-inf)
         there, which wipes the corresponding entries — inactive
         clocks vanish from the zone for free. *)
      let lower = Array.make nclocks None in
      let upper = Array.make nclocks None in
      lower.(0) <- Some Rational.zero;
      upper.(0) <- Some Rational.zero;
      Array.iteri
        (fun i c ->
          let l, u = Boundmap.lu_bounds bm c in
          lower.(i + 1) <- l;
          upper.(i + 1) <- u)
        cenc.Clock_enc.classes;
      (match (y, cond_bounds) with
      | Some yi, Some iv ->
          let bl = Interval.lo iv in
          if Rational.sign bl > 0 then upper.(yi) <- Some bl;
          (match Interval.hi iv with
          | Time.Fin q -> lower.(yi) <- Some q
          | Time.Inf -> ())
      | Some _, None | None, _ -> ());
      (lower, upper)
    in
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

  let cond_kind (c : _ Condition.t) =
    Format.asprintf "condition:%s:%a" c.Condition.cname Interval.pp
      c.Condition.bounds

  let fingerprint_reachable a bm =
    fingerprint_of ~kind:"reachable" bm
      (make_enc a bm ~with_observer:false ~cond_bounds:None)

  let fingerprint_invariant a bm =
    fingerprint_of ~kind:"invariant" bm
      (make_enc a bm ~with_observer:false ~cond_bounds:None)

  let fingerprint_condition a bm c =
    fingerprint_of ~kind:(cond_kind c) bm
      (make_enc a bm ~with_observer:true
         ~cond_bounds:(Some c.Condition.bounds))

  (* A stored zone doubling as a waiting-list entry.  [alive] is
     cleared when a later, larger zone at the same location subsumes
     it; [expanded] distinguishes passed-list members from entries
     pruned while still waiting (the [zones.pruned_waiting] signal).
     [zmin] is the minimal-constraint form of [z], computed once at
     store time: both subsumption directions probe it in O(kept
     constraints) instead of scanning the full n² matrix. *)
  type zentry = {
    z : K.t;
    zmin : K.Min.min;
    zloose : int;
    seq : int;
    mutable alive : bool;
    mutable expanded : bool;
  }

  (* Checkpoint payload: the whole search frontier at a batch boundary.
     Zones and waiting-list entries are plain data ([K.t] carries no
     closures), and one [Marshal] call preserves the sharing between
     [p_cells] and [p_pending], so pending entries come back as the
     same records as their cell copies.  States must themselves be
     marshalable — true of every system in this repository.  Counter
     deltas are this job's contribution to the shared metrics, replayed
     with [Metrics.add] at resume so a resumed run's totals equal an
     uninterrupted one's. *)
  type 's snap = {
    p_keys : ('s * phase) array;  (** store keys in id order *)
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

  (* Per-domain successor context: a private scratch matrix plus a
     private enabled-vector cache (its own Hstore, so the single-domain
     owner assertion holds).  Slot 0 belongs to the calling domain —
     [Pool.parallel_for] runs its caller as domain 0 — so it also
     serves the sequential and seeding paths; the other slots are
     created lazily by the worker domain that uses them. *)
  type 's dctx = {
    scr : K.Scratch.scratch;
    sat : int -> int -> Dbm_bound.t -> bool;
        (** shared satisfiability probe over [scr], so the per-edge
            [observe] call allocates no closure *)
    spec_arena : K.Arena.arena;
        (** speculated zones freeze into this bump arena; it rewinds
            at the end of every batch, after the commit loop has copied
            the survivors into the main arena *)
    vids : 's Hstore.t;
    vecs : (int, bool array) Hashtbl.t;
    mutable phase : phase;
        (** observer phase of the last successor that survived *)
  }

  (* Generic exploration.  [observe] sees each discrete step plus a
     satisfiability query on the guard-constrained successor zone and
     returns the observer phase transition and the operation on the
     observer clock ([`Reset], [`Free] while it is not being read, or
     [`Keep]); [inspect] sees every stored (state, phase, zone).

     With a [pool] of size > 1 the engine runs speculate-then-commit
     per popped location batch: workers run [successor], the pipeline
     the sequential path runs, for every (entry, guard) pair of the
     batch in parallel on per-domain contexts, then the main domain
     replays the outcomes in exact sequential order —
     edge counting, observer probes, interning, subsumption, storing,
     queueing all happen at commit.  Every state-mutating decision is
     thus made in the sequential order, so verdicts, the reachable
     set, and every counter (including [zones.stored] and
     [zones.subsumed]) are bit-identical to the sequential engine at
     any domain count.  The only speculative waste is computing
     successors of entries that a same-batch commit prunes; their
     results are discarded exactly where the sequential engine would
     have skipped the dead entry.  [observe] and the automaton's
     [delta] must be pure — they run on worker domains.

     Checkpointing discipline: snapshots, the (deterministic) zone
     budget, and cooperative interrupts all act only at batch
     boundaries — the top of the drain loop — where the frontier state
     is exactly [cells]/[pending]/[locq] and (under a pool) every
     worker has quiesced at the [parallel_for] commit barrier.  That is
     what makes a resumed run replay the identical commit sequence.
     The wall-clock deadline is the one check allowed to fire
     mid-batch (per successor pipeline, so one slow pipeline cannot
     overshoot by more than one zone expansion); its final snapshot
     re-queues the unfinished remainder of the current batch, which
     keeps resumption sound (subsumption absorbs re-derived
     successors) at the cost of exact counter equality — the deadline
     is documented as non-deterministic anyway. *)
  let explore (type s a) ?limit ?deadline_s ?pool ?checkpoint
      ?resume ~fingerprint:fp
      (enc : (s, a) enc)
      ~(initial_phase : s -> phase)
      ~(observe :
         phase -> s -> a -> s -> sat:(int -> int -> Dbm_bound.t -> bool)
         -> (phase * [ `Reset | `Free | `Keep ], string) result)
      ~(inspect : phase -> s -> K.t -> unit) =
    let a = enc.cenc.Clock_enc.aut in
    let nclasses = enc.cenc.Clock_enc.nclasses in
    let store =
      Hstore.create
        ~equal:(fun (s1, p1) (s2, p2) -> p1 = p2 && a.Ioa.equal_state s1 s2)
        ~hash:(fun (s, p) ->
          (a.Ioa.hash_state s * 2) + match p with Idle -> 0 | Armed -> 1)
        256
    in
    (* Hash-consed zone store: structurally equal zones become one
       pointer, so passed-list inclusion checks start with a physical
       equality hit and hash at most once per distinct zone. *)
    let zstore = Hstore.create ~equal:K.equal ~hash:K.hash 64 in
    (* Passed + waiting zones per location id. *)
    let cells : (int, zentry list ref) Hashtbl.t = Hashtbl.create 64 in
    (* Waiting list: per-location pending buckets drained in FIFO
       location order, largest zone first within a bucket. *)
    let pending : (int, zentry list ref) Hashtbl.t = Hashtbl.create 64 in
    let locq = Queue.create () in
    let queued : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let dctxs =
      Array.make (match pool with Some p -> Pool.size p | None -> 1) None
    in
    let domain_ctx d =
      match dctxs.(d) with
      | Some c -> c
      | None ->
          let scr = K.Scratch.create enc.nclocks in
          let c =
            {
              scr;
              sat = (fun i j b -> K.Scratch.sat scr i j b);
              spec_arena = K.Arena.create ();
              vids =
                Hstore.create ~equal:a.Ioa.equal_state ~hash:a.Ioa.hash_state
                  64;
              vecs = Hashtbl.create 64;
              phase = Idle;
            }
          in
          dctxs.(d) <- Some c;
          c
    in
    let main = domain_ctx 0 in
    (* Per-state cache of {!Clock_enc.enabled_vec}, shared across
       observer phases. *)
    let enabled_vec dc s =
      let id = match Hstore.add dc.vids s with `Added i | `Present i -> i in
      match Hashtbl.find_opt dc.vecs id with
      | Some v -> v
      | None ->
          let v = Clock_enc.enabled_vec enc.cenc s in
          Hashtbl.add dc.vecs id v;
          v
    in
    (* The main arena holds every stored zone's payload.  It is never
       reset: everything frozen into it on the sequential
       path, or copied into it by the commit loop, is a stored zone. *)
    let arena = K.Arena.create () in
    (* The one widening applied to every zone before it is stored:
       LU-bound extrapolation.  Every zone reaches it through [settle],
       whatever the kernel or domain count, so [zones.stored] stays
       identical by construction. *)
    let lower, upper = enc.lu in
    let widen scr = K.Scratch.extrapolate_lu ~lower ~upper scr in
    let z_init = K.zero enc.nclocks in
    let edges = ref 0 in
    let zone_count = ref 0 in
    (* absolute; [restore] re-bases an explicit [limit] *)
    let zone_limit = ref (Option.value limit ~default:200_000) in
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
          if Events.enabled () then begin
            let queues =
              match pool with
              | Some pl when Pool.size pl > 1 ->
                  [ ( "queues",
                      Json.List
                        (Array.to_list
                           (Array.map
                              (fun d -> Json.Int d)
                              (Pool.queue_depths pl))) ) ]
              | Some _ | None -> []
            in
            Events.emit ev
              ([
                 ("stored", Json.Int !zone_count);
                 ("frontier", Json.Int !waiting);
                 ("locations", Json.Int (Hstore.length store));
                 ("edges", Json.Int !edges);
                 ( "subsumed",
                   Json.Int (Metrics.value c_zones_subsumed - base_subsumed)
                 );
                 ( "pruned",
                   Json.Int
                     (Metrics.value c_zones_pruned_waiting - base_pruned) );
                 ("rate", Json.Float rate);
               ]
              @ queues)
          end;
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
    let cell_of id =
      match Hashtbl.find_opt cells id with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.add cells id c;
          c
    in
    (* Store one zone, given the outcome of probing it against the
       hash-consing store: subsumption (both directions through the
       minimal-constraint forms), storing, inspection, queueing.  All
       callers run on the main domain in sequential commit order, so
       everything here is deterministic at any domain count. *)
    let add_interned s p probe =
      let z =
        match probe with
        | `Hit z ->
            Metrics.incr c_zones_interned;
            z
        | `Miss z -> z
      in
      let id = match Hstore.add store (s, p) with `Added i | `Present i -> i in
      let cell = cell_of id in
      if List.exists (fun e -> K.Min.subsumes e.zmin z) !cell then
        Metrics.incr c_zones_subsumed
      else begin
        let zmin = K.Min.of_zone z in
        cell :=
          List.filter
            (fun e ->
              if K.Min.subsumes zmin e.z then begin
                e.alive <- false;
                if not e.expanded then Metrics.incr c_zones_pruned_waiting;
                false
              end
              else true)
            !cell;
        incr seq;
        let e =
          {
            z;
            zmin;
            zloose = K.loose z;
            seq = !seq;
            alive = true;
            expanded = false;
          }
        in
        cell := e :: !cell;
        incr zone_count;
        Metrics.incr c_zones_stored;
        inspect p s z;
        let bucket =
          match Hashtbl.find_opt pending id with
          | Some b -> b
          | None ->
              let b = ref [] in
              Hashtbl.add pending id b;
              b
        in
        bucket := e :: !bucket;
        if not (Hashtbl.mem queued id) then begin
          Hashtbl.add queued id ();
          Queue.add id locq
        end;
        incr waiting;
        Metrics.set_max g_waiting_max (float_of_int !waiting)
      end
    in
    (* Sequential path: the surviving successor is still in
       [main.scr].  It is hashed and probed in place — a hit never
       copies the matrix at all; a miss freezes exactly once, into the
       main arena. *)
    let add_scratch s p =
      let scr = main.scr in
      let h = K.Scratch.hash scr in
      add_interned s p
        (Hstore.intern_scratch zstore ~hash:h
           ~equal:(K.Scratch.equal_zone scr)
           ~freeze:(fun () -> K.Scratch.freeze_into ~hash:h arena scr))
    in
    (* Commit path: the speculated zone was frozen on a worker domain,
       into its per-domain arena.  Probe it against the store; only a
       genuine miss is copied into the main arena — the worker arenas
       rewind at the end of the batch. *)
    let add_spec s p z =
      add_interned s p
        (Hstore.intern_scratch zstore ~hash:(K.hash z)
           ~equal:(fun k -> K.equal k z)
           ~freeze:(fun () -> K.copy_into arena z))
    in
    (* The unfinished tail of the batch being drained: the entry under
       expansion plus the ones not yet reached.  Only a mid-batch
       deadline can observe a nonempty tail; it is folded back into the
       snapshot so no committed-but-unexpanded work is lost. *)
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
          let p_keys =
            Array.init (Hstore.length store) (Hstore.key_of_id store)
          in
          let p_cells =
            Array.of_seq
              (Seq.map
                 (fun (id, es) -> (id, !es))
                 (Hashtbl.to_seq cells))
          in
          let base_pending =
            List.of_seq
              (Seq.map (fun (id, es) -> (id, !es)) (Hashtbl.to_seq pending))
          in
          (* Fold the unfinished batch tail back into the frontier. *)
          let pend, q_extra =
            match !batch_left with
            | [] -> (base_pending, [])
            | tail ->
                let id = !batch_loc in
                let merged =
                  match List.assoc_opt id base_pending with
                  | Some es -> (id, tail @ es) :: List.remove_assoc id base_pending
                  | None -> (id, tail) :: base_pending
                in
                (merged, if Hashtbl.mem queued id then [] else [ id ])
          in
          let p_pending = Array.of_list pend in
          let p_locq =
            Array.of_list (q_extra @ List.of_seq (Queue.to_seq locq))
          in
          let snap =
            {
              p_keys;
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
              (Hstore.length store) !edges
          in
          Snapshot.write ~path ~fingerprint:fp ~info
            (Marshal.to_bytes (snap : s snap) []);
          wrote_snapshot := true;
          last_snap := !zone_count;
          Some path
    in
    let restore path =
      let fp_got, info, payload = Snapshot.read path in
      if fp_got <> fp then
        raise
          (Snapshot.Bad_snapshot
             (Printf.sprintf
                "%s: snapshot belongs to a different job\n\
                \  snapshot: %s\n\
                \  this run: %s" path fp_got fp));
      let snap = (Marshal.from_bytes payload 0 : s snap) in
      (* Dense Hstore ids are assigned in insertion order, so re-adding
         the keys in id order reproduces every id exactly. *)
      Array.iter (fun k -> ignore (Hstore.add store k)) snap.p_keys;
      Array.iter
        (fun (id, es) ->
          Hashtbl.replace cells id (ref es);
          (* Re-seed the hash-consing store.  Marshal preserved the
             sharing among stored zones, so structurally equal zones
             are still one pointer and each distinct zone is interned
             once. *)
          List.iter (fun e -> ignore (Hstore.intern zstore e.z)) es)
        snap.p_cells;
      Array.iter
        (fun (id, es) -> Hashtbl.replace pending id (ref es))
        snap.p_pending;
      Array.iter
        (fun id ->
          Queue.add id locq;
          Hashtbl.replace queued id ())
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
      let entries =
        Hashtbl.fold
          (fun id es acc ->
            List.fold_left (fun acc e -> (id, e) :: acc) acc !es)
          cells []
      in
      let entries =
        List.sort (fun (_, e1) (_, e2) -> compare e1.seq e2.seq) entries
      in
      List.iter
        (fun (id, e) ->
          let s, p = Hstore.key_of_id store id in
          inspect p s e.z)
        entries
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
    (* The one successor pipeline, in the paper's MMT encoding of
       (A, b).  [settle] is its tail, shared with the seeds: reset the
       classes that fire or become enabled, free the disabled ones,
       apply the observer clock's operation, let time elapse under the
       enabled classes' invariants [x_C <= b_u(C)], widen.  A seed is a
       successor with [pre = post] and no firing class ([ci = -1]), so
       it frees exactly the disabled classes.  [true] iff the zone left
       in [dc.scr] is nonempty. *)
    let settle dc ~ci pre post y_op =
      let scr = dc.scr in
      for i = 0 to nclasses - 1 do
        if post.(i) then begin
          if ci = i || not pre.(i) then K.Scratch.reset scr (i + 1)
        end
        else K.Scratch.free scr (i + 1)
      done;
      (match (enc.y, y_op) with
      | Some y, `Reset -> K.Scratch.reset scr y
      | Some y, `Free -> K.Scratch.free scr y
      | Some _, `Keep | None, _ -> ());
      K.Scratch.up scr;
      for i = 0 to nclasses - 1 do
        if post.(i) then
          match enc.uppers.(i) with
          | Some b -> K.Scratch.constrain scr (i + 1) 0 b
          | None -> ()
      done;
      widen scr;
      not (K.Scratch.is_empty scr)
    in
    (* One edge [s -act-> s'] out of zone [z]: load, guard
       [x_C >= b_l(C)], observer, then [settle].  On [true] the
       survivor is in [dc.scr] and its phase in [dc.phase] — a field
       rather than a returned pair, so the sequential path allocates
       nothing per edge.  Pure apart from [dc], which is why workers can
       run it; an unsupported observer shape raises. *)
    let successor dc s p pre z (act, gopt, ci) s' =
      let scr = dc.scr in
      K.Scratch.load scr z;
      (match gopt with
      | None -> ()
      | Some (x, b) -> K.Scratch.constrain scr 0 x b);
      (not (K.Scratch.is_empty scr))
      &&
      match observe p s act s' ~sat:dc.sat with
      | Error m -> raise (Unsupported_shape m)
      | Ok (p', y_op) ->
          dc.phase <- p';
          settle dc ~ci pre (enabled_vec dc s') y_op
    in
    let count_edge () =
      incr edges;
      Metrics.incr c_zone_edges;
      check_deadline ()
    in
    let expand s p pre z =
      Array.iter
        (fun ((act, _, _) as g) ->
          List.iter
            (fun s' ->
              count_edge ();
              if successor main s p pre z g s' then add_scratch s' main.phase)
            (a.Ioa.delta s act))
        enc.guards
    in
    (* Parallel path: the same pipeline for one (entry, guard) pair on
       a worker domain, recording outcomes instead of committing them.
       Anything the pipeline raises — a violation witness from
       [observe], an unsupported shape — is captured and re-raised at
       the commit point, in sequential order. *)
    let speculate dc s p pre z ((act, _, _) as g) =
      List.map
        (fun s' ->
          match successor dc s p pre z g s' with
          | true ->
              `Succ (s', dc.phase, K.Scratch.freeze_into dc.spec_arena dc.scr)
          | false -> `Skip
          | exception ex -> `Raised ex)
        (a.Ioa.delta s act)
    in
    (* Sequential-order replay of one speculated edge. *)
    let commit_edge out =
      count_edge ();
      match out with
      | `Skip -> ()
      | `Raised ex -> raise ex
      | `Succ (s', p', z) -> add_spec s' p' z
    in
    let expand_batch_par pl s p pre batch =
      (* Aliveness is sampled twice, exactly like the sequential loop:
         entries dead at pop get no tasks; entries killed by an earlier
         commit of this very batch have their speculation discarded. *)
      let marks = List.map (fun e -> (e, e.alive)) batch in
      let alive = Array.of_list (List.filter (fun e -> e.alive) batch) in
      let ng = Array.length enc.guards in
      let ntasks = Array.length alive * ng in
      let res = Array.make (max ntasks 1) [] in
      Pool.parallel_for pl ~n:ntasks (fun ~domain t ->
          res.(t) <-
            speculate (domain_ctx domain) s p pre
              alive.(t / ng).z
              enc.guards.(t mod ng));
      let ai = ref 0 in
      List.iter
        (fun (e, was_alive) ->
          decr waiting;
          (if was_alive then begin
             let base = !ai * ng in
             incr ai;
             if e.alive then begin
               e.expanded <- true;
               for gi = 0 to ng - 1 do
                 List.iter commit_edge res.(base + gi)
               done
             end
           end);
          pop_batch_left ())
        marks;
      (* Batch boundary: every committed zone was re-homed into the
         main arena, so whatever the workers froze this batch is now
         discarded speculative work — rewind the per-domain arenas. *)
      Array.iter
        (function Some dc -> K.Arena.reset dc.spec_arena | None -> ())
        dctxs
    in
    let result =
      try
        (match resume with
        | Some path -> restore path
        | None ->
            List.iter
              (fun s0 ->
                K.Scratch.load main.scr z_init;
                let v0 = enabled_vec main s0 in
                let p0 = initial_phase s0 in
                let y_op = match p0 with Idle -> `Free | Armed -> `Keep in
                if settle main ~ci:(-1) v0 v0 y_op then add_scratch s0 p0)
              a.Ioa.start);
        while
          boundary_checks ();
          not (Queue.is_empty locq)
        do
          check_deadline ();
          emit_telemetry ();
          let id = Queue.pop locq in
          Hashtbl.remove queued id;
          let batch =
            match Hashtbl.find_opt pending id with
            | Some b ->
                let entries = !b in
                Hashtbl.remove pending id;
                entries
            | None -> []
          in
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
          let s, p = Hstore.key_of_id store id in
          let pre = enabled_vec main s in
          batch_loc := id;
          batch_left := batch;
          (match pool with
          | Some pl when Pool.size pl > 1 -> expand_batch_par pl s p pre batch
          | Some _ | None ->
              List.iter
                (fun e ->
                  decr waiting;
                  (if e.alive then begin
                     e.expanded <- true;
                     expand s p pre e.z
                   end);
                  pop_batch_left ())
                batch)
        done;
        (* The fixpoint was reached: a leftover snapshot — periodic from
           this run, or the one this run resumed from when it doubles as
           the checkpoint path — would only invite resuming a finished
           job, so drop it.  A file at the checkpoint path this run
           neither wrote nor consumed is someone else's and stays. *)
        (match checkpoint with
        | Some (path, _)
          when !wrote_snapshot
               || (match resume with
                  | Some r -> String.equal r path
                  | None -> false) -> (
            try Sys.remove path with Sys_error _ -> ())
        | _ -> ());
        emit_telemetry ~force:true ~ev:"zones.done" ();
        Events.progress_clear ();
        Ok
          {
            locations = Hstore.length store;
            zones = !zone_count;
            edges = !edges;
          }
      with
      | Unsupported_shape m -> Error (`Unsupported m)
      | Budget kind ->
          (* Exhaustion must never masquerade as a verdict: surface the
             partial stats so the caller can report how far the search
             got before the budget ran out — and leave a final snapshot
             behind so none of that work is lost. *)
          let ck = save_snapshot () in
          let partial =
            {
              locations = Hstore.length store;
              zones = !zone_count;
              edges = !edges;
            }
          in
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

  (* [?domains] scopes a pool around one exploration; [domains <= 1]
     (the default) never touches the pool machinery. *)
  let with_domains domains f =
    match domains with
    | Some d when d > 1 -> Pool.run ~domains:d (fun p -> f (Some p))
    | Some _ | None -> f None

  let span_args domains =
    [ ("domains", string_of_int (match domains with Some d -> max 1 d | None -> 1)) ]

  (* The driver shared by the two observer-free checks: no observer
     clock, every phase [Idle], [visit] sees each stored state. *)
  let explore_states ~span ~kind ?limit ?deadline_s ?domains ?checkpoint
      ?resume (a : ('s, 'a) Ioa.t) bm (visit : 's -> unit) =
    Tracing.with_span span ~args:(span_args domains) @@ fun () ->
    let enc = make_enc a bm ~with_observer:false ~cond_bounds:None in
    let fingerprint = fingerprint_of ~kind bm enc in
    match
      with_domains domains @@ fun pool ->
      explore ?limit ?deadline_s ?pool ?checkpoint ?resume ~fingerprint enc
        ~initial_phase:(fun _ -> Idle)
        ~observe:keep_phase
        ~inspect:(fun _ s _ -> visit s)
    with
    | Ok stats -> stats
    | Error (`Unsupported m) -> raise (Open_system m)
    | Error (`Budget e) -> raise (Out_of_budget e)

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    let seen = ref [] in
    let stats =
      explore_states ~span:"zones.reachable" ~kind:"reachable" ?limit
        ?deadline_s ?domains ?checkpoint ?resume a bm (fun s ->
          if not (List.exists (a.Ioa.equal_state s) !seen) then
            seen := s :: !seen)
    in
    (stats, List.rev !seen)

  let check_state_invariant (type s) ?limit ?deadline_s ?domains ?checkpoint
      ?resume (a : (s, _) Ioa.t) bm pred =
    let exception Found of s in
    match
      explore_states ~span:"zones.check_state_invariant" ~kind:"invariant"
        ?limit ?deadline_s ?domains ?checkpoint ?resume a bm (fun s ->
          if not (pred s) then raise (Found s))
    with
    | stats -> Ok stats
    | exception Found s -> Error s

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume
      (a : ('s, 'a) Ioa.t) bm (c : ('s, 'a) Condition.t) =
    Tracing.with_span "zones.check_condition"
      ~args:(("cond", c.Condition.cname) :: span_args domains)
    @@ fun () ->
    let enc =
      make_enc a bm ~with_observer:true ~cond_bounds:(Some c.Condition.bounds)
    in
    let fingerprint = fingerprint_of ~kind:(cond_kind c) bm enc in
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
    let exception Lower in
    let exception Upper in
    let observe p s act s' ~sat =
      let triggered = c.Condition.t_step s act s' in
      let pi = c.Condition.in_pi act in
      match p with
      | Armed when pi ->
          (* Occurrence: too early iff the zone admits y < b_l. *)
          if check_lower && sat y 0 lt_bl then raise Lower;
          if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
      | Armed when triggered ->
          Error
            "trigger fired while armed with a non-Pi action (needs deadline \
             merge)"
      | Armed ->
          if c.Condition.in_s s' then Ok (Idle, `Free) else Ok (Armed, `Keep)
      | Idle -> if triggered then Ok (Armed, `Reset) else Ok (Idle, `Free)
    in
    let inspect p _s z =
      match (p, upper_probe) with
      | Armed, Some probe ->
          (* Violation iff time can pass the deadline while still armed:
             the zone admits y > q, i.e. 0 − y < −q is satisfiable. *)
          if K.sat z 0 y probe then raise Upper
      | Armed, None | Idle, _ -> ()
    in
    match
      with_domains domains @@ fun pool ->
      explore ?limit ?deadline_s ?pool ?checkpoint ?resume ~fingerprint enc
        ~initial_phase:(fun s0 ->
          if c.Condition.t_start s0 then Armed else Idle)
        ~observe ~inspect
    with
    | Ok stats -> Verified stats
    | Error (`Unsupported m) -> Unsupported m
    | Error (`Budget e) -> Unknown e
    | exception Lower -> Lower_violation { locations = 0; zones = 0; edges = 0 }
    | exception Upper -> Upper_violation { locations = 0; zones = 0; edges = 0 }
end

(* The production engine: the packed-int kernel, every job scaled to
   integers by [make_enc].  [Ref] runs the same exploration unscaled on
   exact rationals, so every int-vs-ref differential also checks the
   scaling. *)
module Auto = Make (Dbm_int)
module Ref = Make (Dbm_ref)

(* Paranoid engine: the self-checking kernel, degrading to the
   reference engine when a checked pipeline disagrees.  The degraded
   rerun starts fresh — a snapshot written by the (suspect) int
   kernel must not seed the trustworthy run, so a [limit] given with
   [resume] bounds it from zero — but keeps writing to the caller's
   checkpoint path, so preemption still works after a degrade. *)
module Paranoid : S = struct
  module P = Make (Dbm_paranoid)

  let c_degraded = Metrics.counter "recover.degraded"

  let degrade what fallback f =
    try f () with
    | Tm_recover.Paranoid.Mismatch m ->
        Metrics.incr c_degraded;
        Events.emit "recover.degraded"
          [ ("what", Json.String what); ("mismatch", Json.String m) ];
        Log.warn
          "paranoid %s: int kernel self-check failed (%s) — degrading to \
           the reference kernel"
          what m;
        fallback ()

  let reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm =
    degrade "reachable"
      (fun () -> Ref.reachable ?limit ?deadline_s ?domains ?checkpoint a bm)
      (fun () ->
        P.reachable ?limit ?deadline_s ?domains ?checkpoint ?resume a bm)

  let check_state_invariant ?limit ?deadline_s ?domains ?checkpoint ?resume a
      bm pred =
    degrade "invariant"
      (fun () ->
        Ref.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint a bm
          pred)
      (fun () ->
        P.check_state_invariant ?limit ?deadline_s ?domains ?checkpoint
          ?resume a bm pred)

  let check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm c =
    degrade "condition"
      (fun () ->
        Ref.check_condition ?limit ?deadline_s ?domains ?checkpoint a bm c)
      (fun () ->
        P.check_condition ?limit ?deadline_s ?domains ?checkpoint ?resume a bm
          c)

  let fingerprint_reachable = P.fingerprint_reachable
  let fingerprint_invariant = P.fingerprint_invariant
  let fingerprint_condition = P.fingerprint_condition
end

include Auto
