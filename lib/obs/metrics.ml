module Rational = Tm_base.Rational

(* ------------------------------------------------------------------ *)
(* Domain sinks.

   A metric handle owns one unsynchronized field per writer: the main
   domain keeps writing the plain [cv]/[gv]/histogram fields, and while
   a {!Tm_par.Pool} is live every worker domain writes a private slot
   of the per-handle sink arrays instead (the slot index comes from
   domain-local storage set by the pool at spawn).  No write is ever
   shared between two domains, so updates need no locks; reads
   ({!snapshot}, {!value}, ...) sum main value + slots and are only
   meaningful from the main domain once the workers have been joined.
   Counter totals are therefore exact and deterministic at any domain
   count — which the CI drift guard relies on.

   [par_on] keeps the sequential hot path unchanged: a single ref read
   and branch in front of the one mutable field write. *)

let max_slots = 64

let par_on = ref false
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let domain_slot () = Domain.DLS.get slot_key

let set_domain_slot s =
  if s < 0 || s >= max_slots then invalid_arg "Metrics.set_domain_slot";
  Domain.DLS.set slot_key s

let par_begin () = par_on := true
let par_end () = par_on := false

type counter = {
  cname : string;
  clabels : (string * string) list;
  mutable cv : int;
  cslots : int array;  (* per worker-domain slot; slot 0 unused *)
}

type gauge = {
  gname : string;
  glabels : (string * string) list;
  mutable gv : float;
  gslots : float array;  (* neg_infinity = slot never written *)
}

(* Per-worker histogram sink, allocated lazily by the owning domain. *)
type hsink = {
  kcounts : int array;
  mutable kcount : int;
  mutable ksum : Rational.t;
  mutable ksamples : Rational.t list;
  mutable knsamples : int;
}

type histogram = {
  hname : string;
  hlabels : (string * string) list;
  bounds : Rational.t array;
  counts : int array;  (* length bounds + 1; last bin is overflow *)
  mutable hcount : int;
  mutable hsum : Rational.t;
  mutable samples : Rational.t list;  (* most recent first, capped *)
  mutable nsamples : int;
  hslots : hsink option array;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string * (string * string) list, metric) Hashtbl.t =
  Hashtbl.create 64

(* Registration is rare (handles are module-level) but may happen from
   a worker the first time a labelled variant fires there; the registry
   table itself is therefore lock-protected. *)
let registry_mu = Mutex.create ()

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let sample_cap = 8192

let default_buckets =
  List.map (fun (n, d) -> Rational.make n d)
    [ (1, 8); (1, 4); (1, 2); (1, 1); (2, 1); (4, 1); (8, 1); (16, 1);
      (32, 1); (64, 1); (128, 1) ]

let register key make describe =
  Mutex.lock registry_mu;
  let m =
    match Hashtbl.find_opt registry key with
    | Some m -> m
    | None ->
        ignore describe;
        let m = make () in
        Hashtbl.add registry key m;
        m
  in
  Mutex.unlock registry_mu;
  m

let kind_error name got =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered as a %s" name got)

let counter ?(labels = []) name =
  let labels = norm_labels labels in
  match
    register (name, labels)
      (fun () ->
        C
          {
            cname = name;
            clabels = labels;
            cv = 0;
            cslots = Array.make max_slots 0;
          })
      "counter"
  with
  | C c -> c
  | G _ -> kind_error name "gauge"
  | H _ -> kind_error name "histogram"

let gauge ?(labels = []) name =
  let labels = norm_labels labels in
  match
    register (name, labels)
      (fun () ->
        G
          {
            gname = name;
            glabels = labels;
            gv = 0.;
            gslots = Array.make max_slots neg_infinity;
          })
      "gauge"
  with
  | G g -> g
  | C _ -> kind_error name "counter"
  | H _ -> kind_error name "histogram"

let histogram ?(labels = []) ?(buckets = default_buckets) name =
  let labels = norm_labels labels in
  match
    register (name, labels)
      (fun () ->
        let bounds =
          buckets
          |> List.sort_uniq Rational.compare
          |> Array.of_list
        in
        H
          {
            hname = name;
            hlabels = labels;
            bounds;
            counts = Array.make (Array.length bounds + 1) 0;
            hcount = 0;
            hsum = Rational.zero;
            samples = [];
            nsamples = 0;
            hslots = Array.make max_slots None;
          })
      "histogram"
  with
  | H h -> h
  | C _ -> kind_error name "counter"
  | G _ -> kind_error name "gauge"

(* ------------------------------------------------------------------ *)
(* updates *)

let incr c =
  if not !par_on then c.cv <- c.cv + 1
  else
    let s = Domain.DLS.get slot_key in
    if s = 0 then c.cv <- c.cv + 1 else c.cslots.(s) <- c.cslots.(s) + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone";
  if not !par_on then c.cv <- c.cv + n
  else
    let s = Domain.DLS.get slot_key in
    if s = 0 then c.cv <- c.cv + n else c.cslots.(s) <- c.cslots.(s) + n

let value c = Array.fold_left ( + ) c.cv c.cslots

(* Worker writes to a gauge keep the slot maximum; the merged reading
   is the max across writers, which matches the only parallel gauge use
   (running maxima such as [zones.waiting_max]). *)
let set g v =
  if not !par_on then g.gv <- v
  else
    let s = Domain.DLS.get slot_key in
    if s = 0 then g.gv <- v
    else if v > g.gslots.(s) then g.gslots.(s) <- v

let set_max g v =
  if not !par_on then (if v > g.gv then g.gv <- v)
  else
    let s = Domain.DLS.get slot_key in
    if s = 0 then (if v > g.gv then g.gv <- v)
    else if v > g.gslots.(s) then g.gslots.(s) <- v

let gauge_value g = Array.fold_left Float.max g.gv g.gslots

let bucket_index bounds q =
  (* first bound >= q, else the overflow bin *)
  let n = Array.length bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Rational.(bounds.(mid) >= q) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let hsink_of h s =
  match h.hslots.(s) with
  | Some k -> k
  | None ->
      let k =
        {
          kcounts = Array.make (Array.length h.counts) 0;
          kcount = 0;
          ksum = Rational.zero;
          ksamples = [];
          knsamples = 0;
        }
      in
      h.hslots.(s) <- Some k;
      k

let observe h q =
  let s = if !par_on then Domain.DLS.get slot_key else 0 in
  if s = 0 then begin
    let i = bucket_index h.bounds q in
    h.counts.(i) <- h.counts.(i) + 1;
    h.hcount <- h.hcount + 1;
    h.hsum <- Rational.add h.hsum q;
    if h.nsamples < sample_cap then begin
      h.samples <- q :: h.samples;
      h.nsamples <- h.nsamples + 1
    end
  end
  else begin
    let k = hsink_of h s in
    let i = bucket_index h.bounds q in
    k.kcounts.(i) <- k.kcounts.(i) + 1;
    k.kcount <- k.kcount + 1;
    k.ksum <- Rational.add k.ksum q;
    if k.knsamples < sample_cap then begin
      k.ksamples <- q :: k.ksamples;
      k.knsamples <- k.knsamples + 1
    end
  end

let observe_seconds h s =
  let us = int_of_float (Float.round (s *. 1e6)) in
  observe h (Rational.make us 1_000_000)

let quantile_of_samples ~who samples p =
  if p < 0.0 || p > 1.0 then invalid_arg who;
  match List.sort Rational.compare samples with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      let rank =
        Stdlib.min (n - 1)
          (Stdlib.max 0 (int_of_float (ceil (p *. float_of_int n)) - 1))
      in
      Some (List.nth sorted rank)

(* Merged view of a histogram: main fields plus every worker sink. *)
let all_samples h =
  Array.fold_left
    (fun acc k ->
      match k with None -> acc | Some k -> List.rev_append k.ksamples acc)
    h.samples h.hslots

let quantile h p =
  quantile_of_samples ~who:"Metrics.quantile" (all_samples h) p

(* ------------------------------------------------------------------ *)
(* snapshots *)

type hist_snapshot = {
  count : int;
  sum : Rational.t;
  buckets : (Rational.t * int) list;
  overflow : int;
  quantiles : (string * Rational.t) list;
}

type value_snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

type entry = {
  name : string;
  labels : (string * string) list;
  value : value_snapshot;
}

type snapshot = entry list

let hist_snapshot h =
  let nb = Array.length h.bounds in
  let counts = Array.copy h.counts in
  let count = ref h.hcount in
  let sum = ref h.hsum in
  Array.iter
    (function
      | None -> ()
      | Some k ->
          Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) k.kcounts;
          count := !count + k.kcount;
          sum := Rational.add !sum k.ksum)
    h.hslots;
  let cum = ref 0 in
  let buckets =
    List.init nb (fun i ->
        cum := !cum + counts.(i);
        (h.bounds.(i), !cum))
  in
  let quantiles =
    if !count = 0 then []
    else
      let samples = all_samples h in
      List.filter_map
        (fun (lbl, p) ->
          match quantile_of_samples ~who:"Metrics.quantile" samples p with
          | Some q -> Some (lbl, q)
          | None -> None)
        [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99) ]
  in
  {
    count = !count;
    sum = !sum;
    buckets;
    overflow = counts.(nb);
    quantiles;
  }

let compare_entry a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else compare a.labels b.labels

let snapshot () =
  Hashtbl.fold
    (fun _ m acc ->
      let e =
        match m with
        | C c ->
            { name = c.cname; labels = c.clabels; value = Counter_v (value c) }
        | G g ->
            {
              name = g.gname;
              labels = g.glabels;
              value = Gauge_v (gauge_value g);
            }
        | H h ->
            {
              name = h.hname;
              labels = h.hlabels;
              value = Histogram_v (hist_snapshot h);
            }
      in
      e :: acc)
    registry []
  |> List.sort compare_entry

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c ->
          c.cv <- 0;
          Array.fill c.cslots 0 max_slots 0
      | G g ->
          g.gv <- 0.;
          Array.fill g.gslots 0 max_slots neg_infinity
      | H h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.hcount <- 0;
          h.hsum <- Rational.zero;
          h.samples <- [];
          h.nsamples <- 0;
          Array.fill h.hslots 0 max_slots None)
    registry

let find snap ?(labels = []) name =
  let labels = norm_labels labels in
  List.find_map
    (fun e ->
      if String.equal e.name name && e.labels = labels then Some e.value
      else None)
    snap

let counter_total snap name =
  List.fold_left
    (fun acc e ->
      match e.value with
      | Counter_v v when String.equal e.name name -> acc + v
      | _ -> acc)
    0 snap

let equal_hist a b =
  a.count = b.count
  && Rational.equal a.sum b.sum
  && a.overflow = b.overflow
  && List.length a.buckets = List.length b.buckets
  && List.for_all2
       (fun (b1, c1) (b2, c2) -> Rational.equal b1 b2 && c1 = c2)
       a.buckets b.buckets
  && List.length a.quantiles = List.length b.quantiles
  && List.for_all2
       (fun (l1, q1) (l2, q2) -> String.equal l1 l2 && Rational.equal q1 q2)
       a.quantiles b.quantiles

let equal_value a b =
  match (a, b) with
  | Counter_v x, Counter_v y -> x = y
  | Gauge_v x, Gauge_v y -> Float.equal x y
  | Histogram_v x, Histogram_v y -> equal_hist x y
  | _ -> false

let equal_snapshot a b =
  List.length a = List.length b
  && List.for_all2
       (fun e1 e2 ->
         String.equal e1.name e2.name
         && e1.labels = e2.labels
         && equal_value e1.value e2.value)
       a b

(* ------------------------------------------------------------------ *)
(* pretty printing *)

let pp_labels fmt = function
  | [] -> ()
  | labels ->
      Format.fprintf fmt "{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

let pp fmt snap =
  let counters, gauges, hists =
    List.fold_left
      (fun (cs, gs, hs) e ->
        match e.value with
        | Counter_v _ -> (e :: cs, gs, hs)
        | Gauge_v _ -> (cs, e :: gs, hs)
        | Histogram_v _ -> (cs, gs, e :: hs))
      ([], [], []) (List.rev snap)
  in
  let header title = Format.fprintf fmt "%s:@." title in
  if counters <> [] then begin
    header "counters";
    List.iter
      (fun e ->
        match e.value with
        | Counter_v v ->
            Format.fprintf fmt "  %-44s %12d@."
              (Format.asprintf "%s%a" e.name pp_labels e.labels)
              v
        | _ -> ())
      counters
  end;
  if gauges <> [] then begin
    header "gauges";
    List.iter
      (fun e ->
        match e.value with
        | Gauge_v v ->
            Format.fprintf fmt "  %-44s %12g@."
              (Format.asprintf "%s%a" e.name pp_labels e.labels)
              v
        | _ -> ())
      gauges
  end;
  if hists <> [] then begin
    header "histograms";
    List.iter
      (fun e ->
        match e.value with
        | Histogram_v h ->
            let q lbl =
              match List.assoc_opt lbl h.quantiles with
              | Some v -> Rational.to_string v
              | None -> "-"
            in
            Format.fprintf fmt "  %-44s n=%d sum=%s p50=%s p90=%s@."
              (Format.asprintf "%s%a" e.name pp_labels e.labels)
              h.count
              (Rational.to_string h.sum)
              (q "p50") (q "p90")
        | _ -> ())
      hists
  end

(* ------------------------------------------------------------------ *)
(* JSON export / import *)

let labels_to_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let entry_to_json e =
  let common kind rest =
    Json.Obj
      (("kind", Json.String kind)
      :: ("name", Json.String e.name)
      :: ("labels", labels_to_json e.labels)
      :: rest)
  in
  match e.value with
  | Counter_v v -> common "counter" [ ("value", Json.Int v) ]
  | Gauge_v v -> common "gauge" [ ("value", Json.Float v) ]
  | Histogram_v h ->
      common "histogram"
        [
          ("count", Json.Int h.count);
          ("sum", Json.String (Rational.to_string h.sum));
          ( "buckets",
            Json.List
              (List.map
                 (fun (b, c) ->
                   Json.Obj
                     [
                       ("le", Json.String (Rational.to_string b));
                       ("count", Json.Int c);
                     ])
                 h.buckets) );
          ("overflow", Json.Int h.overflow);
          ( "quantiles",
            Json.Obj
              (List.map
                 (fun (l, q) -> (l, Json.String (Rational.to_string q)))
                 h.quantiles) );
        ]

let to_json snap =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("metrics", Json.List (List.map entry_to_json snap));
    ]

let ( let* ) r k = Result.bind r k

let req what = function Some v -> Ok v | None -> Error ("missing " ^ what)

let rational_of_json what j =
  let* s = req what (Json.string_opt j) in
  match Rational.of_string s with
  | q -> Ok q
  | exception Invalid_argument _ -> Error ("bad rational in " ^ what)

let labels_of_json = function
  | Json.Obj kvs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, Json.String v) :: rest -> go ((k, v) :: acc) rest
        | _ -> Error "labels must be an object of strings"
      in
      go [] kvs
  | _ -> Error "labels must be an object"

let entry_of_json j =
  let* kind = req "kind" (Option.bind (Json.member "kind" j) Json.string_opt) in
  let* name = req "name" (Option.bind (Json.member "name" j) Json.string_opt) in
  let* labels =
    match Json.member "labels" j with
    | Some l -> labels_of_json l
    | None -> Ok []
  in
  let* value =
    match kind with
    | "counter" ->
        let* v =
          req "value" (Option.bind (Json.member "value" j) Json.int_opt)
        in
        Ok (Counter_v v)
    | "gauge" ->
        let* v =
          req "value" (Option.bind (Json.member "value" j) Json.float_opt)
        in
        Ok (Gauge_v v)
    | "histogram" ->
        let* count =
          req "count" (Option.bind (Json.member "count" j) Json.int_opt)
        in
        let* sum =
          match Json.member "sum" j with
          | Some s -> rational_of_json "sum" s
          | None -> Error "missing sum"
        in
        let* bucket_items =
          req "buckets"
            (Option.bind (Json.member "buckets" j) Json.to_list_opt)
        in
        let* buckets =
          List.fold_left
            (fun acc b ->
              let* acc = acc in
              let* le =
                match Json.member "le" b with
                | Some s -> rational_of_json "le" s
                | None -> Error "missing le"
              in
              let* c =
                req "bucket count"
                  (Option.bind (Json.member "count" b) Json.int_opt)
              in
              Ok ((le, c) :: acc))
            (Ok []) bucket_items
        in
        let* overflow =
          req "overflow" (Option.bind (Json.member "overflow" j) Json.int_opt)
        in
        let* quantiles =
          match Json.member "quantiles" j with
          | Some (Json.Obj kvs) ->
              List.fold_left
                (fun acc (l, v) ->
                  let* acc = acc in
                  let* q = rational_of_json ("quantile " ^ l) v in
                  Ok ((l, q) :: acc))
                (Ok []) kvs
              |> Result.map List.rev
          | Some _ -> Error "quantiles must be an object"
          | None -> Ok []
        in
        Ok
          (Histogram_v
             {
               count;
               sum;
               buckets = List.rev buckets;
               overflow;
               quantiles;
             })
    | other -> Error (Printf.sprintf "unknown metric kind %S" other)
  in
  Ok { name; labels; value }

let of_json j =
  let* items =
    req "metrics" (Option.bind (Json.member "metrics" j) Json.to_list_opt)
  in
  let* entries =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* e = entry_of_json item in
        Ok (e :: acc))
      (Ok []) items
  in
  Ok (List.rev entries)
