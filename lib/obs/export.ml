module Rational = Tm_base.Rational

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition format *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k)
                 (escape_label_value v))
             labels)
      ^ "}"

(* %.17g prints the shortest float that still round-trips; integral
   values come out without an exponent for small magnitudes, which is
   what scrapers expect for counters. *)
let render_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_prometheus snap =
  let b = Buffer.create 1024 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.add typed name ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun e ->
      let name = sanitize e.Metrics.name in
      let ls = render_labels e.Metrics.labels in
      match e.Metrics.value with
      | Metrics.Counter_v v ->
          type_line name "counter";
          Buffer.add_string b (Printf.sprintf "%s%s %d\n" name ls v)
      | Metrics.Gauge_v v ->
          type_line name "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" name ls (render_float v))
      | Metrics.Histogram_v h ->
          type_line name "histogram";
          let bucket le count =
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{%sle=\"%s\"} %d\n" name
                 (match e.Metrics.labels with
                 | [] -> ""
                 | labels ->
                     String.concat ""
                       (List.map
                          (fun (k, v) ->
                            Printf.sprintf "%s=\"%s\"," (sanitize k)
                              (escape_label_value v))
                          labels))
                 le count)
          in
          List.iter
            (fun (bound, cum) ->
              bucket (render_float (Rational.to_float bound)) cum)
            h.Metrics.buckets;
          bucket "+Inf" h.Metrics.count;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" name ls
               (render_float (Rational.to_float h.Metrics.sum)));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" name ls h.Metrics.count))
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* snapshot diff — the bench-diff engine *)

type drift = {
  dname : string;
  dlabels : (string * string) list;
  dwhat : string;
}

let pp_drift fmt d =
  let ls =
    match d.dlabels with
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
        ^ "}"
  in
  Format.fprintf fmt "%s%s: %s" d.dname ls d.dwhat

let describe_value = function
  | Metrics.Counter_v v -> string_of_int v
  | Metrics.Gauge_v v -> Printf.sprintf "%g" v
  | Metrics.Histogram_v h ->
      Printf.sprintf "histogram(count=%d,sum=%s)" h.Metrics.count
        (Rational.to_string h.Metrics.sum)

let is_zero = function
  | Metrics.Counter_v 0 -> true
  | Metrics.Gauge_v v -> v = 0.
  | Metrics.Histogram_v h -> h.Metrics.count = 0
  | Metrics.Counter_v _ -> false

let diff ?(ignore_prefixes = []) ~baseline ~current () =
  let ignored name =
    List.exists
      (fun p ->
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p)
      ignore_prefixes
  in
  let key e = (e.Metrics.name, e.Metrics.labels) in
  let index snap =
    let tbl = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace tbl (key e) e) snap;
    tbl
  in
  let old_t = index baseline and new_t = index current in
  let keys =
    List.sort_uniq compare
      (List.map key baseline @ List.map key current)
  in
  List.filter_map
    (fun ((name, labels) as k) ->
      if ignored name then None
      else
        match (Hashtbl.find_opt old_t k, Hashtbl.find_opt new_t k) with
        | Some _, None ->
            Some
              { dname = name; dlabels = labels;
                dwhat = "present in baseline, missing from current" }
        | None, Some e when is_zero e.Metrics.value -> None
        | None, Some e ->
            Some
              { dname = name; dlabels = labels;
                dwhat =
                  Printf.sprintf "new metric with nonzero value %s"
                    (describe_value e.Metrics.value) }
        | Some old_e, Some new_e
          when not (Metrics.equal_snapshot [ old_e ] [ new_e ]) ->
            Some
              { dname = name; dlabels = labels;
                dwhat =
                  Printf.sprintf "baseline %s, current %s"
                    (describe_value old_e.Metrics.value)
                    (describe_value new_e.Metrics.value) }
        | Some _, Some _ -> None
        | None, None -> None)
    keys
