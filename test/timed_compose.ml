module Ioa = Tm_ioa.Ioa
module Compose = Tm_ioa.Compose
module Boundmap = Tm_timed.Boundmap

let check_covers (a : ('s, 'a) Ioa.t) bm =
  match Boundmap.covers bm a with
  | Ok () -> ()
  | Error m ->
      invalid_arg ("Timed_compose: component boundmap incomplete: " ^ m)

let union_boundmaps b1 b2 =
  List.fold_left
    (fun acc c -> Boundmap.add acc c (Boundmap.find b2 c))
    b1 (Boundmap.classes b2)

let binary ~name (a1, b1) (a2, b2) =
  check_covers a1 b1;
  check_covers a2 b2;
  let composed = Compose.binary ~name a1 a2 in
  (composed, union_boundmaps b1 b2)

let array ~name components =
  Array.iter (fun (a, b) -> check_covers a b) components;
  let composed = Compose.array ~name (Array.map fst components) in
  let bm =
    Array.fold_left
      (fun acc (_, b) ->
        match acc with
        | None -> Some b
        | Some acc -> Some (union_boundmaps acc b))
      None components
  in
  match bm with
  | Some bm -> (composed, bm)
  | None -> invalid_arg "Timed_compose.array: empty composition"
