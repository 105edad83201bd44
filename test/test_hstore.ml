module Hstore = Tm_base.Hstore

let make () = Hstore.create ~equal:String.equal ~hash:Hashtbl.hash 4

let test_add_find () =
  let s = make () in
  Alcotest.(check int) "empty" 0 (Hstore.length s);
  (match Hstore.add s "a" with
  | `Added 0 -> ()
  | _ -> Alcotest.fail "first id should be 0");
  (match Hstore.add s "b" with
  | `Added 1 -> ()
  | _ -> Alcotest.fail "second id should be 1");
  (match Hstore.add s "a" with
  | `Present 0 -> ()
  | _ -> Alcotest.fail "re-add should be Present 0");
  Alcotest.(check int) "length" 2 (Hstore.length s);
  Alcotest.(check (option int)) "find a" (Some 0) (Hstore.find s "a");
  Alcotest.(check (option int)) "find missing" None (Hstore.find s "zz")

let test_key_of_id () =
  let s = make () in
  ignore (Hstore.add s "x");
  ignore (Hstore.add s "y");
  Alcotest.(check string) "key 0" "x" (Hstore.key_of_id s 0);
  Alcotest.(check string) "key 1" "y" (Hstore.key_of_id s 1);
  Alcotest.check_raises "bad id" (Invalid_argument "Hstore.key_of_id")
    (fun () -> ignore (Hstore.key_of_id s 5))

let test_iter_order () =
  let s = make () in
  List.iter (fun k -> ignore (Hstore.add s k)) [ "p"; "q"; "r" ];
  Alcotest.(check (list string)) "to_list in id order" [ "p"; "q"; "r" ]
    (Hstore.to_list s);
  let acc = ref [] in
  Hstore.iter (fun id k -> acc := (id, k) :: !acc) s;
  Alcotest.(check (list (pair int string)))
    "iter order" [ (0, "p"); (1, "q"); (2, "r") ] (List.rev !acc)

let test_collisions () =
  (* constant hash forces every key into one bucket *)
  let s = Hstore.create ~equal:Int.equal ~hash:(fun _ -> 42) 4 in
  for i = 0 to 99 do
    match Hstore.add s i with
    | `Added id when id = i -> ()
    | _ -> Alcotest.fail "dense ids under collisions"
  done;
  for i = 0 to 99 do
    Alcotest.(check (option int)) "find under collisions" (Some i)
      (Hstore.find s i)
  done

let test_growth () =
  let s = make () in
  for i = 0 to 999 do
    ignore (Hstore.add s (string_of_int i))
  done;
  Alcotest.(check int) "length 1000" 1000 (Hstore.length s);
  Alcotest.(check string) "key 999" "999" (Hstore.key_of_id s 999)

let test_intern () =
  let s = make () in
  let a = String.init 3 (fun i -> Char.chr (97 + i)) in
  let b = String.init 3 (fun i -> Char.chr (97 + i)) in
  Alcotest.(check bool) "distinct copies" false (a == b);
  (* first intern keeps the argument as canonical representative *)
  Alcotest.(check bool) "first is canonical" true (Hstore.intern s a == a);
  (* a structurally equal key maps back to the stored representative *)
  Alcotest.(check bool) "second maps to first" true (Hstore.intern s b == a);
  Alcotest.(check int) "one entry" 1 (Hstore.length s);
  let c = "xyz" in
  Alcotest.(check bool) "fresh key canonical" true (Hstore.intern s c == c);
  Alcotest.(check int) "two entries" 2 (Hstore.length s)

(* Model test: a store against an association list in insertion order,
   under hash functions that collide, go negative or sit at the ends of
   the int range.  Keys are fresh strings, so the canonical
   representative [intern] returns is checked by physical equality; up
   to 300 distinct keys take a store created with size 1 (16 slots)
   through as many as six growths of its slot array. *)
type op = Add of int | Find of int | Intern of int | Scratch of int

let hashes =
  [|
    ("constant", fun _ -> 7);
    ("negative", fun k -> -1 - (k mod 5));
    ("min_int/max_int", fun k -> if k land 1 = 0 then min_int else max_int);
    ( "extremes mixed",
      fun k -> if k mod 3 = 0 then min_int + k else max_int - k );
    ("identity", Fun.id);
  |]

let print_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Intern k -> Printf.sprintf "intern %d" k
  | Scratch k -> Printf.sprintf "scratch %d" k

let gen_script =
  QCheck2.Gen.(
    pair
      (int_range 0 (Array.length hashes - 1))
      (list_size (int_range 0 600)
         (map2
            (fun tag k ->
              match tag with
              | 0 -> Add k
              | 1 -> Find k
              | 2 -> Intern k
              | _ -> Scratch k)
            (int_range 0 3) (int_range 0 299))))

let print_script (h, ops) =
  Printf.sprintf "hash=%s [%s]" (fst hashes.(h))
    (String.concat "; " (List.map print_op ops))

let model_agrees (h, ops) =
  let hk = snd hashes.(h) in
  let hash s = hk (int_of_string s) in
  let t = Hstore.create ~equal:String.equal ~hash 1 in
  (* the model: stored representatives, newest first; id = position
     counted from the oldest *)
  let model = ref [] in
  let n = ref 0 in
  let lookup k =
    let rec go i = function
      | [] -> None
      | r :: rest -> if String.equal r k then Some (i, r) else go (i - 1) rest
    in
    go (!n - 1) !model
  in
  (* [string_of_int] returns a fresh string on every call *)
  let fresh = string_of_int in
  let store k =
    model := k :: !model;
    incr n;
    true
  in
  let step op =
    match op with
    | Add k -> (
        let key = fresh k in
        match (lookup key, Hstore.add t key) with
        | Some (i, _), `Present j -> i = j
        | None, `Added j -> j = !n && store key
        | _ -> false)
    | Find k -> (
        let key = fresh k in
        match (lookup key, Hstore.find t key) with
        | Some (i, _), Some j -> i = j
        | None, None -> true
        | _ -> false)
    | Intern k -> (
        let key = fresh k in
        let got = Hstore.intern t key in
        match lookup key with
        | Some (_, r) -> got == r
        | None -> got == key && store key)
    | Scratch k -> (
        let key = fresh k in
        let frozen = ref 0 in
        let res =
          Hstore.intern_scratch t ~hash:(hash key)
            ~equal:(String.equal key)
            ~freeze:(fun () ->
              incr frozen;
              key)
        in
        match (lookup key, res) with
        | Some (_, r), `Hit got -> got == r && !frozen = 0
        | None, `Miss got -> got == key && !frozen = 1 && store key
        | _ -> false)
  in
  List.for_all step ops
  && Hstore.length t = !n
  && Hstore.to_list t = List.rev !model
  && List.for_all2
       (fun id k -> Hstore.key_of_id t id == k)
       (List.init !n Fun.id) (List.rev !model)

let test_foreign_domain () =
  let s = make () in
  ignore (Hstore.add s "a");
  let raised f =
    Domain.join
      (Domain.spawn (fun () ->
           match f () with
           | _ -> false
           | exception Invalid_argument _ -> true))
  in
  Alcotest.(check bool) "find from another domain raises" true
    (raised (fun () -> ignore (Hstore.find s "a")));
  Alcotest.(check bool) "add from another domain raises" true
    (raised (fun () -> ignore (Hstore.add s "b")));
  Alcotest.(check bool) "intern_scratch from another domain raises" true
    (raised (fun () ->
         ignore
           (Hstore.intern_scratch s ~hash:0 ~equal:(fun _ -> false)
              ~freeze:(fun () -> "c"))));
  Alcotest.(check int) "store untouched" 1 (Hstore.length s)

let suite =
  [
    Alcotest.test_case "add/find" `Quick test_add_find;
    Alcotest.test_case "intern" `Quick test_intern;
    Alcotest.test_case "key_of_id" `Quick test_key_of_id;
    Alcotest.test_case "iter order" `Quick test_iter_order;
    Alcotest.test_case "hash collisions" `Quick test_collisions;
    Alcotest.test_case "growth" `Quick test_growth;
    Gen.check_holds "model: assoc list, colliding and extreme hashes"
      ~count:300 ~print:print_script gen_script model_agrees;
    Alcotest.test_case "use from another domain raises" `Quick
      test_foreign_domain;
  ]
