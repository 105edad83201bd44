module Metrics = Tm_obs.Metrics
module Tracing = Tm_obs.Tracing
module Events = Tm_obs.Events
module Json = Tm_obs.Json

let c_tasks = Metrics.counter "par.tasks"
let g_domains = Metrics.gauge "par.domains"

type t = {
  size : int;  (* participating domains, including the caller *)
  owner : bool;  (* this pool holds the process-wide active slot *)
  mutable tasks : int;  (* chunks run so far; caller's domain only *)
}

(* At most one real pool at a time: a nested or concurrent [create]
   degrades to an inline size-1 pool rather than oversubscribing the
   machine or reusing Metrics slots. *)
let active = Atomic.make false

let inline () = { size = 1; owner = false; tasks = 0 }
let size p = p.size

let create ?(domains = 1) () =
  let n = max 1 (min domains Metrics.max_slots) in
  if n > 1 && Atomic.compare_and_set active false true then begin
    Metrics.par_begin ();
    { size = n; owner = true; tasks = 0 }
  end
  else inline ()

let shutdown p =
  if p.owner then begin
    Metrics.par_end ();
    Atomic.set active false;
    Metrics.add c_tasks p.tasks;
    Metrics.set_max g_domains (float_of_int p.size);
    Events.emit "par.pool"
      [ ("domains", Json.Int p.size); ("tasks", Json.Int p.tasks) ]
  end

let run ?(domains = 1) f =
  let p = create ~domains () in
  if p.size = 1 then Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
  else
    Tracing.with_span "par.pool"
      ~args:[ ("domains", string_of_int p.size) ]
      (fun () -> Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p))

(* One fan-out: [size - 1] fresh domains and the caller take chunks off
   one atomic index until none is left, then the caller joins them.
   The callers run one [parallel_for] per pool, so spawning per call
   costs nothing a standing worker set would save. *)
let parallel_for p ~n body =
  if p.size = 1 || n <= 1 then
    for i = 0 to n - 1 do
      body i
    done
  else begin
    let nchunks = min n (p.size * 4) in
    let chunk = (n + nchunks - 1) / nchunks in
    let next = Atomic.make 0 in
    let err : exn option Atomic.t = Atomic.make None in
    let rec drain () =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks then begin
        (try
           for i = c * chunk to min (((c + 1) * chunk) - 1) (n - 1) do
             body i
           done
         with e -> ignore (Atomic.compare_and_set err None (Some e)));
        drain ()
      end
    in
    let workers =
      Array.init
        (min p.size nchunks - 1)
        (fun k ->
          Domain.spawn (fun () ->
              Metrics.set_domain_slot (k + 1);
              drain ()))
    in
    drain ();
    Array.iter Domain.join workers;
    p.tasks <- p.tasks + nchunks;
    match Atomic.get err with Some e -> raise e | None -> ()
  end

let map_array p f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for p ~n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list p f xs = Array.to_list (map_array p f (Array.of_list xs))
