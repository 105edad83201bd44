(* The mapping whose image is everything (identity on base state and
   current time is still enforced by the checkers). *)
let full_relation =
  { Mapping.mname = "full relation"; contains = (fun _ _ -> true) }

let check ?params ~source ~target () =
  Tm_obs.Tracing.with_span "refinement.check" @@ fun () ->
  Mapping.check_exhaustive ?params ~source
    ~levels:[ { Mapping.target; map = full_relation } ]
    ()
  |> Result.map_error (fun e -> e.Mapping.failure)
