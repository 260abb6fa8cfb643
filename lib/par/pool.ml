module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage

let cores () = max 1 (Domain.recommended_domain_count ())

(* --- cooperative interruption ------------------------------------------ *)

(* The process-wide flag, set from the CLI's SIGINT/SIGTERM handlers.  It
   lives beside the stop tokens in {!Dfv_sat.Stop}, which every pooled
   job's token reads, so a stop reaches jobs in flight at their next
   poll as well as the executor's scheduling loop. *)
let request_stop = Dfv_sat.Stop.request
let stop_requested = Dfv_sat.Stop.requested
let reset_stop = Dfv_sat.Stop.reset

let m_telemetry_shipped = Metrics.counter "pool.telemetry.shipped"
let m_telemetry_errors = Metrics.counter "pool.telemetry.errors"

(* splitmix64-style finalizer over (seed, index), truncated to OCaml's
   63-bit int.  The point is not cryptography but spread: neighbouring
   job indices must yield uncorrelated PRNG seeds, and the value must be
   a pure function of (seed, index) so partitioning cannot change it. *)
let job_seed ~seed i =
  let z = ref (seed * 0x9E3779B9 + (i + 1) * 0xBF58476D) in
  z := (!z lxor (!z lsr 30)) * 0xBF58476D1CE4E5;
  z := (!z lxor (!z lsr 27)) * 0x94D049BB133111;
  abs (!z lxor (!z lsr 31))

type 'r outcome = ('r, Dfv_error.t) result

(* A map's result.  A map cancels nothing, so an outcome left [None] is
   a job the stop flag kept from finishing. *)
let map_outcomes ?(label = string_of_int) outcomes =
  Array.to_list outcomes
  |> List.mapi (fun i o ->
         match o with
         | Some o -> o
         | None -> Error (Dfv_error.Interrupted { job = label i }))

(* Merge one job's telemetry into the process sinks.  Merge failures are
   observable (pool.telemetry.errors) but never fail the job — a
   campaign's verdicts must not depend on bookkeeping. *)
let merge_telemetry ?label ~job v =
  let saw_error = ref false in
  let note = function
    | Ok () -> ()
    | Error _ -> saw_error := true
  in
  (match Json.field "metrics" v with
  | Some m -> note (Metrics.merge m)
  | None -> ());
  (match Json.field "trace" v with
  | Some Json.Null | None -> ()
  | Some t -> note (Trace.absorb ?label ~job t));
  (match Json.field "coverage" v with
  | Some c -> note (Coverage.merge c)
  | None -> ());
  Metrics.incr m_telemetry_shipped;
  if !saw_error then Metrics.incr m_telemetry_errors
