(** What every parallel consumer shares: the core count, the process
    stop flag, per-job seeds, the outcome type, and the telemetry merge.

    The fault campaign and the SEC portfolio are embarrassingly
    parallel: independent mutants, independent solving strategies.
    Both run on the one executor, {!Dpool}; this module holds the parts
    of its contract that callers name without running anything.

    {2 Determinism}

    Job outcomes must depend only on the job itself, never on which
    worker ran it or how many there are: results are returned in input
    order, and {!job_seed} derives a per-job PRNG seed from the job
    {e index}, so a campaign's verdicts are identical under any job
    count. *)

val cores : unit -> int
(** Number of CPU cores available to this process (>= 1). *)

val request_stop : unit -> unit
(** Set the process-wide cooperative stop flag (safe to call from a
    signal handler; it is {!Dfv_sat.Stop.request}).  Jobs in flight
    stop at their next poll, no further job starts, and unfinished jobs
    surface as [Error (Interrupted _)] — the caller flushes its
    {!Journal} and exits with the "interrupted, resumable" code. *)

val stop_requested : unit -> bool
val reset_stop : unit -> unit

val merge_telemetry : ?label:string -> job:int -> Dfv_obs.Json.t -> unit
(** Merge one job's telemetry payload (the
    [{"metrics";"trace";"coverage"}] object a {!Dpool} worker hands
    back) into the process-wide sinks — counters summed, gauges
    max-of-high-water, histogram buckets and coverage bins summed,
    spans re-based into the caller's trace — counting
    [pool.telemetry.shipped] and [pool.telemetry.errors].  [label]
    names the worker's trace lane.  Merge failures are observable but
    never raise. *)

val job_seed : seed:int -> int -> int
(** [job_seed ~seed i] mixes the campaign seed with job index [i] into
    a well-spread per-job seed (a splitmix64-style finalizer), the same
    value no matter how jobs are partitioned across workers. *)

type 'r outcome = ('r, Dfv_core.Dfv_error.t) result

val map_outcomes :
  ?label:(int -> string) -> 'r outcome option array -> 'r outcome list
(** A map's result: the outcomes in input order, each job left [None]
    reported as [Error (Interrupted _)].  A job is left [None] when it
    stopped at a poll before its deadline, or never started; a map
    cancels nothing, so that takes {!request_stop}. *)
