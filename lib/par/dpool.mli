(** An in-process work-stealing executor on OCaml 5 domains, plus the
    adaptive dispatcher that picks between it and the fork {!Pool}.

    The fork pool buys crash isolation and preemptive timeouts at the
    price of a [fork], a pipe, and JSON serialization {e per job} — a
    price that exceeds the job itself for short work (per-mutant
    campaign runs, shallow BMC frame shards), which is exactly the
    regression [BENCH_PAR_SPEEDUP.json] recorded.  This executor runs
    the same jobs on worker {e domains} in shared memory: results pass
    by reference, job closures by capture, and the only per-job cost is
    a mutex-guarded deque pop.

    {2 Scheduling}

    Job indices are dealt round-robin onto per-worker deques at start;
    each worker pops its own deque from one end and, when empty, steals
    from the other end of a sibling's (visible as
    [pool.domains.steals]).  At most [min jobs cores] worker domains
    run — domains beyond the core count only contend.  The coordinating
    domain merges telemetry and fires [?on_result] in completion order,
    exactly like the fork parent.

    {2 Determinism}

    Outcomes are returned in input order and job seeds remain
    {!Pool.job_seed} of the job {e index}, so a campaign's verdicts are
    byte-identical across job counts {e and} across executors — the
    cross-executor gate of the parity tests.

    {2 Telemetry and isolation}

    Each job runs with all three {!Dfv_obs} sinks domain-isolated
    ({!Dfv_obs.Metrics.isolate_domain} and friends), so its metrics,
    spans and coverage are a clean delta, shipped to the coordinator as
    the same [{"metrics";"trace";"coverage"}] payload the fork protocol
    uses and merged through {!Pool.merge_telemetry} — trace lanes are
    tagged ["dfv domain N"] instead of ["dfv worker <pid>"].

    {2 What domains do not give you}

    No crash isolation: a segfaulting C stub or an OOM kill takes the
    whole process down (exceptions, including stack overflow mapped by
    {!Dfv_core.Dfv_error.guard}, are contained as [Error] outcomes).
    No preemptive timeout: a domain cannot be killed, so there is no
    [?timeout] here, and cancellation ({!race} losers, {!Pool.request_stop})
    is cooperative at job granularity — in-flight jobs finish, undealt
    jobs are never started.  Workloads needing either property belong
    on the fork pool; [`Auto] dispatch routes them there.

    {2 The fork/domains one-way door}

    OCaml 5 forbids [Unix.fork] in any process that has ever spawned a
    domain, even after every domain has been joined.  Running this
    executor therefore {e permanently} closes the fork pool for the
    process ({!fork_available} reports the door's state).  [`Auto]
    dispatch respects it — once a workload has run on domains, every
    later [`Auto] decision without a timeout resolves to domains,
    unprobed — but explicitly mixing [`Domains] then [`Fork] in
    one process is a caller error that the runtime rejects.  Order
    fork-pool work before domains work (the bench and test suites do),
    or pick one executor per process.

    One mitigation falls out of the single-worker fast path: a pool
    that resolves to one worker runs its jobs inline on the calling
    domain without spawning, so it neither pays the multi-domain
    runtime (every minor GC becomes a stop-the-world rendezvous) nor
    closes the door — 1-core hosts can alternate executors freely. *)

val fork_available : unit -> bool
(** [true] until the first worker domain is spawned in this process;
    [false] forever after (the OCaml 5 runtime then refuses
    [Unix.fork], so the fork {!Pool} is unusable). *)

val map :
  ?jobs:int ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  ('a -> 'r) ->
  'a list ->
  'r Pool.outcome list
(** [map f inputs] runs [f] on every input across worker domains and
    returns the outcomes in input order; parameters have the same
    meaning as in {!Pool.map} ([jobs] is additionally clamped to
    {!Pool.cores}).  A job that raises is recorded as [Error] via
    {!Dfv_core.Dfv_error.guard}.  If {!Pool.request_stop} fires
    mid-run, jobs not yet started come back [Error (Interrupted _)]. *)

val race :
  ?jobs:int ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  conclusive:('r -> bool) ->
  ('a -> 'r) ->
  'a list ->
  'r Pool.race
(** Portfolio mode, mirroring {!Pool.race}: the lowest-indexed
    conclusive result recorded so far wins and cancellation is
    cooperative — running jobs complete but their results are
    discarded (outcomes stay [None], [on_result] is not called). *)

(** {2 Adaptive dispatch} *)

val short_job_threshold : float
(** Measured first-job cost (seconds) at or below which [`Auto]
    dispatch prefers domains. *)

val map_auto :
  ?jobs:int ->
  ?timeout:float ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  exec:Pool.exec_mode ->
  encode:('r -> Dfv_obs.Json.t) ->
  decode:(Dfv_obs.Json.t -> ('r, string) result) ->
  ('a -> 'r) ->
  'a list ->
  'r Pool.outcome list
(** {!Pool.map} or {!map}, selected by [exec].  [`Fork] and [`Domains]
    dispatch directly ([`Domains] with a [timeout] is an
    [Invalid_argument] — a domain cannot be killed).  [`Auto] applies
    the policy: a [timeout] forces fork; a single-core host, or a
    process where {!fork_available} is false, takes domains without
    probing; otherwise job 0 runs inline as a timed probe and the rest
    go to domains iff it finished within {!short_job_threshold}.  The
    probe's outcome is returned at index 0 as usual (without fork
    isolation — the one job [`Auto] runs natively).  Auto decisions are
    counted as [pool.exec.fork] / [pool.exec.domains]; explicit modes
    are not, so telemetry parity across executors holds.
    [encode]/[decode] are unused on the domains path. *)

val race_auto :
  ?jobs:int ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  exec:Pool.exec_mode ->
  encode:('r -> Dfv_obs.Json.t) ->
  decode:(Dfv_obs.Json.t -> ('r, string) result) ->
  conclusive:('r -> bool) ->
  ('a -> 'r) ->
  'a list ->
  'r Pool.race
(** {!Pool.race} or {!race}, selected by [exec].  [`Auto] never probes
    (racing strategies are heterogeneous, and running one to completion
    first would forfeit the race): a single-core host, or a process where
    {!fork_available} is false, races on domains; otherwise the race
    runs on fork, because a race on domains cannot stop its losing
    strategy and waits for it.  Counted like {!map_auto}. *)
