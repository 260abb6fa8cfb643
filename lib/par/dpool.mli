(** An in-process work-stealing executor on OCaml 5 domains, plus the
    dispatcher that picks between it and the fork {!Pool}.

    The fork pool buys crash isolation and preemptive timeouts at the
    price of a [fork], a pipe, and JSON serialization {e per job} — a
    price that exceeds the job itself for short work (per-mutant
    campaign runs), which is exactly the regression
    [BENCH_PAR_SPEEDUP.json] recorded.  This executor runs
    the same jobs on worker {e domains} in shared memory: results pass
    by reference, job closures by capture, and the only per-job cost is
    a mutex-guarded deque pop.

    {2 Scheduling}

    Job indices are dealt round-robin onto per-worker deques at start;
    each worker pops its own deque from one end and, when empty, steals
    from the other end of a sibling's.  Each worker counts its own
    steals, and their sum is added to [pool.domains.steals] after the
    join.  A map runs [w = min jobs cores] workers (capped by the number
    of inputs), because domains beyond the core count only contend.

    The calling domain is worker 0: it takes the even-spaced deal
    [0, w, 2w, …] like any other worker, spawns only [w - 1] domains,
    and never sits parked while others work (a parked domain still
    takes part in every stop-the-world collection, so a caller waiting
    beside [w] spawned domains on [w] cores slows them all).  The
    caller merges telemetry and fires [?on_result] in the order it
    collects results: its own at once, the other workers' between its
    own jobs, and whatever is still running once its deque and the
    steals run dry.  [on_result] therefore always runs on the calling
    domain, as in the fork parent.

    A one-worker map (one job, [jobs = 1], or one core) is a plain loop
    on the caller: jobs run in input order, no domain is started, the
    runtime stays in single-domain mode and the fork door below stays
    open.

    {2 Determinism}

    Outcomes are returned in input order and job seeds remain
    {!Pool.job_seed} of the job {e index}, so a campaign's verdicts are
    byte-identical across job counts {e and} across executors — the
    cross-executor gate of the parity tests.

    {2 Telemetry and isolation}

    With two or more workers, each job, the caller's own included, runs
    with all three {!Dfv_obs} sinks domain-isolated
    ({!Dfv_obs.Metrics.isolate_domain} and friends), so its metrics,
    spans and coverage are a clean delta, handed to the calling domain
    as the same [{"metrics";"trace";"coverage"}] payload the fork
    protocol uses and merged through {!Pool.merge_telemetry} — trace
    lanes are tagged ["dfv domain N"] instead of ["dfv worker <pid>"].
    A one-worker map isolates nothing: its jobs record straight into the
    process sinks, their spans nest under the caller's open span, and
    it ships no telemetry record.  Merged totals are the same either
    way.

    {2 What domains do not give you}

    No crash isolation: a segfaulting C stub or an OOM kill takes the
    whole process down.  Exceptions are contained as [Error] outcomes:
    {!Dfv_core.Dfv_error.guard} maps the taxonomy's, and a catch-all
    turns what it re-raises ([Stack_overflow], [Out_of_memory]) into
    [Internal], as the fork child does.  No preemptive timeout: a
    domain cannot be killed, so there is no [?timeout] here, and
    {!Pool.request_stop} is cooperative at job granularity — in-flight
    jobs finish, undealt jobs are never started.  Workloads needing a
    timeout belong on the fork pool; [`Auto] dispatch routes them
    there.  For the same reason there is no race here: a race on
    domains would wait for its losing job, so {!Pool.race} is the only
    one.

    {2 The fork/domains one-way door}

    OCaml 5 forbids [Unix.fork] in any process that has ever spawned a
    domain, even after every domain has been joined.  Running this
    executor with two or more workers therefore {e permanently} closes
    the fork pool for the process ({!fork_available} reports the
    door's state).  Dispatch does not consult it: a call with a timeout
    forks however the process began, so mixing domains work and then
    fork work in one process is a caller error that the runtime
    rejects.  Order fork-pool work before domains work (the bench and
    test suites do), or pick one executor per process.  Only a real
    spawn closes the door: a one-worker map spawns nothing, so 1-core
    hosts can alternate executors freely. *)

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
    {!Pool.cores}, and the calling domain is one of the workers).  A
    job that raises is recorded as [Error] via
    {!Dfv_core.Dfv_error.guard}, or as [Internal] for what the guard
    re-raises.  If {!Pool.request_stop} fires mid-run, jobs not yet
    started come back [Error (Interrupted _)]. *)

(** {2 Dispatch} *)

val short_job_threshold : float
(** A job length in seconds (0.25).  Dispatch does not read it:
    perfbench reports the share of mutants shorter than this as
    [fault.short_job_frac], the jobs on which a per-job fork round trip
    is a real share of the work. *)

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
    one rule that reads the call alone: a [timeout] goes to the fork
    pool, the only executor that can kill a job, and every other call
    goes to {!map}.  No job runs and nothing is timed before the
    choice.  Auto decisions are counted as [pool.exec.fork] /
    [pool.exec.domains]; explicit modes are not, so telemetry parity
    across executors holds.  [encode]/[decode] are unused on the
    domains path. *)
