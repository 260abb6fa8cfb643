(** The one executor: an in-process work-stealing pool on OCaml 5
    domains.

    Fault campaigns, the serve daemon's solve batches and the SEC
    strategy race all run here.  Results pass by reference, job
    closures by capture, and the only per-job cost is a mutex-guarded
    deque pop.

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
    domain.

    A one-worker map (one job, [jobs = 1], or one core) is a plain loop
    on the caller: jobs run in input order and no domain is started.

    {2 Stopping a job}

    A domain cannot be killed, so every job runs under a
    {!Dfv_sat.Stop} token that the long loops poll (the solver every 64
    conflicts, the SAT sweep per candidate pair, the simulation flow
    per transaction).  The token stops the job when its deadline
    ([?timeout]) passes, when a race it belongs to has been won, or
    when {!Pool.request_stop} fires.  The caller's own token is
    restored after each of its jobs.  A job stuck where nothing polls
    (a blocking system call, C code) runs on; a segfault or an OOM
    kill ends the whole process.

    {2 Determinism}

    Outcomes are returned in input order and job seeds remain
    {!Pool.job_seed} of the job {e index}, so a campaign's verdicts are
    byte-identical across job counts.

    {2 Telemetry and isolation}

    With two or more workers, each job, the caller's own included, runs
    with all three {!Dfv_obs} sinks domain-isolated
    ({!Dfv_obs.Metrics.isolate_domain} and friends), so its metrics,
    spans and coverage are a clean delta, handed to the calling domain
    as one [{"metrics";"trace";"coverage"}] payload and merged through
    {!Pool.merge_telemetry} on a trace lane named ["dfv domain N"].  A
    stopped job's partial delta is merged too.  A one-worker map
    isolates nothing: its jobs record straight into the process sinks,
    their spans nest under the caller's open span, and it ships no
    telemetry record.  Merged totals are the same either way. *)

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  ('a -> 'r) ->
  'a list ->
  'r Pool.outcome list
(** [map f inputs] runs [f] on every input and returns the outcomes in
    input order.  [jobs] (default {!Pool.cores}) bounds the workers and
    is clamped to {!Pool.cores}; the calling domain is one of them.

    [timeout] is the per-job wall-clock budget in seconds, counted from
    the job's start: a job still running past it stops at its next poll
    and comes back as [Error (Worker_timeout {job; seconds = timeout})].
    A job that finishes without polling keeps its result, late or not.
    [label] names job [i] in error values (default: its index).

    A job that raises is recorded as [Error] via
    {!Dfv_core.Dfv_error.guard}, or as [Internal] for what the guard
    re-raises ([Stack_overflow], [Out_of_memory]).

    [on_result] is invoked on the calling domain, in completion order,
    each time a job's outcome is recorded — the hook durable campaigns
    use to append to their {!Journal} as results arrive.  If
    {!Pool.request_stop} fires mid-run, jobs in flight stop at their
    next poll, no further job starts, and every unfinished job comes
    back [Error (Interrupted _)] without reaching [on_result]. *)

type 'r race = {
  winner : (int * 'r) option;
      (** the first conclusive result (job index, result); [None] when
          no job concluded *)
  outcomes : 'r Pool.outcome option array;
      (** per-job outcomes, indexed like the input list; [None] for jobs
          cancelled, or never started, after a conclusive result *)
}

val race :
  ?jobs:int ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r Pool.outcome -> unit) ->
  conclusive:('r -> bool) ->
  ('a -> 'r) ->
  'a list ->
  'r race
(** Portfolio mode: like {!map} without a timeout, but the first result
    for which [conclusive] holds cancels every sibling's token, so jobs
    in flight stop at their next poll and pending jobs never start.
    The winner is the lowest job index among the recorded conclusive
    results, so a photo finish is deterministic.  At one worker the
    jobs run in input order and none starts after a conclusive one.  If
    no job concludes, [winner = None] and every outcome is filled in
    (unless {!Pool.request_stop} fired). *)

val short_job_threshold : float
(** A job length in seconds (0.25).  The executor does not read it:
    perfbench reports the share of mutants shorter than this as
    [fault.short_job_frac]. *)
