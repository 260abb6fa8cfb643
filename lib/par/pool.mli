(** A fork-based worker pool with crash isolation.

    The fault campaign and the SEC portfolio are embarrassingly
    parallel: independent mutants, independent BMC frames, independent
    solving strategies.  This pool runs such jobs across worker
    {e processes} (one [fork] per job, at most [jobs] alive at once), so
    that a worker that segfaults, is OOM-killed, or wedges becomes a
    recorded {!Dfv_core.Dfv_error.t} — never a dead run.

    {2 Protocol}

    Each worker computes its job in the forked child (the job closure
    travels by fork, not serialization) and writes exactly one result
    line — the {!Dfv_obs.Json} envelope
    [{"schema":"dfv-par","version":1,"kind":"result"|"error","job":i,...}]
    — on a private pipe, preceded by periodic [kind:"heartbeat"] lines
    emitted from a SIGALRM timer.  The parent multiplexes the pipes with
    [select], kills workers that exceed the per-job wall-clock budget
    ([Worker_timeout]) or stop heartbeating ([Worker_crashed]), and maps
    a worker that dies without delivering a result — by signal or
    nonzero exit — to [Worker_crashed] with the cause.

    {2 Determinism}

    Job outcomes must depend only on the job itself, never on which
    worker ran it or how many there are: results are returned in input
    order, and {!job_seed} derives a per-job PRNG seed from the job
    {e index}, so a campaign's verdicts are identical under any [~jobs]
    (the issue's gate: [--jobs N] never changes verdicts).

    {2 Self-healing}

    A worker failure the taxonomy classes as possibly transient
    ({!Dfv_core.Dfv_error.transient} — a crash, which may be OOM
    pressure or a stray signal rather than a property of the job) is
    retried before the failure is recorded, under one fixed policy: up
    to 2 more attempts, exponential backoff from 50 ms capped at 2 s,
    with deterministic jitter.  A timeout is never retried, and a
    deterministic crash exhausts its attempts and stays
    [Worker_crashed].  Retry traffic is visible in the
    {!Dfv_obs.Metrics} registry as [pool.retry.attempts] /
    [pool.retry.healed] / [pool.retry.exhausted].

    {2 Telemetry}

    Observability is fork-transparent, always: each worker zeroes its
    inherited {!Dfv_obs.Metrics} / {!Dfv_obs.Trace} /
    {!Dfv_obs.Coverage} state at job start and ships the job's deltas
    back as one extra [kind:"telemetry"] protocol line just before its
    result.  The parent merges a job's telemetry exactly once, when the
    job's outcome becomes final — counters summed, gauges max-of-high-
    water, histogram buckets summed elementwise, coverage bins summed,
    worker spans re-based into the parent trace under the worker's pid
    and tagged with the job index — so retried attempts and journal-
    replayed jobs (which never run) are never double-counted.  Shipping
    volume is visible as [pool.telemetry.shipped], merge failures as
    [pool.telemetry.errors]. *)

val cores : unit -> int
(** Number of CPU cores available to this process (>= 1). *)

val request_stop : unit -> unit
(** Set the process-wide cooperative stop flag (safe to call from a
    signal handler).  The pool checks it every scheduling round: live
    workers are killed, nothing further is recorded, and unfinished
    jobs surface as [Error (Interrupted _)] — the caller flushes its
    {!Journal} and exits with the "interrupted, resumable" code. *)

val stop_requested : unit -> bool
val reset_stop : unit -> unit

type exec_mode = [ `Fork | `Domains | `Auto ]
(** Which executor runs a parallel workload: this fork pool ([`Fork],
    crash isolation and preemptive timeouts), the in-process
    {!Dpool} ([`Domains], no fork or pipe cost — wins on short jobs),
    or adaptive selection ([`Auto], see {!Dpool.map_auto}).  The
    type lives here so callers can name it without depending on the
    domains executor. *)

val exec_mode_to_string : exec_mode -> string

val merge_telemetry : ?label:string -> job:int -> Dfv_obs.Json.t -> unit
(** Merge one worker's shipped telemetry payload (the
    [{"metrics";"trace";"coverage"}] object both executors produce)
    into the process-wide sinks, counting [pool.telemetry.shipped] and
    [pool.telemetry.errors].  [label] names the worker's trace lane
    (default ["dfv worker <pid>"]).  Exposed for {!Dpool}; merge
    failures are observable but never raise. *)

val job_seed : seed:int -> int -> int
(** [job_seed ~seed i] mixes the campaign seed with job index [i] into
    a well-spread per-job seed (a splitmix64-style finalizer), the same
    value no matter how jobs are partitioned across workers. *)

type 'r outcome = ('r, Dfv_core.Dfv_error.t) result

val map :
  ?jobs:int ->
  ?timeout:float ->
  ?heartbeat:float ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r outcome -> unit) ->
  encode:('r -> Dfv_obs.Json.t) ->
  decode:(Dfv_obs.Json.t -> ('r, string) result) ->
  ('a -> 'r) ->
  'a list ->
  'r outcome list
(** [map ~encode ~decode f inputs] runs [f] on every input in forked
    workers and returns the outcomes {e in input order}.

    [jobs] bounds concurrent workers (default {!cores}; [jobs = 1] still
    forks, so crash isolation and the timeout apply identically — only
    parallelism changes).  [timeout] is the per-job wall-clock budget in
    seconds (default: none); an expired job is SIGKILLed and reported as
    [Error (Worker_timeout _)].  [heartbeat] (default 0.5s; tests
    shorten it) sets the worker heartbeat period; a worker silent for 20
    heartbeat periods is presumed wedged below the OCaml runtime (stuck
    in a blocking call) and reported as [Error (Worker_crashed _)].
    [label] names job [i] in error values (default: its index).

    [encode]/[decode] carry the result across the pipe; a worker whose
    payload fails to decode is a [Worker_crashed] (protocol damage, same
    class as a torn write).

    [on_result] is invoked in the {e parent}, in completion order, each
    time a job's outcome becomes final (after any retries) — the hook
    durable campaigns use to append to their {!Journal} as results
    arrive rather than at the end.

    If {!request_stop} fires mid-run, unfinished jobs come back as
    [Error (Interrupted _)] (and are never passed to [on_result]). *)

type 'r race = {
  winner : (int * 'r) option;
      (** first conclusive result (job index, result); [None] when no
          job concluded *)
  outcomes : 'r outcome option array;
      (** per-job outcomes, indexed like the input list; [None] for jobs
          cancelled (or never started) after the winner emerged *)
}

val race :
  ?jobs:int ->
  ?timeout:float ->
  ?heartbeat:float ->
  ?label:(int -> string) ->
  ?on_result:(int -> 'r outcome -> unit) ->
  encode:('r -> Dfv_obs.Json.t) ->
  decode:(Dfv_obs.Json.t -> ('r, string) result) ->
  conclusive:('r -> bool) ->
  ('a -> 'r) ->
  'a list ->
  'r race
(** Portfolio mode: like {!map}, but the first result for which
    [conclusive] holds wins — every other live worker is SIGKILLed,
    pending jobs are not started, and their outcomes stay [None].  When
    several workers conclude in the same [select] round the lowest job
    index wins, so ties are broken deterministically.  If no job
    concludes, [winner = None] and every outcome is filled in. *)

(** {2 Shared with {!Dpool}} *)

val winner_of :
  conclusive:('r -> bool) -> 'r outcome option array -> (int * 'r) option
(** The race rule of both executors: the lowest-indexed recorded
    outcome that is [Ok r] with [conclusive r], if any. *)

val outcomes_of_race : ?label:(int -> string) -> 'r race -> 'r outcome list
(** A map's result: the race's outcomes in input order, each job left
    [None] reported as [Error (Interrupted _)] when {!request_stop} has
    fired (and as [Worker_crashed] otherwise, which a map without
    cancellation never produces). *)
