(** The [dfv serve] daemon: verification as a shared, cached service.

    One process listens on a Unix-domain socket, speaks the
    {!Protocol} frames, and answers SEC / cosimulation / fault-campaign
    requests from a content-addressed {!Cache} — solving only what no
    one has asked before.

    {2 Request lifecycle}

    The select loop (250 ms tick, polling
    {!Dfv_par.Pool.stop_requested}) drains every readable client and
    collects one {e batch} per tick.  Control operations (ping, stats,
    shutdown) are answered inline.  Verify operations are keyed by
    structural fingerprint, probed against the cache (hits answered
    immediately), and the misses — {e coalesced} so concurrent
    duplicates cost one solve — are dispatched as one
    {!Dfv_par.Dpool.map} batch on in-process domains.  Campaigns inside
    a worker run with their own per-mutant pool disabled; the server's
    executor is the only layer of parallelism.  On
    {!Dfv_par.Pool.request_stop} the solves in flight stop at their
    next poll and are answered with an [Interrupted] error.

    Successful verdicts enter the cache (and its optional disk store,
    journaled before the response is written); errors are returned but
    never cached — an error is a fact about this run, not the design.

    {2 Telemetry}

    Counters [serve.requests], [serve.solves], [serve.coalesced],
    [serve.errors]; cache counters from {!Cache}; gauge
    [serve.queue.depth]; one trace span per request (category
    ["serve"]) plus a [serve.solve_batch] span per dispatched batch.
    On exit the daemon writes the optional summary artifact
    [{"schema":"dfv-serve","version":1,"kind":"summary",...}] with
    per-endpoint hit rates and the (bounded) request log — the
    document [dfv validate] and [dfv report] understand. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  capacity : int;  (** in-memory LRU capacity *)
  store : string option;  (** on-disk journal store path *)
  jobs : int;  (** solver batch parallelism *)
  summary : string option;  (** summary artifact path, written on exit *)
  log_limit : int;  (** request-log entries kept for the summary *)
}

val default_config : socket:string -> config
(** capacity 256, no store, [jobs = Pool.cores ()], no summary, log
    limit 4096. *)

val run :
  resolve:(design:string -> bug:string -> (Dfv_core.Pair.t, string) result) ->
  config ->
  int
(** Run the daemon until a [shutdown] request (returns 0) or
    {!Dfv_par.Pool.request_stop} (returns 4 — the interrupted,
    resumable exit code; a disk store left behind replays on restart).
    [resolve] maps a (design, bug) request to a {!Dfv_core.Pair} — the
    CLI passes its design registry, keeping name parsing out of the
    library.  Raises [Failure] when the socket cannot be bound or the
    store fails validation. *)
