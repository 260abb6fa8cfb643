module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage

let m_exec_fork = Metrics.counter "pool.exec.fork"
let m_exec_domains = Metrics.counter "pool.exec.domains"
let m_steals = Metrics.counter "pool.domains.steals"
let m_interrupted = Metrics.counter "pool.interrupted"

(* OCaml 5's one-way door: once a process has spawned any domain,
   [Unix.fork] is forbidden for the rest of its life — even after every
   spawned domain has been joined (the runtime refuses with "Unix.fork
   may not be called while other domains were created").  The flag flips
   the first time [run] spawns a worker and never flips back; adaptive
   dispatch consults it so [`Auto] can never route a later workload to
   the fork pool after an earlier one ran on domains. *)
let domains_used = Atomic.make false
let fork_available () = not (Atomic.get domains_used)

(* --- work-stealing deques ---------------------------------------------- *)

(* Every job index is dealt up front (no job spawns jobs), so a deque is
   a fixed slice with two cursors: the owner takes from [lo], thieves
   from [hi].  A plain mutex per deque beats a lock-free structure here —
   the critical section is two loads and a store, and jobs are
   simulation runs, not nanosecond tasks. *)
type deque = {
  mu : Mutex.t;
  slots : int array;
  mutable lo : int;
  mutable hi : int; (* exclusive *)
}

let pop_own d =
  Mutex.lock d.mu;
  let r =
    if d.lo < d.hi then begin
      let j = d.slots.(d.lo) in
      d.lo <- d.lo + 1;
      Some j
    end
    else None
  in
  Mutex.unlock d.mu;
  r

let steal d =
  Mutex.lock d.mu;
  let r =
    if d.lo < d.hi then begin
      d.hi <- d.hi - 1;
      Some d.slots.(d.hi)
    end
    else None
  in
  Mutex.unlock d.mu;
  r

(* --- completion queue --------------------------------------------------- *)

type 'r completion = {
  c_job : int;
  c_domain : int;
  c_outcome : 'r Pool.outcome;
  c_telemetry : Json.t;
}

type 'r cq = {
  q_mu : Mutex.t;
  q_cv : Condition.t;
  mutable q_items : 'r completion list; (* rev completion order *)
  mutable q_exited : int; (* spawned worker domains that have stood down *)
}

let push_completion q c =
  Mutex.lock q.q_mu;
  q.q_items <- c :: q.q_items;
  Condition.signal q.q_cv;
  Mutex.unlock q.q_mu

let announce_exit q =
  Mutex.lock q.q_mu;
  q.q_exited <- q.q_exited + 1;
  Condition.broadcast q.q_cv;
  Mutex.unlock q.q_mu

(* Take every queued completion, oldest first.  With [~wait] the caller
   first sleeps until there is one or all [spawned] domains have stood
   down; the flag says whether they all had. *)
let take q ~spawned ~wait =
  Mutex.lock q.q_mu;
  if wait then
    while q.q_items = [] && q.q_exited < spawned do
      Condition.wait q.q_cv q.q_mu
    done;
  let batch = List.rev q.q_items in
  q.q_items <- [];
  let all_exited = q.q_exited = spawned in
  Mutex.unlock q.q_mu;
  (batch, all_exited)

(* --- worker side -------------------------------------------------------- *)

(* One job on a worker domain: isolate all three observability sinks so
   the job records a clean delta (the in-process analogue of the fork
   child's reset-then-ship), run the job under the error taxonomy's
   guard, snapshot, release. *)
let run_job f x =
  Metrics.isolate_domain ();
  Trace.isolate_domain ();
  Coverage.isolate_domain ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.release_domain ();
      Trace.release_domain ();
      Coverage.release_domain ())
    (fun () ->
      let outcome =
        match Dfv_error.guard (fun () -> f x) with
        | o -> o
        | exception e -> Error (Dfv_error.Internal (Printexc.to_string e))
      in
      ( outcome,
        Json.Obj
          [ ("metrics", Metrics.domain_snapshot ());
            ("trace", Trace.domain_export ());
            ("coverage", Coverage.domain_snapshot ()) ] ))

(* --- the executor ------------------------------------------------------- *)

let run (type a r) ?jobs ?on_result (f : a -> r) (inputs : a list) :
    r Pool.outcome option array =
  let jobs = match jobs with None -> Pool.cores () | Some j -> j in
  if jobs < 1 then invalid_arg "Dpool: jobs must be >= 1";
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let outcomes : r Pool.outcome option array = Array.make n None in
  if n > 0 then begin
    (* Domains beyond the core count only contend with each other, so
       concurrency is clamped to the host — unlike the fork pool, where
       [jobs] is taken literally.  The calling domain is worker 0, so
       [w] workers take [w - 1] spawned domains: no domain sits parked
       while others work, and every stop-the-world collection meets
       only domains that are running.  Verdicts cannot tell the
       difference; only wall-clock can. *)
    let w = max 1 (min (min jobs n) (Pool.cores ())) in
    (* The calling domain owns the global sinks: it merges each job's
       telemetry and fires [on_result] in the order it collects
       results, so callers see the fork parent's delivery discipline. *)
    let record c =
      outcomes.(c.c_job) <- Some c.c_outcome;
      Pool.merge_telemetry
        ~label:(Printf.sprintf "dfv domain %d" c.c_domain)
        ~job:c.c_job c.c_telemetry;
      match on_result with
      | Some notify -> notify c.c_job c.c_outcome
      | None -> ()
    in
    (* Round-robin dealing: worker k starts with jobs k, k+w, k+2w … so
       early (often journal-missing) indices spread across domains. *)
    let deques =
      Array.init w (fun k ->
          let slots = Array.init ((n - k + w - 1) / w) (fun i -> k + (i * w)) in
          { mu = Mutex.create (); slots; lo = 0; hi = Array.length slots })
    in
    let q =
      { q_mu = Mutex.create (); q_cv = Condition.create (); q_items = [];
        q_exited = 0 }
    in
    (* One steal count per worker, written only by its owner and summed
       after the join: a shared counter bumped from several domains
       would lose updates. *)
    let steals = Array.make w 0 in
    let next_job k =
      match pop_own deques.(k) with
      | Some _ as j -> j
      | None ->
        let rec scan i =
          if i >= w then None
          else
            match steal deques.((k + i) mod w) with
            | Some _ as j ->
              steals.(k) <- steals.(k) + 1;
              j
            | None -> scan (i + 1)
        in
        scan 1
    in
    (* The one worker loop: spawned domains [deliver] to the queue, the
       caller records its own result at once. *)
    let worker k ~deliver =
      let did = (Domain.self () :> int) in
      let rec loop () =
        if not (Pool.stop_requested ()) then
          match next_job k with
          | None -> ()
          | Some j ->
            let outcome, telem = run_job f inputs.(j) in
            deliver
              { c_job = j; c_domain = did; c_outcome = outcome;
                c_telemetry = telem };
            loop ()
      in
      loop ()
    in
    let spawned = w - 1 in
    if spawned > 0 then Atomic.set domains_used true;
    let domains =
      Array.init spawned (fun i ->
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () -> announce_exit q)
                (fun () -> worker (i + 1) ~deliver:(push_completion q))))
    in
    (* Between its own jobs the caller collects what the other workers
       finished, without waiting; it waits only for the jobs still
       running once its own loop runs dry. *)
    let collect ~wait =
      let batch, all_exited = take q ~spawned ~wait in
      List.iter record batch;
      all_exited && batch = []
    in
    worker 0 ~deliver:(fun c ->
        record c;
        ignore (collect ~wait:false));
    while not (collect ~wait:true) do
      ()
    done;
    Array.iter Domain.join domains;
    Metrics.add m_steals (Array.fold_left ( + ) 0 steals);
    if Pool.stop_requested () then
      Array.iter
        (fun o -> if o = None then Metrics.incr m_interrupted)
        outcomes
  end;
  outcomes

let map ?jobs ?label ?on_result f inputs =
  run ?jobs ?on_result f inputs |> Pool.map_outcomes ?label

(* --- adaptive dispatch -------------------------------------------------- *)

(* Below this measured first-job cost, fork + pipe overhead dominates
   and the domains executor wins; above it, process isolation is cheap
   relative to the work and fork keeps its crash/timeout guarantees. *)
let short_job_threshold = 0.25

let note = function
  | `Fork -> Metrics.incr m_exec_fork
  | `Domains -> Metrics.incr m_exec_domains

(* Static policy, applied before any probe: a timeout needs preemptive
   kill (fork only); otherwise a single core means fork can only lose
   (same serial work plus fork + serialization per job), and a process
   that has spawned domains can no longer fork (the one-way door above).
   [None] leaves the choice to the caller's measurement or default. *)
let choose_static ~timeout =
  match timeout with
  | Some _ -> Some `Fork
  | None ->
    if Pool.cores () = 1 || not (fork_available ()) then Some `Domains
    else None

let require_no_timeout timeout =
  match timeout with
  | Some _ ->
    invalid_arg
      "Dpool: per-job timeouts require the fork executor (a domain \
       cannot be killed preemptively)"
  | None -> ()

let map_auto (type a r) ?jobs ?timeout ?label ?on_result
    ~(exec : Pool.exec_mode) ~(encode : r -> Json.t)
    ~(decode : Json.t -> (r, string) result) (f : a -> r) (inputs : a list) :
    r Pool.outcome list =
  let fork ?label ?on_result inputs =
    Pool.map ?jobs ?timeout ?label ?on_result ~encode ~decode f inputs
  in
  let domains ?label ?on_result inputs = map ?jobs ?label ?on_result f inputs in
  match exec with
  | `Fork -> fork ?label ?on_result inputs
  | `Domains ->
    require_no_timeout timeout;
    domains ?label ?on_result inputs
  | `Auto -> (
    match choose_static ~timeout with
    | Some m ->
      note m;
      (match m with
      | `Fork -> fork ?label ?on_result inputs
      | `Domains -> domains ?label ?on_result inputs)
    | None -> (
      (* Measured probe: run job 0 inline (on this domain, no isolation
         — its telemetry lands in the global sinks directly, which is
         what merging would do anyway) and time it; the remaining jobs
         go to whichever executor the measured cost favours, with
         indices shifted so labels, seeds and [on_result] still see the
         original positions. *)
      match inputs with
      | [] -> []
      | x0 :: rest ->
        let t0 = Unix.gettimeofday () in
        let o0 =
          match Dfv_error.guard (fun () -> f x0) with
          | o -> o
          | exception e -> Error (Dfv_error.Internal (Printexc.to_string e))
        in
        let dt = Unix.gettimeofday () -. t0 in
        (match on_result with Some notify -> notify 0 o0 | None -> ());
        let shifted_notify =
          Option.map (fun notify i o -> notify (i + 1) o) on_result
        in
        let shifted_label = Option.map (fun l i -> l (i + 1)) label in
        let m =
          if dt <= short_job_threshold || not (fork_available ()) then
            `Domains
          else `Fork
        in
        note m;
        let rest_outcomes =
          match m with
          | `Domains ->
            domains ?label:shifted_label ?on_result:shifted_notify rest
          | `Fork -> fork ?label:shifted_label ?on_result:shifted_notify rest
        in
        o0 :: rest_outcomes))
