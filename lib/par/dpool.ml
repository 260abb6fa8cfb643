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
  mutable q_exited : int; (* worker domains that have stood down *)
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
    (* Domains beyond the core count only contend with each other (and
       with the coordinating domain), so concurrency is clamped to the
       host — unlike the fork pool, where [jobs] is taken literally.
       Verdicts cannot tell the difference; only wall-clock can. *)
    let w = max 1 (min (min jobs n) (Pool.cores ())) in
    (* The coordinating domain owns the global sinks: it merges each
       job's telemetry and fires [on_result] in completion order, so
       callers see exactly the fork pool's delivery discipline. *)
    let record c =
      outcomes.(c.c_job) <- Some c.c_outcome;
      Pool.merge_telemetry
        ~label:(Printf.sprintf "dfv domain %d" c.c_domain)
        ~job:c.c_job c.c_telemetry;
      match on_result with
      | Some notify -> notify c.c_job c.c_outcome
      | None -> ()
    in
    if w = 1 then begin
      (* A single-worker pool runs inline on the calling domain.
         Spawning one domain and blocking here would buy no parallelism
         while switching the runtime into multi-domain mode (every minor
         collection becomes a stop-the-world rendezvous — a measured
         3-4% tax on simulation-heavy campaigns) and slamming the fork
         door for the rest of the process. *)
      let did = (Domain.self () :> int) in
      (try
         for j = 0 to n - 1 do
           if Pool.stop_requested () then raise Exit;
           let outcome, telem = run_job f inputs.(j) in
           record
             { c_job = j; c_domain = did; c_outcome = outcome;
               c_telemetry = telem }
         done
       with Exit -> ())
    end
    else begin
      let counts = Array.make w 0 in
      for j = 0 to n - 1 do
        counts.(j mod w) <- counts.(j mod w) + 1
      done;
      let deques =
        Array.init w (fun k ->
            { mu = Mutex.create (); slots = Array.make counts.(k) 0; lo = 0;
              hi = counts.(k) })
      in
      let fill = Array.make w 0 in
      (* Round-robin dealing: worker k starts with jobs k, k+w, k+2w … so
         early (often journal-missing) indices spread across domains. *)
      for j = 0 to n - 1 do
        let k = j mod w in
        deques.(k).slots.(fill.(k)) <- j;
        fill.(k) <- fill.(k) + 1
      done;
      let q =
        { q_mu = Mutex.create (); q_cv = Condition.create (); q_items = [];
          q_exited = 0 }
      in
      let next_job k =
        match pop_own deques.(k) with
        | Some _ as j -> j
        | None ->
          let rec scan i =
            if i >= w then None
            else
              match steal deques.((k + i) mod w) with
              | Some _ as j ->
                Metrics.incr m_steals;
                j
              | None -> scan (i + 1)
          in
          scan 1
      in
      let worker k () =
        Fun.protect
          ~finally:(fun () -> announce_exit q)
          (fun () ->
            let did = (Domain.self () :> int) in
            let rec loop () =
              if Pool.stop_requested () then ()
              else
                match next_job k with
                | None -> ()
                | Some j ->
                  let outcome, telem = run_job f inputs.(j) in
                  push_completion q
                    { c_job = j; c_domain = did; c_outcome = outcome;
                      c_telemetry = telem };
                  loop ()
            in
            loop ())
      in
      Atomic.set domains_used true;
      let domains = Array.init w (fun k -> Domain.spawn (worker k)) in
      let rec drain () =
        Mutex.lock q.q_mu;
        while q.q_items = [] && q.q_exited < w do
          Condition.wait q.q_cv q.q_mu
        done;
        let batch = List.rev q.q_items in
        q.q_items <- [];
        let all_exited = q.q_exited = w in
        Mutex.unlock q.q_mu;
        List.iter record batch;
        if not (all_exited && batch = []) then drain ()
      in
      drain ();
      Array.iter Domain.join domains
    end;
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
