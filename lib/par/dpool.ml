module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage
module Stop = Dfv_sat.Stop

let m_steals = Metrics.counter "pool.domains.steals"
let m_interrupted = Metrics.counter "pool.interrupted"

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
  c_outcome : 'r Pool.outcome option; (* [None]: the job was stopped *)
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

(* A job's containment.  The job runs under its own stop token (the
   map's shared cancel flag plus its deadline) and the error taxonomy's
   guard; a catch-all takes what the guard re-raises ([Stack_overflow],
   [Out_of_memory], [Sys.Break]), so one job can never end the map.  A
   job that stopped at a poll has no outcome when a race cancelled it
   or the process stop flag is up; a passed deadline is its timeout. *)
let contain ~timeout ~cancel ~label j f x =
  let deadline =
    match timeout with
    | Some t -> Unix.gettimeofday () +. t
    | None -> infinity
  in
  let token = Stop.token ~deadline cancel in
  match Dfv_error.guard (fun () -> Stop.with_token token (fun () -> f x)) with
  | o -> Some o
  | exception Stop.Stopped -> (
    match timeout with
    | Some seconds when Stop.expired token && not (Stop.requested ()) ->
      Some (Error (Dfv_error.Worker_timeout { job = label j; seconds }))
    | _ -> None)
  | exception e -> Some (Error (Dfv_error.Internal (Printexc.to_string e)))

(* One job beside other workers: isolate all three observability sinks
   so the job records a clean delta, run it contained, snapshot,
   release.  A stopped job's partial delta is merged like any other. *)
let run_job contained =
  Metrics.isolate_domain ();
  Trace.isolate_domain ();
  Coverage.isolate_domain ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.release_domain ();
      Trace.release_domain ();
      Coverage.release_domain ())
    (fun () ->
      let outcome = contained () in
      ( outcome,
        Json.Obj
          [ ("metrics", Metrics.domain_snapshot ());
            ("trace", Trace.domain_export ());
            ("coverage", Coverage.domain_snapshot ()) ] ))

(* --- the executor ------------------------------------------------------- *)

let run (type a r) ?jobs ?timeout ?(label = string_of_int) ?on_result
    ?conclusive (f : a -> r) (inputs : a list) : r Pool.outcome option array =
  let jobs = match jobs with None -> Pool.cores () | Some j -> j in
  if jobs < 1 then invalid_arg "Dpool: jobs must be >= 1";
  (match timeout with
  | Some t when t <= 0.0 -> invalid_arg "Dpool: timeout must be positive"
  | _ -> ());
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let outcomes : r Pool.outcome option array = Array.make n None in
  (* Every job's token shares this flag.  A race sets it at its first
     conclusive result, on the worker that found it, so the siblings in
     flight stop at their next poll and no further job is dealt out; a
     plain map never sets it. *)
  let cancel = Atomic.make false in
  let settle = function
    | Some (Ok r) -> (
      match conclusive with Some c when c r -> Atomic.set cancel true | _ -> ())
    | _ -> ()
  in
  let dealing () = not (Atomic.get cancel || Pool.stop_requested ()) in
  let contained j () = contain ~timeout ~cancel ~label j f inputs.(j) in
  let notify j = function
    | Some o -> (match on_result with Some k -> k j o | None -> ())
    | None -> ()
  in
  (* Domains beyond the core count only contend with each other, so
     concurrency is clamped to the host.  The calling domain is worker
     0, so [w] workers take [w - 1] spawned domains: no domain sits
     parked while others work, and every stop-the-world collection
     meets only domains that are running.  Verdicts cannot tell the
     difference; only wall-clock can. *)
  let w = max 1 (min (min jobs n) (Pool.cores ())) in
  if w = 1 then begin
    (* One worker is the caller alone, so its jobs run in order on this
       domain and record straight into the process sinks, spans nested
       under the caller's open span: a sequential loop has no delta to
       isolate, ship or merge. *)
    let rec loop j =
      if j < n && dealing () then begin
        let o = contained j () in
        outcomes.(j) <- o;
        settle o;
        notify j o;
        loop (j + 1)
      end
    in
    loop 0
  end
  else begin
    (* The calling domain owns the global sinks: it merges each job's
       telemetry and fires [on_result] in the order it collects
       results. *)
    let record c =
      outcomes.(c.c_job) <- c.c_outcome;
      Pool.merge_telemetry
        ~label:(Printf.sprintf "dfv domain %d" c.c_domain)
        ~job:c.c_job c.c_telemetry;
      notify c.c_job c.c_outcome
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
        if dealing () then
          match next_job k with
          | None -> ()
          | Some j ->
            let outcome, telem = run_job (contained j) in
            settle outcome;
            deliver
              { c_job = j; c_domain = did; c_outcome = outcome;
                c_telemetry = telem };
            loop ()
      in
      loop ()
    in
    let spawned = w - 1 in
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
    Metrics.add m_steals (Array.fold_left ( + ) 0 steals)
  end;
  if Pool.stop_requested () then
    Array.iter (fun o -> if o = None then Metrics.incr m_interrupted) outcomes;
  outcomes

let map ?jobs ?timeout ?label ?on_result f inputs =
  run ?jobs ?timeout ?label ?on_result f inputs |> Pool.map_outcomes ?label

type 'r race = {
  winner : (int * 'r) option;
  outcomes : 'r Pool.outcome option array;
}

let race ?jobs ?label ?on_result ~conclusive f inputs =
  let outcomes = run ?jobs ?label ?on_result ~conclusive f inputs in
  (* The lowest index among the recorded conclusive results wins, so a
     photo finish is deterministic. *)
  let rec scan i =
    if i >= Array.length outcomes then None
    else
      match outcomes.(i) with
      | Some (Ok r) when conclusive r -> Some (i, r)
      | _ -> scan (i + 1)
  in
  { winner = scan 0; outcomes }

(* Read by perfbench, which reports the share of mutants shorter than
   this as [fault.short_job_frac]. *)
let short_job_threshold = 0.25
