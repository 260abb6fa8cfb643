module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage

let cores () = max 1 (Domain.recommended_domain_count ())

(* --- cooperative interruption ------------------------------------------ *)

(* One process-wide flag, set from the CLI's SIGINT/SIGTERM handlers.
   Atomic, not a plain ref, so {!Dpool} worker domains observe a stop
   promptly.  The executors poll it each scheduling round: on stop the
   fork pool kills every live worker (domains finish their in-flight
   job, then stand down), nothing further is recorded, and unfinished
   outcomes surface as [Interrupted] — the caller flushes its journal
   and exits resumable. *)
let stop_flag = Atomic.make false
let request_stop () = Atomic.set stop_flag true
let stop_requested () = Atomic.get stop_flag
let reset_stop () = Atomic.set stop_flag false

(* --- executor selection ------------------------------------------------ *)

(* The mode type lives here (not in {!Dpool}) so both executors and
   every caller can name it without a dependency cycle; the adaptive
   dispatch logic itself lives in {!Dpool}, which can see both. *)
type exec_mode = [ `Fork | `Domains | `Auto ]

let exec_mode_to_string = function
  | `Fork -> "fork"
  | `Domains -> "domains"
  | `Auto -> "auto"

(* --- transient-failure retry ------------------------------------------- *)

(* The fixed retry policy: a job whose failure is transient (a crash,
   see {!Dfv_error.transient}) gets up to [retry_attempts] more attempts,
   the k-th after [retry_backoff * 2^k] seconds capped at
   [retry_max_backoff].  A timeout is not transient: the same job under
   the same budget times out again. *)
let retry_attempts = 2
let retry_backoff = 0.05
let retry_max_backoff = 2.0

let m_retry_attempts = Metrics.counter "pool.retry.attempts"
let m_retry_healed = Metrics.counter "pool.retry.healed"
let m_retry_exhausted = Metrics.counter "pool.retry.exhausted"
let m_interrupted = Metrics.counter "pool.interrupted"
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

type 'r race = {
  winner : (int * 'r) option;
  outcomes : 'r outcome option array;
}

(* The race rule both executors share: the lowest job index among the
   recorded conclusive results wins, so a photo finish is deterministic. *)
let winner_of ~conclusive outcomes =
  let rec scan i =
    if i >= Array.length outcomes then None
    else
      match outcomes.(i) with
      | Some (Ok r) when conclusive r -> Some (i, r)
      | _ -> scan (i + 1)
  in
  scan 0

(* A map is a race without a conclusive predicate, so an outcome left
   [None] is a job the stop flag kept from finishing. *)
let outcomes_of_race ?(label = string_of_int) r =
  Array.to_list r.outcomes
  |> List.mapi (fun i o ->
         match o with
         | Some o -> o
         | None ->
           if stop_requested () then
             Error (Dfv_error.Interrupted { job = label i })
           else
             (* Unreachable without cancellation, but total. *)
             Error
               (Dfv_error.Worker_crashed
                  { job = label i; detail = "job never completed" }))

(* --- wire protocol ----------------------------------------------------- *)

let line kind job fields =
  Json.to_string
    (Json.envelope ~schema:"dfv-par" ~version:1
       (("kind", Json.String kind) :: ("job", Json.Int job) :: fields))
  ^ "\n"

let heartbeat_line job = line "heartbeat" job []
let result_line job payload = line "result" job [ ("payload", payload) ]
let error_line job e = line "error" job [ ("error", Dfv_error.to_json e) ]

(* The worker's observability deltas, shipped as one extra protocol line
   just before the result.  The child reset its sinks at job start, so
   each section is this job's contribution alone — the parent can merge
   by plain summation. *)
let telemetry_line job =
  line "telemetry" job
    [ ("metrics", Metrics.snapshot ());
      ("trace", Trace.export ());
      ("coverage", Coverage.snapshot ()) ]

(* --- child side -------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> ()

(* Runs in the forked child; never returns.  The heartbeat fires from a
   SIGALRM handler (delivered at OCaml safe points, so a worker wedged
   below the runtime stops beating — which is exactly the signal the
   parent wants).  The timer is disarmed before the result is written so
   a heartbeat can never tear the result line. *)
let child ~heartbeat ~job ~fd f x encode =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> write_all fd (heartbeat_line job)));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_value = heartbeat; it_interval = heartbeat });
  (* The fork copied the parent's registries and trace ring wholesale.
     Zero them (and re-install a fresh sink under this pid/epoch) so the
     telemetry shipped at job end is this job's pure delta — the parent
     merges deltas, never absolute copies of its own state. *)
  Metrics.reset ();
  if Trace.enabled () then Trace.enable ();
  Coverage.reset ();
  let out =
    match Dfv_error.guard (fun () -> encode (f x)) with
    | Ok payload -> result_line job payload
    | Error e -> error_line job e
    | exception e ->
      error_line job (Dfv_error.Internal (Printexc.to_string e))
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.0; it_interval = 0.0 });
  write_all fd (telemetry_line job);
  write_all fd out;
  Unix._exit 0

(* --- parent side ------------------------------------------------------- *)

type 'r worker = {
  pid : int;
  fd : Unix.file_descr;
  job : int;
  started : float;
  mutable last_beat : float;
  buf : Buffer.t;
  mutable delivered : 'r outcome option;
  mutable shipped : Json.t option; (* this attempt's telemetry line, if any *)
}

let signal_name s =
  if s = Sys.sigkill then "SIGKILL (OOM killer or operator)"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigill then "SIGILL"
  else Printf.sprintf "signal %d" s

let status_detail = function
  | Unix.WEXITED 0 -> "worker exited 0 without delivering a result"
  | Unix.WEXITED n -> Printf.sprintf "worker exited %d" n
  | Unix.WSIGNALED s -> "worker killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "worker stopped by " ^ signal_name s

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

let kill_quietly pid =
  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* The heartbeat staleness factor: a worker silent for this many
   heartbeat periods is presumed wedged and killed. *)
let stale_factor = 20.0

(* Merge one worker's shipped telemetry into the parent-side sinks.
   Called only when a job's outcome becomes *final*: a retried attempt's
   telemetry dies with its worker record, so replays never double-count.
   Merge failures are observable (pool.telemetry.errors) but never fail
   the job — a campaign's verdicts must not depend on bookkeeping. *)
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

let run (type a r) ?jobs ?timeout ?(heartbeat = 0.5) ?label ?on_result
    ~(encode : r -> Json.t)
    ~(decode : Json.t -> (r, string) result)
    ~(conclusive : (r -> bool) option) (f : a -> r) (inputs : a list) :
    r race =
  let jobs = match jobs with None -> cores () | Some j -> j in
  if jobs < 1 then invalid_arg "Pool: jobs must be >= 1";
  if heartbeat <= 0.0 then invalid_arg "Pool: heartbeat must be positive";
  (match timeout with
  | Some t when t <= 0.0 -> invalid_arg "Pool: timeout must be positive"
  | _ -> ());
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let label = match label with Some l -> l | None -> string_of_int in
  let outcomes : r outcome option array = Array.make n None in
  let winner = ref None in
  let live : (Unix.file_descr, r worker) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let cancelled = ref false in
  let tries = Array.make (max n 1) 0 in
  (* Jobs awaiting a retry slot: (not-before time, job index). *)
  let pending = ref [] in
  let now () = Unix.gettimeofday () in
  (* Exponential backoff with deterministic jitter: the k-th retry of
     job [j] waits backoff * 2^k (capped), scaled into [0.5, 1.0) by a
     pure function of (j, k) — spread without a global RNG, so two runs
     of the same campaign schedule identically. *)
  let retry_delay job k =
    let base =
      Float.min retry_max_backoff (retry_backoff *. (2.0 ** float_of_int k))
    in
    let jitter = float_of_int (job_seed ~seed:k job land 1023) /. 2048.0 in
    base *. (0.5 +. jitter)
  in
  let launch i =
    flush stdout;
    flush stderr;
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      (* The child inherits read ends of its siblings' pipes; closing
         them keeps the fd table tidy (EOF semantics only depend on
         write ends, which the parent closed after each earlier fork). *)
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
        live;
      child ~heartbeat ~job:i ~fd:wr f inputs.(i) encode
    | pid ->
      Unix.close wr;
      let t = now () in
      Hashtbl.replace live rd
        {
          pid;
          fd = rd;
          job = i;
          started = t;
          last_beat = t;
          buf = Buffer.create 256;
          delivered = None;
          shipped = None;
        }
  in
  let deliver w outcome =
    outcomes.(w.job) <- Some outcome;
    (match w.shipped with
    | Some v -> merge_telemetry ~job:w.job v
    | None -> ());
    if tries.(w.job) > 0 then
      (match outcome with
      | Error e when Dfv_error.transient e -> Metrics.incr m_retry_exhausted
      | Ok _ | Error _ -> Metrics.incr m_retry_healed);
    match on_result with Some notify -> notify w.job outcome | None -> ()
  in
  (* A worker failure that may be transient (see {!Dfv_error.transient})
     re-enters the queue with backoff instead of being recorded, until
     the job's retry budget runs out — then the failure stands. *)
  let record w outcome =
    if outcomes.(w.job) = None then
      match outcome with
      | Error e
        when Dfv_error.transient e
             && tries.(w.job) < retry_attempts
             && (not !cancelled)
             && not (stop_requested ()) ->
        tries.(w.job) <- tries.(w.job) + 1;
        Metrics.incr m_retry_attempts;
        pending :=
          (now () +. retry_delay w.job (tries.(w.job) - 1), w.job) :: !pending
      | _ -> deliver w outcome
  in
  let close_worker w =
    Hashtbl.remove live w.fd;
    (try Unix.close w.fd with Unix.Unix_error _ -> ())
  in
  (* A finished pipe: use the delivered result if the worker sent one,
     otherwise classify from the exit status. *)
  let finalize_eof w =
    close_worker w;
    let status = reap w.pid in
    match w.delivered with
    | Some outcome -> record w outcome
    | None ->
      record w
        (Error
           (Dfv_error.Worker_crashed
              { job = label w.job; detail = status_detail status }))
  in
  let kill_with w outcome =
    close_worker w;
    kill_quietly w.pid;
    ignore (reap w.pid);
    record w outcome
  in
  let handle_line w l =
    if String.trim l = "" then ()
    else
      match Json.parse l with
      | Error m ->
        w.delivered <-
          Some
            (Error
               (Dfv_error.Worker_crashed
                  { job = label w.job; detail = "bad result line: " ^ m }))
      | Ok v -> (
        match Json.field "kind" v with
        | Some (Json.String "heartbeat") -> ()
        | Some (Json.String "telemetry") -> w.shipped <- Some v
        | Some (Json.String "result") -> (
          match Json.field "payload" v with
          | Some payload -> (
            match decode payload with
            | Ok r -> w.delivered <- Some (Ok r)
            | Error m ->
              w.delivered <-
                Some
                  (Error
                     (Dfv_error.Worker_crashed
                        { job = label w.job; detail = "undecodable payload: " ^ m })))
          | None ->
            w.delivered <-
              Some
                (Error
                   (Dfv_error.Worker_crashed
                      { job = label w.job; detail = "result line without payload" })))
        | Some (Json.String "error") -> (
          match Json.field "error" v with
          | Some ej -> (
            match Dfv_error.of_json ej with
            | Ok e -> w.delivered <- Some (Error e)
            | Error m ->
              w.delivered <-
                Some
                  (Error
                     (Dfv_error.Worker_crashed
                        { job = label w.job; detail = "undecodable error: " ^ m })))
          | None ->
            w.delivered <-
              Some
                (Error
                   (Dfv_error.Worker_crashed
                      { job = label w.job; detail = "error line without error" })))
        | _ ->
          w.delivered <-
            Some
              (Error
                 (Dfv_error.Worker_crashed
                    { job = label w.job; detail = "unknown protocol line" })))
  in
  let drain_buffer w =
    let rec go () =
      let contents = Buffer.contents w.buf in
      match String.index_opt contents '\n' with
      | None -> ()
      | Some i ->
        let l = String.sub contents 0 i in
        let rest =
          String.sub contents (i + 1) (String.length contents - i - 1)
        in
        Buffer.clear w.buf;
        Buffer.add_string w.buf rest;
        handle_line w l;
        go ()
    in
    go ()
  in
  let cancel_rest () =
    cancelled := true;
    Hashtbl.fold (fun _ w acc -> w :: acc) live []
    |> List.iter (fun w ->
           close_worker w;
           kill_quietly w.pid;
           ignore (reap w.pid))
  in
  let chunk = Bytes.create 8192 in
  (* Launch retries whose backoff has elapsed, oldest deadline first,
     as far as free worker slots allow. *)
  let launch_due t =
    let due, later = List.partition (fun (nb, _) -> nb <= t) !pending in
    let rec go = function
      | [] -> []
      | ((_, j) :: rest) as all ->
        if
          Hashtbl.length live < jobs
          && (not !cancelled)
          && not (stop_requested ())
        then begin
          launch j;
          go rest
        end
        else all
    in
    pending := go (List.sort compare due) @ later
  in
  while
    (not !cancelled)
    && (not (stop_requested ()))
    && (!next < n || Hashtbl.length live > 0 || !pending <> [])
  do
    launch_due (now ());
    while
      (not !cancelled)
      && (not (stop_requested ()))
      && !next < n
      && Hashtbl.length live < jobs
    do
      launch !next;
      incr next
    done;
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) live [] in
    if fds <> [] then begin
      (* Sleep until the nearest deadline (job timeout, heartbeat
         staleness or retry backoff), capped so launches — and the stop
         flag — stay responsive. *)
      let t = now () in
      let deadline =
        Hashtbl.fold
          (fun _ w acc ->
            let acc =
              match timeout with
              | Some budget -> min acc (w.started +. budget -. t)
              | None -> acc
            in
            min acc (w.last_beat +. (stale_factor *. heartbeat) -. t))
          live 1.0
      in
      let deadline =
        List.fold_left (fun acc (nb, _) -> min acc (nb -. t)) deadline !pending
      in
      let select_timeout = Float.max 0.01 (Float.min 1.0 deadline) in
      let readable =
        match Unix.select fds [] [] select_timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      let t = now () in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt live fd with
          | None -> ()
          | Some w -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              drain_buffer w;
              finalize_eof w
            | got ->
              w.last_beat <- t;
              Buffer.add_subbytes w.buf chunk 0 got;
              drain_buffer w
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ ->
              drain_buffer w;
              finalize_eof w))
        readable;
      (* Enforce deadlines on whoever is still live and silent. *)
      let t = now () in
      Hashtbl.fold (fun _ w acc -> w :: acc) live []
      |> List.iter (fun w ->
             if w.delivered = None then begin
               match timeout with
               | Some budget when t -. w.started > budget ->
                 kill_with w
                   (Error
                      (Dfv_error.Worker_timeout
                         { job = label w.job; seconds = budget }))
               | _ ->
                 if t -. w.last_beat > stale_factor *. heartbeat then
                   kill_with w
                     (Error
                        (Dfv_error.Worker_crashed
                           {
                             job = label w.job;
                             detail =
                               Printf.sprintf
                                 "no heartbeat for %.1fs (worker wedged)"
                                 (t -. w.last_beat);
                           }))
             end);
      (* Portfolio cancellation: once a winner emerges, everyone else
         is cancelled. *)
      match conclusive with
      | Some conclusive when !winner = None ->
        winner := winner_of ~conclusive outcomes;
        if Option.is_some !winner then cancel_rest ()
      | _ -> ()
    end
    else if !pending <> [] && not (stop_requested ()) then begin
      (* Nothing live, only backoffs pending: sleep until the earliest
         retry becomes due (capped so the stop flag stays responsive). *)
      let t = now () in
      let wake =
        List.fold_left (fun acc (nb, _) -> Float.min acc (nb -. t)) 1.0 !pending
      in
      if wake > 0.0 then Unix.sleepf (Float.min 1.0 wake)
    end
  done;
  (* An operator stop: kill whatever is still running; unfinished jobs
     keep [None] outcomes and surface as [Interrupted] in {!map}. *)
  if stop_requested () && not !cancelled then begin
    cancel_rest ();
    Array.iter (fun o -> if o = None then Metrics.incr m_interrupted) outcomes
  end;
  { winner = !winner; outcomes }

let map ?jobs ?timeout ?heartbeat ?label ?on_result ~encode ~decode f inputs =
  run ?jobs ?timeout ?heartbeat ?label ?on_result ~encode ~decode
    ~conclusive:None f inputs
  |> outcomes_of_race ?label

let race ?jobs ?timeout ?heartbeat ?label ?on_result ~encode ~decode
    ~conclusive f inputs =
  run ?jobs ?timeout ?heartbeat ?label ?on_result ~encode ~decode
    ~conclusive:(Some conclusive) f inputs
