module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace
module Dfv_error = Dfv_core.Dfv_error
module Pool = Dfv_par.Pool
module Dpool = Dfv_par.Dpool
module Portfolio = Dfv_par.Portfolio
module Fingerprint = Dfv_sec.Fingerprint
module Pair = Dfv_core.Pair
module Flow = Dfv_core.Flow
module Suite = Dfv_fault.Suite
module Campaign = Dfv_fault.Campaign

let m_requests = Metrics.counter "serve.requests"
let m_solves = Metrics.counter "serve.solves"
let m_coalesced = Metrics.counter "serve.coalesced"
let m_errors = Metrics.counter "serve.errors"
let g_queue = Metrics.gauge "serve.queue.depth"

type config = {
  socket : string;
  capacity : int;
  store : string option;
  jobs : int;
  summary : string option;
  log_limit : int;
}

let default_config ~socket =
  {
    socket;
    capacity = 256;
    store = None;
    jobs = Pool.cores ();
    summary = None;
    log_limit = 4096;
  }

(* --- cache keys --------------------------------------------------------- *)

(* The key names *what was verified*: operation, structural fingerprints
   of the design/spec, and exactly the knobs that can change a verdict
   (budget, stimulus seed).  Never file names, request ids, or jobs —
   see DESIGN.md §16. *)
let sec_key pair budget =
  Fingerprint.combine
    [ "sec";
      Fingerprint.pair ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
        ~spec:pair.Pair.spec;
      Dfv_sat.Solver.budget_key budget ]

let sim_key pair ~vectors ~seed =
  Fingerprint.combine
    [ "sim";
      Fingerprint.pair ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
        ~spec:pair.Pair.spec;
      Fingerprint.stimulus ~seed ~vectors ]

let faultsim_key ~designs ~seed ~max_rtl_faults ~max_slm_faults ~sim_vectors
    ~budget =
  Fingerprint.combine
    [ "faultsim";
      Suite.campaign_key ~budget ~seed ~sim_vectors ~engine:None
        ~max_rtl_faults ~max_slm_faults ~designs ]

(* --- solvable jobs ------------------------------------------------------ *)

type solvable =
  | J_sec of Pair.t * Dfv_sat.Solver.budget option
  | J_sim of Pair.t * int * int  (** vectors, seed *)
  | J_faultsim of {
      designs : string list;
      seed : int;
      max_rtl_faults : int;
      max_slm_faults : int;
      sim_vectors : int;
      budget : Dfv_sat.Solver.budget option;
    }

(* Runs inside a pool worker.  Campaigns run with the per-mutant pool
   disabled: the server's executor is the parallelism, and a pool
   inside a pooled job would only contend with it. *)
let solve = function
  | J_sec (pair, budget) ->
    let v = Flow.sec ?budget pair in
    Ok (Protocol.R_sec (Portfolio.slm_wire_of_verdict v))
  | J_sim (pair, vectors, seed) -> (
    match Flow.simulate ~seed ~vectors pair with
    | Ok (Flow.Sim_clean { vectors }) ->
      Ok (Protocol.R_sim (Protocol.Sim_clean vectors))
    | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
      Ok (Protocol.R_sim (Protocol.Sim_mismatch vector_index))
    | Error e -> Error e)
  | J_faultsim { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors; budget }
    ->
    let reports =
      Suite.run ?budget ~seed ~sim_vectors ~pool:false ~max_rtl_faults
        ~max_slm_faults ~designs ()
    in
    let f_rate, f_false_eq, f_pass =
      Suite.gate ~min_rate:Suite.default_min_rate reports
    in
    let f_report =
      Campaign.json_of_reports ~min_rate:Suite.default_min_rate reports
    in
    Ok (Protocol.R_faultsim { f_pass; f_rate; f_false_eq; f_report })

(* --- clients ------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  mutable pending_input : string;  (** partial last line *)
  mutable closed : bool;
}

let write_all c s =
  if not c.closed then
    try
      let b = Bytes.of_string s in
      let n = ref 0 in
      while !n < Bytes.length b do
        n := !n + Unix.write c.fd b !n (Bytes.length b - !n)
      done
    with Unix.Unix_error _ | Sys_error _ -> c.closed <- true

let close_client c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* --- per-endpoint accounting -------------------------------------------- *)

type endpoint = {
  mutable ep_requests : int;
  mutable ep_hits : int;
  mutable ep_misses : int;
  mutable ep_solves : int;
  mutable ep_errors : int;
  mutable ep_seconds : float;
}

type state = {
  cfg : config;
  cache : Cache.t;
  endpoints : (string, endpoint) Hashtbl.t;
  log : Json.t array;
      (** ring of the newest [log_limit] requests: request [i] (counted
          from 0) sits in slot [i mod log_limit] *)
  mutable logged : int;  (** requests logged so far *)
  mutable requests : int;
  started : float;
  resolve_pair : design:string -> bug:string -> (Pair.t, string) result;
}

let endpoint st name =
  match Hashtbl.find_opt st.endpoints name with
  | Some e -> e
  | None ->
    let e =
      {
        ep_requests = 0;
        ep_hits = 0;
        ep_misses = 0;
        ep_solves = 0;
        ep_errors = 0;
        ep_seconds = 0.;
      }
    in
    Hashtbl.replace st.endpoints name e;
    e

let log_request st ~id ~op ~key ~cached ~seconds ~status =
  let n = Array.length st.log in
  if n > 0 then
    st.log.(st.logged mod n) <-
      Json.Obj
        [ ("id", Json.Int id);
          ("op", Json.String op);
          ("key", Json.String key);
          ("cached", Json.Bool cached);
          ("seconds", Json.Float seconds);
          ("status", Json.String status) ];
  st.logged <- st.logged + 1

(* The kept entries, oldest first. *)
let log_entries st =
  let n = Array.length st.log in
  let kept = min st.logged n in
  List.init kept (fun i -> st.log.((st.logged - kept + i) mod n))

let summary_json st =
  let endpoints =
    Hashtbl.fold
      (fun name e acc ->
        let hit_rate =
          if e.ep_requests = 0 then 0.
          else float_of_int e.ep_hits /. float_of_int e.ep_requests
        in
        Json.Obj
          [ ("op", Json.String name);
            ("requests", Json.Int e.ep_requests);
            ("hits", Json.Int e.ep_hits);
            ("misses", Json.Int e.ep_misses);
            ("solves", Json.Int e.ep_solves);
            ("errors", Json.Int e.ep_errors);
            ("hit_rate", Json.Float hit_rate);
            ( "mean_seconds",
              Json.Float
                (if e.ep_requests = 0 then 0.
                 else e.ep_seconds /. float_of_int e.ep_requests) ) ]
        :: acc)
      st.endpoints []
    |> List.sort compare
  in
  Json.envelope ~schema:Protocol.schema ~version:Protocol.version
    [ ("kind", Json.String "summary");
      ("requests", Json.Int st.requests);
      ("endpoints", Json.List endpoints);
      ( "cache",
        Json.Obj
          [ ("size", Json.Int (Cache.size st.cache));
            ("capacity", Json.Int (Cache.capacity st.cache));
            ("hits", Json.Int (Cache.hits st.cache));
            ("misses", Json.Int (Cache.misses st.cache));
            ("evicted", Json.Int (Cache.evicted st.cache));
            ("rejected", Json.Int (Cache.rejected st.cache));
            ("replayed", Json.Int (Cache.replayed st.cache)) ] );
      ("uptime_seconds", Json.Float (Unix.gettimeofday () -. st.started));
      ("log_truncated", Json.Bool (st.logged > Array.length st.log));
      ("log", Json.List (log_entries st)) ]

(* --- request handling --------------------------------------------------- *)

type pending = {
  p_client : client;
  p_id : int;
  p_name : string;
  p_key : string;
  p_job : solvable;
  p_span : Trace.span;
  p_start : float;
}

let respond st c ~id ~name ~key ~cached ~start ~span outcome =
  let seconds = Unix.gettimeofday () -. start in
  let e = endpoint st name in
  e.ep_seconds <- e.ep_seconds +. seconds;
  let status =
    match outcome with
    | Ok p -> Protocol.payload_status p
    | Error err ->
      e.ep_errors <- e.ep_errors + 1;
      Metrics.incr m_errors;
      Dfv_error.to_string err
  in
  log_request st ~id ~op:name ~key ~cached ~seconds ~status;
  Trace.end_span span;
  write_all c
    (Protocol.frame
       (Protocol.response_to_json
          { Protocol.rsp_id = id; key; cached; seconds; outcome }))

(* Answer one parsed request frame.  Control ops are answered inline;
   verify ops come back as [Some pending] for the batch. *)
let admit st c (req : Protocol.request) running =
  st.requests <- st.requests + 1;
  Metrics.incr m_requests;
  let name = Protocol.op_name req.op in
  let e = endpoint st name in
  e.ep_requests <- e.ep_requests + 1;
  let span =
    Trace.begin_span ~cat:"serve"
      ~args:[ ("id", Json.Int req.id) ]
      ("serve." ^ name)
  in
  let start = Unix.gettimeofday () in
  let inline payload =
    respond st c ~id:req.id ~name ~key:"" ~cached:false ~start ~span
      (Ok payload);
    None
  in
  let reject m =
    respond st c ~id:req.id ~name ~key:"" ~cached:false ~start ~span
      (Error (Dfv_error.Internal m));
    None
  in
  let verify ~key job =
    Some
      {
        p_client = c;
        p_id = req.id;
        p_name = name;
        p_key = key;
        p_job = job;
        p_span = span;
        p_start = start;
      }
  in
  match req.op with
  | Protocol.Ping -> inline Protocol.R_pong
  | Protocol.Stats -> inline (Protocol.R_stats (summary_json st))
  | Protocol.Shutdown ->
    running := false;
    inline Protocol.R_shutdown
  | Protocol.Sec { design; bug; budget } -> (
    match st.resolve_pair ~design ~bug with
    | Error m -> reject m
    | Ok pair -> verify ~key:(sec_key pair budget) (J_sec (pair, budget)))
  | Protocol.Sim { design; bug; vectors; seed } -> (
    match st.resolve_pair ~design ~bug with
    | Error m -> reject m
    | Ok pair ->
      verify ~key:(sim_key pair ~vectors ~seed) (J_sim (pair, vectors, seed)))
  | Protocol.Faultsim
      { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors; budget } ->
    let key =
      faultsim_key ~designs ~seed ~max_rtl_faults ~max_slm_faults ~sim_vectors
        ~budget
    in
    verify ~key
      (J_faultsim
         { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors; budget })

(* Serve a batch of verify requests: probe the cache, coalesce misses by
   key, dispatch one solve per unique key, fan results back out. *)
let serve_batch st batch =
  let hits, misses =
    List.partition_map
      (fun p ->
        match Cache.find st.cache p.p_key with
        | Some payload -> Left (p, payload)
        | None -> Right p)
      batch
  in
  List.iter
    (fun (p, payload) ->
      let outcome =
        match Protocol.payload_of_json payload with
        | Ok pl -> Ok pl
        | Error m -> Error (Dfv_error.Internal ("poisoned cache entry: " ^ m))
      in
      let e = endpoint st p.p_name in
      e.ep_hits <- e.ep_hits + 1;
      respond st p.p_client ~id:p.p_id ~name:p.p_name ~key:p.p_key
        ~cached:true ~start:p.p_start ~span:p.p_span outcome)
    hits;
  if misses <> [] then begin
    (* Coalesce: one solve per unique key, every duplicate waiter
       answered from that one result. *)
    let order = ref [] in
    let groups : (string, pending list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let e = endpoint st p.p_name in
        e.ep_misses <- e.ep_misses + 1;
        match Hashtbl.find_opt groups p.p_key with
        | Some l ->
          Metrics.incr m_coalesced;
          l := p :: !l
        | None ->
          Hashtbl.replace groups p.p_key (ref [ p ]);
          order := p.p_key :: !order)
      misses;
    let keys = List.rev !order in
    let rep key = List.hd !(Hashtbl.find groups key) in
    Metrics.add m_solves (List.length keys);
    List.iter
      (fun key ->
        let e = endpoint st (rep key).p_name in
        e.ep_solves <- e.ep_solves + 1)
      keys;
    let outcomes =
      Trace.with_span ~cat:"serve"
        ~args:[ ("solves", Json.Int (List.length keys)) ]
        "serve.solve_batch"
        (fun () ->
          Dpool.map ~jobs:st.cfg.jobs
            ~label:(fun i -> "serve:" ^ (rep (List.nth keys i)).p_name)
            (fun key -> solve (rep key).p_job)
            keys)
    in
    List.iter2
      (fun key outcome ->
        let outcome =
          match outcome with
          | Ok (Ok p) ->
            (* Only successful verdicts enter the cache: an error is a
               fact about this run, not about the design. *)
            Cache.add st.cache ~key (Protocol.payload_to_json p);
            Ok p
          | Ok (Error e) -> Error e
          | Error e -> Error e
        in
        List.iter
          (fun p ->
            respond st p.p_client ~id:p.p_id ~name:p.p_name ~key:p.p_key
              ~cached:false ~start:p.p_start ~span:p.p_span outcome)
          (List.rev !(Hashtbl.find groups key)))
      keys outcomes
  end

(* --- the daemon --------------------------------------------------------- *)

let run ~resolve cfg =
  let cache =
    match
      Cache.create ~capacity:cfg.capacity ?store:cfg.store
        ~validate:Protocol.payload_valid ()
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  let st =
    {
      cfg;
      cache;
      endpoints = Hashtbl.create 8;
      log = Array.make (max 0 cfg.log_limit) Json.Null;
      logged = 0;
      requests = 0;
      started = Unix.gettimeofday ();
      resolve_pair = resolve;
    }
  in
  (* A stale socket file from a dead daemon would make bind fail; a
     *live* daemon holds the path, and replacing it out from under one
     is on the operator. *)
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listener 64;
  Printf.printf "dfv serve: listening on %s (cache %d%s)\n%!" cfg.socket
    cfg.capacity
    (match cfg.store with
    | Some s ->
      Printf.sprintf ", store %s, %d replayed, %d rejected" s
        (Cache.replayed cache) (Cache.rejected cache)
    | None -> "");
  let clients = ref [] in
  let running = ref true in
  (* Ignore EPIPE: a client that disconnects mid-response must not kill
     the daemon; write_all maps the failure to a closed client. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  (* One read buffer for the daemon's life: each read is copied out
     before the next, and a fresh 64 KiB buffer per read is a major-heap
     allocation. *)
  let buf = Bytes.create 65536 in
  while !running && not (Pool.stop_requested ()) do
    let fds = listener :: List.map (fun c -> c.fd) !clients in
    let readable, _, _ =
      try Unix.select fds [] [] 0.25
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listener readable then begin
      match Unix.accept listener with
      | fd, _ ->
        clients :=
          { fd; pending_input = ""; closed = false } :: !clients
      | exception Unix.Unix_error _ -> ()
    end;
    let batch = ref [] in
    List.iter
      (fun c ->
        if (not c.closed) && List.mem c.fd readable then begin
          let n =
            try Unix.read c.fd buf 0 (Bytes.length buf)
            with Unix.Unix_error _ -> 0
          in
          if n = 0 then close_client c
          else begin
            let data = c.pending_input ^ Bytes.sub_string buf 0 n in
            let parts = String.split_on_char '\n' data in
            let rec go = function
              | [] -> ()
              | [ last ] -> c.pending_input <- last
              | line :: rest ->
                (if String.trim line <> "" then
                   match
                     Result.bind (Protocol.parse_frame line)
                       Protocol.request_of_json
                   with
                   | Ok req -> (
                     match admit st c req running with
                     | Some p -> batch := p :: !batch
                     | None -> ())
                   | Error m ->
                     write_all c
                       (Protocol.frame
                          (Protocol.response_to_json
                             {
                               Protocol.rsp_id = -1;
                               key = "";
                               cached = false;
                               seconds = 0.;
                               outcome = Error (Dfv_error.Internal m);
                             })));
                go rest
            in
            go parts
          end
        end)
      !clients;
    Metrics.set_gauge g_queue (List.length !batch);
    serve_batch st (List.rev !batch);
    Metrics.set_gauge g_queue 0;
    clients := List.filter (fun c -> not c.closed) !clients
  done;
  let interrupted = Pool.stop_requested () in
  List.iter close_client !clients;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  (match cfg.summary with
  | Some path -> Json.write_file path (summary_json st)
  | None -> ());
  Cache.close cache;
  (match prev_sigpipe with
  | Some b -> ( try ignore (Sys.signal Sys.sigpipe b) with _ -> ())
  | None -> ());
  if interrupted then 4 else 0
