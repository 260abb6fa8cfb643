(* The dfv serve stack: protocol codecs, the content-addressed LRU
   cache with its journal-backed disk store, and the daemon end to end
   over a real Unix socket — coalescing, cache hits, byte-identical
   verdicts, interruption, and store replay across restarts.

   ORDERING: the end-to-end tests fork server children, so this suite
   must run before any test spawns a domain (OCaml 5 forbids fork
   after domains) — test_main registers it before fault-domains. *)

module Cache = Dfv_serve.Cache
module Protocol = Dfv_serve.Protocol
module Server = Dfv_serve.Server
module Client = Dfv_serve.Client
module Json = Dfv_obs.Json
module Journal = Dfv_par.Journal
module Fingerprint = Dfv_sec.Fingerprint
module Portfolio = Dfv_par.Portfolio
module Dfv_error = Dfv_core.Dfv_error
module Pair = Dfv_core.Pair
module Gcd = Dfv_designs.Gcd

let tmp suffix = Filename.temp_file "dfv_serve" suffix

let gcd_pair () =
  let t = Gcd.make ~width:4 in
  Pair.create ~name:"gcd" ~slm:t.Gcd.slm ~rtl:t.Gcd.rtl ~spec:t.Gcd.spec

(* The server's sec cache key, re-derived independently: the whole
   cache rests on this being a pure function of the structural content,
   equal across processes. *)
let sec_key pair budget =
  Fingerprint.combine
    [ "sec";
      Fingerprint.pair ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
        ~spec:pair.Pair.spec;
      Protocol.budget_key budget ]

(* --- protocol ----------------------------------------------------------- *)

let roundtrip_request r =
  match Protocol.request_of_json (Protocol.request_to_json r) with
  | Ok r' ->
    Alcotest.(check string)
      "request JSON round-trips"
      (Json.to_string (Protocol.request_to_json r))
      (Json.to_string (Protocol.request_to_json r'))
  | Error m -> Alcotest.failf "request did not decode: %s" m

let test_protocol_requests () =
  List.iter roundtrip_request
    [ { Protocol.id = 1; op = Protocol.Ping };
      { Protocol.id = 2; op = Protocol.Stats };
      { Protocol.id = 3; op = Protocol.Shutdown };
      {
        Protocol.id = 4;
        op = Protocol.Sec { design = "gcd"; bug = "none"; budget = None };
      };
      {
        Protocol.id = 5;
        op =
          Protocol.Sec
            {
              design = "alu";
              bug = "missing-carry";
              budget =
                Some
                  {
                    Dfv_sat.Solver.max_conflicts = Some 1000;
                    max_seconds = Some 2.5;
                  };
            };
      };
      {
        Protocol.id = 6;
        op =
          Protocol.Sim { design = "fir"; bug = "cstyle"; vectors = 77; seed = 9 };
      };
      {
        Protocol.id = 7;
        op =
          Protocol.Faultsim
            {
              designs = [ "gcd"; "alu" ];
              seed = 3;
              max_rtl_faults = 5;
              max_slm_faults = 2;
              sim_vectors = 100;
              budget = None;
            };
      } ]

let roundtrip_response r =
  match Protocol.response_of_json (Protocol.response_to_json r) with
  | Ok r' ->
    Alcotest.(check string)
      "response JSON round-trips"
      (Json.to_string (Protocol.response_to_json r))
      (Json.to_string (Protocol.response_to_json r'))
  | Error m -> Alcotest.failf "response did not decode: %s" m

let test_protocol_responses () =
  let mk outcome =
    {
      Protocol.rsp_id = 11;
      key = "abc";
      cached = true;
      seconds = 0.25;
      outcome;
    }
  in
  List.iter roundtrip_response
    [ mk (Ok Protocol.R_pong);
      mk (Ok Protocol.R_shutdown);
      mk (Ok (Protocol.R_sim (Protocol.Sim_clean 100)));
      mk (Ok (Protocol.R_sim (Protocol.Sim_mismatch 23)));
      mk
        (Ok
           (Protocol.R_faultsim
              {
                Protocol.f_pass = false;
                f_rate = 0.875;
                f_false_eq = 1;
                f_report = Json.Obj [ ("subjects", Json.List []) ];
              }));
      mk (Ok (Protocol.R_stats (Json.Obj [ ("requests", Json.Int 3) ])));
      mk (Error (Dfv_error.Worker_timeout { job = "sec:gcd"; seconds = 5.0 }));
      mk (Error (Dfv_error.Interrupted { job = "serve" })) ]

let test_protocol_rejects () =
  let bad s =
    match Result.bind (Protocol.parse_frame s) Protocol.request_of_json with
    | Ok _ -> Alcotest.failf "accepted bad frame: %s" s
    | Error _ -> ()
  in
  bad "{}";
  bad "{\"schema\":\"dfv-serve\",\"version\":1}";
  bad "{\"schema\":\"dfv-serve\",\"version\":1,\"kind\":\"request\",\"id\":1}";
  bad
    "{\"schema\":\"dfv-serve\",\"version\":1,\"kind\":\"request\",\"id\":1,\
     \"op\":\"frobnicate\"}";
  bad
    "{\"schema\":\"dfv-trace\",\"version\":1,\"kind\":\"request\",\"id\":1,\
     \"op\":\"ping\"}";
  bad "not json at all"

(* --- cache: LRU discipline --------------------------------------------- *)

let payload n = Json.Obj [ ("n", Json.Int n) ]

let test_cache_lru_eviction () =
  let c = Result.get_ok (Cache.create ~capacity:3 ()) in
  Cache.add c ~key:"k1" (payload 1);
  Cache.add c ~key:"k2" (payload 2);
  Cache.add c ~key:"k3" (payload 3);
  Alcotest.(check (list string))
    "LRU order is insertion order" [ "k1"; "k2"; "k3" ] (Cache.lru_keys c);
  (* A hit moves k1 to most-recent; mem must not. *)
  Alcotest.(check bool) "k1 hit" true (Cache.find c "k1" <> None);
  Alcotest.(check bool) "mem k2" true (Cache.mem c "k2");
  Alcotest.(check (list string))
    "find touches, mem does not" [ "k2"; "k3"; "k1" ] (Cache.lru_keys c);
  Cache.add c ~key:"k4" (payload 4);
  Alcotest.(check (list string))
    "k2 (least recent) evicted" [ "k3"; "k1"; "k4" ] (Cache.lru_keys c);
  Alcotest.(check bool) "k2 gone" false (Cache.mem c "k2");
  Alcotest.(check int) "one eviction" 1 (Cache.evicted c);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check bool) "k2 probe misses" true (Cache.find c "k2" = None);
  Alcotest.(check int) "misses counted" 1 (Cache.misses c);
  Alcotest.(check int) "size" 3 (Cache.size c);
  Cache.close c

let test_cache_duplicate_add () =
  let c = Result.get_ok (Cache.create ~capacity:2 ()) in
  Cache.add c ~key:"k" (payload 1);
  Cache.add c ~key:"k" (payload 2);
  Alcotest.(check int) "no duplicate entry" 1 (Cache.size c);
  (match Cache.find c "k" with
  | Some p ->
    Alcotest.(check string)
      "first add wins" (Json.to_string (payload 1)) (Json.to_string p)
  | None -> Alcotest.fail "k vanished");
  Cache.close c

(* --- cache: disk store -------------------------------------------------- *)

let test_store_replay () =
  let store = tmp ".journal" in
  Sys.remove store;
  let c1 = Result.get_ok (Cache.create ~capacity:8 ~store ()) in
  Cache.add c1 ~key:"a" (payload 1);
  Cache.add c1 ~key:"b" (payload 2);
  Cache.close c1;
  let c2 = Result.get_ok (Cache.create ~capacity:8 ~store ()) in
  Alcotest.(check int) "both records replayed" 2 (Cache.replayed c2);
  Alcotest.(check int) "none rejected" 0 (Cache.rejected c2);
  Alcotest.(check (list string))
    "warmed in append order" [ "a"; "b" ] (Cache.lru_keys c2);
  (match Cache.find c2 "a" with
  | Some p ->
    Alcotest.(check string)
      "payload intact" (Json.to_string (payload 1)) (Json.to_string p)
  | None -> Alcotest.fail "a not warmed");
  Cache.close c2;
  (* A store beyond capacity warms only the newest entries. *)
  let c3 = Result.get_ok (Cache.create ~capacity:1 ~store ()) in
  Alcotest.(check (list string))
    "oldest fell out of a small LRU" [ "b" ] (Cache.lru_keys c3);
  Cache.close c3;
  Sys.remove store

let test_store_rejects_poison () =
  let store = tmp ".journal" in
  Sys.remove store;
  let c1 = Result.get_ok (Cache.create ~capacity:8 ~store ()) in
  Cache.add c1 ~key:"good" (Json.Obj [ ("ok", Json.Bool true) ]);
  Cache.close c1;
  (* Corrupt the store the two ways create must catch: a record filed
     under the wrong fingerprint (hash collision / external edit), and
     a record whose payload fails shape validation. *)
  let j =
    Result.get_ok (Journal.open_ ~path:store ~campaign:Cache.store_campaign)
  in
  Journal.append j
    ~fp:(Journal.fingerprint "some-other-key")
    (Json.Obj
       [ ("key", Json.String "collided"); ("entry", payload 1) ]);
  Journal.append j
    ~fp:(Journal.fingerprint "badshape")
    (Json.Obj
       [ ("key", Json.String "badshape");
         ("entry", Json.Obj [ ("malformed", Json.Bool true) ]) ]);
  Journal.close j;
  let validate p = Json.field "ok" p <> None in
  let c2 = Result.get_ok (Cache.create ~capacity:8 ~store ~validate ()) in
  Alcotest.(check int) "all records read" 3 (Cache.replayed c2);
  Alcotest.(check int) "both poisoned records rejected" 2 (Cache.rejected c2);
  Alcotest.(check int) "only the good entry served" 1 (Cache.size c2);
  Alcotest.(check bool) "good survives" true (Cache.mem c2 "good");
  Alcotest.(check bool) "collided not served" false (Cache.mem c2 "collided");
  Alcotest.(check bool) "badshape not served" false (Cache.mem c2 "badshape");
  Cache.close c2;
  Sys.remove store

let test_store_campaign_mismatch () =
  let store = tmp ".journal" in
  Sys.remove store;
  let j =
    Result.get_ok (Journal.open_ ~path:store ~campaign:"not-a-serve-store")
  in
  Journal.close j;
  (match Cache.create ~capacity:8 ~store () with
  | Ok _ -> Alcotest.fail "opened a foreign journal as a serve store"
  | Error _ -> ());
  Sys.remove store

(* --- fingerprints across processes -------------------------------------- *)

(* The restart story rests on key stability across processes: a child
   process re-derives the same sec key the parent computes.  (The
   end-to-end test then shows a *daemon* restart serving a warm hit.) *)
let test_fingerprint_stable_across_fork () =
  let parent_key = sec_key (gcd_pair ()) None in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let key = sec_key (gcd_pair ()) None in
    let b = Bytes.of_string key in
    ignore (Unix.write w b 0 (Bytes.length b));
    Unix.close w;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let buf = Bytes.create 256 in
    let n = Unix.read r buf 0 (Bytes.length buf) in
    Unix.close r;
    ignore (Unix.waitpid [] pid);
    Alcotest.(check string)
      "child re-derives the same key" parent_key
      (Bytes.sub_string buf 0 n)

(* --- the daemon end to end ---------------------------------------------- *)

let resolve ~design ~bug =
  if design = "gcd" && bug = "none" then Ok (gcd_pair ())
  else Error (Printf.sprintf "unknown %s/%s" design bug)

(* Fork a server child on [socket].  SIGTERM routes through the pool's
   cooperative stop flag, so the child exits with the daemon's return
   code (4: interrupted, resumable). *)
let fork_server ?store ?summary ?(log_limit = 4096) socket =
  match Unix.fork () with
  | 0 ->
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.dup2 devnull Unix.stderr;
    Unix.close devnull;
    Dfv_par.Pool.reset_stop ();
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Dfv_par.Pool.request_stop ()));
    let cfg =
      {
        (Server.default_config ~socket) with
        Server.capacity = 16;
        store;
        summary;
        jobs = 2;
        log_limit;
      }
    in
    let code = try Server.run ~resolve cfg with _ -> 3 in
    Unix._exit code
  | pid -> pid

let connect socket =
  match Client.connect ~retries:100 ~delay:0.05 socket with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let call c op =
  match Client.call c op with
  | Ok r -> r
  | Error m -> Alcotest.failf "call: %s" m

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "server stopped"

let payload_exn r =
  match r.Protocol.outcome with
  | Ok p -> p
  | Error e -> Alcotest.failf "server error: %s" (Dfv_error.to_string e)

let int_field v name = Option.value ~default:(-1) (Json.int_field name v)

let endpoint_stats stats op =
  match Json.field "endpoints" stats with
  | Some (Json.List eps) -> (
    match
      List.find_opt
        (fun e -> Json.field "op" e = Some (Json.String op))
        eps
    with
    | Some e -> e
    | None -> Alcotest.failf "no %s endpoint in stats" op)
  | _ -> Alcotest.fail "stats without endpoints"

let test_serve_end_to_end () =
  let dir = Filename.temp_file "dfv_serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let store = Filename.concat dir "store.journal" in
  let summary = Filename.concat dir "summary.json" in
  let pid = fork_server ~store ~summary socket in
  (* Two connections issue the same sec query before either answer is
     out, plus duplicate sims: the daemon must spend exactly one solve
     per unique key (coalesced in one batch, or a cache hit across
     batches — either way one solve). *)
  let c1 = connect socket and c2 = connect socket in
  let sec_op = Protocol.Sec { design = "gcd"; bug = "none"; budget = None } in
  let sim_op =
    Protocol.Sim { design = "gcd"; bug = "none"; vectors = 50; seed = 7 }
  in
  let id_sec1 = Client.send c1 sec_op in
  let id_sec2 = Client.send c2 sec_op in
  let id_sim1 = Client.send c1 sim_op in
  let id_sim2 = Client.send c2 sim_op in
  let get c id =
    match Client.receive c ~id with
    | Ok r -> r
    | Error m -> Alcotest.failf "receive: %s" m
  in
  let rsec1 = get c1 id_sec1 and rsec2 = get c2 id_sec2 in
  let rsim1 = get c1 id_sim1 and rsim2 = get c2 id_sim2 in
  (* Identical answers, byte for byte: the duplicate was served from the
     same solve, so even the embedded solver stats agree. *)
  Alcotest.(check string)
    "duplicate sec verdicts byte-identical"
    (Json.to_string (Protocol.payload_to_json (payload_exn rsec1)))
    (Json.to_string (Protocol.payload_to_json (payload_exn rsec2)));
  Alcotest.(check string)
    "duplicate sim verdicts byte-identical"
    (Json.to_string (Protocol.payload_to_json (payload_exn rsim1)))
    (Json.to_string (Protocol.payload_to_json (payload_exn rsim2)));
  (match payload_exn rsec1 with
  | Protocol.R_sec (Portfolio.W_equivalent _) -> ()
  | _ -> Alcotest.fail "gcd should be equivalent");
  Alcotest.(check string)
    "both sec responses carry the re-derivable key"
    (sec_key (gcd_pair ()) None)
    rsec1.Protocol.key;
  Alcotest.(check string)
    "same key on the duplicate" rsec1.Protocol.key rsec2.Protocol.key;
  (* Unknown design: a structured error, not a dead connection. *)
  (match
     (call c1 (Protocol.Sec { design = "nope"; bug = "none"; budget = None }))
       .Protocol.outcome
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown design must error");
  (* The daemon's own accounting: 3 sec requests, 2 sim requests, one
     solve each for the duplicated keys. *)
  let stats =
    match payload_exn (call c2 Protocol.Stats) with
    | Protocol.R_stats s -> s
    | _ -> Alcotest.fail "stats payload"
  in
  let sec_ep = endpoint_stats stats "sec" in
  Alcotest.(check int) "sec requests" 3 (int_field sec_ep "requests");
  Alcotest.(check int)
    "one solve for two identical sec queries" 1 (int_field sec_ep "solves");
  let sim_ep = endpoint_stats stats "sim" in
  Alcotest.(check int) "sim requests" 2 (int_field sim_ep "requests");
  Alcotest.(check int)
    "one solve for two identical sims" 1 (int_field sim_ep "solves");
  let cache_hits =
    match Json.field "cache" stats with
    | Some c -> int_field c "hits"
    | None -> -1
  in
  let coalesced =
    int_field sec_ep "requests" + int_field sim_ep "requests"
    - int_field sec_ep "solves" - int_field sim_ep "solves" - cache_hits
    (* the error request neither hits nor solves *) - 1
  in
  Alcotest.(check bool)
    "every duplicate was a hit or coalesced" true
    (cache_hits + coalesced = 2);
  Client.close c1;
  Client.close c2;
  (* SIGTERM: the interrupted-resumable contract, exit code 4, with the
     store intact on disk. *)
  Unix.kill pid Sys.sigterm;
  Alcotest.(check int) "daemon exits 4 on SIGTERM" 4 (wait_exit pid);
  Alcotest.(check bool) "summary written" true (Sys.file_exists summary);
  (* The store replays — first into a bare cache... *)
  let c =
    Result.get_ok
      (Cache.create ~capacity:16 ~store ~validate:Protocol.payload_valid ())
  in
  Alcotest.(check int) "sec + sim verdicts in the store" 2 (Cache.replayed c);
  Alcotest.(check int) "nothing rejected" 0 (Cache.rejected c);
  Alcotest.(check bool)
    "sec verdict found under the re-derived key" true
    (Cache.mem c (sec_key (gcd_pair ()) None));
  Cache.close c;
  (* ...then into a restarted daemon, which must answer from cache
     without solving (cached=true in a brand-new process). *)
  let pid2 = fork_server ~store socket in
  let c3 = connect socket in
  let r = call c3 sec_op in
  Alcotest.(check bool) "warm hit after restart" true r.Protocol.cached;
  Alcotest.(check string)
    "warm verdict byte-identical to the original solve"
    (Json.to_string (Protocol.payload_to_json (payload_exn rsec1)))
    (Json.to_string (Protocol.payload_to_json (payload_exn r)));
  (match payload_exn (call c3 Protocol.Shutdown) with
  | Protocol.R_shutdown -> ()
  | _ -> Alcotest.fail "shutdown ack");
  Client.close c3;
  Alcotest.(check int) "clean shutdown exits 0" 0 (wait_exit pid2)

(* The Stats reply carries the newest [log_limit] requests, oldest
   first, and says once older ones were dropped.  A Stats request is
   logged after its reply is built. *)
let test_request_log_ring () =
  let dir = Filename.temp_file "dfv_serve_log" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let pid = fork_server ~log_limit:3 socket in
  let c = connect socket in
  let ping () = (call c Protocol.Ping).Protocol.rsp_id in
  let stats () =
    let r = call c Protocol.Stats in
    match payload_exn r with
    | Protocol.R_stats s ->
      let ids =
        match Json.field "log" s with
        | Some (Json.List l) -> List.map (fun e -> int_field e "id") l
        | _ -> Alcotest.fail "stats without a log"
      in
      (r.Protocol.rsp_id, ids, Json.field "log_truncated" s)
    | _ -> Alcotest.fail "stats payload"
  in
  let p1 = ping () in
  let p2 = ping () in
  let s1, log1, truncated1 = stats () in
  Alcotest.(check (list int)) "log before it fills" [ p1; p2 ] log1;
  Alcotest.(check bool)
    "not truncated" true
    (truncated1 = Some (Json.Bool false));
  let p3 = ping () in
  let p4 = ping () in
  let _, log2, truncated2 = stats () in
  Alcotest.(check (list int)) "newest three, oldest first" [ s1; p3; p4 ] log2;
  Alcotest.(check bool) "truncated" true (truncated2 = Some (Json.Bool true));
  ignore (call c Protocol.Shutdown);
  Client.close c;
  Alcotest.(check int) "clean shutdown exits 0" 0 (wait_exit pid)

(* SIGKILL mid-write is the crash the journal discipline exists for:
   whatever was fsync'd before the kill replays; the file is never
   unusable. *)
let test_store_survives_sigkill () =
  let dir = Filename.temp_file "dfv_serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let store = Filename.concat dir "store.journal" in
  let pid = fork_server ~store socket in
  let c = connect socket in
  let r =
    call c (Protocol.Sec { design = "gcd"; bug = "none"; budget = None })
  in
  ignore (payload_exn r);
  Unix.kill pid Sys.sigkill;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ -> Alcotest.fail "expected SIGKILL death");
  Client.close c;
  let cache =
    Result.get_ok
      (Cache.create ~capacity:16 ~store ~validate:Protocol.payload_valid ())
  in
  Alcotest.(check int)
    "the answered verdict survived the kill" 1 (Cache.replayed cache);
  Alcotest.(check bool)
    "and is served under its key" true
    (Cache.mem cache (sec_key (gcd_pair ()) None));
  Cache.close cache

let suite =
  [ Alcotest.test_case "protocol request round-trip" `Quick
      test_protocol_requests;
    Alcotest.test_case "protocol response round-trip" `Quick
      test_protocol_responses;
    Alcotest.test_case "protocol rejects bad frames" `Quick
      test_protocol_rejects;
    Alcotest.test_case "cache LRU eviction order" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "cache duplicate add is first-wins" `Quick
      test_cache_duplicate_add;
    Alcotest.test_case "store replay warms the LRU" `Quick test_store_replay;
    Alcotest.test_case "store rejects poisoned records" `Quick
      test_store_rejects_poison;
    Alcotest.test_case "store refuses foreign journals" `Quick
      test_store_campaign_mismatch;
    Alcotest.test_case "fingerprints stable across processes" `Quick
      test_fingerprint_stable_across_fork;
    Alcotest.test_case "daemon end to end" `Quick test_serve_end_to_end;
    Alcotest.test_case "request log keeps the newest entries" `Quick
      test_request_log_ring;
    Alcotest.test_case "store survives SIGKILL" `Quick
      test_store_survives_sigkill ]
