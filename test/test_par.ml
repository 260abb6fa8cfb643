(* The fork-based worker pool: ordering, determinism across job counts,
   crash isolation (a killed worker is a recorded error, not a dead
   run), per-job timeouts, and portfolio cancellation. *)

module Pool = Dfv_par.Pool
module Portfolio = Dfv_par.Portfolio
module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Checker = Dfv_sec.Checker

let encode_int i = Json.Int i

let decode_int = function
  | Json.Int i -> Ok i
  | _ -> Error "expected int"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected pool error: %s" (Dfv_error.to_string e)

let test_map_order () =
  let inputs = [ 5; 3; 9; 1; 7; 2 ] in
  let out =
    Pool.map ~jobs:3 ~encode:encode_int ~decode:decode_int
      (fun x -> x * x)
      inputs
  in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) inputs)
    (List.map ok out)

let test_map_jobs_invariant () =
  let inputs = List.init 9 (fun i -> i) in
  let run jobs =
    Pool.map ~jobs ~encode:encode_int ~decode:decode_int
      (fun x -> (x * 31) + 7)
      inputs
    |> List.map ok
  in
  Alcotest.(check (list int)) "jobs=1 equals jobs=4" (run 1) (run 4)

let test_map_empty () =
  let out = Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int (fun x -> x) [] in
  Alcotest.(check int) "no outcomes" 0 (List.length out)

let test_job_seed_deterministic () =
  let a = Pool.job_seed ~seed:42 3 in
  let b = Pool.job_seed ~seed:42 3 in
  Alcotest.(check int) "pure function" a b;
  Alcotest.(check bool)
    "neighbouring indices differ" true
    (Pool.job_seed ~seed:42 3 <> Pool.job_seed ~seed:42 4);
  Alcotest.(check bool)
    "seeds differ" true
    (Pool.job_seed ~seed:1 3 <> Pool.job_seed ~seed:2 3);
  Alcotest.(check bool) "non-negative" true (Pool.job_seed ~seed:0 0 >= 0)

(* A worker that SIGKILLs itself mid-job models a segfault / OOM kill:
   the pool must record Worker_crashed for that job and still deliver
   every other result. *)
let test_worker_killed () =
  let out =
    Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int
      (fun x ->
        if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
        x * 10)
      [ 0; 1; 2 ]
  in
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  (match out with
  | [ Ok 0; Error (Dfv_error.Worker_crashed { detail; _ }); Ok 20 ] ->
    Alcotest.(check bool)
      "detail names the signal" true
      (contains detail "SIGKILL" || contains detail "signal")
  | _ -> Alcotest.fail "expected [Ok 0; Error Worker_crashed; Ok 20]")

(* A worker raising stays an in-taxonomy error (carried across the pipe
   as structured JSON), distinct from a crash. *)
let test_worker_raises () =
  let out =
    Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int
      (fun x -> if x = 1 then failwith "boom" else x)
      [ 0; 1 ]
  in
  match out with
  | [ Ok 0; Error (Dfv_error.Internal m) ] ->
    Alcotest.(check string) "message survives the pipe" "boom" m
  | _ -> Alcotest.fail "expected [Ok 0; Error Internal]"

(* A worker exceeding the wall-clock budget is killed and reported as
   Worker_timeout — never blocks the campaign. *)
let test_worker_timeout () =
  let t0 = Unix.gettimeofday () in
  let out =
    Pool.map ~jobs:2 ~timeout:0.5 ~heartbeat:0.1
      ~label:(Printf.sprintf "job%d")
      ~encode:encode_int ~decode:decode_int
      (fun x ->
        if x = 1 then Unix.sleep 60;
        x)
      [ 0; 1 ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "killed promptly, not after 60s" true (elapsed < 30.0);
  match out with
  | [ Ok 0; Error (Dfv_error.Worker_timeout { job; seconds }) ] ->
    Alcotest.(check string) "labelled" "job1" job;
    Alcotest.(check bool) "budget recorded" true (seconds = 0.5)
  | _ -> Alcotest.fail "expected [Ok 0; Error Worker_timeout]"

(* A worker wedged where no heartbeat can fire (SIGALRM ignored, blocked
   in a sleep) is killed after 20 silent heartbeat periods.  The crash
   counts as transient, so the job is retried, and once its retries are
   used up the Worker_crashed stands. *)
let test_heartbeat_kill () =
  let attempts = Dfv_obs.Metrics.counter "pool.retry.attempts" in
  let exhausted = Dfv_obs.Metrics.counter "pool.retry.exhausted" in
  let attempts0 = Dfv_obs.Metrics.counter_value attempts in
  let exhausted0 = Dfv_obs.Metrics.counter_value exhausted in
  let out =
    Pool.map ~jobs:1 ~heartbeat:0.05 ~encode:encode_int ~decode:decode_int
      (fun x ->
        Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
        Unix.sleepf 30.0;
        x)
      [ 0 ]
  in
  (match out with
  | [ Error (Dfv_error.Worker_crashed { detail; _ }) ] ->
    Alcotest.(check bool)
      "detail names the missing heartbeat" true
      (String.starts_with ~prefix:"no heartbeat" detail)
  | _ -> Alcotest.fail "expected [Error Worker_crashed]");
  Alcotest.(check int)
    "both retries attempted" (attempts0 + 2)
    (Dfv_obs.Metrics.counter_value attempts);
  Alcotest.(check int)
    "retries exhausted" (exhausted0 + 1)
    (Dfv_obs.Metrics.counter_value exhausted)

(* Race: the first conclusive result wins and the stragglers are
   cancelled (their outcomes stay None). *)
let test_race_cancels () =
  let t0 = Unix.gettimeofday () in
  let r =
    Pool.race ~jobs:3 ~heartbeat:0.1 ~encode:encode_int ~decode:decode_int
      ~conclusive:(fun v -> v >= 0)
      (fun x ->
        if x = 0 then 100 else (Unix.sleep 60; -1))
      [ 0; 1; 2 ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "returned promptly" true (elapsed < 30.0);
  (match r.Pool.winner with
  | Some (0, 100) -> ()
  | _ -> Alcotest.fail "expected job 0 to win with 100");
  Alcotest.(check bool)
    "losers cancelled" true
    (r.Pool.outcomes.(1) = None && r.Pool.outcomes.(2) = None)

let test_race_no_conclusive () =
  let r =
    Pool.race ~jobs:2 ~encode:encode_int ~decode:decode_int
      ~conclusive:(fun _ -> false)
      (fun x -> x + 1)
      [ 0; 1 ]
  in
  Alcotest.(check bool) "no winner" true (r.Pool.winner = None);
  Alcotest.(check bool)
    "all outcomes filled" true
    (r.Pool.outcomes.(0) = Some (Ok 1) && r.Pool.outcomes.(1) = Some (Ok 2))

(* --- portfolio SEC ----------------------------------------------------- *)

let alu_pair () =
  let t = Dfv_designs.Alu.make ~width:8 () in
  (t.Dfv_designs.Alu.slm, t.Dfv_designs.Alu.rtl, t.Dfv_designs.Alu.spec)

let test_portfolio_slm_rtl_equivalent () =
  let slm, rtl, spec = alu_pair () in
  match Portfolio.check_slm_rtl ~jobs:2 ~slm ~rtl ~spec () with
  | Ok (Checker.Equivalent _) -> ()
  | Ok (Checker.Not_equivalent _) -> Alcotest.fail "alu should be equivalent"
  | Ok (Checker.Unknown _) -> Alcotest.fail "alu should be decided"
  | Error e -> Alcotest.failf "portfolio error: %s" (Dfv_error.to_string e)

(* The alu pair with its RTL broken by the first enumerated mutation, so
   a race must produce (and the parent must reconstruct) a
   counterexample. *)
let alu_mutant () =
  let slm, rtl, spec = alu_pair () in
  let fault = List.hd (Dfv_fault.Fault.enumerate_rtl ~seed:0 ~max_faults:1 rtl) in
  (slm, fault.Dfv_fault.Fault.rf_apply rtl, spec)

let test_portfolio_slm_rtl_cex () =
  let slm, rtl, spec = alu_mutant () in
  match Portfolio.check_slm_rtl ~jobs:2 ~slm ~rtl ~spec () with
  | Ok (Checker.Not_equivalent (cex, _)) ->
    Alcotest.(check bool)
      "cex carries parameters" true
      (cex.Checker.params <> []);
    Alcotest.(check bool)
      "cex re-simulated to failing checks" true
      (cex.Checker.failed_checks <> [])
  | Ok (Checker.Equivalent _) -> Alcotest.fail "mutant not detected"
  | Ok (Checker.Unknown _) -> Alcotest.fail "mutant should be decided"
  | Error e -> Alcotest.failf "portfolio error: %s" (Dfv_error.to_string e)

(* --- journal: durability and the corruption policy -------------------- *)

module Journal = Dfv_par.Journal

let tmp_journal () = Filename.temp_file "dfv_journal" ".jsonl"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let jok = function
  | Ok j -> j
  | Error m -> Alcotest.failf "unexpected journal error: %s" m

(* Fresh journal, three appends, reopen: everything replays, duplicate
   appends are no-ops, and a different campaign key is refused. *)
let test_journal_roundtrip () =
  let path = tmp_journal () in
  Sys.remove path;
  let j = jok (Journal.open_ ~path ~campaign:"campaign-a") in
  Journal.append j ~fp:"f1" (Json.Int 1);
  Journal.append j ~fp:"f2" (Json.Int 2);
  Journal.append j ~fp:"f2" (Json.Int 99);
  (* dup: disk record stands *)
  Journal.close j;
  let j = jok (Journal.open_ ~path ~campaign:"campaign-a") in
  Alcotest.(check int) "replayed" 2 (Journal.replayed j);
  Alcotest.(check bool) "not torn" false (Journal.torn j);
  Alcotest.(check (option int))
    "f1 payload" (Some 1)
    (match Journal.find j "f1" with Some (Json.Int i) -> Some i | _ -> None);
  Alcotest.(check (option int))
    "f2 kept the first payload" (Some 2)
    (match Journal.find j "f2" with Some (Json.Int i) -> Some i | _ -> None);
  Journal.close j;
  (match Journal.open_ ~path ~campaign:"campaign-b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "campaign mismatch must be refused");
  Sys.remove path

(* A torn tail — one final segment cut mid-write — is tolerated: the
   segment is dropped, reported, and truncated away so the resumed run
   appends on a clean boundary. *)
let test_journal_torn_tail () =
  let path = tmp_journal () in
  Sys.remove path;
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Journal.append j ~fp:"f1" (Json.Int 1);
  Journal.close j;
  let intact = read_file path in
  write_file path (intact ^ {|{"schema":"dfv-jou|});
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Alcotest.(check bool) "torn reported" true (Journal.torn j);
  Alcotest.(check int) "intact record survives" 1 (Journal.replayed j);
  Journal.append j ~fp:"f2" (Json.Int 2);
  Journal.close j;
  (* the torn bytes are gone: a clean reopen sees two whole records *)
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Alcotest.(check bool) "repaired" false (Journal.torn j);
  Alcotest.(check int) "both records" 2 (Journal.replayed j);
  Journal.close j;
  Sys.remove path

(* More than one bad trailing segment cannot come from a single torn
   write — that is external corruption, and it is rejected.  So is an
   unparseable line in the interior.  A single unparseable final line
   (terminated or not) stays within the torn-tail tolerance. *)
let test_journal_garbage_rejected () =
  let path = tmp_journal () in
  Sys.remove path;
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Journal.append j ~fp:"f1" (Json.Int 1);
  Journal.close j;
  let intact = read_file path in
  write_file path (intact ^ "not json\ntrailing");
  (match Journal.open_ ~path ~campaign:"c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "multi-segment garbage must be rejected");
  write_file path (intact ^ "not json\n" ^ intact);
  (match Journal.open_ ~path ~campaign:"c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an interior garbage line must be rejected");
  write_file path (intact ^ "not json\n");
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Alcotest.(check bool) "single trailing bad line is torn" true (Journal.torn j);
  Alcotest.(check int) "record survives" 1 (Journal.replayed j);
  Journal.close j;
  Sys.remove path

(* Duplicate fingerprints on disk (a crash between fsync and resume
   bookkeeping) are tolerated: first record wins, the rest are counted. *)
let test_journal_duplicate_fp () =
  let path = tmp_journal () in
  Sys.remove path;
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Journal.append j ~fp:"f1" (Json.Int 1);
  Journal.close j;
  let intact = read_file path in
  let last_record =
    match String.split_on_char '\n' intact with
    | [ _header; record; "" ] -> record
    | _ -> Alcotest.fail "unexpected journal shape"
  in
  write_file path (intact ^ last_record ^ "\n");
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Alcotest.(check int) "one record" 1 (Journal.replayed j);
  Alcotest.(check int) "one duplicate dropped" 1 (Journal.dropped j);
  Journal.close j;
  (* inspect agrees without touching the file *)
  let info =
    match Journal.inspect path with
    | Ok i -> i
    | Error m -> Alcotest.failf "inspect: %s" m
  in
  Alcotest.(check int) "inspect records" 1
    (List.length info.Journal.info_records);
  Alcotest.(check int) "inspect dropped" 1 info.Journal.info_dropped;
  Sys.remove path

(* A complete record from a different journal format version is not a
   torn write; it is rejected rather than guessed at. *)
let test_journal_version_mismatch () =
  let path = tmp_journal () in
  Sys.remove path;
  let j = jok (Journal.open_ ~path ~campaign:"c") in
  Journal.append j ~fp:"f1" (Json.Int 1);
  Journal.close j;
  let intact = read_file path in
  let replace_all ~sub ~by s =
    let buf = Buffer.create (String.length s) in
    let n = String.length sub in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      if !i + n <= len && String.sub s !i n = sub then begin
        Buffer.add_string buf by;
        i := !i + n
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  write_file path
    (replace_all ~sub:{|"version":1|} ~by:{|"version":2|} intact);
  (match Journal.open_ ~path ~campaign:"c" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "version mismatch must be rejected");
  Sys.remove path

(* A journal whose directory is missing cannot be created: that is an
   [Error] naming the path, which every caller reports, not an
   exception. *)
let test_journal_missing_dir () =
  let dir = Filename.temp_file "dfv_nodir" "" in
  Sys.remove dir;
  let path = Filename.concat dir "x.journal" in
  match Journal.open_ ~path ~campaign:"c" with
  | Error m ->
    Alcotest.(check bool)
      "names the path" true
      (String.starts_with ~prefix:("cannot create " ^ path ^ ": ") m)
  | Ok _ -> Alcotest.fail "a journal under a missing directory must fail"

(* A journaled race: the winning verdict is appended as it lands, a
   second call on the same journal replays it without starting a worker,
   and a different budget is a different campaign. *)
let test_portfolio_journaled_race () =
  let slm, rtl, spec = alu_mutant () in
  let path = tmp_journal () in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let params = function
    | Ok (Checker.Not_equivalent (cex, _)) -> cex.Checker.params
    | Ok _ -> Alcotest.fail "the mutant must be Not_equivalent"
    | Error e -> Alcotest.failf "portfolio error: %s" (Dfv_error.to_string e)
  in
  let first =
    params (Portfolio.check_slm_rtl ~jobs:1 ~journal:path ~slm ~rtl ~spec ())
  in
  (match Journal.inspect path with
  | Ok info ->
    Alcotest.(check int)
      "one strategy journaled" 1
      (List.length info.Journal.info_records)
  | Error m -> Alcotest.failf "inspect: %s" m);
  let shipped = Dfv_obs.Metrics.counter "pool.telemetry.shipped" in
  let shipped0 = Dfv_obs.Metrics.counter_value shipped in
  let replayed =
    params (Portfolio.check_slm_rtl ~jobs:1 ~journal:path ~slm ~rtl ~spec ())
  in
  Alcotest.(check bool) "replayed params" true (first = replayed);
  Alcotest.(check int)
    "no worker ran" shipped0
    (Dfv_obs.Metrics.counter_value shipped);
  let budget = { Dfv_sat.Solver.max_conflicts = Some 10; max_seconds = None } in
  match
    Portfolio.check_slm_rtl ~jobs:1 ~budget ~journal:path ~slm ~rtl ~spec ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a different budget must not resume the journal"

(* --- self-healing retry and cooperative stop -------------------------- *)

(* A transient worker crash (dies once, succeeds on retry) is healed by
   the pool without surfacing an error — visible only in the metrics. *)
let test_retry_heals_transient_crash () =
  let marker = Filename.temp_file "dfv_retry" ".marker" in
  Sys.remove marker;
  let healed = Dfv_obs.Metrics.counter "pool.retry.healed" in
  let before = Dfv_obs.Metrics.counter_value healed in
  let out =
    Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int
      (fun x ->
        if x = 1 && not (Sys.file_exists marker) then begin
          close_out (open_out marker);
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        x * 10)
      [ 0; 1; 2 ]
  in
  if Sys.file_exists marker then Sys.remove marker;
  Alcotest.(check (list int))
    "crash healed, verdicts unchanged" [ 0; 10; 20 ] (List.map ok out);
  Alcotest.(check bool)
    "healed counted in metrics" true
    (Dfv_obs.Metrics.counter_value healed > before)

(* After request_stop, a map returns promptly with every unfinished job
   marked Interrupted (exit code 4 material) — not Worker_crashed. *)
let test_stop_interrupts_map () =
  Fun.protect ~finally:Pool.reset_stop @@ fun () ->
  Pool.request_stop ();
  Alcotest.(check bool) "stop flag visible" true (Pool.stop_requested ());
  let out =
    Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int
      (fun x -> x * 10)
      [ 0; 1; 2 ]
  in
  List.iter
    (function
      | Error (Dfv_error.Interrupted _ as e) ->
        Alcotest.(check int) "resumable exit code" 4 (Dfv_error.exit_code e)
      | Ok _ -> Alcotest.fail "no job may run after request_stop"
      | Error e ->
        Alcotest.failf "expected Interrupted, got %s" (Dfv_error.to_string e))
    out

(* --- worker telemetry shipping ----------------------------------------- *)

module Metrics = Dfv_obs.Metrics
module Coverage = Dfv_obs.Coverage
module Trace = Dfv_obs.Trace

let telemetry_inputs = [ 0; 1; 2; 3; 4; 5 ]

(* A job touching every telemetry kind: a counter, a histogram, a gauge
   high-water mark, a covergroup sample, and a span. *)
let telemetry_work x =
  Metrics.add (Metrics.counter "t.par.count") (x + 1);
  Metrics.observe (Metrics.histogram "t.par.size") (x * 3);
  Metrics.set_gauge (Metrics.gauge "t.par.depth") (x + 1);
  let g = Coverage.group "t.par.cg" in
  let p =
    Coverage.point g "val"
      [ Coverage.bin "small" ~lo:0 ~hi:7; Coverage.bin "big" ~lo:8 ~hi:100 ]
  in
  Coverage.sample p (x * 3);
  Trace.with_span ~cat:"t" "par.work" (fun () -> ());
  x * 2

let pooled_telemetry jobs =
  Metrics.reset ();
  Coverage.clear ();
  Coverage.enable ();
  Trace.enable ();
  let out =
    Pool.map ~jobs ~encode:encode_int ~decode:decode_int telemetry_work
      telemetry_inputs
  in
  let m = Metrics.strip_timing (Metrics.snapshot ()) in
  let c = Coverage.snapshot () in
  let spans =
    List.length
      (List.filter (fun (n, _, _, _) -> n = "par.work") (Trace.events ()))
  in
  Trace.disable ();
  Coverage.disable ();
  (List.map ok out, Json.to_string m, Json.to_string c, spans)

(* The tentpole property: a sharded run's merged telemetry equals the
   jobs=1 run's byte for byte (timing fields projected away), and both
   equal an in-process sequential run of the same work. *)
let test_pool_telemetry_parity () =
  let out1, m1, c1, spans1 = pooled_telemetry 1 in
  let out4, m4, c4, spans4 = pooled_telemetry 4 in
  Alcotest.(check (list int)) "verdicts invariant under jobs" out1 out4;
  Alcotest.(check string) "merged metrics snapshots byte-identical" m1 m4;
  Alcotest.(check string) "merged coverage snapshots byte-identical" c1 c4;
  Alcotest.(check int) "every worker span absorbed (jobs=1)" 6 spans1;
  Alcotest.(check int) "every worker span absorbed (jobs=4)" 6 spans4;
  let pooled_count = Metrics.counter_value (Metrics.counter "t.par.count") in
  let pooled_hist =
    Metrics.histogram_count (Metrics.histogram "t.par.size")
  in
  let pooled_gmax = Metrics.gauge_max (Metrics.gauge "t.par.depth") in
  let pooled_shipped =
    Metrics.counter_value (Metrics.counter "pool.telemetry.shipped")
  in
  Alcotest.(check int)
    "one telemetry record per job" (List.length telemetry_inputs)
    pooled_shipped;
  (* In-process sequential reference. *)
  Metrics.reset ();
  Coverage.clear ();
  Coverage.enable ();
  List.iter (fun x -> ignore (telemetry_work x)) telemetry_inputs;
  Coverage.disable ();
  Alcotest.(check int)
    "merged counter equals sequential"
    (Metrics.counter_value (Metrics.counter "t.par.count"))
    pooled_count;
  Alcotest.(check int)
    "merged histogram count equals sequential"
    (Metrics.histogram_count (Metrics.histogram "t.par.size"))
    pooled_hist;
  Alcotest.(check int)
    "merged gauge high-water equals sequential"
    (Metrics.gauge_max (Metrics.gauge "t.par.depth"))
    pooled_gmax;
  Coverage.clear ()

(* A retried job's telemetry is merged exactly once: only the final
   (delivered) attempt's record counts; the killed attempt never ships. *)
let test_telemetry_retry_no_double_count () =
  let marker = Filename.temp_file "dfv_telem" ".marker" in
  Sys.remove marker;
  Metrics.reset ();
  let out =
    Pool.map ~jobs:2 ~encode:encode_int ~decode:decode_int
      (fun x ->
        Metrics.incr (Metrics.counter "t.par.attempt");
        if x = 1 && not (Sys.file_exists marker) then begin
          close_out (open_out marker);
          Unix.kill (Unix.getpid ()) Sys.sigkill
        end;
        x)
      [ 0; 1; 2 ]
  in
  if Sys.file_exists marker then Sys.remove marker;
  Alcotest.(check (list int)) "crash healed" [ 0; 1; 2 ] (List.map ok out);
  Alcotest.(check int)
    "each job merged exactly once despite the retry" 3
    (Metrics.counter_value (Metrics.counter "t.par.attempt"));
  Alcotest.(check int)
    "only delivered attempts shipped" 3
    (Metrics.counter_value (Metrics.counter "pool.telemetry.shipped"))

(* Journal-resumed campaigns: replayed mutants never fork, so they ship
   nothing and merged totals are not double-counted across the resume. *)
let test_telemetry_journal_resume_no_double_count () =
  let path = Filename.temp_file "dfv_tj" ".journal" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let campaign () =
    let slm, rtl, spec = alu_pair () in
    let pair = Dfv_core.Pair.create ~name:"alu" ~slm ~rtl ~spec in
    let j =
      match Journal.open_ ~path ~campaign:"telemetry-resume" with
      | Ok j -> j
      | Error e -> Alcotest.failf "journal: %s" e
    in
    Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
    Dfv_fault.Campaign.run ~seed:0 ~jobs:2 ~pool:true ~max_rtl_faults:4
      ~max_slm_faults:2 ~journal:j
      (Dfv_fault.Campaign.Sec_pair pair)
  in
  Metrics.reset ();
  let r1 = campaign () in
  let shipped = Metrics.counter "pool.telemetry.shipped" in
  Alcotest.(check bool)
    "first run ships worker telemetry" true
    (Metrics.counter_value shipped > 0);
  Metrics.reset ();
  let r2 = campaign () in
  Alcotest.(check int)
    "resumed run ships nothing (all mutants replayed)" 0
    (Metrics.counter_value shipped);
  Alcotest.(check int)
    "no solver work re-done on resume" 0
    (Metrics.counter_value (Metrics.counter "sat.solves"));
  let verdicts r =
    List.map
      (fun m ->
        ( m.Dfv_fault.Campaign.m_name,
          Dfv_fault.Campaign.verdict_label m.Dfv_fault.Campaign.verdict ))
      r.Dfv_fault.Campaign.r_results
  in
  Alcotest.(check (list (pair string string)))
    "replayed verdicts identical" (verdicts r1) (verdicts r2)

(* --- the domains executor ---------------------------------------------- *)

(* These tests form [domains_suite], which runs in its own process: OCaml
   5 forbids Unix.fork in a process that has ever spawned a domain. *)

module Dpool = Dfv_par.Dpool

let test_dpool_map_order () =
  let inputs = [ 5; 3; 9; 1; 7; 2 ] in
  let out = Dpool.map ~jobs:3 (fun x -> x * x) inputs in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) inputs)
    (List.map ok out)

let test_dpool_jobs_invariant () =
  let inputs = List.init 9 (fun i -> i) in
  let run jobs = Dpool.map ~jobs (fun x -> (x * 31) + 7) inputs |> List.map ok in
  Alcotest.(check (list int)) "jobs=1 equals jobs=4" (run 1) (run 4);
  Alcotest.(check int) "map of nothing" 0 (List.length (Dpool.map (fun x -> x) []))

(* A raising job stays an in-taxonomy error on its own slot; every other
   job still completes — the in-process analogue of crash isolation for
   the benign (exception) failure class. *)
let test_dpool_raise_isolated () =
  let out =
    Dpool.map ~jobs:2 (fun x -> if x = 1 then failwith "boom" else x) [ 0; 1; 2 ]
  in
  match out with
  | [ Ok 0; Error (Dfv_error.Internal m); Ok 2 ] ->
    Alcotest.(check string) "message survives" "boom" m
  | _ -> Alcotest.fail "expected [Ok 0; Error Internal; Ok 2]"

(* After request_stop, no queued job runs and every unfinished slot is
   Interrupted — same contract as the fork pool's map. *)
let test_dpool_stop_interrupts () =
  Fun.protect ~finally:Pool.reset_stop @@ fun () ->
  Pool.request_stop ();
  let out = Dpool.map ~jobs:2 (fun x -> x * 10) [ 0; 1; 2 ] in
  List.iter
    (function
      | Error (Dfv_error.Interrupted _ as e) ->
        Alcotest.(check int) "resumable exit code" 4 (Dfv_error.exit_code e)
      | Ok _ -> Alcotest.fail "no job may run after request_stop"
      | Error e ->
        Alcotest.failf "expected Interrupted, got %s" (Dfv_error.to_string e))
    out

(* Domains telemetry: merged worker-domain sinks equal an in-process
   sequential run of the same work — same property the fork pool's
   test_pool_telemetry_parity establishes, on the other executor.  The
   sequential reference runs in this test (it never forks), so the test
   is safe after the fork door has closed. *)
let dpool_telemetry jobs =
  Metrics.reset ();
  Coverage.clear ();
  Coverage.enable ();
  Trace.enable ();
  let out = Dpool.map ~jobs telemetry_work telemetry_inputs in
  let c = Coverage.snapshot () in
  let spans =
    List.length
      (List.filter (fun (n, _, _, _) -> n = "par.work") (Trace.events ()))
  in
  Trace.disable ();
  Coverage.disable ();
  let totals =
    ( Metrics.counter_value (Metrics.counter "t.par.count"),
      Metrics.histogram_count (Metrics.histogram "t.par.size"),
      Metrics.gauge_max (Metrics.gauge "t.par.depth") )
  in
  (List.map ok out, totals, Json.to_string c, spans)

let test_dpool_telemetry_parity () =
  let out1, totals1, c1, spans1 = dpool_telemetry 1 in
  let shipped1 =
    Metrics.counter_value (Metrics.counter "pool.telemetry.shipped")
  in
  let out4, totals4, c4, spans4 = dpool_telemetry 4 in
  Alcotest.(check (list int)) "verdicts invariant under jobs" out1 out4;
  Alcotest.(check string) "merged coverage byte-identical" c1 c4;
  Alcotest.(check int) "every domain span absorbed (jobs=1)" 6 spans1;
  Alcotest.(check int) "every domain span absorbed (jobs=4)" 6 spans4;
  Alcotest.(check int)
    "one telemetry record per job" (List.length telemetry_inputs) shipped1;
  (* In-process sequential reference: merged totals must coincide. *)
  Metrics.reset ();
  Coverage.clear ();
  Coverage.enable ();
  List.iter (fun x -> ignore (telemetry_work x)) telemetry_inputs;
  Coverage.disable ();
  let totals_seq =
    ( Metrics.counter_value (Metrics.counter "t.par.count"),
      Metrics.histogram_count (Metrics.histogram "t.par.size"),
      Metrics.gauge_max (Metrics.gauge "t.par.depth") )
  in
  let pp3 (a, b, c) = Printf.sprintf "(%d,%d,%d)" a b c in
  Alcotest.(check string)
    "merged totals equal sequential (jobs=1)" (pp3 totals_seq) (pp3 totals1);
  Alcotest.(check string)
    "merged totals equal sequential (jobs=4)" (pp3 totals_seq) (pp3 totals4);
  Coverage.clear ()

(* --- cross-executor verdict determinism -------------------------------- *)

(* The acceptance bar for the whole executor: a fault campaign's verdict
   transcript is byte-identical across sequential, fork and domains at
   any job count — seeds derive from (campaign seed, mutant index), never
   from the executor. *)
let campaign_transcript ?pool ?exec ~jobs () =
  let slm, rtl, spec = alu_pair () in
  let pair = Dfv_core.Pair.create ~name:"alu" ~slm ~rtl ~spec in
  let r =
    Dfv_fault.Campaign.run ~seed:0 ~jobs ?pool ?exec ~max_rtl_faults:4
      ~max_slm_faults:2
      (Dfv_fault.Campaign.Sec_pair pair)
  in
  List.map
    (fun (m : Dfv_fault.Campaign.mutant_result) ->
      Printf.sprintf "%s[%s@%s]=%s" m.Dfv_fault.Campaign.m_name
        m.Dfv_fault.Campaign.m_class m.Dfv_fault.Campaign.m_site
        (Dfv_fault.Campaign.verdict_label m.Dfv_fault.Campaign.verdict))
    r.Dfv_fault.Campaign.r_results
  |> String.concat "\n"

let test_cross_executor_fork_parity () =
  let seq = campaign_transcript ~pool:false ~jobs:1 () in
  Alcotest.(check bool) "transcript non-trivial" true (String.length seq > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "fork at %d jobs equals sequential" jobs)
        seq
        (campaign_transcript ~pool:true ~exec:`Fork ~jobs ()))
    [ 2; 4 ]

(* Domains legs — recomputes the sequential reference itself (running
   sequentially never forks), so it stays valid after the door closes. *)
let test_cross_executor_domains_parity () =
  let seq = campaign_transcript ~pool:false ~jobs:1 () in
  List.iter
    (fun (name, exec, jobs) ->
      Alcotest.(check string)
        (Printf.sprintf "%s at %d jobs equals sequential" name jobs)
        seq
        (campaign_transcript ~pool:true ~exec ~jobs ()))
    [ ("domains", `Domains, 1); ("domains", `Domains, 2);
      ("domains", `Domains, 4); ("auto", `Auto, 3) ]

(* --- adaptive dispatch -------------------------------------------------- *)

let exec_counters () =
  ( Metrics.counter_value (Metrics.counter "pool.exec.fork"),
    Metrics.counter_value (Metrics.counter "pool.exec.domains") )

(* `Auto resolves to exactly one executor per call, counted only under
   `Auto so explicit-mode runs keep byte-identical telemetry.  Fork legs
   run first inside the test: on a multicore host the domains legs spawn
   worker domains and close the fork door for the process. *)
let test_map_auto_dispatch () =
  let inputs = [ 1; 2; 3; 4 ] in
  let expected = List.map (fun x -> x * 2) inputs in
  let run ?timeout exec inputs =
    Dpool.map_auto ?timeout ~exec ~encode:encode_int ~decode:decode_int
      (fun x -> x * 2)
      inputs
    |> List.map ok
  in
  Alcotest.(check bool)
    "fork door still open at test start" true (Dpool.fork_available ());
  (* fork legs *)
  let f0, d0 = exec_counters () in
  Alcotest.(check (list int))
    "timeout verdicts" expected (run ~timeout:30.0 `Auto inputs);
  let f1, _ = exec_counters () in
  Alcotest.(check int) "timeout routed to fork" (f0 + 1) f1;
  Alcotest.(check (list int)) "explicit fork verdicts" expected (run `Fork inputs);
  let f2, d2 = exec_counters () in
  Alcotest.(check int) "explicit fork uncounted" f1 f2;
  Alcotest.(check int) "no domains so far" d0 d2;
  (* Two short jobs: job 0 is the probe and job 1 runs inline as a
     one-worker pool, so no domain is spawned and the door stays open —
     which keeps the serve daemon's small batches off worker domains. *)
  Alcotest.(check (list int)) "two-job verdicts" [ 2; 4 ] (run `Auto [ 1; 2 ]);
  let f3, d3 = exec_counters () in
  Alcotest.(check int) "short probe routed to domains" (d2 + 1) d3;
  Alcotest.(check int) "short probe: no fork" f2 f3;
  Alcotest.(check bool)
    "two short jobs leave the fork door open" true (Dpool.fork_available ());
  (* domains legs *)
  Alcotest.(check (list int))
    "explicit domains verdicts" expected (run `Domains inputs);
  let f4, d4 = exec_counters () in
  Alcotest.(check int) "explicit domains uncounted" d3 d4;
  Alcotest.(check int) "no stray fork dispatch" f3 f4;
  (* A multicore host has now spawned worker domains, and [`Auto] must
     take domains without probing.  A probe runs job 0 inline, outside
     the pool, so it ships no telemetry record; unprobed, all four jobs
     run in the pool and each ships one.  A 1-core host never spawns a
     domain and never closes the door; its static rule routes to
     domains. *)
  let shipped () =
    Metrics.counter_value (Metrics.counter "pool.telemetry.shipped")
  in
  let s5 = shipped () in
  Alcotest.(check (list int))
    "auto verdicts after the domains legs" expected (run `Auto inputs);
  let f5, d5 = exec_counters () in
  Alcotest.(check int) "routed to domains" (d4 + 1) d5;
  Alcotest.(check int) "never to fork" f4 f5;
  if Dpool.fork_available () then
    Alcotest.(check int) "door open only on a 1-core host" 1 (Pool.cores ())
  else
    Alcotest.(check int)
      "door closed: job 0 not probed inline" (s5 + 4) (shipped ())

(* The calling domain is worker 0: a map holds at most [min jobs cores]
   domains, and all but one of them are spawned.  The jobs sleep so
   that every worker runs some of them. *)
let test_dpool_caller_is_worker () =
  let caller = (Domain.self () :> int) in
  let w = min 4 (Pool.cores ()) in
  let ids =
    Dpool.map ~jobs:4
      (fun _ ->
        Unix.sleepf 0.001;
        (Domain.self () :> int))
      (List.init 64 Fun.id)
    |> List.map ok |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d domains ran jobs, at most %d" (List.length ids) w)
    true
    (List.length ids <= w);
  let spawned = List.filter (fun d -> d <> caller) ids in
  Alcotest.(check bool)
    (Printf.sprintf "%d spawned domains ran jobs, at most %d"
       (List.length spawned) (w - 1))
    true
    (List.length spawned <= w - 1)

(* Each worker counts its own steals and the caller adds their sum after
   the join, so [pool.domains.steals] is exact: it equals the number of
   jobs that ran on another worker than the one they were dealt to.  Job
   j is dealt to worker [j mod w], and worker 0 is the caller.  The
   caller's even jobs are the slow ones, so the other worker steals. *)
let test_dpool_steal_count () =
  let caller = (Domain.self () :> int) in
  let w = min 2 (Pool.cores ()) in
  let steals () =
    Metrics.counter_value (Metrics.counter "pool.domains.steals")
  in
  let before = steals () in
  let ran_on =
    Dpool.map ~jobs:2
      (fun j ->
        if j mod 2 = 0 then Unix.sleepf 0.002;
        (Domain.self () :> int))
      (List.init 40 Fun.id)
    |> List.map ok
  in
  let moved =
    List.length
      (List.filteri (fun j d -> (j mod w = 0) <> (d = caller)) ran_on)
  in
  Alcotest.(check int) "steals equal the jobs that moved" moved
    (steals () - before)

let test_domains_timeout_rejected () =
  Alcotest.check_raises "domains + timeout is a caller error"
    (Invalid_argument
       "Dpool: per-job timeouts require the fork executor (a domain \
        cannot be killed preemptively)")
    (fun () ->
      ignore
        (Dpool.map_auto ~exec:`Domains ~timeout:1.0 ~encode:encode_int
           ~decode:decode_int
           (fun x -> x)
           [ 0 ]))

let suite =
  [ Alcotest.test_case "map preserves input order" `Quick test_map_order;
    Alcotest.test_case "map verdicts invariant under jobs" `Quick
      test_map_jobs_invariant;
    Alcotest.test_case "map of nothing" `Quick test_map_empty;
    Alcotest.test_case "job_seed is a pure spread" `Quick
      test_job_seed_deterministic;
    Alcotest.test_case "killed worker becomes Worker_crashed" `Quick
      test_worker_killed;
    Alcotest.test_case "raised error crosses the pipe structured" `Quick
      test_worker_raises;
    Alcotest.test_case "slow worker becomes Worker_timeout" `Slow
      test_worker_timeout;
    Alcotest.test_case "silent worker killed by the heartbeat clock" `Slow
      test_heartbeat_kill;
    Alcotest.test_case "race cancels stragglers" `Slow test_race_cancels;
    Alcotest.test_case "race with no conclusive result" `Quick
      test_race_no_conclusive;
    Alcotest.test_case "portfolio slm-rtl equivalent" `Quick
      test_portfolio_slm_rtl_equivalent;
    Alcotest.test_case "portfolio slm-rtl counterexample" `Quick
      test_portfolio_slm_rtl_cex;
    Alcotest.test_case "journal round-trip and campaign binding" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal tolerates and repairs a torn tail" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal rejects non-torn garbage" `Quick
      test_journal_garbage_rejected;
    Alcotest.test_case "journal drops duplicate fingerprints" `Quick
      test_journal_duplicate_fp;
    Alcotest.test_case "journal rejects a version mismatch" `Quick
      test_journal_version_mismatch;
    Alcotest.test_case "journal under a missing directory is an error"
      `Quick test_journal_missing_dir;
    Alcotest.test_case "portfolio race resumes from its journal" `Quick
      test_portfolio_journaled_race;
    Alcotest.test_case "transient worker crash healed by retry" `Quick
      test_retry_heals_transient_crash;
    Alcotest.test_case "request_stop interrupts a map" `Quick
      test_stop_interrupts_map;
    Alcotest.test_case "sharded telemetry merges to the sequential run"
      `Quick test_pool_telemetry_parity;
    Alcotest.test_case "retried job telemetry merged exactly once" `Quick
      test_telemetry_retry_no_double_count;
    Alcotest.test_case "journal resume ships no duplicate telemetry" `Quick
      test_telemetry_journal_resume_no_double_count;
    Alcotest.test_case "campaign verdicts invariant under fork executor"
      `Quick test_cross_executor_fork_parity ]

(* The adaptive-dispatch case comes first: its fork legs need the fork
   door still open. *)
let domains_suite =
  [ Alcotest.test_case "adaptive dispatch routes, counts, and sticks" `Quick
      test_map_auto_dispatch;
    Alcotest.test_case "dpool map preserves input order" `Quick
      test_dpool_map_order;
    Alcotest.test_case "dpool verdicts invariant under jobs" `Quick
      test_dpool_jobs_invariant;
    Alcotest.test_case "dpool raising job stays isolated" `Quick
      test_dpool_raise_isolated;
    Alcotest.test_case "dpool request_stop interrupts a map" `Quick
      test_dpool_stop_interrupts;
    Alcotest.test_case "dpool telemetry merges to the sequential run" `Quick
      test_dpool_telemetry_parity;
    Alcotest.test_case "campaign verdicts invariant under domains executor"
      `Quick test_cross_executor_domains_parity;
    Alcotest.test_case "dpool caller is worker 0 of min jobs cores" `Quick
      test_dpool_caller_is_worker;
    Alcotest.test_case "dpool steal counter equals the jobs that moved"
      `Quick test_dpool_steal_count;
    Alcotest.test_case "domains executor rejects a timeout" `Quick
      test_domains_timeout_rejected ]
