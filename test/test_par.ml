(* The worker pool: ordering, determinism across job counts, stop
   tokens (a race cancels its losers, a deadline stops a job, an operator
   stop reaches jobs in flight), the SEC portfolio and the journal.  The
   tests in [suite] run in test_main and never spawn a domain; the ones
   in [domains_suite] do. *)

module Pool = Dfv_par.Pool
module Dpool = Dfv_par.Dpool
module Portfolio = Dfv_par.Portfolio
module Stop = Dfv_sat.Stop
module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json
module Checker = Dfv_sec.Checker

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected pool error: %s" (Dfv_error.to_string e)

(* A job that only ends when its token stops it. *)
let rec spin () =
  Stop.poll ();
  Unix.sleepf 0.001;
  spin ()

let test_map_order () =
  let inputs = [ 5; 3; 9; 1; 7; 2 ] in
  let out = Dpool.map ~jobs:1 (fun x -> x * x) inputs in
  Alcotest.(check (list int))
    "squares in input order"
    (List.map (fun x -> x * x) inputs)
    (List.map ok out)

let test_map_jobs_invariant () =
  let inputs = List.init 9 (fun i -> i) in
  let run jobs = Dpool.map ~jobs (fun x -> (x * 31) + 7) inputs |> List.map ok in
  Alcotest.(check (list int)) "jobs=1 equals jobs=4" (run 1) (run 4)

let test_map_empty () =
  let out = Dpool.map ~jobs:2 (fun x -> x) [] in
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

(* The caller is worker 0, so its token must come back after every job:
   a race won by job 0 and a job stopped by its deadline both leave the
   caller's later work unstopped. *)
let test_caller_token_restored () =
  Alcotest.(check bool) "inert before" false (Stop.stopped ());
  let r =
    Dpool.race ~jobs:1 ~conclusive:(fun v -> v > 0) (fun x -> x + 1) [ 0; 1 ]
  in
  Alcotest.(check bool) "job 0 won" true (r.Dpool.winner = Some (0, 1));
  Alcotest.(check bool) "inert after a won race" false (Stop.stopped ());
  (match Dpool.map ~jobs:1 ~timeout:0.02 (fun () -> spin ()) [ () ] with
  | [ Error (Dfv_error.Worker_timeout _) ] -> ()
  | _ -> Alcotest.fail "expected the spinning job to time out");
  Alcotest.(check bool) "inert after a timeout" false (Stop.stopped ());
  Stop.poll ()

(* An operator stop reaches the job that is running: it ends at its next
   poll, as Interrupted, and no later job starts. *)
let test_stop_reaches_running_job () =
  Fun.protect ~finally:Pool.reset_stop @@ fun () ->
  let started = ref [] in
  let out =
    Dpool.map ~jobs:1
      (fun x ->
        started := x :: !started;
        if x = 1 then begin
          Pool.request_stop ();
          spin ()
        end
        else x)
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "job 2 never started" [ 1; 0 ] !started;
  match out with
  | [ Ok 0; Error (Dfv_error.Interrupted _); Error (Dfv_error.Interrupted _) ]
    ->
    ()
  | _ -> Alcotest.fail "expected [Ok 0; Interrupted; Interrupted]"

(* A deadline unwinds the job through its stop token: the solver must not
   answer the budget-style [Unknown Time_limit], which a campaign would
   journal as a verdict. *)
let test_deadline_is_not_unknown () =
  let t = Dfv_designs.Image_chain.make () in
  let pair =
    Dfv_core.Pair.create ~name:"chain" ~slm:t.Dfv_designs.Image_chain.slm
      ~rtl:t.Dfv_designs.Image_chain.rtl_top
      ~spec:t.Dfv_designs.Image_chain.chain_spec
  in
  let t0 = Unix.gettimeofday () in
  match Dpool.map ~jobs:1 ~timeout:0.05 (fun p -> Dfv_core.Flow.sec p) [ pair ]
  with
  | [ Error (Dfv_error.Worker_timeout { seconds; _ }) ] ->
    Alcotest.(check bool) "budget recorded" true (seconds = 0.05);
    Alcotest.(check bool)
      "stopped long before the proof ends" true
      (Unix.gettimeofday () -. t0 < 1.0)
  | [ Ok (Checker.Unknown _) ] ->
    Alcotest.fail "the deadline surfaced as a solver Unknown"
  | _ -> Alcotest.fail "expected [Error Worker_timeout]"

(* A job still running past its deadline stops at its next poll and is
   reported as Worker_timeout — it never blocks the campaign. *)
let test_worker_timeout () =
  let t0 = Unix.gettimeofday () in
  let out =
    Dpool.map ~jobs:1 ~timeout:0.5 ~label:(Printf.sprintf "job%d")
      (fun x ->
        if x = 1 then spin ();
        x)
      [ 0; 1; 2 ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped promptly, not never" true (elapsed < 30.0);
  match out with
  | [ Ok 0; Error (Dfv_error.Worker_timeout { job; seconds }); Ok 2 ] ->
    Alcotest.(check string) "labelled" "job1" job;
    Alcotest.(check bool) "budget recorded" true (seconds = 0.5)
  | _ -> Alcotest.fail "expected [Ok 0; Error Worker_timeout; Ok 2]"

(* Each job's deadline counts from its own start, not from the map's:
   three jobs that each poll for 120 ms under a 300 ms timeout all
   finish, though together they outlast it. *)
let test_deadline_per_job () =
  let busy x =
    let until = Unix.gettimeofday () +. 0.12 in
    while Unix.gettimeofday () < until do
      Stop.poll ();
      Unix.sleepf 0.001
    done;
    x
  in
  let out = Dpool.map ~jobs:1 ~timeout:0.3 busy [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "every job finished" [ 0; 1; 2 ] (List.map ok out)

(* A deadline is honoured at a poll, so a job that finishes late without
   polling keeps its result: the token never reaches a job outside the
   solver, the sweep and the simulation flow. *)
let test_late_job_keeps_result () =
  match
    Dpool.map ~jobs:1 ~timeout:0.01
      (fun x ->
        Unix.sleepf 0.03;
        x)
      [ 7 ]
  with
  | [ Ok 7 ] -> ()
  | _ -> Alcotest.fail "expected [Ok 7]"

(* Race at one worker: the first conclusive result wins and the
   stragglers are cancelled before they start (their outcomes stay
   None). *)
let test_race_cancels () =
  let started = ref [] in
  let r =
    Dpool.race ~jobs:1
      ~conclusive:(fun v -> v >= 0)
      (fun x ->
        started := x :: !started;
        if x = 0 then 100 else spin ())
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "no straggler started" [ 0 ] !started;
  (match r.Dpool.winner with
  | Some (0, 100) -> ()
  | _ -> Alcotest.fail "expected job 0 to win with 100");
  Alcotest.(check bool)
    "losers cancelled" true
    (r.Dpool.outcomes.(1) = None && r.Dpool.outcomes.(2) = None)

let test_race_no_conclusive () =
  let r =
    Dpool.race ~jobs:1 ~conclusive:(fun _ -> false) (fun x -> x + 1) [ 0; 1 ]
  in
  Alcotest.(check bool) "no winner" true (r.Dpool.winner = None);
  Alcotest.(check bool)
    "all outcomes filled" true
    (r.Dpool.outcomes.(0) = Some (Ok 1) && r.Dpool.outcomes.(1) = Some (Ok 2))

(* --- portfolio SEC ----------------------------------------------------- *)

let alu_pair () =
  let t = Dfv_designs.Alu.make ~width:8 () in
  (t.Dfv_designs.Alu.slm, t.Dfv_designs.Alu.rtl, t.Dfv_designs.Alu.spec)

let test_portfolio_slm_rtl_equivalent () =
  let slm, rtl, spec = alu_pair () in
  match Portfolio.check_slm_rtl ~jobs:1 ~slm ~rtl ~spec () with
  | Ok (Checker.Equivalent _) -> ()
  | Ok (Checker.Not_equivalent _) -> Alcotest.fail "alu should be equivalent"
  | Ok (Checker.Unknown _) -> Alcotest.fail "alu should be decided"
  | Error e -> Alcotest.failf "portfolio error: %s" (Dfv_error.to_string e)

(* The alu pair with its RTL broken by the first enumerated mutation, so
   a race must produce (and the caller must reconstruct) a
   counterexample. *)
let alu_mutant () =
  let slm, rtl, spec = alu_pair () in
  let fault = List.hd (Dfv_fault.Fault.enumerate_rtl ~seed:0 ~max_faults:1 rtl) in
  (slm, fault.Dfv_fault.Fault.rf_apply rtl, spec)

let test_portfolio_slm_rtl_cex () =
  let slm, rtl, spec = alu_mutant () in
  match Portfolio.check_slm_rtl ~jobs:1 ~slm ~rtl ~spec () with
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
   second call on the same journal replays it without running a
   strategy, and a different budget is a different campaign. *)
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
  let solves = Dfv_obs.Metrics.counter "sat.solves" in
  let solves0 = Dfv_obs.Metrics.counter_value solves in
  let replayed =
    params (Portfolio.check_slm_rtl ~jobs:1 ~journal:path ~slm ~rtl ~spec ())
  in
  Alcotest.(check bool) "replayed params" true (first = replayed);
  Alcotest.(check int)
    "no strategy ran" solves0
    (Dfv_obs.Metrics.counter_value solves);
  let budget = { Dfv_sat.Solver.max_conflicts = Some 10; max_seconds = None } in
  match
    Portfolio.check_slm_rtl ~jobs:1 ~budget ~journal:path ~slm ~rtl ~spec ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a different budget must not resume the journal"

(* --- cooperative stop ---------------------------------------------------- *)

(* After request_stop, a map returns promptly with every unfinished job
   marked Interrupted (exit code 4 material). *)
let test_stop_interrupts_map () =
  Fun.protect ~finally:Pool.reset_stop @@ fun () ->
  Pool.request_stop ();
  Alcotest.(check bool) "stop flag visible" true (Pool.stop_requested ());
  let out = Dpool.map ~jobs:1 (fun x -> x * 10) [ 0; 1; 2 ] in
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

(* Two campaigns' merged telemetry at [jobs] workers: their metrics
   without timing fields and without the counters that describe the
   pool's shape (how many payloads were shipped, how many jobs were
   stolen), their coverage, their count of mutant spans, and their
   query memo hits. *)
let campaign_telemetry jobs =
  let pool_shape = [ "pool.telemetry.shipped"; "pool.domains.steals" ] in
  let strip_shape = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "counters", Json.Obj cs ->
               ( "counters",
                 Json.Obj
                   (List.filter (fun (n, _) -> not (List.mem n pool_shape)) cs)
               )
             | f -> f)
           fields)
    | j -> j
  in
  Metrics.reset ();
  Coverage.reset ();
  Coverage.enable ();
  Trace.enable ();
  let slm, rtl, spec = alu_pair () in
  ignore
    (Dfv_fault.Campaign.run ~seed:0 ~jobs ~max_rtl_faults:4 ~max_slm_faults:2
       (Dfv_fault.Campaign.Sec_pair
          (Dfv_core.Pair.create ~name:"alu" ~slm ~rtl ~spec)));
  (* gcd's mutants repeat each other's SEC queries, so the campaign's
     query memo answers some of them, whichever worker meets them. *)
  ignore (Dfv_fault.Suite.run ~seed:0 ~jobs ~designs:[ "gcd" ] ());
  let hits = Metrics.counter_value (Metrics.counter "sec.memo_hits") in
  let m = strip_shape (Metrics.strip_timing (Metrics.snapshot ())) in
  let c = Coverage.snapshot () in
  let spans =
    List.length
      (List.filter (fun (n, _, _, _) -> n = "fault.mutant") (Trace.events ()))
  in
  Trace.disable ();
  Coverage.disable ();
  (Json.to_string m, Json.to_string c, spans, hits)

(* A sharded campaign's merged telemetry equals the sequential run's byte
   for byte once timing and the pool's own shape are projected away.
   The sequential run goes first, so it fixes the registries' order. *)
let test_pool_telemetry_parity () =
  let m1, c1, spans1, hits = campaign_telemetry 1 in
  let m2, c2, spans2, _ = campaign_telemetry 2 in
  Alcotest.(check bool) "the query memo answered" true (hits > 0);
  Alcotest.(check string) "merged metrics snapshots byte-identical" m1 m2;
  Alcotest.(check string) "merged coverage snapshots byte-identical" c1 c2;
  Alcotest.(check int) "every mutant span merged" spans1 spans2;
  Alcotest.(check bool) "spans recorded" true (spans1 > 0);
  Coverage.reset ()

(* Journal-resumed campaigns: replayed mutants never run, so they ship
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
    Dfv_fault.Campaign.run ~seed:0 ~jobs:2 ~max_rtl_faults:4
      ~max_slm_faults:2 ~journal:j
      (Dfv_fault.Campaign.Sec_pair pair)
  in
  Metrics.reset ();
  let r1 = campaign () in
  let shipped = Metrics.counter "pool.telemetry.shipped" in
  (* One core makes a two-job map a one-worker loop, which ships
     nothing. *)
  Alcotest.(check bool)
    "first run ships worker telemetry" (Pool.cores () > 1)
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
   Interrupted, with two workers as with one. *)
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
   sequential run of the same work. *)
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
  let shipped () =
    Metrics.counter_value (Metrics.counter "pool.telemetry.shipped")
  in
  let out1, totals1, c1, spans1 = dpool_telemetry 1 in
  let shipped1 = shipped () in
  let out4, totals4, c4, spans4 = dpool_telemetry 4 in
  let shipped4 = shipped () in
  Alcotest.(check (list int)) "verdicts invariant under jobs" out1 out4;
  Alcotest.(check string) "merged coverage byte-identical" c1 c4;
  Alcotest.(check int) "every span recorded (jobs=1)" 6 spans1;
  Alcotest.(check int) "every domain span absorbed (jobs=4)" 6 spans4;
  (* A one-worker map records straight into the process sinks, and on
     one core a jobs=4 map is a one-worker map too; with two or more
     workers every job ships one record. *)
  Alcotest.(check int) "one-worker map ships nothing" 0 shipped1;
  Alcotest.(check int)
    "one telemetry record per job with two or more workers"
    (if min 4 (Pool.cores ()) > 1 then List.length telemetry_inputs else 0)
    shipped4;
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

(* A one-worker map is a loop on the caller: every job runs on the
   calling domain, and its spans nest under the caller's open span
   instead of arriving on a lane of their own. *)
let test_dpool_one_worker_inline () =
  let caller = (Domain.self () :> int) in
  Metrics.reset ();
  Trace.enable ();
  let ran_on =
    Trace.with_span "caller" (fun () ->
        Dpool.map ~jobs:1
          (fun _ ->
            Trace.with_span "par.inline" (fun () -> (Domain.self () :> int)))
          [ 0; 1; 2; 3 ])
    |> List.map ok
  in
  let events = Trace.events () in
  Trace.disable ();
  Alcotest.(check (list int))
    "every job ran on the calling domain" [ caller; caller; caller; caller ]
    ran_on;
  let _, c_ts, c_dur, c_depth =
    List.find (fun (n, _, _, _) -> n = "caller") events
  in
  let inner = List.filter (fun (n, _, _, _) -> n = "par.inline") events in
  Alcotest.(check int) "every job span recorded" 4 (List.length inner);
  List.iter
    (fun (_, ts, dur, depth) ->
      Alcotest.(check int) "nested one level under the caller" (c_depth + 1)
        depth;
      Alcotest.(check bool)
        "inside the caller's span" true
        (ts >= c_ts && ts +. dur <= c_ts +. c_dur))
    inner;
  Alcotest.(check int)
    "nothing shipped" 0
    (Metrics.counter_value (Metrics.counter "pool.telemetry.shipped"))

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

(* --- verdict determinism ------------------------------------------------ *)

(* The acceptance bar for the executor: a fault campaign's verdict
   transcript is byte-identical at any job count — seeds derive from
   (campaign seed, mutant index), never from the worker. *)
let campaign_transcript ?pool ~jobs () =
  let slm, rtl, spec = alu_pair () in
  let pair = Dfv_core.Pair.create ~name:"alu" ~slm ~rtl ~spec in
  let r =
    Dfv_fault.Campaign.run ~seed:0 ~jobs ?pool ~max_rtl_faults:4
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

let test_cross_executor_domains_parity () =
  let seq = campaign_transcript ~pool:false ~jobs:1 () in
  Alcotest.(check bool) "transcript non-trivial" true (String.length seq > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "domains at %d jobs equals sequential" jobs)
        seq
        (campaign_transcript ~jobs ()))
    [ 1; 2; 3; 4 ]

(* --- races and deadlines on two workers --------------------------------- *)

(* A race whose loser would never finish returns as soon as one job
   concludes: the winner cancels the loser's token in flight.  With two
   workers the winner waits until the loser runs, so the cancel lands
   mid-job; then the roles swap, so the loser is the caller's own job.
   On one core the loser never starts. *)
let test_race_stops_loser () =
  let two = min 2 (Pool.cores ()) = 2 in
  let t0 = Unix.gettimeofday () in
  let loser_running = Atomic.make false in
  let race ~winner =
    Dpool.race ~jobs:2
      ~conclusive:(fun v -> v > 0)
      (fun x ->
        if x = winner then begin
          while two && not (Atomic.get loser_running) do
            Domain.cpu_relax ()
          done;
          1
        end
        else begin
          Atomic.set loser_running true;
          spin ()
        end)
      [ 0; 1 ]
  in
  let r = race ~winner:0 in
  Alcotest.(check bool) "job 0 won" true (r.Dpool.winner = Some (0, 1));
  Alcotest.(check bool) "loser has no outcome" true (r.Dpool.outcomes.(1) = None);
  Alcotest.(check bool) "loser ran on two workers" two (Atomic.get loser_running);
  if two then begin
    Atomic.set loser_running false;
    let r = race ~winner:1 in
    Alcotest.(check bool) "job 1 won" true (r.Dpool.winner = Some (1, 1));
    Alcotest.(check bool)
      "the caller's job was cancelled" true
      (r.Dpool.outcomes.(0) = None)
  end;
  Alcotest.(check bool) "caller's token restored" false (Stop.stopped ());
  Alcotest.(check bool)
    "returned promptly" true
    (Unix.gettimeofday () -. t0 < 30.0)

(* A mutant running chain's unbudgeted proof (about 1.5 s) under a 50 ms
   timeout: it stops at a poll, becomes Unknown with the worker-timeout
   reason, is not journaled, and re-runs on resume.  It is the campaign's
   only mutant, so no verdict depends on host speed. *)
let test_timeout_chain_mutant () =
  let t = Dfv_designs.Image_chain.make () in
  let chain =
    Dfv_core.Pair.create ~name:"chain" ~slm:t.Dfv_designs.Image_chain.slm
      ~rtl:t.Dfv_designs.Image_chain.rtl_top
      ~spec:t.Dfv_designs.Image_chain.chain_spec
  in
  let proof =
    Dfv_fault.Campaign.Custom_mutant
      {
        cm_name = "chain-proof";
        cm_run =
          (fun () ->
            match Dfv_core.Flow.sec chain with
            | Checker.Equivalent _ -> false
            | _ -> true);
      }
  in
  let path = Filename.temp_file "dfv_timeout" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let run () =
    let j = jok (Journal.open_ ~path ~campaign:"chain-timeout") in
    let replayed = Journal.replayed j in
    let slm, rtl, spec = alu_pair () in
    let r =
      Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
      Dfv_fault.Campaign.run ~jobs:2 ~timeout:0.05 ~journal:j
        ~max_rtl_faults:0 ~max_slm_faults:0 ~extra_mutants:[ proof ]
        (Dfv_fault.Campaign.Sec_pair
           (Dfv_core.Pair.create ~name:"alu" ~slm ~rtl ~spec))
    in
    (replayed, r)
  in
  let check_timed_out leg (r : Dfv_fault.Campaign.report) =
    match r.Dfv_fault.Campaign.r_results with
    | [ { Dfv_fault.Campaign.verdict = Dfv_fault.Campaign.Unknown { reason; seconds }; _ } ]
      ->
      Alcotest.(check bool)
        (leg ^ ": worker-timeout reason") true
        (String.starts_with ~prefix:"worker timed out on chain-proof" reason);
      Alcotest.(check bool) (leg ^ ": seconds at most 0.1") true (seconds <= 0.1)
    | _ -> Alcotest.failf "%s: expected one Unknown verdict" leg
  in
  let replayed, r = run () in
  Alcotest.(check int) "fresh journal" 0 replayed;
  check_timed_out "first run" r;
  (match Journal.inspect path with
  | Ok info ->
    Alcotest.(check int) "nothing journaled" 0
      (List.length info.Journal.info_records)
  | Error m -> Alcotest.failf "inspect: %s" m);
  let solves = Metrics.counter "sat.solves" in
  let solves0 = Metrics.counter_value solves in
  let replayed, r = run () in
  Alcotest.(check int) "nothing replayed on resume" 0 replayed;
  Alcotest.(check bool)
    "the proof ran again" true
    (Metrics.counter_value solves > solves0);
  check_timed_out "resume" r

let suite =
  [ Alcotest.test_case "map preserves input order" `Quick test_map_order;
    Alcotest.test_case "a map restores the caller's stop token" `Quick
      test_caller_token_restored;
    Alcotest.test_case "map of nothing" `Quick test_map_empty;
    Alcotest.test_case "job_seed is a pure spread" `Quick
      test_job_seed_deterministic;
    Alcotest.test_case "a stop reaches the running job" `Quick
      test_stop_reaches_running_job;
    Alcotest.test_case "a deadline is a timeout, never a solver Unknown"
      `Quick test_deadline_is_not_unknown;
    Alcotest.test_case "slow worker becomes Worker_timeout" `Slow
      test_worker_timeout;
    Alcotest.test_case "each job's deadline counts from its own start"
      `Quick test_deadline_per_job;
    Alcotest.test_case "race cancels stragglers" `Quick test_race_cancels;
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
    Alcotest.test_case "a late job that never polls keeps its result" `Quick
      test_late_job_keeps_result;
    Alcotest.test_case "request_stop interrupts a map" `Quick
      test_stop_interrupts_map ]

(* Slots 0 and 9 hold the two-worker race and timeout cases; the last
   three cases need two workers, so they run here rather than in
   [suite]. *)
let domains_suite =
  [ Alcotest.test_case "two-worker race stops its loser in flight" `Quick
      test_race_stops_loser;
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
    Alcotest.test_case "timed-out chain proof is Unknown and re-runs"
      `Quick test_timeout_chain_mutant;
    Alcotest.test_case "dpool one-worker map runs inline on the caller"
      `Quick test_dpool_one_worker_inline;
    Alcotest.test_case "map verdicts invariant under jobs" `Quick
      test_map_jobs_invariant;
    Alcotest.test_case "sharded telemetry merges to the sequential run"
      `Quick test_pool_telemetry_parity;
    Alcotest.test_case "journal resume ships no duplicate telemetry" `Quick
      test_telemetry_journal_resume_no_double_count ]
