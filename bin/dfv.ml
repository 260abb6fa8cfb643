(* The dfv command-line tool: run the design-for-verification flows on
   the bundled design pairs.

     dfv list                     enumerate bundled designs
     dfv audit  <design>          Section 3/4 checks on the pair
     dfv sec    <design>          sequential equivalence check
     dfv sim    <design> [-n N]   simulation-based comparison
     dfv verify <design>          audit + SEC (or simulation fallback)
     dfv faultsim [--design D]    mutation campaign scoring the verifier
     dfv serve [--socket S]       persistent verification daemon + cache
     dfv client <op> ...          query a running daemon
     dfv triage <design>          reproduce a failure as a triage bundle
     dfv validate <file>...       check artifacts parse + carry the envelope

   faultsim runs its mutants in pooled workers (--jobs, default = core
   count, except on 1-core hosts where the default falls back to the
   in-process path; --timeout bounds each mutant's wall clock); sec
   --jobs N races solving strategies in a portfolio.  --exec-mode
   fork|domains|auto picks the executor backing either pool: forked
   processes (crash isolation, timeouts), in-process work-stealing
   domains (fastest on short jobs), or adaptive dispatch between the
   two — verdicts are byte-identical across modes.  Both commands
   take --journal FILE (durable write-ahead journal of verdicts) and
   --resume FILE (replay a journal and run only what is missing);
   faultsim also takes --deadline S (graceful degradation: shrink
   solver budgets, then shed mutants to UNKNOWN instead of dying).
   SIGINT/SIGTERM stop the campaign cleanly: workers are killed, the
   journal is flushed, and the exit code is 4 ("interrupted,
   resumable").

   Bugs can be planted with --bug (see `dfv list`) to watch the flows
   catch them.  The flow commands take --trace FILE (Chrome trace_event
   span timeline) and --coverage FILE (functional coverage report);
   verify and triage take --report FILE (mismatch triage bundle).  All
   files share the {"schema": ..., "version": ...} envelope.

   Exit codes: 0 equivalent/pass, 1 counterexample/mismatch, 2 unknown
   (budget or stimulus exhausted, audit-blocked), 3 usage/internal
   error, 4 interrupted (resumable via --resume). *)

open Cmdliner
module Checker = Dfv_sec.Checker
open Dfv_designs
open Dfv_core

let exit_ok = 0
let exit_cex = 1
let exit_unknown = 2
let exit_error = 3
let exit_interrupted = 4

let exits =
  [ Cmd.Exit.info exit_ok ~doc:"equivalence proved / simulation clean / gate passed.";
    Cmd.Exit.info exit_cex ~doc:"a counterexample or simulation mismatch was found (or the faultsim gate failed).";
    Cmd.Exit.info exit_unknown
      ~doc:"no verdict: SAT budget or stimulus exhausted, or the audit blocks SEC.";
    Cmd.Exit.info exit_error ~doc:"usage or internal error.";
    Cmd.Exit.info exit_interrupted
      ~doc:
        "interrupted by SIGINT/SIGTERM before completion; with --journal \
         or --resume the run can be resumed from the journal." ]

(* Route SIGINT/SIGTERM through the pool's cooperative stop flag for
   the duration of [f]: workers are killed, the journal (if any) stays
   flushed — every completed verdict was fsync'd as it landed — and
   the command exits with {!exit_interrupted} instead of dying
   mid-write.  Handlers are restored afterwards so cmdliner's own
   error paths keep default signal behaviour. *)
let with_interrupt f =
  Dfv_par.Pool.reset_stop ();
  let install s =
    try
      Some
        (Sys.signal s (Sys.Signal_handle (fun _ -> Dfv_par.Pool.request_stop ())))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore s prev =
    match prev with
    | Some b -> ( try Sys.set_signal s b with Invalid_argument _ | Sys_error _ -> ())
    | None -> ()
  in
  let prev_int = install Sys.sigint in
  let prev_term = install Sys.sigterm in
  Fun.protect
    ~finally:(fun () ->
      restore Sys.sigint prev_int;
      restore Sys.sigterm prev_term)
    f

(* --- bundled designs -------------------------------------------------- *)

let alu_bugs =
  List.map (fun b -> (Alu.bug_name b, Some b)) Alu.all_bugs @ [ ("none", None) ]

let make_pair design bug =
  match design with
  | "gcd" ->
    if bug <> "none" then failwith "gcd has no bug variants";
    let t = Gcd.make ~width:4 in
    Pair.create ~name:"gcd" ~slm:t.Gcd.slm ~rtl:t.Gcd.rtl ~spec:t.Gcd.spec
  | "alu" ->
    let bug =
      match List.assoc_opt bug alu_bugs with
      | Some b -> b
      | None -> failwith (Printf.sprintf "unknown alu bug %s" bug)
    in
    let t = Alu.make ?bug ~width:8 () in
    Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec
  | "fir" ->
    let t = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
    let slm =
      if bug = "cstyle" then t.Fir.slm_cstyle
      else if bug = "none" then t.Fir.slm_exact
      else failwith "fir bugs: cstyle"
    in
    Pair.create ~name:"fir" ~slm ~rtl:t.Fir.rtl ~spec:t.Fir.spec
  | "fir-hot" ->
    let t = Fir.make ~taps:[ 127; 127; 127; -128 ] () in
    let slm =
      if bug = "cstyle" then t.Fir.slm_cstyle
      else if bug = "none" then t.Fir.slm_exact
      else failwith "fir-hot bugs: cstyle"
    in
    Pair.create ~name:"fir-hot" ~slm ~rtl:t.Fir.rtl ~spec:t.Fir.spec
  | "conv" ->
    let clamped = bug <> "wrap" in
    if bug <> "none" && bug <> "wrap" then failwith "conv bugs: wrap";
    let good = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
    let rtl =
      if clamped then good.Conv_image.rtl_window
      else
        (Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ())
          .Conv_image.rtl_window
    in
    Pair.create ~name:"conv" ~slm:good.Conv_image.slm_window ~rtl
      ~spec:good.Conv_image.window_spec
  | "uart" ->
    let t = Uart.make ~baud_div:4 () in
    let rtl =
      if bug = "baud" then (Uart.make ~baud_div:5 ()).Uart.rtl
      else if bug = "none" then t.Uart.rtl
      else failwith "uart bugs: baud"
    in
    Pair.create ~name:"uart" ~slm:t.Uart.slm ~rtl ~spec:t.Uart.spec
  | "chain" ->
    let buggy =
      match bug with
      | "none" -> None
      | "brightness" -> Some Image_chain.Brightness
      | "convolution" -> Some Image_chain.Convolution
      | "threshold" -> Some Image_chain.Threshold
      | _ -> failwith "chain bugs: brightness | convolution | threshold"
    in
    let t = Image_chain.make ?buggy () in
    Pair.create ~name:"chain" ~slm:t.Image_chain.slm ~rtl:t.Image_chain.rtl_top
      ~spec:t.Image_chain.chain_spec
  | d -> failwith (Printf.sprintf "unknown design %s (try `dfv list`)" d)

let designs_doc =
  [ ("gcd", "4-bit Euclid: HWIR SLM vs sequential RTL datapath");
    ("alu", "8-bit ALU; bugs: unsigned-slt, truncated-shift-amount, missing-carry, swapped-or-xor");
    ("fir", "4-tap saturating FIR (mild taps); bugs: cstyle");
    ("fir-hot", "4-tap saturating FIR (overflowing taps); bugs: cstyle");
    ("conv", "3x3 convolution window datapath; bugs: wrap");
    ("uart", "UART transmitter vs frame function; bugs: baud (divisor mismatch)");
    ("chain", "brightness|conv|threshold pipeline; bugs: brightness, convolution, threshold") ]

(* --- commands ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the bundled design pairs and their plantable bugs." in
  let run () =
    List.iter (fun (n, d) -> Printf.printf "%-8s %s\n" n d) designs_doc;
    exit_ok
  in
  Cmd.v (Cmd.info "list" ~doc ~exits) Term.(const run $ const ())

let design_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN")

let bug_arg =
  Arg.(value & opt string "none" & info [ "bug" ] ~docv:"BUG" ~doc:"Plant a bug variant.")

(* Commands return their exit code; anything the engines throw is mapped
   through the taxonomy to the documented code instead of a stack
   trace. *)
let wrap run = fun design bug ->
  match Dfv_error.guard (fun () -> run (make_pair design bug)) with
  | Ok code -> code
  | Error e ->
    Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
    Dfv_error.exit_code e

(* --- observability flags ----------------------------------------------- *)

type obs = {
  trace_file : string option;
  raw_trace : bool;
  coverage_file : string option;
  metrics_file : string option;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Capture a span timeline of the run and write it to $(docv) as \
             Chrome trace_event JSON (load in chrome://tracing or Perfetto). \
             Pooled runs merge worker spans in under each worker's pid, so \
             the timeline is multi-process.")
  in
  let raw =
    Arg.(
      value & flag
      & info [ "raw" ]
          ~doc:
            "Write --trace output as the bare Chrome JSON array (no \
             {schema, version} envelope) for consumers that reject the \
             object form.  Raw traces do not pass $(b,dfv validate).")
  in
  let coverage =
    Arg.(
      value
      & opt (some string) None
      & info [ "coverage" ] ~docv:"FILE"
          ~doc:
            "Collect functional coverage (stimulus covergroups) and write \
             the report to $(docv).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run metrics snapshot (counters, gauges, \
             histograms; worker deltas merged in on pooled runs) to \
             $(docv).")
  in
  let combine trace_file raw_trace coverage_file metrics_file =
    { trace_file; raw_trace; coverage_file; metrics_file }
  in
  Term.(const combine $ trace $ raw $ coverage $ metrics)

(* Enable the requested sinks around [f] and flush the files afterwards
   (also on exceptions: a crashed run still leaves its trace behind). *)
let with_obs obs f =
  if obs.trace_file <> None then Dfv_obs.Trace.enable ();
  if obs.coverage_file <> None then Dfv_obs.Coverage.enable ();
  let finish () =
    (match obs.trace_file with
    | Some file -> Dfv_obs.Trace.write_file ~raw:obs.raw_trace file
    | None -> ());
    (match obs.coverage_file with
    | Some file -> Dfv_obs.Json.write_file file (Dfv_obs.Coverage.snapshot ())
    | None -> ());
    match obs.metrics_file with
    | Some file -> Dfv_obs.Json.write_file file (Dfv_obs.Metrics.snapshot ())
    | None -> ()
  in
  Fun.protect ~finally:finish f

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Render a live progress line on stderr: completion, rate, ETA, \
           time to --deadline, and running verdict tallies.  Only when \
           stderr is a TTY; off by default.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:
          "Write a mismatch triage bundle (failing transaction, stimulus, \
           VCD slice, metric/span snapshot) to $(docv).")

let no_failure_json design =
  Dfv_obs.Json.envelope ~schema:"dfv-triage" ~version:1
    [ ("design", Dfv_obs.Json.String design);
      ("kind", Dfv_obs.Json.String "no-failure") ]

let audit_cmd =
  let doc = "Run the design-for-verification audit on a pair." in
  let run pair =
    let audit = Pair.audit pair in
    Format.printf "%a" Pair.pp_audit audit;
    if audit.Pair.sec_ready then exit_ok else exit_unknown
  in
  Cmd.v (Cmd.info "audit" ~doc ~exits) Term.(const (wrap run) $ design_arg $ bug_arg)

let budget_term =
  let conflicts =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"CONFLICTS"
          ~doc:
            "Give up on a SAT query after $(docv) conflicts (the verdict \
             becomes UNKNOWN instead of hanging).")
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-seconds" ] ~docv:"S"
          ~doc:"Give up on a SAT query after $(docv) seconds of wall clock.")
  in
  let combine c s =
    match (c, s) with
    | None, None -> Ok None
    | _ ->
      if (match c with Some n -> n < 1 | None -> false) then
        Error (`Msg "--budget must be at least 1 conflict")
      else if (match s with Some x -> x <= 0.0 | None -> false) then
        Error (`Msg "--budget-seconds must be positive")
      else
        Ok
          (Some
             { Dfv_sat.Solver.max_conflicts = c; Dfv_sat.Solver.max_seconds = s })
  in
  Term.(term_result (const combine $ conflicts $ seconds))

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print session statistics: encoding reuse, clause counts, \
           per-query solve times.")

(* Worker-pool flags.  The term yields [None] when --jobs was absent so
   each command can pick its own resting point — and so an explicit
   --jobs N (any N, even 1) can force the fork pool while the absent
   default may choose the in-process path on 1-core hosts, where
   forking only adds overhead. *)
let jobs_term =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Number of worker processes (faultsim defaults to the \
             machine's core count, or the in-process path on a 1-core \
             host; sec to 1).  Jobs run in forked workers with crash \
             isolation; verdicts are independent of $(docv).  An \
             explicit $(docv) — even 1 — always forces the fork pool.")
  in
  let check = function
    | Some n when n < 1 -> Error (`Msg "--jobs must be at least 1")
    | v -> Ok v
  in
  Term.(term_result (const check $ jobs))

(* --journal (create or resume) / --resume (must already exist): both
   name the same write-ahead journal file, differing only in whether a
   missing file is an error. *)
let journal_term =
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: append every completed verdict \
             (fsync'd) to $(docv) as it lands, creating the file if \
             needed and replaying it if it already exists.  A killed \
             run can then be resumed with --resume $(docv).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from the journal at $(docv) (which must exist): \
             journaled verdicts are replayed instead of re-run, the \
             rest of the campaign runs and keeps appending to the same \
             journal.  The final report is byte-identical (timings \
             aside) to an uninterrupted run.")
  in
  let combine j r =
    match (j, r) with
    | Some _, Some _ -> Error (`Msg "--journal and --resume are mutually exclusive")
    | None, Some f when not (Sys.file_exists f) ->
      Error (`Msg (Printf.sprintf "--resume %s: no such journal" f))
    | (Some _ as v), None | None, (Some _ as v) -> Ok v
    | None, None -> Ok None
  in
  Term.(term_result (const combine $ journal $ resume))

let deadline_term =
  let t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Soft wall-clock budget in seconds for the whole run: jobs \
             started past the halfway point run with linearly shrunk \
             solver budgets, and jobs started past the deadline are \
             shed to UNKNOWN (reported, never silent) instead of the \
             run overshooting.")
  in
  let check = function
    | Some s when s <= 0.0 -> Error (`Msg "--deadline must be positive")
    | t -> Ok t
  in
  Term.(term_result (const check $ t))

let timeout_term =
  let t =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"S"
          ~doc:
            "Per-job wall-clock budget in seconds; an expired worker is \
             killed and its job recorded as undecided.")
  in
  let check = function
    | Some s when s <= 0.0 -> Error (`Msg "--timeout must be positive")
    | t -> Ok t
  in
  Term.(term_result (const check $ t))

(* --exec-mode: which executor backs the worker pool.  The term yields
   [None] when the flag was absent (the command then defaults to [`Auto]
   once it decides to pool at all) so an explicit --exec-mode can also
   force the pooled path where the resting default would have chosen the
   plain in-process one. *)
let exec_mode_term =
  let mode_conv =
    Arg.enum [ ("fork", `Fork); ("domains", `Domains); ("auto", `Auto) ]
  in
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "exec-mode" ] ~docv:"MODE"
        ~doc:
          "Executor backing the worker pool: $(b,fork) runs each job in a \
           forked process (crash isolation, --timeout support), \
           $(b,domains) runs jobs on in-process work-stealing domains (no \
           fork or pipe overhead — fastest on short jobs — but no crash \
           isolation and incompatible with --timeout), $(b,auto) routes \
           short jobs to domains and keeps fork for long or \
           timeout-bearing workloads.  Verdicts are byte-identical across \
           modes.  Default: auto.")

let reason_string = function
  | Dfv_sat.Solver.Conflict_limit -> "conflict budget exhausted"
  | Dfv_sat.Solver.Time_limit -> "time budget exhausted"

let print_stats (s : Checker.stats) =
  let reuse_pct =
    let total = s.Checker.nodes_encoded + s.Checker.nodes_reused in
    if total = 0 then 0.0
    else 100.0 *. float_of_int s.Checker.nodes_reused /. float_of_int total
  in
  Printf.printf "stats:\n";
  Printf.printf "  aig ands         %d\n" s.Checker.aig_ands;
  Printf.printf "  nodes encoded    %d\n" s.Checker.nodes_encoded;
  Printf.printf "  nodes reused     %d (%.1f%%)\n" s.Checker.nodes_reused
    reuse_pct;
  Printf.printf "  clauses          %d (%d learnts reduced away)\n"
    s.Checker.sat_clauses s.Checker.learnts_removed;
  Printf.printf "  conflicts        %d\n" s.Checker.sat_conflicts;
  Printf.printf "  decisions        %d\n" s.Checker.sat_decisions;
  Printf.printf "  propagations     %d\n" s.Checker.sat_propagations;
  Printf.printf "  unroll hits      %d\n" s.Checker.unroll_hits;
  Printf.printf "  queries          %d (%d unknown)\n" s.Checker.queries
    s.Checker.unknowns;
  Printf.printf "  solve times      %s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.3fs") s.Checker.frame_seconds));
  Printf.printf "  wall             %.3fs\n" s.Checker.wall_seconds

(* Shared verdict rendering for `dfv sec`, `dfv sec --serve-socket` and
   `dfv client sec`.  All three print from the wire form (a cold verdict
   is reduced via {!Dfv_par.Portfolio.slm_wire_of_verdict} first), so a
   served answer is byte-identical on stdout to the cold CLI's by
   construction — the CI smoke diffs the two. *)
let print_slm_wire ~stats:want_stats w =
  let finish s = if want_stats then print_stats s in
  match w with
  | Dfv_par.Portfolio.W_equivalent stats ->
    Printf.printf
      "EQUIVALENT  (%d AIG nodes, %d conflicts, %d decisions, %.3fs)\n"
      stats.Checker.aig_ands stats.Checker.sat_conflicts
      stats.Checker.sat_decisions stats.Checker.wall_seconds;
    finish stats;
    exit_ok
  | Dfv_par.Portfolio.W_not_equivalent (params, stats) ->
    Printf.printf "NOT EQUIVALENT  (%.3fs)\ncounterexample:\n"
      stats.Checker.wall_seconds;
    List.iter
      (fun (n, v) ->
        match v with
        | Dfv_hwir.Interp.Vint bv ->
          Printf.printf "  %s = %s\n" n (Dfv_bitvec.Bitvec.to_string bv)
        | Dfv_hwir.Interp.Varr a ->
          Printf.printf "  %s = [%s]\n" n
            (String.concat "; "
               (Array.to_list (Array.map Dfv_bitvec.Bitvec.to_string a))))
      params;
    finish stats;
    exit_cex
  | Dfv_par.Portfolio.W_unknown (reason, stats) ->
    Printf.printf "UNKNOWN  (%s after %.3fs)\n" (reason_string reason)
      stats.Checker.wall_seconds;
    finish stats;
    exit_unknown

let print_sim_wire = function
  | Dfv_serve.Protocol.Sim_clean vectors ->
    Printf.printf "CLEAN after %d transactions (no proof)\n" vectors;
    exit_ok
  | Dfv_serve.Protocol.Sim_mismatch vector_index ->
    Printf.printf "MISMATCH at transaction %d\n" vector_index;
    exit_cex

(* One request-response against a daemon, printed the way the local
   command prints the same result ([stats] for sec, [json] for faultsim).
   The payload comes from another process, so it must answer [op].  The
   cache-hit notice goes to stderr so stdout stays diffable against the
   cold command. *)
let client_call ~socket ~retries ~stats ~json op =
  let module P = Dfv_serve.Protocol in
  match Dfv_serve.Client.one_shot ~retries ~socket op with
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    exit_error
  | Ok r -> (
    if r.P.cached then
      Printf.eprintf "dfv serve: served from cache in %.3fs\n" r.P.seconds;
    match (op, r.P.outcome) with
    | _, Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
    | P.Sec _, Ok (P.R_sec w) -> print_slm_wire ~stats w
    | P.Sim _, Ok (P.R_sim w) -> print_sim_wire w
    | P.Faultsim _, Ok (P.R_faultsim f) ->
      Option.iter (fun file -> Dfv_obs.Json.write_file file f.P.f_report) json;
      Printf.printf
        "fault detection rate %.1f%% with %d false equivalents: %s\n"
        (100.0 *. f.P.f_rate) f.P.f_false_eq
        (if f.P.f_pass then "PASS" else "FAIL");
      if f.P.f_pass then exit_ok else exit_cex
    | P.Ping, Ok P.R_pong ->
      Printf.printf "pong\n";
      exit_ok
    | P.Stats, Ok (P.R_stats s) ->
      print_endline (Dfv_obs.Json.to_string s);
      exit_ok
    | P.Shutdown, Ok P.R_shutdown ->
      Printf.printf "shutdown acknowledged\n";
      exit_ok
    | _, Ok _ ->
      Printf.eprintf "error: unexpected response payload\n";
      exit_error)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve-socket" ] ~docv:"SOCK"
        ~doc:
          "Fast path: send the query to the $(b,dfv serve) daemon \
           listening on $(docv) instead of solving locally.  A repeated \
           query is answered from the daemon's content-addressed cache; \
           stdout and the exit code are identical to the local run \
           (cache notices go to stderr).")

let sec_cmd =
  let doc =
    "Run sequential equivalence checking on a pair.  With --jobs above 1 \
     the check runs as a strategy portfolio: solving variants race in \
     forked workers and the first conclusive verdict cancels the rest.  \
     With --serve-socket the query is answered by a dfv serve daemon."
  in
  let run budget stats jobs exec journal progress serve_socket obs design bug =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    match serve_socket with
    | Some socket ->
      client_call ~socket ~retries:0 ~stats ~json:None
        (Dfv_serve.Protocol.Sec { design; bug; budget })
    | None ->
    (wrap (fun pair ->
        let report v =
          print_slm_wire ~stats (Dfv_par.Portfolio.slm_wire_of_verdict v)
        in
        (* A journal, --progress or an explicit --exec-mode implies the
           portfolio path (that is where verdicts are journaled/reported
           and where the executor choice matters), even without --jobs. *)
        if jobs = None && exec = None && journal = None && not progress then
          report (Flow.sec ?budget pair)
        else
          let jobs = Option.value jobs ~default:1 in
          let exec = Option.value exec ~default:`Auto in
          match
            Dfv_par.Portfolio.check_slm_rtl ~jobs ~exec ?budget ?journal
              ~progress ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
              ~spec:pair.Pair.spec ()
          with
          | Ok v -> report v
          | Error e ->
            Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
            (match (e, journal) with
            | Dfv_error.Interrupted _, Some path ->
              Printf.eprintf "resume with: dfv sec --resume %s ...\n" path
            | _ -> ());
            Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "sec" ~doc ~exits)
    Term.(
      const run $ budget_term $ stats_arg $ jobs_term $ exec_mode_term
      $ journal_term $ progress_arg $ serve_socket_arg $ obs_term
      $ design_arg $ bug_arg)

let vectors_arg =
  Arg.(value & opt int 1000 & info [ "n"; "vectors" ] ~docv:"N" ~doc:"Number of random transactions.")

let engine_term =
  let engine_conv = Arg.enum [ ("interp", `Interp); ("compiled", `Compiled) ] in
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "System-level model execution engine: $(b,compiled) lowers the \
           model through the verified normal form onto the shared \
           slot-indexed kernel (and errors on models outside the normal \
           form); $(b,interp) forces the tree-walking reference.  Default: \
           compiled for conditioned models, with automatic fallback to the \
           interpreter.")

let sim_cmd =
  let doc =
    "Run simulation-based SLM/RTL comparison on a pair.  With \
     --serve-socket the run is answered by a dfv serve daemon (--engine \
     is then moot: the engines are behaviourally identical and the \
     daemon picks)."
  in
  let run vectors engine serve_socket obs design bug =
    with_obs obs @@ fun () ->
    match serve_socket with
    | Some socket ->
      client_call ~socket ~retries:0 ~stats:false ~json:None
        (Dfv_serve.Protocol.Sim { design; bug; vectors; seed = 0 })
    | None ->
    (wrap (fun pair ->
         match Flow.simulate ?engine ~vectors pair with
         | Ok (Flow.Sim_clean { vectors }) ->
           print_sim_wire (Dfv_serve.Protocol.Sim_clean vectors)
         | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
           print_sim_wire (Dfv_serve.Protocol.Sim_mismatch vector_index)
         | Error e ->
           Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
           Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "sim" ~doc ~exits)
    Term.(
      const run $ vectors_arg $ engine_term $ serve_socket_arg $ obs_term
      $ design_arg $ bug_arg)

let verify_cmd =
  let doc = "Audit, then SEC (or simulation when SEC is blocked)." in
  let run budget engine obs report_file design bug =
    with_obs obs @@ fun () ->
    (wrap (fun pair ->
         let report = Flow.verify ?engine ?budget pair in
         Format.printf "%a" Flow.pp_report report;
         (match report_file with
         | Some file -> (
           match Flow.triage_of_report pair report with
           | Some t -> Dfv_obs.Triage.write_file file t
           | None ->
             Dfv_obs.Json.write_file file (no_failure_json pair.Pair.name))
         | None -> ());
         match report.Flow.outcome with
         | Flow.Proved _ | Flow.Simulated (Flow.Sim_clean _) -> exit_ok
         | Flow.Refuted _ | Flow.Simulated (Flow.Sim_mismatch _) -> exit_cex
         | Flow.Undecided _ -> exit_unknown
         | Flow.Errored e -> Dfv_error.exit_code e))
      design bug
  in
  Cmd.v (Cmd.info "verify" ~doc ~exits)
    Term.(
      const run $ budget_term $ engine_term $ obs_term $ report_arg
      $ design_arg $ bug_arg)

(* Campaign flags, shared by `dfv faultsim` and `dfv client faultsim`.
   No --design means every subject. *)
let fault_designs_term =
  let designs =
    Arg.(
      value
      & opt_all string []
      & info [ "design" ] ~docv:"DESIGN"
          ~doc:
            "Subject(s) to mutate (repeatable): alu, fir, gcd, \
             chain.brightness, chain.convolution, chain.threshold, memsys. \
             Default: all.")
  in
  Term.(const (function [] -> Dfv_fault.Suite.names | ds -> ds) $ designs)

let fault_seed_arg =
  Arg.(
    value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Fault sampling seed.")

let max_faults_arg =
  Arg.(
    value
    & opt int 16
    & info [ "max-faults" ] ~docv:"N"
        ~doc:"Structural RTL faults per subject (class-stratified sample).")

let max_slm_faults_arg =
  Arg.(
    value
    & opt int 8
    & info [ "max-slm-faults" ] ~docv:"N"
        ~doc:"Semantic SLM mutations per subject.")

let fault_vectors_arg =
  Arg.(
    value
    & opt int 400
    & info [ "vectors" ] ~docv:"N"
        ~doc:"Cross-check simulation vectors per Equivalent mutant.")

let fault_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the machine-readable dfv-faultsim report to $(docv).")

let faultsim_cmd =
  let doc =
    "Run the fault-injection campaign: mutate the designs, demand that \
     SEC/co-simulation detect every activatable fault, and report the \
     detection rate (exit 1 when the gate fails)."
  in
  let run budget designs seed max_faults max_slm_faults sim_vectors engine
      jobs exec timeout deadline journal_path json progress obs =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    (match (exec, timeout) with
    | Some `Domains, Some _ ->
      Printf.eprintf
        "error: --exec-mode domains is incompatible with --timeout \
         (in-process domains cannot be killed mid-job); use --exec-mode \
         fork or drop --timeout\n";
      exit exit_error
    | _ -> ());
    match
      Dfv_error.guard (fun () ->
          (* Explicit --jobs (any N) forces the pool; the absent default
             is the core count, except on a 1-core host with no --timeout
             and no explicit --exec-mode, where pooling per mutant only
             adds overhead and the in-process path is behaviourally
             identical.  An explicit --exec-mode forces the pooled path
             so the executor choice takes effect. *)
          let jobs, pool =
            match jobs with
            | Some n -> (n, Some true)
            | None ->
              let n = Dfv_par.Pool.cores () in
              if n = 1 && timeout = None && exec = None then (1, Some false)
              else if exec = None then (n, None)
              else (n, Some true)
          in
          let exec = Option.value exec ~default:`Auto in
          let journal =
            match journal_path with
            | None -> None
            | Some path -> (
              let key =
                Dfv_fault.Suite.campaign_key ~budget ~seed ~sim_vectors
                  ~engine ~max_rtl_faults:max_faults ~max_slm_faults ~designs
              in
              match Dfv_par.Journal.open_ ~path ~campaign:key with
              | Ok j -> Some j
              | Error m -> failwith (Printf.sprintf "journal %s: %s" path m))
          in
          Fun.protect
            ~finally:(fun () -> Option.iter Dfv_par.Journal.close journal)
          @@ fun () ->
          (match journal with
          | Some j when Dfv_par.Journal.replayed j > 0 ->
            Printf.printf "resumed: %d verdicts replayed from journal\n"
              (Dfv_par.Journal.replayed j)
          | _ -> ());
          let reports =
            Dfv_fault.Suite.run ?budget ~seed ~sim_vectors ?engine ~jobs
              ?timeout ?deadline ?journal ?pool ~exec
              ~max_rtl_faults:max_faults ~max_slm_faults ~progress ~designs ()
          in
          if Dfv_par.Pool.stop_requested () then begin
            (match journal_path with
            | Some p ->
              Printf.eprintf "interrupted; resume with: dfv faultsim --resume %s ...\n" p
            | None ->
              Printf.eprintf
                "interrupted (no --journal, progress lost; re-run with \
                 --journal FILE to make the campaign resumable)\n");
            exit_interrupted
          end
          else begin
            List.iter (Format.printf "%a" Dfv_fault.Campaign.pp_report) reports;
            let rate, false_eq, pass =
              Dfv_fault.Suite.gate
                ~min_rate:Dfv_fault.Suite.default_min_rate reports
            in
            let shed =
              List.fold_left
                (fun acc r -> acc + r.Dfv_fault.Campaign.r_shed)
                0 reports
            in
            if shed > 0 then
              Printf.printf
                "%d mutants shed to UNKNOWN by --deadline (not counted \
                 against the gate)\n"
                shed;
            Printf.printf
              "detection rate %.1f%% (min %.0f%%), %d false equivalents: %s\n"
              (100.0 *. rate)
              (100.0 *. Dfv_fault.Suite.default_min_rate)
              false_eq
              (if pass then "PASS" else "FAIL");
            Option.iter
              (fun file ->
                Dfv_obs.Json.write_file file
                  (Dfv_fault.Campaign.json_of_reports
                     ~min_rate:Dfv_fault.Suite.default_min_rate reports))
              json;
            if pass then exit_ok else exit_cex
          end)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "faultsim" ~doc ~exits)
    Term.(
      const run $ budget_term $ fault_designs_term $ fault_seed_arg
      $ max_faults_arg $ max_slm_faults_arg $ fault_vectors_arg $ engine_term
      $ jobs_term $ exec_mode_term $ timeout_term $ deadline_term
      $ journal_term $ fault_json_arg $ progress_arg $ obs_term)

(* --- serve / client ---------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "dfv-serve.sock"
    & info [ "socket" ] ~docv:"SOCK"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let doc =
    "Run the persistent verification daemon: accept SEC, co-simulation \
     and fault-campaign requests over a Unix-domain socket (line-framed \
     JSON, see dfv client), answer repeats from a content-addressed \
     result cache keyed by structural fingerprints, and batch the \
     misses onto the worker executor.  SIGINT/SIGTERM (or a client \
     shutdown request) stop the daemon cleanly; with --store the cache \
     survives restarts — even a SIGKILL loses at most the in-flight \
     solves."
  in
  let cache_arg =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N"
          ~doc:"In-memory cache capacity in entries (LRU eviction).")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "On-disk cache store: an append-only dfv-journal file, \
             fsync'd per entry, replayed into the cache at startup \
             (poisoned records are rejected and counted).")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Write the dfv-serve summary artifact (per-endpoint hit \
             rates, cache counters, request log) to $(docv) on exit.")
  in
  let run socket cache store summary jobs exec obs =
    with_obs obs @@ fun () ->
    with_interrupt @@ fun () ->
    let resolve ~design ~bug =
      match Dfv_error.guard (fun () -> make_pair design bug) with
      | Ok p -> Ok p
      | Error e -> Error (Dfv_error.to_string e)
    in
    match
      Dfv_error.guard (fun () ->
          let cfg =
            {
              (Dfv_serve.Server.default_config ~socket) with
              Dfv_serve.Server.capacity = cache;
              store;
              summary;
              jobs = Option.value jobs ~default:(Dfv_par.Pool.cores ());
              exec = Option.value exec ~default:`Auto;
            }
          in
          Dfv_serve.Server.run ~resolve cfg)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "serve" ~doc ~exits)
    Term.(
      const run $ socket_arg $ cache_arg $ store_arg $ summary_arg
      $ jobs_term $ exec_mode_term $ obs_term)

let client_cmd =
  let module P = Dfv_serve.Protocol in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry the connection up to $(docv) times (0.1s apart) — \
             for racing a daemon that is still starting.")
  in
  (* Every subcommand takes --socket and --retries; [request] builds its
     op and the local command's --stats/--json from the rest. *)
  let client name doc request =
    Cmd.v (Cmd.info name ~doc ~exits)
      Term.(
        const (fun socket retries (op, stats, json) ->
            client_call ~socket ~retries ~stats ~json op)
        $ socket_arg $ retries_arg $ request)
  in
  let sec =
    client "sec" "Request a SEC verdict from the daemon."
      Term.(
        const (fun budget stats design bug ->
            (P.Sec { design; bug; budget }, stats, None))
        $ budget_term $ stats_arg $ design_arg $ bug_arg)
  in
  let sim =
    let seed_arg =
      Arg.(
        value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Stimulus seed.")
    in
    client "sim" "Request a simulation comparison from the daemon."
      Term.(
        const (fun vectors seed design bug ->
            (P.Sim { design; bug; vectors; seed }, false, None))
        $ vectors_arg $ seed_arg $ design_arg $ bug_arg)
  in
  let faultsim =
    client "faultsim" "Request a fault campaign from the daemon."
      Term.(
        const
          (fun budget designs seed max_rtl_faults max_slm_faults sim_vectors
               json ->
            ( P.Faultsim
                { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors;
                  budget },
              false,
              json ))
        $ budget_term $ fault_designs_term $ fault_seed_arg $ max_faults_arg
        $ max_slm_faults_arg $ fault_vectors_arg $ fault_json_arg)
  in
  let control name doc op = client name doc (Term.const (op, false, None)) in
  let doc =
    "Talk to a dfv serve daemon: sec, sim and faultsim queries plus \
     ping/stats/shutdown control.  Verify verdicts print byte-identically \
     to the corresponding local command."
  in
  Cmd.group
    (Cmd.info "client" ~doc ~exits)
    [ sec;
      sim;
      faultsim;
      control "ping" "Liveness probe: succeed iff the daemon answers." P.Ping;
      control "stats"
        "Fetch the daemon's live summary document (requests, per-endpoint \
         hit rates, cache counters) as one line of dfv-serve JSON."
        P.Stats;
      control "shutdown"
        "Ask the daemon to exit cleanly (cache store stays valid)." P.Shutdown ]

(* --- artifacts ---------------------------------------------------------- *)

(* One reader per artifact schema, shared by [validate] and [report] so
   that report renders exactly the files validate accepts.  A reader's
   [Error] is why the file is not a valid artifact; its [Ok] is what the
   two commands print. *)
type artifact = {
  label : string;  (** "SCHEMA vN" *)
  summary : string;  (** what validate appends to the label *)
  render : top:int -> unit;  (** what report prints under it *)
}

module J = Dfv_obs.Json

let str name v = Option.value ~default:"?" (J.string_field name v)
let ints name v = Option.value ~default:0 (J.int_field name v)
let num name v = Option.value ~default:0.0 (J.float_field name v)
let take n l = List.filteri (fun i _ -> i < n) l

(* Occurrence counts, in order of first appearance. *)
let print_tally labels =
  let counts = Hashtbl.create 8 in
  let firsts =
    List.filter
      (fun l ->
        let n = Option.value ~default:0 (Hashtbl.find_opt counts l) in
        Hashtbl.replace counts l (n + 1);
        n = 0)
      labels
  in
  List.iter
    (fun l -> Printf.printf "    %-30s %d\n" l (Hashtbl.find counts l))
    firsts

let render_faultsim v ~top =
  let subjects =
    match J.field "subjects" v with Some (J.List l) -> l | _ -> []
  in
  List.iter
    (fun s ->
      Printf.printf
        "  %-18s %3d mutants: %d detected, %d survived, %d unknown, %d \
         crashed, %d false-eq%s (%.2fs)\n"
        (str "name" s) (ints "total" s) (ints "detected" s) (ints "survived" s)
        (ints "unknown" s) (ints "crashed" s) (ints "false_equivalent" s)
        (let shed = ints "shed" s in
         if shed > 0 then Printf.sprintf ", %d shed" shed else "")
        (num "wall_seconds" s))
    subjects;
  (match
     (J.float_field "detection_rate" v, J.field "pass" v,
      J.int_field "false_equivalents" v)
   with
  | Some rate, Some (J.Bool pass), Some false_eq ->
    Printf.printf "  detection rate %.1f%%, %d false equivalents: %s\n"
      (100.0 *. rate) false_eq
      (if pass then "PASS" else "FAIL")
  | _ -> ());
  let mutants =
    List.concat_map
      (fun s ->
        match J.field "faults" s with
        | Some (J.List fs) ->
          List.filter_map
            (fun f ->
              Option.map
                (fun sec -> (sec, str "name" s, str "name" f, str "verdict" f))
                (J.float_field "seconds" f))
            fs
        | _ -> [])
      subjects
  in
  let slowest =
    take top (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) mutants)
  in
  if slowest <> [] then begin
    Printf.printf "  slowest mutants:\n";
    List.iter
      (fun (sec, subject, name, verdict) ->
        Printf.printf "    %8.3fs  %-18s %-40s %s\n" sec subject name verdict)
      slowest
  end

let render_metrics ~counters ~gauges ~histograms ~top:_ =
  if counters <> [] then begin
    Printf.printf "  counters:\n";
    List.iter
      (function
        | name, J.Int n -> Printf.printf "    %-40s %d\n" name n | _ -> ())
      counters
  end;
  if gauges <> [] then begin
    Printf.printf "  gauges:\n";
    List.iter
      (fun (name, g) ->
        Printf.printf "    %-40s value=%d max=%d\n" name (ints "value" g)
          (ints "max" g))
      gauges
  end;
  if histograms <> [] then begin
    Printf.printf "  histograms:\n";
    List.iter
      (fun (name, h) ->
        let count = ints "count" h and sum = ints "sum" h in
        Printf.printf "    %-40s n=%d sum=%d mean=%.1f\n" name count sum
          (if count = 0 then 0.0 else float_of_int sum /. float_of_int count))
      histograms;
    (* Time attribution: duration-valued histograms (the [_us]/[_ns]/
       [_ms] naming convention) as shares of total solver/engine
       time. *)
    let unit_scale name =
      if String.ends_with ~suffix:"_ns" name then 1e-9
      else if String.ends_with ~suffix:"_us" name then 1e-6
      else 1e-3
    in
    let timed =
      List.filter_map
        (fun (name, h) ->
          if Dfv_obs.Metrics.timing_metric name then
            Some
              ( name,
                float_of_int (ints "sum" h) *. unit_scale name,
                ints "count" h )
          else None)
        histograms
    in
    let total = List.fold_left (fun a (_, s, _) -> a +. s) 0.0 timed in
    if timed <> [] && total > 0.0 then begin
      Printf.printf "  time attribution:\n";
      List.iter
        (fun (name, sec, n) ->
          Printf.printf "    %-40s %8.3fs over %d samples (%4.1f%%)\n" name
            sec n
            (100.0 *. sec /. total))
        (List.sort (fun (_, a, _) (_, b, _) -> compare b a) timed)
    end
  end

let read_metrics v =
  let section name =
    match J.field name v with
    | Some (J.Obj fs) -> Ok fs
    | Some _ -> Error (name ^ " is not an object")
    | None -> Error ("missing " ^ name)
  in
  let ( let* ) = Result.bind in
  let* counters = section "counters" in
  let* gauges = section "gauges" in
  let* histograms = section "histograms" in
  Ok ("", render_metrics ~counters ~gauges ~histograms)

let render_trace v evs ~top =
  let spans =
    List.filter_map
      (fun e ->
        match (J.string_field "ph" e, J.string_field "name" e) with
        | Some "X", Some name -> Some (name, num "dur" e, ints "pid" e)
        | _ -> None)
      evs
  in
  let pids =
    List.sort_uniq compare (List.filter_map (fun e -> J.int_field "pid" e) evs)
  in
  Printf.printf "  %d spans across %d process(es)%s, %d events dropped\n"
    (List.length spans) (List.length pids)
    (match pids with
    | [] -> ""
    | _ ->
      Printf.sprintf " (pids %s)"
        (String.concat ", " (List.map string_of_int pids)))
    (ints "dropped" v);
  (* Per-name attribution, insertion order preserved then sorted by total
     time. *)
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, dur, _) ->
      match Hashtbl.find_opt tbl name with
      | Some (n, total, mx) ->
        Hashtbl.replace tbl name (n + 1, total +. dur, max mx dur)
      | None ->
        order := name :: !order;
        Hashtbl.add tbl name (1, dur, dur))
    spans;
  let by_name =
    List.sort
      (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a)
      (List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order)
  in
  if by_name <> [] then begin
    Printf.printf "  time per span name:\n";
    List.iter
      (fun (name, (n, total, mx)) ->
        Printf.printf "    %-40s %9.3fms over %d spans (max %.3fms)\n" name
          (total /. 1e3) n (mx /. 1e3))
      by_name
  end;
  let slowest =
    take top (List.sort (fun (_, a, _) (_, b, _) -> compare b a) spans)
  in
  if slowest <> [] then begin
    Printf.printf "  slowest spans:\n";
    List.iter
      (fun (name, dur, pid) ->
        Printf.printf "    %9.3fms  pid %-7d %s\n" (dur /. 1e3) pid name)
      slowest
  end

let render_coverage v ~top =
  let groups = match J.field "groups" v with Some (J.List l) -> l | _ -> [] in
  let holes = ref [] in
  List.iter
    (fun g ->
      let gname = str "name" g in
      Printf.printf "  %-30s %.1f%%\n" gname (100.0 *. num "coverage" g);
      match J.field "points" g with
      | Some (J.List ps) ->
        List.iter
          (fun p ->
            let pname = str "name" p in
            Printf.printf "    %-28s %.1f%% (%d samples)\n" pname
              (100.0 *. num "coverage" p)
              (ints "samples" p);
            let at_least = max 1 (ints "at_least" p) in
            match J.field "bins" p with
            | Some (J.List bs) ->
              List.iter
                (fun b ->
                  let hits = ints "hits" b in
                  if J.string_field "kind" b = Some "count" && hits < at_least
                  then
                    holes :=
                      ( at_least - hits,
                        Printf.sprintf "%s/%s/%s" gname pname (str "name" b),
                        hits,
                        at_least )
                      :: !holes)
                bs
            | _ -> ())
          ps
      | _ -> ())
    groups;
  let holes = List.rev !holes in
  if holes <> [] then begin
    Printf.printf "  %d coverage hole(s); worst:\n" (List.length holes);
    List.iter
      (fun (_, where, hits, need) ->
        Printf.printf "    %-50s %d/%d hits\n" where hits need)
      (take top
         (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) holes))
  end
  else Printf.printf "  no coverage holes\n"

let render_serve_summary v ~requests ~endpoints ~cache ~top =
  Printf.printf "  %d request(s)\n" requests;
  if endpoints <> [] then begin
    Printf.printf "  endpoints:\n";
    List.iter
      (fun e ->
        Printf.printf
          "    %-10s %4d requests: %d hits (%.1f%% hit rate), %d misses, %d \
           solves, %d errors, mean %.3fs\n"
          (str "op" e) (ints "requests" e) (ints "hits" e)
          (100.0 *. num "hit_rate" e)
          (ints "misses" e) (ints "solves" e) (ints "errors" e)
          (num "mean_seconds" e))
      endpoints
  end;
  let h = ints "hits" cache and m = ints "misses" cache in
  Printf.printf
    "  cache: %d/%d entries, %d hits / %d misses (%.1f%% hit rate), %d \
     evicted, %d replayed, %d rejected\n"
    (ints "size" cache) (ints "capacity" cache) h m
    (if h + m = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int (h + m))
    (ints "evicted" cache) (ints "replayed" cache) (ints "rejected" cache);
  Option.iter
    (Printf.printf "  uptime %.1fs\n")
    (J.float_field "uptime_seconds" v);
  match J.field "log" v with
  | Some (J.List log) when log <> [] ->
    (* Status tally over the request log, then the slowest entries. *)
    Printf.printf "  request log (%d entries%s):\n" (List.length log)
      (match J.field "log_truncated" v with
      | Some (J.Bool true) -> ", truncated"
      | _ -> "");
    print_tally (List.map (str "status") log);
    let slow =
      take top
        (List.sort (fun a b -> compare (num "seconds" b) (num "seconds" a)) log)
    in
    Printf.printf "  slowest requests:\n";
    List.iter
      (fun e ->
        Printf.printf "    %8.3fs  %-10s %s%s\n" (num "seconds" e) (str "op" e)
          (str "status" e)
          (match J.field "cached" e with
          | Some (J.Bool true) -> " (cached)"
          | _ -> ""))
      slow
  | _ -> ()

(* The serve smoke uploads the daemon summary; its endpoint rows and
   cache counters are what the CI assertions read, so their shape is
   contractual.  Request and response frames carry none of them. *)
let read_serve v =
  match J.field "kind" v with
  | Some (J.String "summary") -> (
    match
      (J.int_field "requests" v, J.field "endpoints" v, J.field "cache" v)
    with
    | Some requests, Some (J.List endpoints), Some (J.Obj _ as cache) ->
      Ok
        ( Printf.sprintf " (summary: %d requests, %d endpoints)" requests
            (List.length endpoints),
          render_serve_summary v ~requests ~endpoints ~cache )
    | _ -> Error "summary needs int requests, endpoints array, cache object")
  | Some (J.String ("request" | "response")) -> Ok ("", fun ~top:_ -> ())
  | Some (J.String k) -> Error ("unknown dfv-serve kind " ^ k)
  | _ -> Error "missing kind"

let render_generic v ~top:_ =
  match v with
  | J.Obj fields ->
    List.iter
      (fun (name, f) ->
        if name <> "schema" && name <> "version" then
          match f with
          | J.Int n -> Printf.printf "  %-30s %d\n" name n
          | J.Float x -> Printf.printf "  %-30s %g\n" name x
          | J.Bool b -> Printf.printf "  %-30s %b\n" name b
          | J.String s when String.length s <= 120 ->
            Printf.printf "  %-30s %s\n" name s
          | J.String s ->
            Printf.printf "  %-30s <%d chars>\n" name (String.length s)
          | J.List l ->
            Printf.printf "  %-30s [%d items]\n" name (List.length l)
          | J.Obj o ->
            Printf.printf "  %-30s {%d fields}\n" name (List.length o)
          | J.Null -> ())
      fields
  | _ -> ()

(* par_speedup records one row per executor; the CI gate reads mode/cores
   out of those rows, so their shape is part of the artifact contract. *)
let read_bench v =
  match J.string_field "experiment" v with
  | Some "par_speedup" -> (
    match J.field "modes" v with
    | Some (J.List rows) ->
      let row_ok row =
        J.string_field "mode" row <> None
        && J.int_field "cores" row <> None
        && J.float_field "speedup" row <> None
      in
      if rows = [] then Error "modes is empty"
      else if List.for_all row_ok rows then
        Ok
          ( Printf.sprintf " (%d executor rows)" (List.length rows),
            render_generic v )
      else Error "modes rows need string mode, int cores, numeric speedup"
    | Some _ -> Error "modes is not an array"
    | None -> Error "par_speedup is missing modes")
  | _ -> Ok ("", render_generic v)

(* The one dispatch on schema name.  Trace and metrics payloads are what
   dfv merges back in, bench and serve payloads what CI gates read, so
   their shape is checked; the rest need only the envelope. *)
let read_document schema v =
  match schema with
  | "dfv-trace" -> (
    match J.field "traceEvents" v with
    | Some (J.List evs) ->
      Ok
        ( Printf.sprintf " (%d events)" (List.length evs),
          render_trace v evs )
    | Some _ -> Error "traceEvents is not an array"
    | None -> Error "missing traceEvents")
  | "dfv-metrics" -> read_metrics v
  | "dfv-bench" -> read_bench v
  | "dfv-serve" -> read_serve v
  | "dfv-faultsim" -> Ok ("", render_faultsim v)
  | "dfv-coverage" -> Ok ("", render_coverage v)
  | _ -> Ok ("", render_generic v)

(* A journal is a record stream under its own corruption policy: report
   tallies the verdicts of exactly the records a resume would replay. *)
let read_journal file =
  let module Journal = Dfv_par.Journal in
  match Journal.inspect file with
  | Error m -> Error m
  | Ok info ->
    let records = List.length info.Journal.info_records in
    let notes =
      (if info.Journal.info_dropped > 0 then
         Printf.sprintf ", %d duplicates dropped" info.Journal.info_dropped
       else "")
      ^ if info.Journal.info_torn then ", torn tail" else ""
    in
    let verdict (_, p) =
      match (J.string_field "verdict" p, J.field "verdict" p) with
      | Some s, _ -> Some s
      | None, Some vk -> J.string_field "kind" vk
      | None, None -> J.string_field "kind" p
    in
    Ok
      {
        label = "dfv-journal v1";
        summary = Printf.sprintf " (%d records%s)" records notes;
        render =
          (fun ~top:_ ->
            Printf.printf "  %d result record(s)%s\n" records notes;
            print_tally (List.filter_map verdict info.Journal.info_records));
      }

(* A journal is line-framed JSON, not one document, so it is recognised
   by its first line; anything else must be one JSON document carrying
   the common envelope. *)
let read_artifact file =
  let contents = In_channel.with_open_bin file In_channel.input_all in
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  match Result.map J.envelope_of (J.parse first_line) with
  | Ok (Some ("dfv-journal", _)) -> read_journal file
  | Ok _ | Error _ -> (
    match J.parse contents with
    | Error m -> Error ("parse error: " ^ m)
    | Ok v -> (
      match J.envelope_of v with
      | None -> Error "missing {schema, version} envelope"
      | Some (schema, version) -> (
        match read_document schema v with
        | Ok (summary, render) ->
          Ok { label = Printf.sprintf "%s v%d" schema version; summary; render }
        | Error m -> Error (schema ^ ": " ^ m))))

let artifact_files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")

(* Check every file, also after a failure; exit 0 when all passed, 3
   otherwise. *)
let check_all check files =
  if List.fold_left (fun ok file -> check file && ok) true files then exit_ok
  else exit_error

let validate_cmd =
  let doc =
    "Validate machine-readable artifacts: each FILE must parse as JSON \
     and carry the shared {\"schema\", \"version\"} envelope.  Payloads \
     are additionally checked for their expected shape where dfv or CI \
     reads them back: dfv-trace (traceEvents array), dfv-metrics \
     (counter/gauge/histogram objects), dfv-bench par_speedup (executor \
     rows with mode, cores and speedup) and the dfv-serve summary \
     (requests, endpoints, cache).  Exits 0 when every file passes, 3 \
     otherwise.  Line-framed dfv-journal files are recognised by their \
     first line and checked record by record.  CI runs this over \
     uploaded BENCH_*.json / fault-report / trace / coverage / journal \
     artifacts."
  in
  let validate file =
    match read_artifact file with
    | Ok a ->
      Printf.printf "%-40s ok    %s%s\n" file a.label a.summary;
      true
    | Error m ->
      Printf.printf "%-40s FAIL  %s\n" file m;
      false
  in
  Cmd.v (Cmd.info "validate" ~doc ~exits)
    Term.(const (check_all validate) $ artifact_files_arg)

let report_cmd =
  let doc =
    "Summarize dfv JSON artifacts for humans: campaign reports (verdict \
     tallies, slowest mutants), journals (resumable progress), metrics \
     snapshots (counters, histograms, solver-time attribution), merged \
     traces (per-span time attribution, slowest spans, worker pids) and \
     coverage reports (holes).  Renders exactly the files $(b,dfv \
     validate) accepts; exits 0 when every file rendered, 3 otherwise."
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N"
          ~doc:"List the $(docv) slowest mutants/spans and worst holes.")
  in
  let report top file =
    let ok =
      match read_artifact file with
      | Ok a ->
        Printf.printf "%s — %s\n" file a.label;
        a.render ~top;
        true
      | Error m ->
        Printf.printf "%s — FAIL %s\n" file m;
        false
    in
    print_newline ();
    ok
  in
  Cmd.v (Cmd.info "report" ~doc ~exits)
    Term.(
      const (fun top -> check_all (report top)) $ top_arg $ artifact_files_arg)

let triage_cmd =
  let doc =
    "Reproduce a failure and bundle the evidence: the failing transaction \
     index, its stimulus, a VCD slice around the failure cycle, and \
     metric/span/coverage snapshots.  For the bundled SEC pairs this runs \
     the verify flow (plant a bug with --bug to force a failure); for \
     memsys it injects the first RTL fault the transactor/scoreboard \
     harness flags.  Exits 1 when a bundle was produced, 0 when the \
     design verified clean."
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Fault seed (memsys triage only).")
  in
  let run budget obs report_file seed design bug =
    with_obs obs @@ fun () ->
    match
      Dfv_error.guard (fun () ->
          let bundle =
            if design = "memsys" then begin
              if bug <> "none" then
                failwith
                  "memsys triage injects its own fault; --bug is not \
                   supported";
              Dfv_fault.Suite.memsys_triage ~seed ()
            end
            else begin
              let pair = make_pair design bug in
              let report = Flow.verify ?budget pair in
              Flow.triage_of_report pair report
            end
          in
          match bundle with
          | Some t ->
            Format.printf "%a@." Dfv_obs.Triage.pp t;
            (match report_file with
            | Some file -> Dfv_obs.Triage.write_file file t
            | None -> ());
            exit_cex
          | None ->
            Printf.printf "no failure to triage\n";
            (match report_file with
            | Some file ->
              Dfv_obs.Json.write_file file (no_failure_json design)
            | None -> ());
            exit_ok)
    with
    | Ok code -> code
    | Error e ->
      Printf.eprintf "error: %s\n" (Dfv_error.to_string e);
      Dfv_error.exit_code e
  in
  Cmd.v (Cmd.info "triage" ~doc ~exits)
    Term.(
      const run $ budget_term $ obs_term $ report_arg $ seed_arg $ design_arg
      $ bug_arg)

let () =
  let doc = "design-for-verification flows between system-level models and RTL" in
  let info = Cmd.info "dfv" ~version:"1.0.0" ~doc ~exits in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ list_cmd; audit_cmd; sec_cmd; sim_cmd; verify_cmd; faultsim_cmd;
           serve_cmd; client_cmd; triage_cmd; validate_cmd; report_cmd ])
  in
  (* cmdliner's own cli-error (124) / internal-error (125) codes fold
     into the documented "usage or internal error" code. *)
  exit (if code >= 124 then exit_error else code)
