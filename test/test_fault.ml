(* Tests for the fault-injection subsystem: fault enumeration, cone
   localization, and campaign resilience (a crashing mutant must be
   recorded, not abort the run). *)

open Dfv_rtl
open Dfv_fault
module Journal = Dfv_par.Journal

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let alu_pair () =
  let t = Dfv_designs.Alu.make ~width:8 () in
  Dfv_core.Pair.create ~name:"alu" ~slm:t.Dfv_designs.Alu.slm
    ~rtl:t.Dfv_designs.Alu.rtl ~spec:t.Dfv_designs.Alu.spec

let budget =
  Some { Dfv_sat.Solver.max_conflicts = Some 200_000; max_seconds = None }

let test_enumerate_rtl () =
  let pair = alu_pair () in
  let faults = Fault.enumerate_rtl ~max_faults:24 pair.Dfv_core.Pair.rtl in
  check_bool "non-empty" true (faults <> []);
  check_bool "bounded" true (List.length faults <= 24);
  (* Names are unique, and every mutant still elaborates with the same
     interface (the width-preservation contract). *)
  let names = List.map (fun f -> f.Fault.rf_name) faults in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun f ->
      let m = f.Fault.rf_apply pair.Dfv_core.Pair.rtl in
      check_bool (f.Fault.rf_name ^ " keeps ports") true
        (m.Netlist.e_inputs = pair.Dfv_core.Pair.rtl.Netlist.e_inputs
        && List.map fst m.Netlist.e_outputs
           = List.map fst pair.Dfv_core.Pair.rtl.Netlist.e_outputs))
    faults

let test_enumerate_slm_reachable_only () =
  let pair = alu_pair () in
  let faults = Fault.enumerate_slm ~max_faults:12 pair.Dfv_core.Pair.slm in
  check_bool "non-empty" true (faults <> []);
  (* Every mutant still typechecks: mutations are type-preserving. *)
  List.iter
    (fun f ->
      match
        Dfv_hwir.Typecheck.check (f.Fault.sf_apply pair.Dfv_core.Pair.slm)
      with
      | () -> ()
      | exception Dfv_hwir.Typecheck.Type_error m ->
        Alcotest.failf "%s broke typing: %s" f.Fault.sf_name m)
    faults;
  (* Mutations in dead functions are guaranteed survivors, so the
     enumerator must skip functions unreachable from the entry. *)
  let open Dfv_hwir.Ast in
  let dead =
    {
      fname = "dead_helper";
      params = [ ("x", uint 8) ];
      ret = uint 8;
      locals = [];
      body = [ Return (var "x" +^ u 8 1) ];
    }
  in
  let p =
    { pair.Dfv_core.Pair.slm with
      funcs = dead :: pair.Dfv_core.Pair.slm.funcs }
  in
  List.iter
    (fun f ->
      check_bool "no dead-code mutants" false (f.Fault.sf_site = "dead_helper"))
    (Fault.enumerate_slm ~max_faults:100 p)

let test_cone () =
  (* out1 depends on w1 and a; out2 on b only. *)
  let open Expr in
  let rtl =
    Netlist.elaborate
      {
        (Netlist.empty "cones") with
        Netlist.inputs =
          [ { Netlist.port_name = "a"; port_width = 8 };
            { Netlist.port_name = "b"; port_width = 8 } ];
        wires = [ ("w1", sig_ "a" +: const ~width:8 1) ];
        outputs = [ ("out1", sig_ "w1"); ("out2", sig_ "b") ];
      }
  in
  check_bool "w1 in out1 cone" true (Fault.cone rtl ~output:"out1" "w1");
  check_bool "a in out1 cone" true (Fault.cone rtl ~output:"out1" "a");
  check_bool "b outside out1 cone" false (Fault.cone rtl ~output:"out1" "b");
  check_bool "w1 outside out2 cone" false (Fault.cone rtl ~output:"out2" "w1");
  check_bool "output is its own cone" true (Fault.cone rtl ~output:"out2" "out2")

let test_alu_campaign_gate () =
  (* The acceptance property in miniature: every injected ALU fault is
     detected and localized; the prover never certifies a mutant. *)
  let r =
    Campaign.run ?budget ~max_rtl_faults:10 ~max_slm_faults:6
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_bool "mutants enumerated" true (r.Campaign.r_total > 0);
  check_int "no false equivalents" 0 r.Campaign.r_false_eq;
  check_int "no crashes" 0 r.Campaign.r_crashed;
  check_int "no mislocalized counterexamples" 0 r.Campaign.r_mislocalized;
  check_int "every fault detected" r.Campaign.r_total r.Campaign.r_detected;
  let rate, false_eq, pass = Suite.gate [ r ] in
  check_bool "gate passes" true pass;
  check_bool "rate is 1.0" true (rate = 1.0);
  check_int "gate false equivalents" 0 false_eq

let test_campaign_survives_crashing_mutant () =
  (* One mutant whose run dies must degrade to a recorded verdict while
     the rest of the campaign completes normally. *)
  let boom =
    Campaign.Custom_mutant
      { cm_name = "boom"; cm_run = (fun () -> failwith "boom") }
  in
  let ok =
    Campaign.Custom_mutant { cm_name = "ok"; cm_run = (fun () -> true) }
  in
  let r =
    Campaign.run ?budget ~max_rtl_faults:4 ~max_slm_faults:2
      ~extra_mutants:[ boom; ok ]
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_int "crash recorded" 1 r.Campaign.r_crashed;
  check_bool "other mutants still ran" true (r.Campaign.r_detected >= 1);
  let crashed =
    List.find
      (fun m -> m.Campaign.m_name = "boom")
      r.Campaign.r_results
  in
  (match crashed.Campaign.verdict with
  | Campaign.Crashed (Dfv_core.Dfv_error.Internal m) ->
    check_bool "cause preserved" true
      (let n = String.length "boom" and h = String.length m in
       let rec go i = i + n <= h && (String.sub m i n = "boom" || go (i + 1)) in
       go 0)
  | v -> Alcotest.failf "wrong verdict for boom: %s" (Campaign.verdict_label v));
  (* The crash counts against the detection rate: campaigns cannot pass
     by crashing instead of verifying. *)
  check_bool "rate dented" true (Campaign.detection_rate [ r ] < 1.0)

(* SIGINT reaches a mutant in flight: a mutant that raises the stop flag
   (as the CLI's signal handler does) and then polls ends Interrupted,
   as does every mutant after it, and none of them is journaled, so a
   resume re-runs them.  The mutant before it keeps its verdict. *)
let test_stop_reaches_running_mutant () =
  let path = Filename.temp_file "dfv_sigint" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Dfv_par.Pool.reset_stop ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let custom name run = Campaign.Custom_mutant { cm_name = name; cm_run = run } in
  let j =
    match Journal.open_ ~path ~campaign:"sigint" with
    | Ok j -> j
    | Error m -> Alcotest.failf "journal: %s" m
  in
  let r =
    Fun.protect ~finally:(fun () -> Journal.close j) @@ fun () ->
    Campaign.run ?budget ~jobs:1 ~journal:j ~max_rtl_faults:0
      ~max_slm_faults:0
      ~extra_mutants:
        [ custom "before" (fun () -> true);
          custom "sigint" (fun () ->
              Dfv_par.Pool.request_stop ();
              Dfv_sat.Stop.poll ();
              true);
          custom "after" (fun () -> true) ]
      (Campaign.Sec_pair (alu_pair ()))
  in
  let verdict_of name =
    (List.find (fun m -> m.Campaign.m_name = name) r.Campaign.r_results)
      .Campaign.verdict
  in
  (match verdict_of "before" with
  | Campaign.Detected _ -> ()
  | v -> Alcotest.failf "before: %s" (Campaign.verdict_label v));
  List.iter
    (fun name ->
      match verdict_of name with
      | Campaign.Unknown { reason; _ } ->
        check_bool (name ^ " interrupted") true
          (String.starts_with ~prefix:"interrupted before" reason)
      | v -> Alcotest.failf "%s: expected Unknown, got %s" name
               (Campaign.verdict_label v))
    [ "sigint"; "after" ];
  match Journal.inspect path with
  | Ok info ->
    check_int "only the finished mutant journaled" 1
      (List.length info.Journal.info_records)
  | Error m -> Alcotest.failf "inspect: %s" m

(* The flow's guard re-raises [Stack_overflow]; the executor's catch-all
   must still contain it, so a mutant that overflows is
   [Crashed (Internal _)] and the campaign completes at any job count. *)
let check_stack_overflow_contained ?jobs leg =
  let deep =
    Campaign.Custom_mutant
      { cm_name = "deep"; cm_run = (fun () -> raise Stack_overflow) }
  in
  let r =
    Campaign.run ?budget ?jobs ~max_rtl_faults:4 ~max_slm_faults:2
      ~extra_mutants:[ deep ]
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_int (leg ^ ": one crash") 1 r.Campaign.r_crashed;
  check_int
    (leg ^ ": every other mutant detected")
    (r.Campaign.r_total - 1) r.Campaign.r_detected;
  match
    (List.find (fun m -> m.Campaign.m_name = "deep") r.Campaign.r_results)
      .Campaign.verdict
  with
  | Campaign.Crashed (Dfv_core.Dfv_error.Internal _) -> ()
  | v ->
    Alcotest.failf "%s: deep should be Crashed (Internal), got %s" leg
      (Campaign.verdict_label v)

let test_stack_overflow_contained () =
  check_stack_overflow_contained ~jobs:1 "in-process"

(* A wedged mutant under a wall-clock budget is a justified Unknown
   (budget-like), never a Crashed: the distinction feeds the gate, which
   tolerates unknowns but not silent crashes.  The sleeper polls its stop
   token, as the solver, the sweep and the simulation flow do; a
   cooperative deadline cannot stop a bare [Unix.sleep]. *)
let test_pooled_timeout_is_unknown () =
  let sleeper =
    Campaign.Custom_mutant
      {
        cm_name = "sleeper";
        cm_run =
          (fun () ->
            for _ = 1 to 60_000 do
              Dfv_sat.Stop.poll ();
              Unix.sleepf 0.001
            done;
            false);
      }
  in
  let r =
    Campaign.run ?budget ~jobs:1 ~timeout:2.0 ~max_rtl_faults:4
      ~max_slm_faults:2 ~extra_mutants:[ sleeper ]
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_int "no crash" 0 r.Campaign.r_crashed;
  check_bool "unknown recorded" true (r.Campaign.r_unknown >= 1);
  let sleeper_v =
    (List.find (fun m -> m.Campaign.m_name = "sleeper") r.Campaign.r_results)
      .Campaign.verdict
  in
  match sleeper_v with
  | Campaign.Unknown { seconds; _ } ->
    check_bool "budget recorded" true (seconds = 2.0)
  | v ->
    Alcotest.failf "sleeper should be Unknown, got %s"
      (Campaign.verdict_label v)

let test_json_report () =
  let r =
    Campaign.run ?budget ~max_rtl_faults:4 ~max_slm_faults:2
      (Campaign.Sec_pair (alu_pair ()))
  in
  let json =
    Dfv_obs.Json.to_string (Campaign.json_of_reports ~min_rate:0.95 [ r ])
  in
  let contains sub =
    let n = String.length sub and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "schema field" true (contains "\"schema\":\"dfv-faultsim\"");
  check_bool "version field" true (contains "\"version\":1");
  check_bool "pass field" true (contains "\"pass\":true");
  check_bool "subject listed" true (contains "\"name\":\"alu\"");
  check_bool "verdicts serialized" true (contains "\"verdict\":\"detected\"")

(* --- durability: kill-mid-campaign resume, deadline shedding ---------- *)

(* A report with every timing zeroed: what "byte-identical (timings
   aside)" means, made executable. *)
let canon (r : Campaign.report) =
  let canon_verdict = function
    | Campaign.Detected d -> Campaign.Detected { d with seconds = 0.0 }
    | Campaign.Survived _ -> Campaign.Survived { seconds = 0.0 }
    | Campaign.False_equivalent _ -> Campaign.False_equivalent { seconds = 0.0 }
    | Campaign.Unknown u -> Campaign.Unknown { u with seconds = 0.0 }
    | Campaign.Crashed e -> Campaign.Crashed e
  in
  {
    r with
    Campaign.r_wall = 0.0;
    r_results =
      List.map
        (fun m -> { m with Campaign.verdict = canon_verdict m.Campaign.verdict })
        r.Campaign.r_results;
  }

(* Simulate a SIGKILL mid-campaign: run the campaign journaled, chop the
   journal down to a prefix of its records (a crash can stop the append
   stream anywhere — even mid-line, which the torn-tail policy covers
   in test_par), then resume.  The resumed report must equal the
   uninterrupted one exactly, timings aside, with the prefix replayed
   rather than re-run. *)
let test_campaign_resume_byte_identical () =
  let subject () = Campaign.Sec_pair (alu_pair ()) in
  let reference =
    Campaign.run ?budget ~max_rtl_faults:6 ~max_slm_faults:2 (subject ())
  in
  let path = Filename.temp_file "dfv_campaign" ".jsonl" in
  Sys.remove path;
  let j =
    match Journal.open_ ~path ~campaign:"resume-test" with
    | Ok j -> j
    | Error m -> Alcotest.failf "journal: %s" m
  in
  let full =
    Campaign.run ?budget ~max_rtl_faults:6 ~max_slm_faults:2 ~journal:j
      (subject ())
  in
  Journal.close j;
  Alcotest.check Alcotest.bool "journaled run matches reference" true
    (canon full = canon reference);
  (* keep the header plus the first 3 records: the "crash point" *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let prefix =
    match String.split_on_char '\n' contents with
    | header :: records ->
      String.concat "\n" (header :: List.filteri (fun i _ -> i < 3) records)
      ^ "\n"
    | [] -> Alcotest.fail "empty journal"
  in
  let oc = open_out_bin path in
  output_string oc prefix;
  close_out oc;
  let j =
    match Journal.open_ ~path ~campaign:"resume-test" with
    | Ok j -> j
    | Error m -> Alcotest.failf "journal reopen: %s" m
  in
  check_int "prefix replayed" 3 (Journal.replayed j);
  let resumed =
    Campaign.run ?budget ~max_rtl_faults:6 ~max_slm_faults:2 ~journal:j
      (subject ())
  in
  Journal.close j;
  Sys.remove path;
  check_bool "resumed report byte-identical (timings aside)" true
    (canon resumed = canon reference);
  check_int "total preserved" reference.Campaign.r_total
    resumed.Campaign.r_total

(* A deadline already in the past sheds every mutant to Unknown —
   reported in r_shed, never silently — and the campaign still returns
   a complete report instead of dying. *)
let test_campaign_deadline_sheds () =
  let r =
    Campaign.run ?budget ~max_rtl_faults:4 ~max_slm_faults:2
      ~deadline_at:(Unix.gettimeofday () -. 1.0)
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_int "everything shed" r.Campaign.r_total r.Campaign.r_shed;
  check_int "shed mutants are unknowns" r.Campaign.r_total
    r.Campaign.r_unknown;
  check_int "nothing crashed" 0 r.Campaign.r_crashed;
  (* shedding must not poison the gate denominator *)
  check_bool "rate unaffected" true
    (Campaign.detection_rate [ r ] = 1.0)

(* Journal resume on two workers: the same kill-mid-campaign scenario
   as test_campaign_resume_byte_identical, with the legs running on
   in-process domains.  It is in [domains_suite], which runs in its own
   process: OCaml 5 forbids Unix.fork once a process has spawned a
   domain. *)
let test_campaign_resume_on_domains () =
  let subject () = Campaign.Sec_pair (alu_pair ()) in
  let run ?journal () =
    Campaign.run ?budget ~jobs:2 ~pool:true ~max_rtl_faults:6
      ~max_slm_faults:2 ?journal (subject ())
  in
  let reference = run () in
  let path = Filename.temp_file "dfv_campaign_dom" ".jsonl" in
  Sys.remove path;
  let j =
    match Journal.open_ ~path ~campaign:"resume-domains" with
    | Ok j -> j
    | Error m -> Alcotest.failf "journal: %s" m
  in
  let full = run ~journal:j () in
  Journal.close j;
  check_bool "journaled domains run matches reference" true
    (canon full = canon reference);
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let prefix =
    match String.split_on_char '\n' contents with
    | header :: records ->
      String.concat "\n" (header :: List.filteri (fun i _ -> i < 3) records)
      ^ "\n"
    | [] -> Alcotest.fail "empty journal"
  in
  let oc = open_out_bin path in
  output_string oc prefix;
  close_out oc;
  let j =
    match Journal.open_ ~path ~campaign:"resume-domains" with
    | Ok j -> j
    | Error m -> Alcotest.failf "journal reopen: %s" m
  in
  check_int "prefix replayed" 3 (Journal.replayed j);
  let resumed = run ~journal:j () in
  Journal.close j;
  Sys.remove path;
  check_bool "resumed domains report byte-identical (timings aside)" true
    (canon resumed = canon reference);
  check_int "total preserved" reference.Campaign.r_total
    resumed.Campaign.r_total

let test_stack_overflow_contained_on_domains () =
  check_stack_overflow_contained ~jobs:2 "domains"

(* --- the campaign's SEC query memo ------------------------------------- *)

module Checker = Dfv_sec.Checker
module Metrics = Dfv_obs.Metrics
module Stop = Dfv_sat.Stop
module Dfv_error = Dfv_core.Dfv_error

(* The pairs [dfv faultsim] builds for these subjects. *)
let sec_pair = function
  | "gcd" ->
    let t = Dfv_designs.Gcd.make ~width:4 in
    Dfv_core.Pair.create ~name:"gcd" ~slm:t.Dfv_designs.Gcd.slm
      ~rtl:t.Dfv_designs.Gcd.rtl ~spec:t.Dfv_designs.Gcd.spec
  | "chain.brightness" ->
    let module C = Dfv_designs.Image_chain in
    let t = C.make () in
    Dfv_core.Pair.create ~name:"chain.brightness"
      ~slm:(C.block_slm t C.Brightness) ~rtl:(C.block_rtl t C.Brightness)
      ~spec:(C.block_spec C.Brightness)
  | name -> Alcotest.failf "no pair named %s" name

let counter name = Metrics.counter_value (Metrics.counter name)

let conflicts n =
  { Dfv_sat.Solver.max_conflicts = Some n; max_seconds = None }

(* All a campaign reads of a verdict: its kind and, for a
   counterexample, the parameters and the failing checks. *)
let verdict_view = function
  | Ok (Checker.Equivalent _) -> "equivalent"
  | Ok (Checker.Unknown (r, _)) -> "unknown: " ^ Dfv_sat.Solver.reason_string r
  | Ok (Checker.Not_equivalent (cex, _)) ->
    let value = function
      | Dfv_hwir.Interp.Vint bv -> Dfv_bitvec.Bitvec.to_string bv
      | Dfv_hwir.Interp.Varr a ->
        String.concat ","
          (Array.to_list (Array.map Dfv_bitvec.Bitvec.to_string a))
    in
    String.concat " "
      ("counterexample"
       :: List.map (fun (n, v) -> n ^ "=" ^ value v) cex.Checker.params
      @ List.map
          (fun ((c : Dfv_sec.Spec.check), got) ->
            Printf.sprintf "%s@%d:%s" c.Dfv_sec.Spec.rtl_port
              c.Dfv_sec.Spec.at_cycle
              (Dfv_bitvec.Bitvec.to_string got))
          cex.Checker.failed_checks)
  | Error e -> "error: " ^ Dfv_error.to_string e

let sec ?budget ?session ?memo pair =
  verdict_view
    (Dfv_error.guard (fun () -> Dfv_core.Flow.sec ?budget ?session ?memo pair))

(* Every mutant of two subjects at two seeds, through one memo per
   campaign: each answer equals a fresh solve's, hits included. *)
let test_memo_answers_as_fresh () =
  let budget = conflicts 20_000 in
  let hits = counter "sec.memo_hits" in
  List.iter
    (fun name ->
      let pair = sec_pair name in
      List.iter
        (fun seed ->
          let memo = Checker.memo () in
          let mutants =
            List.map
              (fun f ->
                ( f.Fault.rf_name,
                  { pair with
                    Dfv_core.Pair.rtl = f.Fault.rf_apply pair.Dfv_core.Pair.rtl
                  } ))
              (Fault.enumerate_rtl ~seed ~max_faults:16 pair.Dfv_core.Pair.rtl)
            @ List.map
                (fun f ->
                  ( f.Fault.sf_name,
                    { pair with
                      Dfv_core.Pair.slm =
                        f.Fault.sf_apply pair.Dfv_core.Pair.slm
                    } ))
                (Fault.enumerate_slm ~seed ~max_faults:8 pair.Dfv_core.Pair.slm)
          in
          List.iter
            (fun (mutant, p) ->
              Alcotest.(check string)
                (Printf.sprintf "%s seed %d %s" name seed mutant)
                (sec ~budget p) (sec ~budget ~memo p))
            mutants)
        [ 0; 1 ])
    [ "gcd"; "chain.brightness" ];
  check_bool "some mutants repeated a query" true
    (counter "sec.memo_hits" > hits)

let test_memo_hit_solves_nothing () =
  let pair = sec_pair "gcd" in
  let memo = Checker.memo () in
  let solves = counter "sat.solves" and hits = counter "sec.memo_hits" in
  let first = sec ~memo pair in
  Alcotest.(check string) "decided" "equivalent" first;
  let solves' = counter "sat.solves" and queries = counter "sec.queries" in
  check_bool "the first call solves" true (solves' > solves);
  check_int "and is no hit" hits (counter "sec.memo_hits");
  Dfv_obs.Trace.enable ();
  let second = sec ~memo pair in
  let events = Dfv_obs.Trace.events () in
  Dfv_obs.Trace.disable ();
  Alcotest.(check string) "the repeat answers the same" first second;
  check_int "the repeat adds no sat.solves" solves' (counter "sat.solves");
  check_int "nor sec.queries" queries (counter "sec.queries");
  check_int "it adds one sec.memo_hits" (hits + 1) (counter "sec.memo_hits");
  check_bool "the hit is marked inside its check span" true
    (List.exists
       (fun (n, ts, _, _) ->
         n = "sec.memo_hit"
         && List.exists
              (fun (m, t0, dur, _) ->
                m = "sec.check_slm_rtl" && t0 <= ts && ts <= t0 +. dur)
              events)
       events)

(* Each call below would hit an earlier one's entry if the memo ignored
   the budget, a time bound or a caller session. *)
let test_memo_keys_on_budget_and_session () =
  let pair = sec_pair "gcd" in
  let memo = Checker.memo () in
  let hits = counter "sec.memo_hits" in
  Alcotest.(check string) "one conflict decides nothing"
    "unknown: conflict budget exhausted"
    (sec ~budget:(conflicts 1) ~memo pair);
  Alcotest.(check string) "a larger budget is another query" "equivalent"
    (sec ~budget:(conflicts 200_000) ~memo pair);
  let timed =
    { Dfv_sat.Solver.max_conflicts = Some 200_000; max_seconds = Some 600. }
  in
  for _ = 1 to 2 do
    Alcotest.(check string) "a time bound bypasses the memo" "equivalent"
      (sec ~budget:timed ~memo pair);
    Alcotest.(check string) "so does a caller session" "equivalent"
      (sec ~session:(Dfv_sec.Session.create ()) ~memo pair)
  done;
  check_int "no call hit" hits (counter "sec.memo_hits");
  Alcotest.(check string) "the same budget again" "equivalent"
    (sec ~budget:(conflicts 200_000) ~memo pair);
  check_int "hits" (hits + 1) (counter "sec.memo_hits")

(* gcd's query takes 269 conflicts, so a cancelled token stops its
   claimer at the solver's first poll (the 64th). *)
let test_memo_stopped_claimer_leaves_no_entry () =
  let pair = sec_pair "gcd" in
  let memo = Checker.memo () in
  let cancelled = Stop.token (Atomic.make true) in
  (match Stop.with_token cancelled (fun () -> Dfv_core.Flow.sec ~memo pair) with
  | _ -> Alcotest.fail "a cancelled claimer must stop"
  | exception Stop.Stopped -> ());
  let solves = counter "sat.solves" and hits = counter "sec.memo_hits" in
  Alcotest.(check string) "the next caller decides" "equivalent"
    (sec ~memo pair);
  check_bool "by solving" true (counter "sat.solves" > solves);
  check_int "not by a hit" hits (counter "sec.memo_hits");
  Alcotest.(check string) "then it is stored" "equivalent" (sec ~memo pair);
  check_int "and hit" (hits + 1) (counter "sec.memo_hits")

(* Two workers on one query decide it once, whoever claims it; a job
   stopped while it holds or awaits the claim leaves the key to the
   other.  The counts hold for any interleaving, and at one worker. *)
let test_memo_shared_by_workers () =
  let pair = sec_pair "gcd" in
  let solves = counter "sat.solves" in
  ignore (sec pair);
  let one_query = counter "sat.solves" - solves in
  let memo = Checker.memo () in
  let solves = counter "sat.solves" and hits = counter "sec.memo_hits" in
  let views =
    Dfv_par.Dpool.map ~jobs:2 (fun () -> sec ~memo pair) [ (); (); (); () ]
  in
  check_bool "every worker answers the same" true
    (List.for_all (fun v -> v = Ok "equivalent") views);
  check_int "the query is solved once" one_query (counter "sat.solves" - solves);
  check_int "three hits" (hits + 3) (counter "sec.memo_hits");
  let memo = Checker.memo () in
  let cancelled = Stop.token (Atomic.make true) in
  let views =
    Dfv_par.Dpool.map ~jobs:2
      (fun stop ->
        if stop then begin
          ignore
            (Stop.with_token cancelled (fun () -> Dfv_core.Flow.sec ~memo pair));
          (* Reached only on a hit, which answers without polling. *)
          raise Stop.Stopped
        end;
        sec ~memo pair)
      [ true; false ]
  in
  (match views with
  | [ Error (Dfv_error.Interrupted _); Ok "equivalent" ] -> ()
  | _ -> Alcotest.fail "the stopped job is interrupted, the other decides");
  let hits = counter "sec.memo_hits" in
  Alcotest.(check string) "the answer is stored" "equivalent" (sec ~memo pair);
  check_int "and hit" (hits + 1) (counter "sec.memo_hits")

let domains_suite =
  [ Alcotest.test_case "domains campaign journal resume is byte-identical"
      `Quick test_campaign_resume_on_domains;
    Alcotest.test_case "stack overflow is Crashed on domains" `Quick
      test_stack_overflow_contained_on_domains;
    Alcotest.test_case "workers share the query memo" `Quick
      test_memo_shared_by_workers ]

let suite =
  [ Alcotest.test_case "enumerate rtl faults" `Quick test_enumerate_rtl;
    Alcotest.test_case "enumerate slm faults (reachable only)" `Quick
      test_enumerate_slm_reachable_only;
    Alcotest.test_case "fan-in cone" `Quick test_cone;
    Alcotest.test_case "alu campaign gate" `Quick test_alu_campaign_gate;
    Alcotest.test_case "campaign survives crashing mutant" `Quick
      test_campaign_survives_crashing_mutant;
    Alcotest.test_case "a stop reaches the running mutant, unjournaled"
      `Quick test_stop_reaches_running_mutant;
    Alcotest.test_case "stack overflow is Crashed in-process at one worker"
      `Quick test_stack_overflow_contained;
    Alcotest.test_case "pooled campaign: timeout is Unknown" `Slow
      test_pooled_timeout_is_unknown;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "kill-mid-campaign resume is byte-identical" `Quick
      test_campaign_resume_byte_identical;
    Alcotest.test_case "deadline sheds to Unknown, never silently" `Quick
      test_campaign_deadline_sheds;
    Alcotest.test_case "memo answers every mutant as a fresh solve" `Quick
      test_memo_answers_as_fresh;
    Alcotest.test_case "memo hit solves nothing and counts one" `Quick
      test_memo_hit_solves_nothing;
    Alcotest.test_case "memo keys on budget, time bound, session" `Quick
      test_memo_keys_on_budget_and_session;
    Alcotest.test_case "memo: a stopped claimer leaves no entry" `Quick
      test_memo_stopped_claimer_leaves_no_entry ]
