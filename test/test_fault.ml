(* Tests for the fault-injection subsystem: fault enumeration, cone
   localization, and campaign resilience (a crashing mutant must be
   recorded, not abort the run). *)

open Dfv_rtl
open Dfv_fault

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

(* Acceptance: a worker killed mid-job (models a segfault or OOM kill)
   must leave the campaign alive, with that one mutant Crashed on a
   Worker_crashed — distinct from the structured Internal a raising
   mutant produces, and distinct from the Unknown a timed-out one
   produces. *)
let test_pooled_killed_worker () =
  let kill_self =
    Campaign.Custom_mutant
      {
        cm_name = "kill-self";
        cm_run =
          (fun () ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            false);
      }
  in
  let boom =
    Campaign.Custom_mutant
      { cm_name = "boom"; cm_run = (fun () -> failwith "boom") }
  in
  let r =
    Campaign.run ?budget ~jobs:2 ~max_rtl_faults:4 ~max_slm_faults:2
      ~extra_mutants:[ kill_self; boom ]
      (Campaign.Sec_pair (alu_pair ()))
  in
  check_int "both degraded to Crashed" 2 r.Campaign.r_crashed;
  check_bool "rest of the campaign completed" true (r.Campaign.r_detected >= 1);
  let verdict_of name =
    (List.find (fun m -> m.Campaign.m_name = name) r.Campaign.r_results)
      .Campaign.verdict
  in
  (match verdict_of "kill-self" with
  | Campaign.Crashed (Dfv_core.Dfv_error.Worker_crashed _) -> ()
  | v ->
    Alcotest.failf "kill-self should be Worker_crashed, got %s"
      (Campaign.verdict_label v));
  match verdict_of "boom" with
  | Campaign.Crashed (Dfv_core.Dfv_error.Internal m) ->
    Alcotest.(check string) "raise stays structured across the pipe" "boom" m
  | v ->
    Alcotest.failf "boom should be Crashed (Internal), got %s"
      (Campaign.verdict_label v)

(* A wedged mutant under a wall-clock budget is a justified Unknown
   (budget-like), never a Crashed: the distinction feeds the gate, which
   tolerates unknowns but not silent crashes. *)
let test_pooled_timeout_is_unknown () =
  let sleeper =
    Campaign.Custom_mutant
      {
        cm_name = "sleeper";
        cm_run =
          (fun () ->
            Unix.sleep 60;
            false);
      }
  in
  let r =
    Campaign.run ?budget ~jobs:2 ~timeout:2.0 ~max_rtl_faults:4
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

module Journal = Dfv_par.Journal

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

(* Journal resume on the domains executor: the same kill-mid-campaign
   scenario as test_campaign_resume_byte_identical, with the pooled legs
   running on in-process domains instead of forked workers.  It is in
   [domains_suite], which runs in its own process: OCaml 5 forbids
   Unix.fork once a process has spawned a domain. *)
let test_campaign_resume_on_domains () =
  let subject () = Campaign.Sec_pair (alu_pair ()) in
  let run ?journal () =
    Campaign.run ?budget ~jobs:2 ~pool:true ~exec:`Domains ~max_rtl_faults:6
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

let domains_suite =
  [ Alcotest.test_case "domains campaign journal resume is byte-identical"
      `Quick test_campaign_resume_on_domains ]

let suite =
  [ Alcotest.test_case "enumerate rtl faults" `Quick test_enumerate_rtl;
    Alcotest.test_case "enumerate slm faults (reachable only)" `Quick
      test_enumerate_slm_reachable_only;
    Alcotest.test_case "fan-in cone" `Quick test_cone;
    Alcotest.test_case "alu campaign gate" `Quick test_alu_campaign_gate;
    Alcotest.test_case "campaign survives crashing mutant" `Quick
      test_campaign_survives_crashing_mutant;
    Alcotest.test_case "pooled campaign: killed worker is Crashed" `Quick
      test_pooled_killed_worker;
    Alcotest.test_case "pooled campaign: timeout is Unknown" `Slow
      test_pooled_timeout_is_unknown;
    Alcotest.test_case "json report" `Quick test_json_report;
    Alcotest.test_case "kill-mid-campaign resume is byte-identical" `Quick
      test_campaign_resume_byte_identical;
    Alcotest.test_case "deadline sheds to Unknown, never silently" `Quick
      test_campaign_deadline_sheds ]
