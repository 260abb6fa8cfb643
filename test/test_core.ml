(* Integration tests for the methodology facade: audits, combined
   verification flows, incremental SEC localization on the image chain,
   and SLM/RTL plug-and-play. *)

open Dfv_bitvec
open Dfv_hwir
open Dfv_sec
open Dfv_core
open Dfv_designs

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let alu_pair ?bug () =
  let t = Alu.make ?bug ~width:8 () in
  Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec

(* Journals and the serve protocol carry taxonomy values as JSON, so
   to_json/of_json must invert exactly for every constructor. *)
let test_error_json_roundtrip () =
  let cases =
    [ Dfv_error.Stimulus_exhausted
        { attempts = 400; rounds = 3; detail = "all widened" };
      Dfv_error.Protocol_violation
        { channel = "req"; detail = "response before request" };
      Dfv_error.Watchdog
        {
          kind = Dfv_error.Starvation;
          at_time = 120;
          deltas = 4;
          activations = 9;
          processes = [ "consumer"; "arbiter" ];
        };
      Dfv_error.Transaction_incomplete "2 in flight";
      Dfv_error.Elaboration_failure "unknown signal q";
      Dfv_error.Spec_violation "check references missing port";
      Dfv_error.Model_runtime_fault "division by zero";
      Dfv_error.Worker_timeout { job = "mutant-9"; seconds = 2.5 };
      Dfv_error.Internal "boom" ]
  in
  List.iter
    (fun e ->
      match Dfv_error.of_json (Dfv_error.to_json e) with
      | Ok e' ->
        check_bool (Dfv_error.to_string e) true (e = e')
      | Error m ->
        Alcotest.failf "%s did not roundtrip: %s" (Dfv_error.to_string e) m)
    cases;
  (* "worker_crashed" is a deleted kind: a journal record holding one
     decodes as missing, and its mutant re-runs. *)
  List.iter
    (fun kind ->
      let str s = Dfv_obs.Json.String s in
      match
        Dfv_error.of_json
          (Dfv_obs.Json.Obj
             [ ("kind", str kind); ("job", str "mutant-7"); ("detail", str "") ])
      with
      | Ok _ -> Alcotest.failf "kind %s must not decode" kind
      | Error _ -> ())
    [ "no-such"; "worker_crashed" ]

let test_audit_clean () =
  let a = Pair.audit (alu_pair ()) in
  check_bool "types ok" true (a.Pair.slm_types = Ok ());
  check_bool "conditioned" true a.Pair.conditioned;
  check_bool "sec ready" true a.Pair.sec_ready;
  check_bool "no blocker" true (a.Pair.sec_blocker = None)

let test_audit_unconditioned () =
  (* An SLM with a data-dependent loop: flagged, SEC blocked. *)
  let open Ast in
  let slm =
    {
      funcs =
        [ {
            fname = "f";
            params = [ ("a", uint 8); ("b", uint 8); ("op", uint 3) ];
            ret = uint 8;
            locals = [ ("n", uint 8) ];
            body =
              [ assign "n" (var "a");
                While (var "n" <>^ u 8 0, [ assign "n" (var "n" -^ u 8 1) ]);
                ret (var "b") ];
          } ];
      entry = "f";
    }
  in
  let t = Alu.make ~width:8 () in
  let pair = Pair.create ~name:"bad" ~slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec in
  let a = Pair.audit pair in
  check_bool "not conditioned" false a.Pair.conditioned;
  check_bool "sec blocked" false a.Pair.sec_ready;
  check_bool "violations listed" true (a.Pair.violations <> [])

let test_audit_spec_coverage () =
  let t = Alu.make ~width:8 () in
  let broken_spec = { t.Alu.spec with Spec.drives = List.tl t.Alu.spec.Spec.drives } in
  let pair = Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:broken_spec in
  let a = Pair.audit pair in
  check_bool "sec blocked by spec" false a.Pair.sec_ready

(* Malformed variants of the alu spec.  The audit, SEC, counterexample
   replay and simulation all read one rulebook, [Spec.validate], so
   each must refuse every variant, and with the same message. *)
let test_spec_rulebook_agrees () =
  let pair = alu_pair () in
  let spec = pair.Pair.spec in
  let y = List.hd spec.Spec.checks in
  let drives = spec.Spec.drives in
  let op_13_bits =
    ("op", Spec.Hold (Bitvec.zero 13)) :: List.remove_assoc "op" drives
  in
  let check_y c = { spec with Spec.checks = [ c ] } in
  let variants =
    [ ( { spec with Spec.drives = drives @ [ ("c", List.assoc "b" drives) ] },
        "no RTL input port named c" );
      ( { spec with Spec.drives = List.remove_assoc "b" drives },
        "RTL input b is not driven by the spec" );
      ( check_y { y with Spec.at_cycle = 1 },
        "check on y at cycle 1 outside transaction of 1 cycles" );
      (check_y { y with Spec.rtl_port = "z" }, "no RTL output port named z");
      ({ spec with Spec.rtl_cycles = 0 }, "rtl_cycles must be >= 1");
      ( { spec with Spec.drives = op_13_bits },
        "constant for port op has width 13, port is 3" );
      ( check_y { y with Spec.expect = Spec.Result_elem 0 },
        "SLM result is a scalar (use Result)" );
      ( { spec with Spec.constraints = [ Ast.var "a" ] },
        "constraint 0: __constraint_0: return of type uint8, function returns \
         uint1" ) ]
  in
  List.iter
    (fun (spec, want) ->
      let pair = { pair with Pair.spec } in
      let check_msg who got =
        Alcotest.(check string) (want ^ ": " ^ who) want got
      in
      (match (Pair.audit pair).Pair.sec_blocker with
      | Some m -> check_msg "audit" m
      | None -> Alcotest.failf "%s: audit let SEC run" want);
      (match Flow.sec pair with
      | exception Checker.Spec_error m -> check_msg "SEC" m
      | _ -> Alcotest.failf "%s: SEC ran" want);
      (match
         Checker.cex_of_params ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl ~spec []
       with
      | exception Checker.Spec_error m -> check_msg "cex replay" m
      | _ -> Alcotest.failf "%s: cex replay ran" want);
      match Flow.simulate ~vectors:10 pair with
      | Error (Dfv_error.Spec_violation m) -> check_msg "simulation" m
      | Error e ->
        Alcotest.failf "%s: simulation: %s" want (Dfv_error.to_string e)
      | Ok _ -> Alcotest.failf "%s: simulation ran" want)
    variants

(* Simulation is the fallback for a model that does not typecheck, so a
   constraint is judged on its own: an ill-typed function the entry
   never calls must not turn a well-typed constraint into a spec
   violation. *)
let test_simulate_ill_typed_model_under_constraints () =
  let open Ast in
  let pair = alu_pair () in
  let junk =
    {
      fname = "junk";
      params = [];
      ret = uint 8;
      locals = [];
      body = [ ret (u 4 1) ];
    }
  in
  let slm = { pair.Pair.slm with funcs = pair.Pair.slm.funcs @ [ junk ] } in
  let spec =
    { pair.Pair.spec with Spec.constraints = [ var "a" <^ u 8 128 ] }
  in
  let pair = { pair with Pair.slm; spec } in
  check_bool "audit blocks SEC" false (Pair.audit pair).Pair.sec_ready;
  match Flow.simulate ~vectors:50 pair with
  | Ok (Flow.Sim_clean { vectors }) -> check_int "all run" 50 vectors
  | Ok (Flow.Sim_mismatch _) -> Alcotest.fail "clean alu mismatched"
  | Error e -> Alcotest.failf "simulation refused: %s" (Dfv_error.to_string e)

let test_flow_simulate_clean () =
  match Flow.simulate ~vectors:300 (alu_pair ()) with
  | Ok (Flow.Sim_clean { vectors }) -> check_int "all run" 300 vectors
  | Ok (Flow.Sim_mismatch _) -> Alcotest.fail "clean ALU mismatched in simulation"
  | Error _ -> Alcotest.fail "clean ALU errored in simulation"

let test_flow_simulate_finds_gross_bug () =
  (* The swapped or/xor bug hits ~1/8 of random vectors: simulation finds
     it fast. *)
  match
    Flow.simulate ~vectors:2000 (alu_pair ~bug:Alu.Swapped_or_xor ())
  with
  | Ok (Flow.Sim_mismatch { failed_checks; _ }) ->
    check_bool "details recorded" true (failed_checks <> [])
  | Ok (Flow.Sim_clean _) -> Alcotest.fail "gross bug survived 2000 vectors"
  | Error _ -> Alcotest.fail "gross-bug simulation errored"

let test_flow_simulate_widening_finds_narrow_constraint () =
  (* A single-point equality constraint (1/256 per fresh draw): the
     bounded retry rounds widen the attempt budget until a satisfying
     vector lands, instead of the old "constraints too tight" failwith. *)
  let open Ast in
  let pair = alu_pair () in
  let spec =
    { pair.Pair.spec with Spec.constraints = [ var "a" ==^ u 8 123 ] }
  in
  match Flow.simulate ~seed:0 ~vectors:50 { pair with Pair.spec } with
  | Ok (Flow.Sim_clean { vectors }) -> check_int "all vectors run" 50 vectors
  | Ok (Flow.Sim_mismatch _) -> Alcotest.fail "clean ALU mismatched"
  | Error e ->
    Alcotest.failf "widening should satisfy a 1/256 constraint: %s"
      (Dfv_error.to_string e)

let test_flow_simulate_exhaustion_is_typed () =
  (* A conjunction of three point constraints (1/2^19 per draw) defeats
     every retry round: the flow must return the typed error, not raise. *)
  let open Ast in
  let pair = alu_pair () in
  let spec =
    {
      pair.Pair.spec with
      Spec.constraints =
        [ var "a" ==^ u 8 123; var "b" ==^ u 8 45; var "op" ==^ u 3 2 ];
    }
  in
  match Flow.simulate ~seed:0 ~max_rounds:2 ~vectors:5 { pair with Pair.spec } with
  | Ok _ -> Alcotest.fail "expected stimulus exhaustion"
  | Error (Dfv_error.Stimulus_exhausted { attempts; rounds; _ }) ->
    check_int "all rounds tried" 2 rounds;
    check_bool "attempts counted" true (attempts > 0)
  | Error e ->
    Alcotest.failf "wrong error class: %s" (Dfv_error.to_string e)

(* A run compiles its RTL once, however many transactions it makes. *)
let test_flow_simulate_compiles_once () =
  let module Metrics = Dfv_obs.Metrics in
  let compiles = Metrics.counter "rtl.sim.compiles"
  and cycles = Metrics.counter "rtl.sim.cycles" in
  let compiles0 = Metrics.counter_value compiles
  and cycles0 = Metrics.counter_value cycles in
  (match Flow.simulate ~vectors:100 (alu_pair ()) with
  | Ok (Flow.Sim_clean { vectors }) -> check_int "all run" 100 vectors
  | Ok (Flow.Sim_mismatch _) | Error _ ->
    Alcotest.fail "clean ALU did not simulate clean");
  check_int "one compile per run" 1
    (Metrics.counter_value compiles - compiles0);
  check_int "one cycle per transaction" 100
    (Metrics.counter_value cycles - cycles0)

(* Every transaction starts from the RTL's reset state.  The RTL is a
   free-running counter whose cycle-0 output is its own register, and
   the SLM returns that register's init value: a simulator carried over
   from the previous transaction without a reset would read 7, not 5,
   at transaction 1. *)
let test_flow_simulate_resets_between_transactions () =
  let open Ast in
  let slm =
    {
      funcs =
        [ {
            fname = "f";
            params = [ ("x", uint 8) ];
            ret = uint 8;
            locals = [];
            body = [ ret (u 8 5) ];
          } ];
      entry = "f";
    }
  in
  let rtl =
    let module Netlist = Dfv_rtl.Netlist in
    let module Expr = Dfv_rtl.Expr in
    let count = Expr.sig_ "count" in
    Netlist.elaborate
      {
        (Netlist.empty "counter") with
        Netlist.inputs = [ { Netlist.port_name = "x"; port_width = 8 } ];
        regs =
          [ Netlist.reg ~init:(Bitvec.create ~width:8 5) ~name:"count"
              ~width:8 Expr.(count +: const ~width:8 1) ];
        outputs = [ ("q", count) ];
      }
  in
  let spec =
    {
      Spec.rtl_cycles = 2;
      drives = [ ("x", Spec.At (fun _ -> Spec.Param "x")) ];
      checks = [ { Spec.rtl_port = "q"; at_cycle = 0; expect = Spec.Result } ];
      constraints = [];
    }
  in
  let pair = Pair.create ~name:"counter" ~slm ~rtl ~spec in
  match Flow.simulate ~vectors:20 pair with
  | Ok (Flow.Sim_clean { vectors }) -> check_int "all run" 20 vectors
  | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
    Alcotest.failf "state leaked into transaction %d" vector_index
  | Error e -> Alcotest.failf "counter errored: %s" (Dfv_error.to_string e)

let test_flow_verify_proves () =
  let r = Flow.verify (alu_pair ()) in
  match r.Flow.outcome with
  | Flow.Proved _ -> ()
  | Flow.Refuted _ | Flow.Simulated _ | Flow.Undecided _ | Flow.Errored _ ->
    Alcotest.fail "expected a proof"

let test_flow_verify_refutes () =
  let r = Flow.verify (alu_pair ~bug:Alu.Unsigned_slt ()) in
  match r.Flow.outcome with
  | Flow.Refuted (cex, _) ->
    check_bool "has params" true (cex.Checker.params <> [])
  | Flow.Proved _ | Flow.Simulated _ | Flow.Undecided _ | Flow.Errored _ ->
    Alcotest.fail "expected refutation"

let test_flow_verify_falls_back_to_simulation () =
  (* Unconditioned SLM: verify must degrade to simulation and say so. *)
  let t = Gcd.make ~width:4 in
  let open Ast in
  let unconditioned =
    {
      t.Gcd.slm with
      funcs =
        List.map
          (fun f ->
            {
              f with
              body =
                List.map
                  (function
                    | Bounded_while { cond; body; _ } -> While (cond, body)
                    | st -> st)
                  f.body;
            })
          t.Gcd.slm.funcs;
    }
  in
  let pair =
    Pair.create ~name:"gcd-uncond" ~slm:unconditioned ~rtl:t.Gcd.rtl
      ~spec:t.Gcd.spec
  in
  let r = Flow.verify ~sim_vectors:100 pair in
  match r.Flow.outcome with
  | Flow.Simulated (Flow.Sim_clean { vectors = 100 }) -> ()
  | Flow.Simulated _ -> Alcotest.fail "simulation should be clean"
  | Flow.Proved _ | Flow.Refuted _ | Flow.Undecided _ | Flow.Errored _ ->
    Alcotest.fail "SEC should have been blocked"

let test_report_renders () =
  let r = Flow.verify (alu_pair ()) in
  let text = Format.asprintf "%a" Flow.pp_report r in
  check_bool "mentions verdict" true
    (String.length text > 0
    &&
    let contains needle =
      let n = String.length needle and h = String.length text in
      let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
      go 0
    in
    contains "EQUIVALENT")

(* --- image chain: incremental SEC localizes the bug (C3) ----------------- *)

let sec_block chain block =
  Checker.check_slm_rtl
    ~slm:(Image_chain.block_slm chain block)
    ~rtl:(Image_chain.block_rtl chain block)
    ~spec:(Image_chain.block_spec block) ()

let test_chain_clean_all_levels () =
  let chain = Image_chain.make () in
  (* Whole-chain SEC. *)
  (match
     Checker.check_slm_rtl ~slm:chain.Image_chain.slm
       ~rtl:chain.Image_chain.rtl_top ~spec:chain.Image_chain.chain_spec ()
   with
  | Checker.Equivalent _ -> ()
  | Checker.Not_equivalent _ -> Alcotest.fail "clean chain should match"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown");
  (* Every block individually. *)
  List.iter
    (fun b ->
      match sec_block chain b with
      | Checker.Equivalent _ -> ()
      | Checker.Not_equivalent _ ->
        Alcotest.failf "clean block %s should match" (Image_chain.block_name b)
      | Checker.Unknown _ -> Alcotest.fail "unexpected unknown")
    Image_chain.all_blocks

let test_chain_incremental_localization () =
  (* Plant a bug per block: monolithic SEC says only yes/no; per-block
     SEC names the guilty block exactly. *)
  List.iter
    (fun guilty ->
      let chain = Image_chain.make ~buggy:guilty () in
      (match
         Checker.check_slm_rtl ~slm:chain.Image_chain.slm
           ~rtl:chain.Image_chain.rtl_top ~spec:chain.Image_chain.chain_spec ()
       with
      | Checker.Not_equivalent _ -> ()
      | Checker.Equivalent _ ->
        Alcotest.failf "monolithic SEC missed the %s bug"
          (Image_chain.block_name guilty)
      | Checker.Unknown _ -> Alcotest.fail "unexpected unknown");
      List.iter
        (fun b ->
          let verdict = sec_block chain b in
          let failed =
            match verdict with
            | Checker.Not_equivalent _ -> true
            | Checker.Equivalent _ -> false
            | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"
          in
          if failed <> (b = guilty) then
            Alcotest.failf "bug in %s: block %s reported %s"
              (Image_chain.block_name guilty)
              (Image_chain.block_name b)
              (if failed then "not-equivalent" else "equivalent"))
        Image_chain.all_blocks)
    Image_chain.all_blocks

let test_chain_golden_matches_slm () =
  let chain = Image_chain.make () in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 100 do
    let w = Array.init 9 (fun _ -> Random.State.int st 256) in
    let expect = Image_chain.golden chain w in
    let got =
      Bitvec.to_int
        (Interp.as_int
           (Interp.run chain.Image_chain.slm
              [ Interp.Varr (Array.map (fun v -> Bitvec.create ~width:8 v) w) ]))
    in
    check_int "chain" expect got
  done

let test_chain_plug_and_play_stages () =
  (* Element-wise blocks as cosim stages: SLM stage vs wrapped-RTL stage
     produce identical streams (C8 at the stage level). *)
  let chain = Image_chain.make () in
  let st = Random.State.make [| 17 |] in
  let pixels = Array.init 64 (fun _ -> Bitvec.create ~width:8 (Random.State.int st 256)) in
  let slm_out, _ =
    Dfv_cosim.Stream.run_stage (Image_chain.slm_stage chain Image_chain.Brightness) pixels
  in
  (* The brightness RTL is combinational: wrap it with no valid chain and
     a 1-cycle collection offset via out_valid-less default. *)
  let rtl_stage =
    Dfv_cosim.Stream.rtl_stage ~name:"brightness-rtl"
      ~rtl:chain.Image_chain.rtl_brightness ~in_port:"p" ~out_port:"q" ~latency:0 ()
  in
  let rtl_out, _ = Dfv_cosim.Stream.run_stage rtl_stage pixels in
  check_bool "streams equal" true (Array.for_all2 Bitvec.equal slm_out rtl_out)

(* A cancelled pool job stops between transactions: the stop unwinds
   through the flow's own guard (which lets it pass, like [Sys.Break])
   instead of coming back as an error verdict. *)
let test_flow_simulate_stops () =
  let cancelled = Dfv_sat.Stop.token (Atomic.make true) in
  (match
     Dfv_sat.Stop.with_token cancelled (fun () ->
         Flow.simulate ~vectors:10 (alu_pair ()))
   with
  | _ -> Alcotest.fail "a cancelled token must stop the simulation"
  | exception Dfv_sat.Stop.Stopped -> ());
  match Dfv_error.guard (fun () -> raise Dfv_sat.Stop.Stopped) with
  | _ -> Alcotest.fail "guard must let the stop through"
  | exception Dfv_sat.Stop.Stopped -> ()

let suite =
  [ Alcotest.test_case "error taxonomy json roundtrip" `Quick
      test_error_json_roundtrip;
    Alcotest.test_case "audit clean pair" `Quick test_audit_clean;
    Alcotest.test_case "audit unconditioned SLM" `Quick
      test_audit_unconditioned;
    Alcotest.test_case "audit spec coverage" `Quick test_audit_spec_coverage;
    Alcotest.test_case "audit, SEC and simulation share one spec rulebook"
      `Quick test_spec_rulebook_agrees;
    Alcotest.test_case "simulate judges constraints apart from the model"
      `Quick test_simulate_ill_typed_model_under_constraints;
    Alcotest.test_case "simulate clean" `Quick test_flow_simulate_clean;
    Alcotest.test_case "simulate finds gross bug" `Quick
      test_flow_simulate_finds_gross_bug;
    Alcotest.test_case "simulate widens into narrow constraints" `Quick
      test_flow_simulate_widening_finds_narrow_constraint;
    Alcotest.test_case "simulate exhaustion is typed" `Quick
      test_flow_simulate_exhaustion_is_typed;
    Alcotest.test_case "simulate compiles the RTL once" `Quick
      test_flow_simulate_compiles_once;
    Alcotest.test_case "simulate resets between transactions" `Quick
      test_flow_simulate_resets_between_transactions;
    Alcotest.test_case "verify proves" `Quick test_flow_verify_proves;
    Alcotest.test_case "verify refutes" `Quick test_flow_verify_refutes;
    Alcotest.test_case "verify falls back to simulation" `Quick
      test_flow_verify_falls_back_to_simulation;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "image chain clean at all levels" `Quick
      test_chain_clean_all_levels;
    Alcotest.test_case "incremental SEC localizes bugs" `Quick
      test_chain_incremental_localization;
    Alcotest.test_case "chain golden = slm" `Quick test_chain_golden_matches_slm;
    Alcotest.test_case "plug-and-play stages" `Quick
      test_chain_plug_and_play_stages;
    Alcotest.test_case "simulate stops at a cancelled token" `Quick
      test_flow_simulate_stops ]
