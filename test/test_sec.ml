(* Tests for the sequential equivalence checker: SLM-vs-RTL transactions,
   input constraints, RTL-vs-RTL BMC and k-induction. *)

open Dfv_bitvec
open Dfv_rtl
open Dfv_hwir
open Dfv_sec

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let bv w x = Bitvec.create ~width:w x

(* --- SLM models --------------------------------------------------------- *)

(* SLM: 8-bit addition. *)
let slm_add =
  let open Ast in
  {
    funcs =
      [ {
          fname = "add8";
          params = [ ("a", uint 8); ("b", uint 8) ];
          ret = uint 8;
          locals = [];
          body = [ ret (var "a" +^ var "b") ];
        } ];
    entry = "add8";
  }

(* SLM: sum of a 4-element array (parallel interface — the whole array is
   one argument, paper Section 3.2). *)
let slm_sum4 =
  let open Ast in
  {
    funcs =
      [ {
          fname = "sum4";
          params = [ ("x", Tarray (uint 8, 4)) ];
          ret = uint 8;
          locals = [ ("acc", uint 8) ];
          body =
            [ For
                {
                  ivar = "i";
                  count = 4;
                  body =
                    [ assign "acc" (var "acc" +^ idx "x" (cast (uint 2) (var "i"))) ];
                };
              ret (var "acc") ];
        } ];
    entry = "sum4";
  }

(* --- RTL designs --------------------------------------------------------- *)

(* Combinational 8-bit adder. *)
let rtl_add_comb () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "add_comb") with
      Netlist.inputs =
        [ { Netlist.port_name = "a"; port_width = 8 };
          { Netlist.port_name = "b"; port_width = 8 } ];
      outputs = [ ("s", sig_ "a" +: sig_ "b") ];
    }

(* Two-stage pipelined adder: result appears two cycles after inputs. *)
let rtl_add_pipe () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "add_pipe") with
      Netlist.inputs =
        [ { Netlist.port_name = "a"; port_width = 8 };
          { Netlist.port_name = "b"; port_width = 8 } ];
      regs =
        [ Netlist.reg ~name:"a1" ~width:8 (sig_ "a");
          Netlist.reg ~name:"b1" ~width:8 (sig_ "b");
          Netlist.reg ~name:"s2" ~width:8 (sig_ "a1" +: sig_ "b1") ];
      outputs = [ ("s", sig_ "s2") ];
    }

(* A buggy adder: drops the carry into bit 4 (realistic width typo). *)
let rtl_add_buggy () =
  let open Expr in
  let lo = slice (sig_ "a") ~hi:3 ~lo:0 +: slice (sig_ "b") ~hi:3 ~lo:0 in
  let hi = slice (sig_ "a") ~hi:7 ~lo:4 +: slice (sig_ "b") ~hi:7 ~lo:4 in
  Netlist.elaborate
    {
      (Netlist.empty "add_buggy") with
      Netlist.inputs =
        [ { Netlist.port_name = "a"; port_width = 8 };
          { Netlist.port_name = "b"; port_width = 8 } ];
      outputs = [ ("s", concat [ hi; lo ]) ];
    }

(* An adder that is only correct when a < 128: it forces a's MSB to 0
   (models the paper's "RTL relies on input constraints" scenario). *)
let rtl_add_constrained () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "add_constrained") with
      Netlist.inputs =
        [ { Netlist.port_name = "a"; port_width = 8 };
          { Netlist.port_name = "b"; port_width = 8 } ];
      wires = [ ("a_masked", concat [ const ~width:1 0; slice (sig_ "a") ~hi:6 ~lo:0 ]) ];
      outputs = [ ("s", sig_ "a_masked" +: sig_ "b") ];
    }

(* Serial accumulator: one array element per cycle on port x. *)
let rtl_sum_serial () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "sum_serial") with
      Netlist.inputs = [ { Netlist.port_name = "x"; port_width = 8 } ];
      regs = [ Netlist.reg ~name:"acc" ~width:8 (sig_ "acc" +: sig_ "x") ];
      outputs = [ ("sum", sig_ "acc") ];
    }

(* --- SLM vs RTL --------------------------------------------------------- *)

let drives_ab =
  [ ("a", Spec.At (fun _ -> Spec.Param "a"));
    ("b", Spec.At (fun _ -> Spec.Param "b")) ]

let test_comb_adder_equivalent () =
  let spec =
    {
      Spec.rtl_cycles = 1;
      drives = drives_ab;
      checks = [ { Spec.rtl_port = "s"; at_cycle = 0; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_comb ()) ~spec () with
  | Checker.Equivalent stats ->
    check_bool "did some work" true (stats.Checker.aig_ands > 0)
  | Checker.Not_equivalent _ -> Alcotest.fail "expected equivalence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_pipelined_adder_equivalent () =
  (* Same SLM, but the transaction spans 3 RTL cycles with the check at
     cycle 2 — the paper's "timing alignment" made explicit in the spec. *)
  let spec =
    {
      Spec.rtl_cycles = 3;
      drives = drives_ab;
      checks = [ { Spec.rtl_port = "s"; at_cycle = 2; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_pipe ()) ~spec () with
  | Checker.Equivalent _ -> ()
  | Checker.Not_equivalent _ -> Alcotest.fail "expected equivalence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_pipelined_adder_wrong_cycle () =
  (* Checking at the wrong cycle is a *spec* bug the checker catches as
     non-equivalence: at cycle 1 the output register still holds 0. *)
  let spec =
    {
      Spec.rtl_cycles = 3;
      drives = drives_ab;
      checks = [ { Spec.rtl_port = "s"; at_cycle = 1; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_pipe ()) ~spec () with
  | Checker.Not_equivalent (cex, _) ->
    check_bool "has failed checks" true (cex.Checker.failed_checks <> [])
  | Checker.Equivalent _ -> Alcotest.fail "expected divergence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_buggy_adder_caught () =
  let spec =
    {
      Spec.rtl_cycles = 1;
      drives = drives_ab;
      checks = [ { Spec.rtl_port = "s"; at_cycle = 0; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_buggy ()) ~spec () with
  | Checker.Not_equivalent (cex, _) -> (
    (* The counterexample must be genuine: low nibbles must carry. *)
    match (List.assoc "a" cex.Checker.params, List.assoc "b" cex.Checker.params) with
    | Interp.Vint a, Interp.Vint b ->
      let lo x = Bitvec.to_int x land 0xf in
      check_bool "low nibbles carry" true (lo a + lo b > 15);
      (match cex.Checker.slm_result with
      | Some (Interp.Vint s) ->
        check_int "slm result is the true sum"
          ((Bitvec.to_int a + Bitvec.to_int b) land 0xff)
          (Bitvec.to_int s)
      | _ -> Alcotest.fail "missing slm result")
    | _ -> Alcotest.fail "bad cex shape")
  | Checker.Equivalent _ -> Alcotest.fail "bug not caught"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_constraints_rescue_equivalence () =
  let open Ast in
  let base_spec =
    {
      Spec.rtl_cycles = 1;
      drives = drives_ab;
      checks = [ { Spec.rtl_port = "s"; at_cycle = 0; expect = Spec.Result } ];
      constraints = [];
    }
  in
  (* Unconstrained: the masked-MSB adder diverges. *)
  (match
     Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_constrained ())
       ~spec:base_spec ()
   with
  | Checker.Not_equivalent (cex, _) -> (
    match List.assoc "a" cex.Checker.params with
    | Interp.Vint a -> check_bool "cex has a >= 128" true (Bitvec.to_int a >= 128)
    | _ -> Alcotest.fail "bad cex")
  | Checker.Equivalent _ -> Alcotest.fail "expected divergence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown");
  (* Constrained to a < 128 (the paper's Section 3.1.2 remedy): equivalent. *)
  let spec =
    { base_spec with Spec.constraints = [ var "a" <^ u 8 128 ] }
  in
  match
    Checker.check_slm_rtl ~slm:slm_add ~rtl:(rtl_add_constrained ()) ~spec ()
  with
  | Checker.Equivalent _ -> ()
  | Checker.Not_equivalent _ -> Alcotest.fail "constraint did not rescue"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_stream_transaction () =
  (* Parallel SLM interface vs serial RTL interface via stream_in. *)
  let spec =
    {
      Spec.rtl_cycles = 5;
      drives = [ ("x", Spec.stream_in ~param:"x" ~count:4 ()) ];
      checks = [ { Spec.rtl_port = "sum"; at_cycle = 4; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_sum4 ~rtl:(rtl_sum_serial ()) ~spec () with
  | Checker.Equivalent _ -> ()
  | Checker.Not_equivalent (cex, _) ->
    (match List.assoc "x" cex.Checker.params with
    | Interp.Varr a ->
      Alcotest.failf "unexpected cex x=[%s]"
        (String.concat ";"
           (Array.to_list (Array.map Bitvec.to_string a)))
    | _ -> ());
    Alcotest.fail "expected equivalence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_stream_transaction_bug () =
  (* Same transaction but the check fires one cycle early: the last
     element is missing from the RTL sum. *)
  let spec =
    {
      Spec.rtl_cycles = 5;
      drives = [ ("x", Spec.stream_in ~param:"x" ~count:4 ()) ];
      checks = [ { Spec.rtl_port = "sum"; at_cycle = 3; expect = Spec.Result } ];
      constraints = [];
    }
  in
  match Checker.check_slm_rtl ~slm:slm_sum4 ~rtl:(rtl_sum_serial ()) ~spec () with
  | Checker.Not_equivalent (cex, _) -> (
    match List.assoc "x" cex.Checker.params with
    | Interp.Varr a ->
      (* Any cex must have a nonzero last element. *)
      check_bool "last element nonzero" true (not (Bitvec.is_zero a.(3)))
    | _ -> Alcotest.fail "bad cex")
  | Checker.Equivalent _ -> Alcotest.fail "expected divergence"
  | Checker.Unknown _ -> Alcotest.fail "unexpected unknown"

let test_spec_errors () =
  let expect name f =
    match f () with
    | exception Checker.Spec_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Spec_error" name
  in
  let rtl = rtl_add_comb () in
  expect "undriven input" (fun () ->
      Checker.check_slm_rtl ~slm:slm_add ~rtl
        ~spec:
          {
            Spec.rtl_cycles = 1;
            drives = [ ("a", Spec.At (fun _ -> Spec.Param "a")) ];
            checks = [ { Spec.rtl_port = "s"; at_cycle = 0; expect = Spec.Result } ];
            constraints = [];
          }
        ());
  expect "unknown port" (fun () ->
      Checker.check_slm_rtl ~slm:slm_add ~rtl
        ~spec:
          {
            Spec.rtl_cycles = 1;
            drives = drives_ab;
            checks =
              [ { Spec.rtl_port = "nope"; at_cycle = 0; expect = Spec.Result } ];
            constraints = [];
          }
        ());
  expect "width mismatch" (fun () ->
      Checker.check_slm_rtl ~slm:slm_sum4 ~rtl
        ~spec:
          {
            Spec.rtl_cycles = 1;
            drives =
              [ ("a", Spec.At (fun _ -> Spec.Param_elem ("x", 0)));
                ("b", Spec.At (fun _ -> Spec.Param "x")) ];
            checks = [ { Spec.rtl_port = "s"; at_cycle = 0; expect = Spec.Result } ];
            constraints = [];
          }
        ());
  expect "check outside transaction" (fun () ->
      Checker.check_slm_rtl ~slm:slm_add ~rtl
        ~spec:
          {
            Spec.rtl_cycles = 1;
            drives = drives_ab;
            checks = [ { Spec.rtl_port = "s"; at_cycle = 3; expect = Spec.Result } ];
            constraints = [];
          }
        ());
  expect "non-boolean constraint, SLM against SLM" (fun () ->
      Checker.check_slm_slm ~a:slm_add ~b:slm_add
        ~constraints:[ Ast.var "a" ] ())

(* --- RTL vs RTL ---------------------------------------------------------- *)

(* Two counters written differently. *)
let counter_inc () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "counter_inc") with
      Netlist.regs =
        [ Netlist.reg ~name:"c" ~width:4 (sig_ "c" +: const ~width:4 1) ];
      outputs = [ ("q", sig_ "c") ];
    }

let counter_sub () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "counter_sub") with
      Netlist.regs =
        [ Netlist.reg ~name:"c" ~width:4 (sig_ "c" -: const ~width:4 15) ];
      outputs = [ ("q", sig_ "c") ];
    }

(* A counter that glitches when it reaches 5. *)
let counter_glitch () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "counter_glitch") with
      Netlist.regs =
        [ Netlist.reg ~name:"c" ~width:4
            (mux
               (sig_ "c" ==: const ~width:4 5)
               (const ~width:4 9)
               (sig_ "c" +: const ~width:4 1)) ];
      outputs = [ ("q", sig_ "c") ];
    }

let test_rtl_rtl_bmc_equivalent () =
  match Checker.check_rtl_rtl ~a:(counter_inc ()) ~b:(counter_sub ()) ~bound:20 () with
  | Checker.Rtl_equivalent_to_bound (20, _) -> ()
  | Checker.Rtl_equivalent_to_bound _ | Checker.Rtl_proved _
  | Checker.Rtl_not_equivalent _ | Checker.Rtl_unknown _ ->
    Alcotest.fail "expected bounded equivalence"

let test_rtl_rtl_bmc_cex () =
  match
    Checker.check_rtl_rtl ~a:(counter_inc ()) ~b:(counter_glitch ()) ~bound:10 ()
  with
  | Checker.Rtl_not_equivalent (cex, _) ->
    (* c reaches 5 after 5 edges; the glitch is visible at cycle 6. *)
    check_int "diverging cycle" 6 cex.Checker.diverging_cycle;
    check_bool "port q" true (cex.Checker.diverging_port = "q");
    check_int "good value" 6 (Bitvec.to_int cex.Checker.value_a);
    check_int "bad value" 9 (Bitvec.to_int cex.Checker.value_b)
  | Checker.Rtl_equivalent_to_bound _ | Checker.Rtl_proved _
  | Checker.Rtl_unknown _ -> Alcotest.fail "expected divergence"

let test_rtl_rtl_bmc_misses_deep_bug () =
  (* A bound below the divergence depth reports bounded equivalence —
     the known limitation of BMC the paper's incremental-SEC advice
     works around. *)
  match
    Checker.check_rtl_rtl ~a:(counter_inc ()) ~b:(counter_glitch ()) ~bound:5 ()
  with
  | Checker.Rtl_equivalent_to_bound (5, _) -> ()
  | Checker.Rtl_equivalent_to_bound _ | Checker.Rtl_proved _
  | Checker.Rtl_not_equivalent _ | Checker.Rtl_unknown _ ->
    Alcotest.fail "expected bounded claim"

let test_k_induction_proves_counters () =
  match Checker.prove_rtl_rtl ~a:(counter_inc ()) ~b:(counter_sub ()) ~k:1 () with
  | Checker.Rtl_proved (1, _) -> ()
  | Checker.Rtl_proved _ -> Alcotest.fail "wrong k reported"
  | Checker.Rtl_equivalent_to_bound _ -> Alcotest.fail "induction failed"
  | Checker.Rtl_not_equivalent _ -> Alcotest.fail "unexpected cex"
  | Checker.Rtl_unknown _ -> Alcotest.fail "unexpected unknown"

let test_k_induction_pipelines () =
  (* Pipelined adders with different stage split: k=1 fails (internal
     registers are unconstrained), k=2 proves. *)
  let open Expr in
  let pipe_early =
    Netlist.elaborate
      {
        (Netlist.empty "pipe_early") with
        Netlist.inputs =
          [ { Netlist.port_name = "a"; port_width = 8 };
            { Netlist.port_name = "b"; port_width = 8 } ];
        regs =
          [ Netlist.reg ~name:"s1" ~width:8 (sig_ "a" +: sig_ "b");
            Netlist.reg ~name:"s2" ~width:8 (sig_ "s1") ];
        outputs = [ ("s", sig_ "s2") ];
      }
  in
  let pipe_late =
    Netlist.elaborate
      {
        (Netlist.empty "pipe_late") with
        Netlist.inputs =
          [ { Netlist.port_name = "a"; port_width = 8 };
            { Netlist.port_name = "b"; port_width = 8 } ];
        regs =
          [ Netlist.reg ~name:"a1" ~width:8 (sig_ "a");
            Netlist.reg ~name:"b1" ~width:8 (sig_ "b");
            Netlist.reg ~name:"s2" ~width:8 (sig_ "a1" +: sig_ "b1") ];
        outputs = [ ("s", sig_ "s2") ];
      }
  in
  (match Checker.prove_rtl_rtl ~a:pipe_early ~b:pipe_late ~k:1 () with
  | Checker.Rtl_equivalent_to_bound (1, _) -> ()
  | Checker.Rtl_equivalent_to_bound _ -> Alcotest.fail "wrong bound reported"
  | Checker.Rtl_proved _ -> Alcotest.fail "k=1 should not be inductive"
  | Checker.Rtl_not_equivalent _ -> Alcotest.fail "unexpected cex"
  | Checker.Rtl_unknown _ -> Alcotest.fail "unexpected unknown");
  match Checker.prove_rtl_rtl ~a:pipe_early ~b:pipe_late ~k:2 () with
  | Checker.Rtl_proved (2, _) -> ()
  | Checker.Rtl_proved _ -> Alcotest.fail "wrong k reported"
  | Checker.Rtl_equivalent_to_bound _ -> Alcotest.fail "k=2 should prove"
  | Checker.Rtl_not_equivalent _ -> Alcotest.fail "unexpected cex"
  | Checker.Rtl_unknown _ -> Alcotest.fail "unexpected unknown"

let test_rtl_rtl_port_mismatch () =
  match
    Checker.check_rtl_rtl ~a:(counter_inc ()) ~b:(rtl_add_comb ()) ~bound:2 ()
  with
  | exception Checker.Spec_error _ -> ()
  | _ -> Alcotest.fail "expected Spec_error"

(* Verify the counterexample's stimulus replays deterministically. *)
let test_cex_replay () =
  match
    Checker.check_rtl_rtl ~a:(counter_inc ()) ~b:(counter_glitch ()) ~bound:10 ()
  with
  | Checker.Rtl_not_equivalent (cex, _) ->
    let sim_a = Sim.create (counter_inc ()) in
    let sim_b = Sim.create (counter_glitch ()) in
    let diverged = ref false in
    Array.iter
      (fun ins ->
        let oa = Sim.cycle sim_a ins and ob = Sim.cycle sim_b ins in
        if not (Bitvec.equal (List.assoc "q" oa) (List.assoc "q" ob)) then
          diverged := true)
      cex.Checker.inputs_per_cycle;
    check_bool "replay diverges" true !diverged
  | Checker.Rtl_equivalent_to_bound _ | Checker.Rtl_proved _
  | Checker.Rtl_unknown _ -> Alcotest.fail "expected divergence"

let _ = bv

let suite =
  [ Alcotest.test_case "comb adder equivalent" `Quick
      test_comb_adder_equivalent;
    Alcotest.test_case "pipelined adder equivalent" `Quick
      test_pipelined_adder_equivalent;
    Alcotest.test_case "pipelined adder, wrong check cycle" `Quick
      test_pipelined_adder_wrong_cycle;
    Alcotest.test_case "buggy adder caught with valid cex" `Quick
      test_buggy_adder_caught;
    Alcotest.test_case "constraints rescue equivalence" `Quick
      test_constraints_rescue_equivalence;
    Alcotest.test_case "stream transaction (parallel vs serial)" `Quick
      test_stream_transaction;
    Alcotest.test_case "stream transaction bug" `Quick
      test_stream_transaction_bug;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "rtl-rtl BMC equivalent" `Quick
      test_rtl_rtl_bmc_equivalent;
    Alcotest.test_case "rtl-rtl BMC counterexample" `Quick test_rtl_rtl_bmc_cex;
    Alcotest.test_case "rtl-rtl BMC bound too small" `Quick
      test_rtl_rtl_bmc_misses_deep_bug;
    Alcotest.test_case "k-induction proves counters" `Quick
      test_k_induction_proves_counters;
    Alcotest.test_case "k-induction on pipelines" `Quick
      test_k_induction_pipelines;
    Alcotest.test_case "rtl-rtl port mismatch" `Quick
      test_rtl_rtl_port_mismatch;
    Alcotest.test_case "cex replays in simulation" `Quick test_cex_replay ]
