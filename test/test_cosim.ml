(* Tests for the co-simulation framework: scoreboards, stream stages,
   pipelines, and the tagged transaction engine. *)

open Dfv_bitvec
open Dfv_rtl
open Dfv_cosim

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let bv w x = Bitvec.create ~width:w x

(* --- scoreboard ---------------------------------------------------------- *)

let test_scoreboard_exact () =
  let sb = Scoreboard.create Scoreboard.Exact_cycle in
  Scoreboard.expect sb ~cycle:3 (bv 8 42);
  Scoreboard.expect sb ~cycle:4 (bv 8 43);
  Scoreboard.observe sb ~cycle:3 (bv 8 42);
  Scoreboard.observe sb ~cycle:4 (bv 8 43);
  let r = Scoreboard.report sb in
  check_bool "ok" true (Scoreboard.ok r);
  check_int "matched" 2 r.Scoreboard.matched;
  check_bool "latencies all zero" true
    (List.for_all (( = ) 0) r.Scoreboard.latencies)

let test_scoreboard_exact_rejects_late () =
  (* Value correct but one cycle late: Exact_cycle flags it — the
     paper's point that cycle-approximate SLMs can't use this policy. *)
  let sb = Scoreboard.create Scoreboard.Exact_cycle in
  Scoreboard.expect sb ~cycle:3 (bv 8 42);
  Scoreboard.observe sb ~cycle:4 (bv 8 42);
  let r = Scoreboard.report sb in
  check_bool "not ok" false (Scoreboard.ok r);
  check_int "one mismatch" 1 (List.length r.Scoreboard.mismatches)

let test_scoreboard_in_order () =
  (* Same data, late and jittery: In_order accepts and records latency. *)
  let sb = Scoreboard.create Scoreboard.In_order in
  Scoreboard.expect sb ~cycle:0 (bv 8 1);
  Scoreboard.expect sb ~cycle:1 (bv 8 2);
  Scoreboard.expect sb ~cycle:2 (bv 8 3);
  Scoreboard.observe sb ~cycle:5 (bv 8 1);
  Scoreboard.observe sb ~cycle:9 (bv 8 2);
  Scoreboard.observe sb ~cycle:10 (bv 8 3);
  let r = Scoreboard.report sb in
  check_bool "ok" true (Scoreboard.ok r);
  check_bool "latencies recorded" true (r.Scoreboard.latencies = [ 5; 8; 8 ])

let test_scoreboard_in_order_value_mismatch () =
  let sb = Scoreboard.create Scoreboard.In_order in
  Scoreboard.expect sb ~cycle:0 (bv 8 1);
  Scoreboard.observe sb ~cycle:1 (bv 8 9);
  let r = Scoreboard.report sb in
  check_bool "not ok" false (Scoreboard.ok r);
  match r.Scoreboard.mismatches with
  | [ m ] ->
    check_bool "expected recorded" true (m.Scoreboard.expected = Some (bv 8 1));
    check_bool "observed recorded" true (Bitvec.equal m.Scoreboard.observed (bv 8 9))
  | _ -> Alcotest.fail "expected exactly one mismatch"

let test_scoreboard_in_order_rejects_reorder () =
  (* Reordered completions break the in-order policy... *)
  let sb = Scoreboard.create Scoreboard.In_order in
  Scoreboard.expect sb ~cycle:0 (bv 8 1);
  Scoreboard.expect sb ~cycle:0 (bv 8 2);
  Scoreboard.observe sb ~cycle:1 (bv 8 2);
  Scoreboard.observe sb ~cycle:2 (bv 8 1);
  check_bool "reorder rejected" false (Scoreboard.ok (Scoreboard.report sb))

let test_scoreboard_out_of_order () =
  (* ... and the tagged policy absorbs exactly the same trace. *)
  let sb = Scoreboard.create Scoreboard.Out_of_order in
  Scoreboard.expect sb ~tag:(bv 4 0) ~cycle:0 (bv 8 1);
  Scoreboard.expect sb ~tag:(bv 4 1) ~cycle:0 (bv 8 2);
  Scoreboard.observe sb ~tag:(bv 4 1) ~cycle:1 (bv 8 2);
  Scoreboard.observe sb ~tag:(bv 4 0) ~cycle:2 (bv 8 1);
  check_bool "reorder accepted" true (Scoreboard.ok (Scoreboard.report sb));
  (* Same tag used twice FIFOs per tag. *)
  let sb2 = Scoreboard.create Scoreboard.Out_of_order in
  Scoreboard.expect sb2 ~tag:(bv 4 7) ~cycle:0 (bv 8 1);
  Scoreboard.expect sb2 ~tag:(bv 4 7) ~cycle:1 (bv 8 2);
  Scoreboard.observe sb2 ~tag:(bv 4 7) ~cycle:3 (bv 8 1);
  Scoreboard.observe sb2 ~tag:(bv 4 7) ~cycle:4 (bv 8 2);
  check_bool "per-tag fifo" true (Scoreboard.ok (Scoreboard.report sb2))

let test_scoreboard_unconsumed () =
  let sb = Scoreboard.create Scoreboard.In_order in
  Scoreboard.expect sb ~cycle:0 (bv 8 1);
  Scoreboard.expect sb ~cycle:0 (bv 8 2);
  Scoreboard.observe sb ~cycle:1 (bv 8 1);
  let r = Scoreboard.report sb in
  check_bool "not ok" false (Scoreboard.ok r);
  check_int "one unconsumed" 1 r.Scoreboard.unconsumed

let test_scoreboard_flags_injected_corruption () =
  (* Fault-injection at the stream level: corrupt one element of an
     otherwise healthy RTL output stream and the scoreboard must flag
     exactly that element — the detection path the faultsim campaigns
     rely on. *)
  let n = 32 and victim = 17 in
  let golden = Array.init n (fun i -> bv 8 ((i * 11) land 0xff)) in
  (* The corruption rides a real stream stage, the way a faulty link (or
     a mutated block) would inject it mid-pipeline. *)
  let corruptor =
    Stream.slm_stage ~name:"bitflip-fault"
      (Array.mapi (fun i v -> if i = victim then Bitvec.lognot v else v))
  in
  let corrupt, _ = Stream.run_stage corruptor golden in
  let sb = Scoreboard.create Scoreboard.In_order in
  Array.iteri (fun i v -> Scoreboard.expect sb ~cycle:i v) golden;
  Array.iteri (fun i v -> Scoreboard.observe sb ~cycle:(i + 2) v) corrupt;
  let r = Scoreboard.report sb in
  check_bool "corruption flagged" false (Scoreboard.ok r);
  (match r.Scoreboard.mismatches with
  | [ m ] ->
    check_int "flagged at the corrupted cycle" (victim + 2) m.Scoreboard.at_cycle;
    check_bool "expected value recorded" true
      (m.Scoreboard.expected = Some golden.(victim))
  | ms -> Alcotest.failf "expected 1 mismatch, got %d" (List.length ms));
  check_int "clean elements still match" (n - 1) r.Scoreboard.matched;
  (* Same trace, uncorrupted: clean — the checker has no false alarms. *)
  let sb2 = Scoreboard.create Scoreboard.In_order in
  Array.iteri (fun i v -> Scoreboard.expect sb2 ~cycle:i v) golden;
  Array.iteri (fun i v -> Scoreboard.observe sb2 ~cycle:(i + 2) v) golden;
  check_bool "no false alarm" true (Scoreboard.ok (Scoreboard.report sb2))

(* --- stream stages --------------------------------------------------------- *)

(* Stream designs on [din]/[dout]: registered (one-cycle-latency
   incrementer) or combinational, each with a valid chain [vin] -> [vout]
   or with no valid input and a constant-1 [vout]. *)
let stream_design ~registered ~valid_in =
  let open Expr in
  let inputs =
    { Netlist.port_name = "din"; port_width = 8 }
    :: (if valid_in then [ { Netlist.port_name = "vin"; port_width = 1 } ]
        else [])
  in
  let vin = if valid_in then sig_ "vin" else const ~width:1 1 in
  let regs, dout, vout =
    if registered then
      ( [ Netlist.reg ~name:"d1" ~width:8 (sig_ "din" +: const ~width:8 1);
          Netlist.reg ~name:"v1" ~width:1 vin ],
        sig_ "d1",
        sig_ "v1" )
    else ([], sig_ "din" ^: const ~width:8 0x5a, vin)
  in
  Netlist.elaborate
    {
      (Netlist.empty "stream") with
      Netlist.inputs;
      regs;
      outputs = [ ("dout", dout); ("vout", vout) ];
    }

(* One-cycle-latency incrementer with a valid chain. *)
let rtl_inc_stream () = stream_design ~registered:true ~valid_in:true

let test_rtl_stage_with_valid () =
  let stage =
    Stream.rtl_stage ~name:"inc" ~rtl:(rtl_inc_stream ()) ~in_port:"din"
      ~out_port:"dout" ~in_valid:"vin" ~out_valid:"vout" ()
  in
  let input = Array.init 10 (fun i -> bv 8 i) in
  let out, stats = Stream.run_stage stage input in
  check_int "count" 10 (Array.length out);
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "elem %d" i) (i + 1) (Bitvec.to_int v))
    out;
  check_bool "rtl kind" true (stats.Stream.kind = `Rtl);
  check_int "cycles = n + latency" 11 stats.Stream.cycles

let test_rtl_stage_with_stalls () =
  (* Stall every third cycle: output data unchanged, cycles increase —
     the variable-latency scenario of experiment C7. *)
  let stage_stalled =
    Stream.rtl_stage ~name:"inc" ~rtl:(rtl_inc_stream ()) ~in_port:"din"
      ~out_port:"dout" ~in_valid:"vin" ~out_valid:"vout"
      ~stall:(fun c -> c mod 3 = 2) ()
  in
  let input = Array.init 9 (fun i -> bv 8 (10 + i)) in
  let out, stats = Stream.run_stage stage_stalled input in
  check_int "count" 9 (Array.length out);
  Array.iteri
    (fun i v ->
      check_int (Printf.sprintf "elem %d" i) (11 + i) (Bitvec.to_int v))
    out;
  check_bool "stalls cost cycles" true (stats.Stream.cycles > 10)

let test_rtl_stage_budget_error () =
  (* A design whose valid never rises exhausts the budget. *)
  let open Expr in
  let dead =
    Netlist.elaborate
      {
        (Netlist.empty "dead") with
        Netlist.inputs =
          [ { Netlist.port_name = "din"; port_width = 8 };
            { Netlist.port_name = "vin"; port_width = 1 } ];
        outputs =
          [ ("dout", sig_ "din"); ("vout", const ~width:1 0) ];
      }
  in
  let stage =
    Stream.rtl_stage ~name:"dead" ~rtl:dead ~in_port:"din" ~out_port:"dout"
      ~in_valid:"vin" ~out_valid:"vout" ~max_cycles:50 ()
  in
  check_bool "raises" true
    (match Stream.run_stage stage (Array.init 4 (fun i -> bv 8 i)) with
    | exception Stream.Stage_error _ -> true
    | _ -> false)

let test_rtl_stage_unknown_port () =
  check_bool "raises" true
    (match
       Stream.rtl_stage ~name:"x" ~rtl:(rtl_inc_stream ()) ~in_port:"nope"
         ~out_port:"dout" ()
     with
    | exception Stream.Stage_error _ -> true
    | _ -> false)

let test_pipeline_plug_and_play () =
  (* SLM 3-stage pipeline: +1, *2, -3.  Swap the middle stage for RTL and
     the end-to-end result must not change (paper Section 4.2). *)
  let slm_inc = Stream.slm_stage ~name:"inc" (Array.map (fun v -> Bitvec.add v (bv 8 1))) in
  let slm_dbl =
    Stream.slm_stage ~name:"dbl" (Array.map (fun v -> Bitvec.shift_left v 1))
  in
  let slm_sub =
    Stream.slm_stage ~name:"sub" (Array.map (fun v -> Bitvec.sub v (bv 8 3)))
  in
  let open Expr in
  let rtl_dbl =
    Netlist.elaborate
      {
        (Netlist.empty "dbl") with
        Netlist.inputs =
          [ { Netlist.port_name = "din"; port_width = 8 };
            { Netlist.port_name = "vin"; port_width = 1 } ];
        regs =
          [ Netlist.reg ~name:"d1" ~width:8
              (sig_ "din" <<: const ~width:1 1);
            Netlist.reg ~name:"v1" ~width:1 (sig_ "vin") ];
        outputs = [ ("dout", sig_ "d1"); ("vout", sig_ "v1") ];
      }
  in
  let rtl_stage_dbl =
    Stream.rtl_stage ~name:"dbl_rtl" ~rtl:rtl_dbl ~in_port:"din"
      ~out_port:"dout" ~in_valid:"vin" ~out_valid:"vout" ()
  in
  let input = Array.init 16 (fun i -> bv 8 (i * 3)) in
  let pure, _ = Stream.run_pipeline [ slm_inc; slm_dbl; slm_sub ] input in
  let mixed, stats =
    Stream.run_pipeline [ slm_inc; rtl_stage_dbl; slm_sub ] input
  in
  check_bool "outputs equal" true
    (Array.for_all2 Bitvec.equal pure mixed);
  check_int "three stages" 3 (List.length stats)

(* The driver rule of record, kept as a reference: every feed cycle goes
   into a set, and without [out_valid] each cycle probes that set at
   [cycle - latency]. *)
let reference_stream ~rtl ~in_valid ~out_valid ~latency ~stall ~max_cycles
    input =
  let n = Array.length input in
  if n = 0 then Ok ([||], 0)
  else begin
    let sim = Sim.create rtl in
    let budget = match max_cycles with Some m -> m | None -> (16 * n) + 64 in
    let fed_on = Hashtbl.create 64 in
    let collected = ref [] and ncollected = ref 0 in
    let fed = ref 0 and cycle = ref 0 in
    while !ncollected < n && !cycle < budget do
      let feeding = !fed < n && not (stall !cycle) in
      let data =
        if feeding then input.(!fed)
        else if !fed > 0 then input.(!fed - 1)
        else Bitvec.zero 8
      in
      let valid_drive =
        match in_valid with
        | Some p -> [ (p, Bitvec.of_bool feeding) ]
        | None -> []
      in
      if feeding then begin
        Hashtbl.replace fed_on !cycle ();
        incr fed
      end;
      let outs = Sim.cycle sim (("din", data) :: valid_drive) in
      let valid =
        match out_valid with
        | Some p -> Bitvec.reduce_or (List.assoc p outs)
        | None -> Hashtbl.mem fed_on (!cycle - latency)
      in
      if valid then begin
        collected := List.assoc "dout" outs :: !collected;
        incr ncollected
      end;
      incr cycle
    done;
    if !ncollected < n then
      Error
        (Printf.sprintf "stage s: produced %d of %d outputs within %d cycles"
           !ncollected n budget)
    else Ok (Array.of_list (List.rev !collected), !cycle)
  end

type stream_case = {
  registered : bool;
  valid_in : bool;
  valid_out : bool;
  latency : int;
  stalls : bool array;  (** [stalls.(c)]: stall on cycle [c] *)
  max_cycles : int option;
  data : int array;
}

let stream_designs =
  List.concat_map
    (fun registered ->
      List.map
        (fun valid_in ->
          ((registered, valid_in), stream_design ~registered ~valid_in))
        [ true; false ])
    [ true; false ]

let gen_stream_case =
  QCheck.Gen.(
    let* registered = bool and* valid_in = bool and* valid_out = bool in
    let* latency = int_range 0 3 and* n = int_range 0 40 in
    let* stall_pct = oneofl [ 0; 20; 50; 90 ] in
    let* stalls =
      array_repeat 1024 (map (fun r -> r < stall_pct) (int_bound 99))
    in
    let* max_cycles =
      frequency [ (3, return None); (1, map Option.some (int_range 0 (n + 4))) ]
    in
    let+ data = array_repeat n (int_bound 255) in
    { registered; valid_in; valid_out; latency; stalls; max_cycles; data })

let print_stream_case c =
  Printf.sprintf
    "registered %b, in_valid %b, out_valid %b, latency %d, max_cycles %s, \
     n %d, stalls in the first 64 cycles %d"
    c.registered c.valid_in c.valid_out c.latency
    (match c.max_cycles with Some m -> string_of_int m | None -> "-")
    (Array.length c.data)
    (Array.fold_left (fun k s -> if s then k + 1 else k) 0
       (Array.sub c.stalls 0 64))

let prop_stream_matches_reference =
  QCheck.Test.make ~name:"rtl stage vs feed-set reference" ~count:400
    (QCheck.make gen_stream_case ~print:print_stream_case)
    (fun c ->
      let rtl = List.assoc (c.registered, c.valid_in) stream_designs in
      let in_valid = if c.valid_in then Some "vin" else None in
      let out_valid = if c.valid_out then Some "vout" else None in
      let stall cycle = cycle < Array.length c.stalls && c.stalls.(cycle) in
      let input = Array.map (bv 8) c.data in
      let stage =
        Stream.rtl_stage ~name:"s" ~rtl ~in_port:"din" ~out_port:"dout"
          ?in_valid ?out_valid ~latency:c.latency ~stall
          ?max_cycles:c.max_cycles ()
      in
      let got =
        match Stream.run_stage stage input with
        | out, stats -> Ok (out, stats.Stream.cycles)
        | exception Stream.Stage_error m -> Error m
      in
      let expected =
        reference_stream ~rtl ~in_valid ~out_valid ~latency:c.latency ~stall
          ~max_cycles:c.max_cycles input
      in
      match (got, expected) with
      | Ok (out, cycles), Ok (out', cycles') ->
        cycles = cycles'
        && Array.length out = Array.length out'
        && Array.for_all2 Bitvec.equal out out'
      | Error m, Error m' -> m = m'
      | _ -> false)

(* --- transaction engine ------------------------------------------------------ *)

(* Fixed 2-cycle-latency echo: resp_data = data + 1, tag carried along. *)
let rtl_echo () =
  let open Expr in
  Netlist.elaborate
    {
      (Netlist.empty "echo") with
      Netlist.inputs =
        [ { Netlist.port_name = "valid"; port_width = 1 };
          { Netlist.port_name = "tag"; port_width = 4 };
          { Netlist.port_name = "data"; port_width = 8 } ];
      regs =
        [ Netlist.reg ~name:"v1" ~width:1 (sig_ "valid");
          Netlist.reg ~name:"t1" ~width:4 (sig_ "tag");
          Netlist.reg ~name:"d1" ~width:8 (sig_ "data" +: const ~width:8 1);
          Netlist.reg ~name:"v2" ~width:1 (sig_ "v1");
          Netlist.reg ~name:"t2" ~width:4 (sig_ "t1");
          Netlist.reg ~name:"d2" ~width:8 (sig_ "d1") ];
      outputs =
        [ ("resp_valid", sig_ "v2");
          ("resp_tag", sig_ "t2");
          ("resp_data", sig_ "d2") ];
    }

let echo_iface =
  {
    Txn_engine.idle = [ ("tag", bv 4 0); ("data", bv 8 0) ];
    issue_valid = "valid";
    req_tag = Some "tag";
    ready = None;
    resp_valid = "resp_valid";
    resp_tag = "resp_tag";
    resp_data = "resp_data";
  }

let test_txn_engine_basic () =
  let requests =
    List.init 8 (fun i ->
        { Txn_engine.tag = bv 4 i; payload = [ ("data", bv 8 (10 * i)) ] })
  in
  let completions, cycles =
    Txn_engine.run ~rtl:(rtl_echo ()) ~iface:echo_iface ~requests ()
  in
  check_int "all complete" 8 (List.length completions);
  List.iteri
    (fun i (c : Txn_engine.completion) ->
      check_int (Printf.sprintf "tag %d" i) i (Bitvec.to_int c.Txn_engine.c_tag);
      check_int
        (Printf.sprintf "data %d" i)
        ((10 * i) + 1)
        (Bitvec.to_int c.Txn_engine.c_data);
      check_int (Printf.sprintf "cycle %d" i) (i + 2) c.Txn_engine.c_cycle)
    completions;
  check_bool "cycle count sane" true (cycles >= 10)

let test_txn_engine_with_gaps () =
  let requests =
    List.init 4 (fun i ->
        { Txn_engine.tag = bv 4 i; payload = [ ("data", bv 8 i) ] })
  in
  let completions, cycles =
    Txn_engine.run ~rtl:(rtl_echo ()) ~iface:echo_iface ~requests
      ~gap:(fun c -> c mod 2 = 1)
      ()
  in
  check_int "all complete" 4 (List.length completions);
  check_bool "gaps cost cycles" true (cycles > 6)

let test_txn_engine_scoreboard_integration () =
  (* SLM golden: data+1 per tag.  Drive through the engine and check with
     an out-of-order scoreboard. *)
  let requests =
    List.init 6 (fun i ->
        { Txn_engine.tag = bv 4 i; payload = [ ("data", bv 8 (7 * i)) ] })
  in
  let sb = Scoreboard.create Scoreboard.Out_of_order in
  List.iteri
    (fun i r ->
      let data = List.assoc "data" r.Txn_engine.payload in
      Scoreboard.expect sb ~tag:r.Txn_engine.tag ~cycle:i
        (Bitvec.add data (bv 8 1)))
    requests;
  let completions, _ =
    Txn_engine.run ~rtl:(rtl_echo ()) ~iface:echo_iface ~requests ()
  in
  List.iter
    (fun (c : Txn_engine.completion) ->
      Scoreboard.observe sb ~tag:c.Txn_engine.c_tag ~cycle:c.Txn_engine.c_cycle
        c.Txn_engine.c_data)
    completions;
  check_bool "scoreboard clean" true (Scoreboard.ok (Scoreboard.report sb))

let test_txn_engine_timeout () =
  (* A design that never responds. *)
  let open Expr in
  let dead =
    Netlist.elaborate
      {
        (Netlist.empty "dead") with
        Netlist.inputs =
          [ { Netlist.port_name = "valid"; port_width = 1 };
            { Netlist.port_name = "tag"; port_width = 4 };
            { Netlist.port_name = "data"; port_width = 8 } ];
        outputs =
          [ ("resp_valid", const ~width:1 0);
            ("resp_tag", const ~width:4 0);
            ("resp_data", const ~width:8 0) ];
      }
  in
  check_bool "raises with missing tags" true
    (match
       Txn_engine.run ~rtl:dead ~iface:echo_iface
         ~requests:[ { Txn_engine.tag = bv 4 3; payload = [ ("data", bv 8 0) ] } ]
         ~max_cycles:40 ()
     with
    | exception Txn_engine.Engine_error m ->
      (* The error message names the missing tag. *)
      let contains s sub =
        let n = String.length sub and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      contains m "4'h3"
    | _ -> false)

let suite =
  [ Alcotest.test_case "scoreboard exact" `Quick test_scoreboard_exact;
    Alcotest.test_case "scoreboard exact rejects late" `Quick
      test_scoreboard_exact_rejects_late;
    Alcotest.test_case "scoreboard in-order" `Quick test_scoreboard_in_order;
    Alcotest.test_case "scoreboard in-order value mismatch" `Quick
      test_scoreboard_in_order_value_mismatch;
    Alcotest.test_case "scoreboard in-order rejects reorder" `Quick
      test_scoreboard_in_order_rejects_reorder;
    Alcotest.test_case "scoreboard out-of-order" `Quick
      test_scoreboard_out_of_order;
    Alcotest.test_case "scoreboard unconsumed" `Quick
      test_scoreboard_unconsumed;
    Alcotest.test_case "scoreboard flags injected corruption" `Quick
      test_scoreboard_flags_injected_corruption;
    Alcotest.test_case "rtl stage with valid" `Quick test_rtl_stage_with_valid;
    Alcotest.test_case "rtl stage with stalls" `Quick
      test_rtl_stage_with_stalls;
    Alcotest.test_case "rtl stage budget error" `Quick
      test_rtl_stage_budget_error;
    Alcotest.test_case "rtl stage unknown port" `Quick
      test_rtl_stage_unknown_port;
    Alcotest.test_case "pipeline plug-and-play" `Quick
      test_pipeline_plug_and_play;
    QCheck_alcotest.to_alcotest prop_stream_matches_reference;
    Alcotest.test_case "txn engine basic" `Quick test_txn_engine_basic;
    Alcotest.test_case "txn engine with gaps" `Quick test_txn_engine_with_gaps;
    Alcotest.test_case "txn engine + scoreboard" `Quick
      test_txn_engine_scoreboard_integration;
    Alcotest.test_case "txn engine timeout" `Quick test_txn_engine_timeout ]
