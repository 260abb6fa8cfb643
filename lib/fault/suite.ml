module Bitvec = Dfv_bitvec.Bitvec
module Pair = Dfv_core.Pair
module Txn_engine = Dfv_cosim.Txn_engine
module Scoreboard = Dfv_cosim.Scoreboard
open Dfv_designs

let names =
  [ "alu"; "fir"; "gcd"; "chain.brightness"; "chain.convolution";
    "chain.threshold"; "memsys" ]

let chain_block = function
  | "chain.brightness" -> Image_chain.Brightness
  | "chain.convolution" -> Image_chain.Convolution
  | "chain.threshold" -> Image_chain.Threshold
  | n -> failwith ("not a chain block: " ^ n)

let memsys_requests () =
  List.init 16 (fun i ->
      if i < 4 then { Memsys.req_tag = i; op = Memsys.Write (i * 16, (i * 7) + 1) }
      else { Memsys.req_tag = i; op = Memsys.Read ((i mod 8) * 16) })

(* One pass of the memsys harness over a (possibly mutated) RTL: issue
   the tagged requests through the transaction engine and score the
   completions against the zero-delay SLM with an out-of-order
   scoreboard. *)
let memsys_run c requests rtl ?on_cycle () =
  match
    Txn_engine.run ~rtl ~iface:(Memsys.iface c ~ready:false)
      ~requests:(Memsys.to_engine_requests c requests) ?on_cycle ()
  with
  | exception Txn_engine.Engine_error m -> Error m
  | completions, cycles ->
    let sb = Scoreboard.create Scoreboard.Out_of_order in
    let slm = Memsys.Slm.create c in
    List.iteri
      (fun i (tag, data) ->
        Scoreboard.expect sb
          ~tag:(Bitvec.create ~width:c.Memsys.tag_width tag)
          ~cycle:i
          (Bitvec.create ~width:c.Memsys.data_width data))
      (Memsys.Slm.execute_all slm requests);
    List.iter
      (fun (cp : Txn_engine.completion) ->
        Scoreboard.observe sb ~tag:cp.Txn_engine.c_tag
          ~cycle:cp.Txn_engine.c_cycle cp.Txn_engine.c_data)
      completions;
    Ok (Scoreboard.report sb, completions, cycles)

(* The memsys harness as a campaign subject.  [check] returns true when
   the harness flags the (mutated) RTL — by data/tag mismatch, by stray
   completions, or by the engine running out of cycles with
   transactions still in flight. *)
let memsys_subject () =
  let c = Memsys.default_config in
  let requests = memsys_requests () in
  let check rtl' =
    match memsys_run c requests rtl' () with
    | Error _ -> true
    | Ok (report, _, _) -> not (Scoreboard.ok report)
  in
  Campaign.Cosim
    { co_name = "memsys"; co_rtl = Memsys.rtl_simple c; co_check = check }

(* Seed a fault into the memsys RTL, reproduce the resulting scoreboard
   miscompare, and package the evidence as a triage bundle: the first
   enumerated mutant the harness actually flags with a data mismatch is
   run twice — once to locate the failure cycle, once more with a VCD
   window dumped around it. *)
let memsys_triage ?(seed = 0) ?(max_faults = 32) () =
  let c = Memsys.default_config in
  let requests = memsys_requests () in
  let rtl = Memsys.rtl_simple c in
  let iface = Memsys.iface c ~ready:false in
  let rec first_miscompare = function
    | [] -> None
    | f :: rest -> (
      let rtl' = f.Fault.rf_apply rtl in
      match memsys_run c requests rtl' () with
      | Ok (report, _, _) when report.Scoreboard.mismatches <> [] ->
        Some (f, rtl', report)
      | Ok _ | Error _ -> first_miscompare rest)
  in
  match first_miscompare (Fault.enumerate_rtl ~seed ~max_faults rtl) with
  | None -> None
  | Some (f, rtl', report) ->
    let mm = List.hd report.Scoreboard.mismatches in
    let window = (max 0 (mm.Scoreboard.at_cycle - 4), mm.Scoreboard.at_cycle + 4)
    in
    let buf = Buffer.create 1024 in
    let vcd = ref None in
    let on_cycle sim cycle =
      let writer =
        match !vcd with
        | Some w -> w
        | None ->
          let w = Dfv_rtl.Vcd.create buf rtl' sim in
          vcd := Some w;
          w
      in
      let lo, hi = window in
      if cycle >= lo && cycle <= hi then Dfv_rtl.Vcd.sample writer
    in
    ignore (memsys_run c requests rtl' ~on_cycle ());
    let txn_index =
      match mm.Scoreboard.tag with
      | None -> None
      | Some tag ->
        let ti = Bitvec.to_int tag in
        let rec index i = function
          | [] -> None
          | r :: _ when r.Memsys.req_tag = ti -> Some i
          | _ :: rest -> index (i + 1) rest
        in
        index 0 requests
    in
    let stimulus =
      List.mapi
        (fun i r ->
          ( Printf.sprintf "req%02d" i,
            match r.Memsys.op with
            | Memsys.Read a -> Printf.sprintf "tag=%d read addr=%d" r.Memsys.req_tag a
            | Memsys.Write (a, d) ->
              Printf.sprintf "tag=%d write addr=%d data=%d" r.Memsys.req_tag a d ))
        requests
    in
    let failures =
      List.map
        (fun (m : Scoreboard.mismatch) ->
          {
            Dfv_obs.Triage.f_port = iface.Txn_engine.resp_data;
            f_cycle = m.Scoreboard.at_cycle;
            f_expected = Option.map Bitvec.to_string m.Scoreboard.expected;
            f_got = Bitvec.to_string m.Scoreboard.observed;
          })
        report.Scoreboard.mismatches
    in
    Some
      (Dfv_obs.Triage.make ~design:"memsys" ~kind:"scoreboard-miscompare"
         ?txn_index ~stimulus ~failures ~vcd:(Buffer.contents buf)
         ~vcd_window:window
         ~notes:
           [ Printf.sprintf "injected fault: %s (%s at %s)" f.Fault.rf_name
               f.Fault.rf_class f.Fault.rf_site;
             Printf.sprintf "%d matched, %d mismatches, %d unconsumed"
               report.Scoreboard.matched
               (List.length report.Scoreboard.mismatches)
               report.Scoreboard.unconsumed ]
         ())

let subject name =
  match name with
  | "alu" ->
    let t = Alu.make ~width:8 () in
    Campaign.Sec_pair
      (Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec)
  | "fir" ->
    let t = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
    Campaign.Sec_pair
      (Pair.create ~name:"fir" ~slm:t.Fir.slm_exact ~rtl:t.Fir.rtl
         ~spec:t.Fir.spec)
  | "gcd" ->
    let t = Gcd.make ~width:4 in
    Campaign.Sec_pair
      (Pair.create ~name:"gcd" ~slm:t.Gcd.slm ~rtl:t.Gcd.rtl ~spec:t.Gcd.spec)
  | "chain.brightness" | "chain.convolution" | "chain.threshold" ->
    let t = Image_chain.make () in
    let b = chain_block name in
    Campaign.Sec_pair
      (Pair.create ~name ~slm:(Image_chain.block_slm t b)
         ~rtl:(Image_chain.block_rtl t b)
         ~spec:(Image_chain.block_spec b))
  | "memsys" -> memsys_subject ()
  | n -> failwith (Printf.sprintf "unknown faultsim design %s" n)

let run ?budget ?(seed = 0) ?sim_vectors ?engine ?jobs ?timeout ?deadline
    ?journal ?pool ?exec:_ ?max_rtl_faults ?max_slm_faults ?progress
    ?(designs = names) () =
  (* One absolute deadline across the whole suite: later campaigns see
     whatever window the earlier ones left. *)
  let deadline_at =
    Option.map (fun d -> Unix.gettimeofday () +. d) deadline
  in
  List.map
    (fun name ->
      Campaign.run ?budget ?sim_vectors ~seed ?engine ?jobs ?timeout
        ?deadline_at ?journal ?pool ?max_rtl_faults ?max_slm_faults
        ?progress (subject name))
    designs

(* The canonical configuration key a suite journal is bound to: every
   knob that can change a verdict.  [jobs], [timeout], [deadline] and
   [pool] are deliberately absent — parallelism never changes verdicts
   (the {!Dfv_par.Pool.job_seed} guarantee), and timeout/deadline
   casualties are never journaled, so a resume may pick different
   values for all four. *)
let campaign_key ~budget ~seed ~sim_vectors ~engine ~max_rtl_faults
    ~max_slm_faults ~designs =
  Printf.sprintf
    "faultsim|designs=%s|seed=%d|vectors=%d|engine=%s|max_rtl=%d|max_slm=%d|budget=%s"
    (String.concat "," designs) seed sim_vectors
    (match engine with
    | None -> "auto"
    | Some `Compiled -> "compiled"
    | Some `Interp -> "interp")
    max_rtl_faults max_slm_faults
    (Dfv_sat.Solver.budget_key budget)

let default_min_rate = 0.95

let gate ?(min_rate = default_min_rate) reports =
  let rate = Campaign.detection_rate reports in
  let false_eq = Campaign.false_equivalents reports in
  (rate, false_eq, rate >= min_rate && false_eq = 0)
