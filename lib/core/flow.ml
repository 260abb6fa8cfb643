module Bitvec = Dfv_bitvec.Bitvec
module Ast = Dfv_hwir.Ast
module Interp = Dfv_hwir.Interp
module Exec = Dfv_hwir.Exec
module Typecheck = Dfv_hwir.Typecheck
module Netlist = Dfv_rtl.Netlist
module Sim = Dfv_rtl.Sim
module Vcd = Dfv_rtl.Vcd
module Spec = Dfv_sec.Spec
module Checker = Dfv_sec.Checker
module Trace = Dfv_obs.Trace
module Coverage = Dfv_obs.Coverage
module Triage = Dfv_obs.Triage

type sim_outcome =
  | Sim_clean of { vectors : int }
  | Sim_mismatch of {
      vector_index : int;
      params : (string * Interp.value) list;
      failed_checks : (Spec.check * Bitvec.t * Bitvec.t) list;
    }

let random_value st (ty : Ast.ty) =
  match ty with
  | Ast.Tint { width; _ } -> Interp.Vint (Bitvec.random st ~width)
  | Ast.Tarray (Ast.Tint { width; _ }, n) ->
    Interp.Varr (Array.init n (fun _ -> Bitvec.random st ~width))
  | Ast.Tarray (Ast.Tarray _, _) -> failwith "Flow: nested array parameter"

(* Engine selection for SLM execution: an explicit request is honored
   (and [`Compiled] raises [Norm.Rejected] on unconditioned models);
   by default the compiled normal form runs when the model is in it,
   with the interpreter as the fallback. *)
let prepare ?engine p =
  match engine with
  | None -> Exec.auto p
  | Some e -> Exec.create ~engine:e p

(* Constraints are evaluated by executing a wrapper function, exactly
   mirroring how the SEC path elaborates them.  Each wrapper is
   prepared once (compiled once on the compiled engine) and then run
   per candidate vector. *)
let constraint_checkers ?engine (pair : Pair.t) =
  let fn =
    match Ast.find_func pair.Pair.slm pair.Pair.slm.Ast.entry with
    | Some f -> f
    | None -> failwith "Flow: SLM entry not found"
  in
  List.mapi
    (fun i expr ->
      let cname = Printf.sprintf "__sim_constraint_%d" i in
      let wrapper =
        {
          Ast.funcs =
            pair.Pair.slm.Ast.funcs
            @ [ {
                  Ast.fname = cname;
                  params = fn.Ast.params;
                  ret = Ast.bool_ty;
                  locals = [];
                  body = [ Ast.Return expr ];
                } ];
          entry = cname;
        }
      in
      let ex = prepare ?engine wrapper in
      fun args ->
        match Exec.run ex args with
        | Interp.Vint b -> not (Bitvec.is_zero b)
        | Interp.Varr _ -> false
        | exception Interp.Runtime_error _ -> false)
    pair.Pair.spec.Spec.constraints

(* Run one concrete transaction through the RTL simulator [sim] from
   its reset state and compare the spec's checks against the SLM's
   result for the same [params]. *)
let run_transaction (pair : Pair.t) sim params slm_result =
  let spec = pair.Pair.spec in
  Sim.reset sim;
  let outputs = Array.make spec.Spec.rtl_cycles [] in
  for t = 0 to spec.Spec.rtl_cycles - 1 do
    outputs.(t) <- Sim.cycle sim (Spec.inputs_at spec params t)
  done;
  let expected (c : Spec.check) =
    match (c.Spec.expect, slm_result) with
    | Spec.Result, Interp.Vint bv -> bv
    | Spec.Result_elem i, Interp.Varr a -> a.(i)
    | Spec.Result, Interp.Varr _ | Spec.Result_elem _, Interp.Vint _ ->
      failwith "Flow: result shape does not match the spec"
  in
  List.filter_map
    (fun (c : Spec.check) ->
      let got = List.assoc c.Spec.rtl_port outputs.(c.Spec.at_cycle) in
      let e = expected c in
      if Bitvec.equal got e then None else Some (c, e, got))
    spec.Spec.checks

(* Flip one random bit of one random (element of a) parameter value —
   the local move of the widening search. *)
let mutate_value st (v : Interp.value) =
  match v with
  | Interp.Vint bv ->
    let i = Random.State.int st (Bitvec.width bv) in
    Interp.Vint (Bitvec.set_bit bv i (not (Bitvec.get bv i)))
  | Interp.Varr a ->
    let a = Array.copy a in
    let j = Random.State.int st (Array.length a) in
    let bv = a.(j) in
    let i = Random.State.int st (Bitvec.width bv) in
    a.(j) <- Bitvec.set_bit bv i (not (Bitvec.get bv i));
    Interp.Varr a

(* Width-independent magnitude class of a parameter value — the sampled
   coordinate of the auto covergroups: 0 all-zero, 1 msb clear (small),
   2 msb set (large), 3 all-ones. *)
let value_class bv =
  let w = Bitvec.width bv in
  if Bitvec.is_zero bv then 0
  else if Bitvec.equal bv (Bitvec.ones w) then 3
  else if Bitvec.get bv (w - 1) then 2
  else 1

(* One coverpoint per entry parameter, in the covergroup
   ["sim.<design>"]; empty when functional coverage is off. *)
let stimulus_points (pair : Pair.t) =
  if not (Coverage.enabled ()) then []
  else begin
    let params_sig, _ = Typecheck.entry_signature pair.Pair.slm in
    let g = Coverage.group ("sim." ^ pair.Pair.name) in
    let bins () =
      [ Coverage.bin "zero" ~lo:0 ~hi:0;
        Coverage.bin "small" ~lo:1 ~hi:1;
        Coverage.bin "large" ~lo:2 ~hi:2;
        Coverage.bin "max" ~lo:3 ~hi:3 ]
    in
    List.map (fun (n, _) -> (n, Coverage.point g n (bins ()))) params_sig
  end

let sample_stimulus points params =
  if points <> [] then
    List.iter
      (fun (n, v) ->
        match List.assoc_opt n points with
        | None -> ()
        | Some p -> (
          match v with
          | Interp.Vint bv -> Coverage.sample p (value_class bv)
          | Interp.Varr a ->
            Array.iter (fun bv -> Coverage.sample p (value_class bv)) a))
      params

let simulate ?(seed = 0) ?(max_rounds = 4) ?engine ~vectors (pair : Pair.t) =
  let body () =
    let cov_points = stimulus_points pair in
    let params_sig, _ = Typecheck.entry_signature pair.Pair.slm in
    let st = Random.State.make [| seed; Hashtbl.hash pair.Pair.name |] in
    let slm_exec = prepare ?engine pair.Pair.slm in
    let checkers = constraint_checkers ?engine pair in
    (* One simulator for the whole run, compiled at the first
       transaction and reset before each one. *)
    let sim = lazy (Sim.create pair.Pair.rtl) in
    let nconstraints = List.length checkers in
    let unsat_counts = Array.make (max nconstraints 1) 0 in
    let total_attempts = ref 0 in
    (* Number of constraints a candidate satisfies; tallies rejections
       per constraint for the exhaustion diagnostic. *)
    let score params =
      let args = List.map snd params in
      let sat = ref 0 in
      List.iteri
        (fun i c ->
          if c args then incr sat
          else unsat_counts.(i) <- unsat_counts.(i) + 1)
        checkers;
      !sat
    in
    let fresh () =
      List.map (fun (n, ty) -> (n, random_value st ty)) params_sig
    in
    let mutate params =
      let j = Random.State.int st (List.length params) in
      List.mapi
        (fun i (n, v) -> if i = j then (n, mutate_value st v) else (n, v))
        params
    in
    let tightest () =
      if nconstraints = 0 then "no constraints to satisfy"
      else
        List.init nconstraints (fun i -> i)
        |> List.sort (fun a b -> compare unsat_counts.(b) unsat_counts.(a))
        |> List.filteri (fun rank _ -> rank < 2)
        |> List.map (fun i ->
               Printf.sprintf "constraint #%d rejected %d draws" i
                 unsat_counts.(i))
        |> String.concat ", "
    in
    (* One satisfying vector with the SLM's result on it, or [None] when
       the widening search is exhausted.  Round [r] gets a doubled
       attempt budget; from round 1 on, every other candidate is a
       bit-flip mutation of the best (most-constraints-satisfied)
       candidate seen so far.  Accepted vectors always satisfy every
       constraint. *)
    let draw () =
      let best = ref None in
      let rec round r =
        if r >= max_rounds then None
        else begin
          let budget = 200 * (1 lsl r) in
          let rec attempt i =
            if i >= budget then round (r + 1)
            else begin
              incr total_attempts;
              let params =
                match !best with
                | Some (_, b) when r > 0 && i land 1 = 1 -> mutate b
                | _ -> fresh ()
              in
              let sc = score params in
              (match !best with
              | Some (bs, _) when bs >= sc -> ()
              | _ -> best := Some (sc, params));
              if sc = nconstraints then
                (* Vectors on which the SLM itself faults (e.g. division
                   by zero) are outside the comparison domain; redraw. *)
                match Exec.run slm_exec (List.map snd params) with
                | slm_result -> Some (params, slm_result)
                | exception Interp.Runtime_error _ -> attempt (i + 1)
              else attempt (i + 1)
            end
          in
          attempt 0
        end
      in
      round 0
    in
    let rec loop i =
      if i >= vectors then Ok (Sim_clean { vectors })
      else
        match draw () with
        | None ->
          Error
            (Dfv_error.Stimulus_exhausted
               {
                 attempts = !total_attempts;
                 rounds = max_rounds;
                 detail = tightest ();
               })
        | Some (params, slm_result) -> (
          sample_stimulus cov_points params;
          match run_transaction pair (Lazy.force sim) params slm_result with
          | [] -> loop (i + 1)
          | failed_checks ->
            Trace.instant ~cat:"flow"
              ~args:
                [ ("design", Dfv_obs.Json.String pair.Pair.name);
                  ("transaction", Dfv_obs.Json.Int i) ]
              "flow.sim_mismatch";
            Ok (Sim_mismatch { vector_index = i; params; failed_checks }))
    in
    loop 0
  in
  Trace.with_span ~cat:"flow"
    ~args:[ ("design", Dfv_obs.Json.String pair.Pair.name) ]
    "flow.simulate" (fun () ->
      match Dfv_error.guard body with Ok r -> r | Error e -> Error e)

let sec ?budget ?session (pair : Pair.t) =
  Checker.check_slm_rtl ?budget ?session ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl
    ~spec:pair.Pair.spec ()

type verify_outcome =
  | Proved of Checker.stats
  | Refuted of Checker.cex * Checker.stats
  | Undecided of Dfv_sat.Solver.reason * Checker.stats
  | Simulated of sim_outcome
  | Errored of Dfv_error.t

type report = { audit : Pair.audit; outcome : verify_outcome }

let verify ?seed ?(sim_vectors = 1000) ?engine ?budget ?session pair =
  Trace.with_span ~cat:"flow"
    ~args:[ ("design", Dfv_obs.Json.String pair.Pair.name) ]
    "flow.verify"
  @@ fun () ->
  let audit = Pair.audit pair in
  let outcome =
    if audit.Pair.sec_ready then begin
      match Dfv_error.guard (fun () -> sec ?budget ?session pair) with
      | Ok (Checker.Equivalent stats) -> Proved stats
      | Ok (Checker.Not_equivalent (cex, stats)) -> Refuted (cex, stats)
      | Ok (Checker.Unknown (reason, stats)) -> Undecided (reason, stats)
      | Error e -> Errored e
    end
    else
      match simulate ?seed ?engine ~vectors:sim_vectors pair with
      | Ok s -> Simulated s
      | Error e -> Errored e
  in
  { audit; outcome }

let pp_value fmt = function
  | Interp.Vint bv -> Bitvec.pp fmt bv
  | Interp.Varr a ->
    Format.fprintf fmt "[%s]"
      (String.concat "; " (Array.to_list (Array.map Bitvec.to_string a)))

let pp_report fmt r =
  let open Format in
  Pair.pp_audit fmt r.audit;
  match r.outcome with
  | Proved stats ->
    fprintf fmt "verdict: EQUIVALENT (proved; %d AIG nodes, %d conflicts, %.3fs)@."
      stats.Checker.aig_ands stats.Checker.sat_conflicts
      stats.Checker.wall_seconds
  | Refuted (cex, stats) ->
    fprintf fmt "verdict: NOT EQUIVALENT (%.3fs)@." stats.Checker.wall_seconds;
    List.iter
      (fun (n, v) -> fprintf fmt "  %s = %a@." n pp_value v)
      cex.Checker.params
  | Undecided (reason, stats) ->
    fprintf fmt "verdict: UNKNOWN (%s after %d conflicts, %.3fs)@."
      (match reason with
      | Dfv_sat.Solver.Conflict_limit -> "conflict budget exhausted"
      | Dfv_sat.Solver.Time_limit -> "time budget exhausted")
      stats.Checker.sat_conflicts stats.Checker.wall_seconds
  | Simulated (Sim_clean { vectors }) ->
    fprintf fmt "verdict: SIMULATION CLEAN (%d transactions; no proof)@." vectors
  | Simulated (Sim_mismatch { vector_index; params; failed_checks }) ->
    fprintf fmt "verdict: SIMULATION MISMATCH at transaction %d@." vector_index;
    List.iter (fun (n, v) -> fprintf fmt "  %s = %a@." n pp_value v) params;
    List.iter
      (fun ((c : Spec.check), e, got) ->
        fprintf fmt "  %s@%d: expected %a, got %a@." c.Spec.rtl_port
          c.Spec.at_cycle Bitvec.pp e Bitvec.pp got)
      failed_checks
  | Errored e -> fprintf fmt "verdict: ERROR (%a)@." Dfv_error.pp e

(* --- mismatch triage -------------------------------------------------- *)

let stimulus_strings params =
  List.map
    (fun (n, v) ->
      ( n,
        match v with
        | Interp.Vint bv -> Bitvec.to_string bv
        | Interp.Varr a ->
          "["
          ^ String.concat "; " (Array.to_list (Array.map Bitvec.to_string a))
          ^ "]" ))
    params

(* Re-simulate the failing transaction, dumping waves only inside the
   [lo..hi] cycle window — the VCD slice attached to a triage bundle. *)
let vcd_slice (pair : Pair.t) params ~window:(lo, hi) =
  let spec = pair.Pair.spec in
  let sim = Sim.create pair.Pair.rtl in
  let buf = Buffer.create 1024 in
  let vcd = Vcd.create buf pair.Pair.rtl sim in
  for t = 0 to spec.Spec.rtl_cycles - 1 do
    ignore (Sim.cycle sim (Spec.inputs_at spec params t));
    if t >= lo && t <= hi then Vcd.sample vcd
  done;
  Buffer.contents buf

let triage_window (pair : Pair.t) failures =
  let fail_cycle =
    List.fold_left
      (fun acc f -> min acc f.Triage.f_cycle)
      max_int failures
  in
  let fail_cycle = if fail_cycle = max_int then 0 else fail_cycle in
  ( max 0 (fail_cycle - 4),
    min (pair.Pair.spec.Spec.rtl_cycles - 1) (fail_cycle + 4) )

let triage_bundle (pair : Pair.t) ~kind ?txn_index params failures =
  let window = triage_window pair failures in
  let vcd =
    match vcd_slice pair params ~window with
    | v -> Some v
    | exception _ -> None
  in
  Triage.make ~design:pair.Pair.name ~kind ?txn_index
    ~stimulus:(stimulus_strings params)
    ~failures ?vcd ~vcd_window:window ()

let expected_of_slm slm_result (c : Spec.check) =
  match (c.Spec.expect, slm_result) with
  | Spec.Result, Some (Interp.Vint bv) -> Some (Bitvec.to_string bv)
  | Spec.Result_elem i, Some (Interp.Varr a) when i >= 0 && i < Array.length a
    ->
    Some (Bitvec.to_string a.(i))
  | _ -> None

let triage_of_report (pair : Pair.t) (r : report) =
  match r.outcome with
  | Proved _ | Undecided _ | Simulated (Sim_clean _) | Errored _ -> None
  | Refuted (cex, _) ->
    let failures =
      List.map
        (fun ((c : Spec.check), got) ->
          {
            Triage.f_port = c.Spec.rtl_port;
            f_cycle = c.Spec.at_cycle;
            f_expected = expected_of_slm cex.Checker.slm_result c;
            f_got = Bitvec.to_string got;
          })
        cex.Checker.failed_checks
    in
    Some
      (triage_bundle pair ~kind:"sec-counterexample" cex.Checker.params
         failures)
  | Simulated (Sim_mismatch { vector_index; params; failed_checks }) ->
    let failures =
      List.map
        (fun ((c : Spec.check), e, got) ->
          {
            Triage.f_port = c.Spec.rtl_port;
            f_cycle = c.Spec.at_cycle;
            f_expected = Some (Bitvec.to_string e);
            f_got = Bitvec.to_string got;
          })
        failed_checks
    in
    Some
      (triage_bundle pair ~kind:"sim-miscompare" ~txn_index:vector_index
         params failures)
