module Bitvec = Dfv_bitvec.Bitvec
module Aig = Dfv_aig.Aig
module Word = Dfv_aig.Word
module Netlist = Dfv_rtl.Netlist
module Sim = Dfv_rtl.Sim
module Ast = Dfv_hwir.Ast
module Elab = Dfv_hwir.Elab
module Interp = Dfv_hwir.Interp
module Typecheck = Dfv_hwir.Typecheck
module Solver = Dfv_sat.Solver

type stats = Session.stats = {
  aig_ands : int;
  sat_conflicts : int;
  sat_decisions : int;
  sat_propagations : int;
  sat_clauses : int;
  learnts_removed : int;
  nodes_encoded : int;
  nodes_reused : int;
  unroll_hits : int;
  queries : int;
  unknowns : int;
  frame_seconds : float list;
  wall_seconds : float;
}

type cex = {
  params : (string * Interp.value) list;
  slm_result : Interp.value option;
  failed_checks : (Spec.check * Bitvec.t) list;
}

type verdict =
  | Equivalent of stats
  | Not_equivalent of cex * stats
  | Unknown of Solver.reason * stats

exception Spec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Spec_error m)) fmt

let now () = Unix.gettimeofday ()

(* Scope a session's cumulative stats to one checker call: the counters
   describe the whole session (that is the point of sharing one), but the
   wall clock reported for a verdict is this call's. *)
let stats_of session t0 =
  { (Session.stats session) with wall_seconds = now () -. t0 }

(* Checker calls on a caller-supplied session use the session's budget
   unless the call overrides it. *)
let effective_budget budget session =
  match budget with Some b -> b | None -> Session.budget session

let get_session budget session =
  match session with Some s -> s | None -> Session.create ?budget ()

(* --- SLM vs RTL ------------------------------------------------------- *)

let source_word ~param_shapes ~port ~width (src : Spec.source) : Word.w =
  match src with
  | Spec.Const bv ->
    if Bitvec.width bv <> width then
      fail "constant for port %s has width %d, port is %d" port
        (Bitvec.width bv) width;
    Word.const bv
  | Spec.Param name -> (
    match List.assoc_opt name param_shapes with
    | Some (Elab.Word w) ->
      if Array.length w <> width then
        fail "parameter %s has width %d, port %s is %d" name (Array.length w)
          port width;
      w
    | Some (Elab.Bank _) -> fail "parameter %s is an array (use Param_elem)" name
    | None -> fail "unknown SLM parameter %s" name)
  | Spec.Param_elem (name, i) -> (
    match List.assoc_opt name param_shapes with
    | Some (Elab.Bank bank) ->
      if i < 0 || i >= Array.length bank then
        fail "element %d out of range for parameter %s" i name;
      if Array.length bank.(i) <> width then
        fail "elements of %s have width %d, port %s is %d" name
          (Array.length bank.(i)) port width;
      bank.(i)
    | Some (Elab.Word _) -> fail "parameter %s is a scalar (use Param)" name
    | None -> fail "unknown SLM parameter %s" name)
  | Spec.Param_bits { name; hi; lo } -> (
    match List.assoc_opt name param_shapes with
    | Some (Elab.Word w) ->
      if lo < 0 || hi < lo || hi >= Array.length w then
        fail "bits [%d:%d] out of range for parameter %s" hi lo name;
      if hi - lo + 1 <> width then
        fail "bits [%d:%d] of %s have width %d, port %s is %d" hi lo name
          (hi - lo + 1) port width;
      Word.select w ~hi ~lo
    | Some (Elab.Bank _) -> fail "parameter %s is an array" name
    | None -> fail "unknown SLM parameter %s" name)

let constraint_words slm ~g param_shapes constraints =
  List.mapi
    (fun i expr ->
      let fn =
        match Ast.find_func slm slm.Ast.entry with
        | Some f -> f
        | None -> fail "SLM entry %s not found" slm.Ast.entry
      in
      let cname = Printf.sprintf "__constraint_%d" i in
      let wrapper =
        {
          Ast.funcs =
            slm.Ast.funcs
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
      (match Typecheck.check wrapper with
      | () -> ()
      | exception Typecheck.Type_error m -> fail "constraint %d: %s" i m);
      match Elab.apply wrapper ~g (List.map snd param_shapes) with
      | Elab.Word w when Array.length w = 1 -> w.(0)
      | Elab.Word _ | Elab.Bank _ -> fail "constraint %d is not boolean" i)
    constraints


(* Deciding the miter.

   Portfolio: first attempt the query directly with a bounded conflict
   budget — cheap miters (and most refutable ones) finish immediately.
   If the budget runs out, SAT-sweep the graph (merging internally
   equivalent nodes so structural differences between the two sides
   collapse locally) and re-solve in a throwaway session on the swept
   graph, under whatever budget remains.  [sweep:false] disables the
   fallback, for ablation measurements.

   The query's side constraints are guarded by an activation literal so
   they evaporate from the session afterwards; the model (if any) is
   decoded into SLM parameter values before the literal is retired,
   since retiring invalidates the model. *)
let direct_budget = 5_000

let decide_miter ~sweep ~budget session param_shapes violated cstrs =
  let decode_params sn ps =
    List.map
      (fun (name, shape) ->
        let v =
          match shape with
          | Elab.Word w -> Interp.Vint (Session.model_word sn w)
          | Elab.Bank bank ->
            Interp.Varr (Array.map (Session.model_word sn) bank)
        in
        (name, v))
      ps
  in
  let run sn b ps v cs =
    let act = Session.activation sn in
    List.iter (Session.guard sn act) cs;
    let outcome = Session.check ~assumptions:[ act ] ~budget:b sn v in
    let params =
      match outcome with
      | Solver.Sat -> Some (decode_params sn ps)
      | Solver.Unsat | Solver.Unknown _ -> None
    in
    Session.retire sn act;
    (outcome, params)
  in
  let deadline =
    match budget.Solver.max_seconds with
    | None -> None
    | Some s -> Some (now () +. s)
  in
  let first_budget =
    if not sweep then budget
    else
      {
        budget with
        Solver.max_conflicts =
          Some
            (match budget.Solver.max_conflicts with
            | Some n -> min n direct_budget
            | None -> direct_budget);
      }
  in
  match run session first_budget param_shapes violated cstrs with
  | (Solver.Unknown r, _) when sweep ->
    (* Retry on the swept graph only with budget left to spend. *)
    let retry_budget =
      let conflicts_left =
        match (r, budget.Solver.max_conflicts) with
        | Solver.Conflict_limit, Some n -> n > direct_budget
        | (Solver.Conflict_limit | Solver.Time_limit), _ -> true
      in
      if not conflicts_left then None
      else begin
        match deadline with
        | None -> Some budget
        | Some d ->
          let left = d -. now () in
          if left <= 0. then None
          else Some { budget with Solver.max_seconds = Some left }
      end
    in
    (match retry_budget with
    | None -> (Solver.Unknown r, None, session)
    | Some b2 ->
      let g2, tr = Dfv_aig.Sweep.fraig (Session.graph session) in
      let tr_shape = function
        | Elab.Word w -> Elab.Word (Array.map tr w)
        | Elab.Bank b -> Elab.Bank (Array.map (Array.map tr) b)
      in
      let ps2 = List.map (fun (n, sh) -> (n, tr_shape sh)) param_shapes in
      let sn2 = Session.create ~graph:g2 ~budget:b2 () in
      let outcome, params = run sn2 b2 ps2 (tr violated) (List.map tr cstrs) in
      (outcome, params, sn2))
  | outcome, params -> (outcome, params, session)

(* Rebuild a full counterexample from the SLM argument assignment alone:
   re-run the SLM interpreter for the expected result and re-simulate
   the RTL on the concrete stimulus for the actual diverging values.
   The assignment fully determines the cex, which lets a portfolio
   worker ship only [params] (plain bitvectors) over its result pipe
   and the parent reconstruct the rest here. *)
let cex_of_params ~slm ~rtl ~(spec : Spec.t) params =
  List.iter
    (fun (p, _) ->
      let named q = q.Netlist.port_name = p in
      if not (List.exists named rtl.Netlist.e_inputs) then
        fail "no RTL input port named %s" p)
    spec.drives;
  let slm_result =
    match Interp.run slm (List.map snd params) with
    | v -> Some v
    | exception Interp.Runtime_error _ -> None
  in
  (* Re-simulate the RTL on the concrete stimulus to report the actual
     diverging values. *)
  let sim = Sim.create rtl in
  let rtl_outputs = Array.make spec.rtl_cycles [] in
  for t = 0 to spec.rtl_cycles - 1 do
    rtl_outputs.(t) <- Sim.cycle sim (Spec.inputs_at spec params t)
  done;
  let expected_value (c : Spec.check) =
    match (c.expect, slm_result) with
    | Spec.Result, Some (Interp.Vint bv) -> Some bv
    | Spec.Result_elem i, Some (Interp.Varr a) -> Some a.(i)
    | _, _ -> None
  in
  let failed_checks =
    List.filter_map
      (fun (c : Spec.check) ->
        let rtl_v = List.assoc c.rtl_port rtl_outputs.(c.at_cycle) in
        match expected_value c with
        | Some e when Bitvec.equal e rtl_v -> None
        | Some _ | None -> Some (c, rtl_v))
      spec.checks
  in
  { params; slm_result; failed_checks }

let check_slm_rtl ?(sweep = true) ?budget ?session ~slm ~rtl ~(spec : Spec.t)
    () =
  let t0 = now () in
  Typecheck.check slm;
  if spec.rtl_cycles < 1 then fail "rtl_cycles must be >= 1";
  let session = get_session budget session in
  let budget = effective_budget budget session in
  let g = Session.graph session in
  let param_shapes, result = Elab.elaborate slm ~g in
  (* Validate the drive list covers the RTL inputs exactly. *)
  let port_width p =
    match
      List.find_opt (fun q -> q.Netlist.port_name = p) rtl.Netlist.e_inputs
    with
    | Some q -> q.Netlist.port_width
    | None -> fail "no RTL input port named %s" p
  in
  List.iter
    (fun p ->
      match List.assoc_opt p.Netlist.port_name spec.drives with
      | Some _ -> ()
      | None -> fail "RTL input %s is not driven by the spec" p.Netlist.port_name)
    rtl.Netlist.e_inputs;
  List.iter (fun (p, _) -> ignore (port_width p)) spec.drives;
  let input_words t =
    List.map
      (fun (port, drive) ->
        let width = port_width port in
        let src =
          match drive with
          | Spec.Hold bv -> Spec.Const bv
          | Spec.At f -> f t
        in
        (port, source_word ~param_shapes ~port ~width src))
      spec.drives
  in
  let outs =
    try
      Session.unroll_from_reset session rtl ~cycles:spec.rtl_cycles
        ~input_words
    with Session.Error m -> raise (Spec_error m)
  in
  (* Expected words from the SLM result. *)
  let expected_word (c : Spec.check) width =
    match (c.expect, result) with
    | Spec.Result, Elab.Word w ->
      if Array.length w <> width then
        fail "SLM result has width %d, RTL port %s is %d" (Array.length w)
          c.rtl_port width;
      w
    | Spec.Result_elem i, Elab.Bank bank ->
      if i < 0 || i >= Array.length bank then
        fail "result element %d out of range" i;
      if Array.length bank.(i) <> width then
        fail "SLM result elements have width %d, RTL port %s is %d"
          (Array.length bank.(i)) c.rtl_port width;
      bank.(i)
    | Spec.Result, Elab.Bank _ ->
      fail "SLM result is an array (use Result_elem)"
    | Spec.Result_elem _, Elab.Word _ ->
      fail "SLM result is a scalar (use Result)"
  in
  if spec.checks = [] then fail "spec has no output checks";
  let diffs =
    List.map
      (fun (c : Spec.check) ->
        if c.at_cycle < 0 || c.at_cycle >= spec.rtl_cycles then
          fail "check on %s at cycle %d outside transaction of %d cycles"
            c.rtl_port c.at_cycle spec.rtl_cycles;
        match List.assoc_opt c.rtl_port outs.(c.at_cycle) with
        | None -> fail "no RTL output port named %s" c.rtl_port
        | Some w -> Word.ne g w (expected_word c (Array.length w)))
      spec.checks
  in
  let violated = Aig.or_list g diffs in
  let cstrs = constraint_words slm ~g param_shapes spec.constraints in
  let outcome, params, dsession =
    decide_miter ~sweep ~budget session param_shapes violated cstrs
  in
  match (outcome, params) with
  | Solver.Unsat, _ -> Equivalent (stats_of dsession t0)
  | Solver.Unknown r, _ -> Unknown (r, stats_of dsession t0)
  | Solver.Sat, None -> assert false
  | Solver.Sat, Some params ->
    Not_equivalent (cex_of_params ~slm ~rtl ~spec params, stats_of dsession t0)

(* --- SLM vs SLM -------------------------------------------------------- *)

let check_slm_slm ?budget ?session ~a ~b ?(constraints = []) () =
  let t0 = now () in
  Typecheck.check a;
  Typecheck.check b;
  let sig_of (p : Ast.program) =
    match Ast.find_func p p.Ast.entry with
    | Some f -> (f.Ast.params, f.Ast.ret)
    | None -> fail "entry %s not found" p.Ast.entry
  in
  if sig_of a <> sig_of b then
    fail "entry signatures of the two SLMs differ";
  let session = get_session budget session in
  let budget = effective_budget budget session in
  let g = Session.graph session in
  let param_shapes, result_a = Elab.elaborate a ~g in
  let result_b = Elab.apply b ~g (List.map snd param_shapes) in
  let violated =
    match (result_a, result_b) with
    | Elab.Word wa, Elab.Word wb -> Word.ne g wa wb
    | Elab.Bank ba, Elab.Bank bb ->
      if Array.length ba <> Array.length bb then
        fail "result banks have different sizes";
      Aig.or_list g
        (Array.to_list (Array.map2 (fun wa wb -> Word.ne g wa wb) ba bb))
    | Elab.Word _, Elab.Bank _ | Elab.Bank _, Elab.Word _ ->
      fail "result shapes differ"
  in
  let cstrs = constraint_words a ~g param_shapes constraints in
  let outcome, params, dsession =
    decide_miter ~sweep:true ~budget session param_shapes violated cstrs
  in
  match (outcome, params) with
  | Solver.Unsat, _ -> Equivalent (stats_of dsession t0)
  | Solver.Unknown r, _ -> Unknown (r, stats_of dsession t0)
  | Solver.Sat, None -> assert false
  | Solver.Sat, Some params ->
    let slm_result =
      match Interp.run a (List.map snd params) with
      | v -> Some v
      | exception Interp.Runtime_error _ -> None
    in
    Not_equivalent
      ({ params; slm_result; failed_checks = [] }, stats_of dsession t0)

(* --- RTL vs RTL -------------------------------------------------------- *)

type rtl_cex = {
  inputs_per_cycle : (string * Bitvec.t) list array;
  diverging_cycle : int;
  diverging_port : string;
  value_a : Bitvec.t;
  value_b : Bitvec.t;
}

type rtl_verdict =
  | Rtl_equivalent_to_bound of int * stats
  | Rtl_proved of int * stats
  | Rtl_not_equivalent of rtl_cex * stats
  | Rtl_unknown of Solver.reason * stats

let check_port_compatibility (a : Netlist.elaborated) (b : Netlist.elaborated) =
  let sig_of d =
    List.sort compare
      (List.map (fun p -> (p.Netlist.port_name, p.Netlist.port_width)) d.Netlist.e_inputs)
  in
  if sig_of a <> sig_of b then
    fail "designs %s and %s have different input ports" a.Netlist.e_name
      b.Netlist.e_name;
  let outs d = List.sort compare (List.map fst d.Netlist.e_outputs) in
  if outs a <> outs b then
    fail "designs %s and %s have different output ports" a.Netlist.e_name
      b.Netlist.e_name

let find_divergence a b inputs_per_cycle =
  let sim_a = Sim.create a and sim_b = Sim.create b in
  let n = Array.length inputs_per_cycle in
  let rec go t =
    if t >= n then None
    else begin
      let outs_a = Sim.cycle sim_a inputs_per_cycle.(t) in
      let outs_b = Sim.cycle sim_b inputs_per_cycle.(t) in
      let diff =
        List.find_opt
          (fun (name, va) -> not (Bitvec.equal va (List.assoc name outs_b)))
          outs_a
      in
      match diff with
      | Some (name, va) -> Some (t, name, va, List.assoc name outs_b)
      | None -> go (t + 1)
    end
  in
  go 0

let rtl_cex_of_model session product ~a ~b ~cycles =
  let all = Session.frame_inputs product in
  let concrete =
    Array.map
      (fun inputs ->
        List.map (fun (n, w) -> (n, Session.model_word session w)) inputs)
      (Array.sub all 0 (min cycles (Array.length all)))
  in
  match find_divergence a b concrete with
  | Some (t, port, va, vb) ->
    {
      inputs_per_cycle = concrete;
      diverging_cycle = t;
      diverging_port = port;
      value_a = va;
      value_b = vb;
    }
  | None ->
    (* The model satisfied the miter symbolically, so simulation must
       reproduce it; not doing so is a checker bug. *)
    fail "internal: SAT model did not re-simulate to a divergence"

let check_rtl_rtl ?budget ?session ~a ~b ~bound () =
  let t0 = now () in
  if bound < 1 then fail "bound must be >= 1";
  check_port_compatibility a b;
  let session = get_session budget session in
  let budget = effective_budget budget session in
  let product =
    try
      Session.product session ~a ~b
        ~initial_a:(Session.reset_state a)
        ~initial_b:(Session.reset_state b)
    with Session.Error m -> raise (Spec_error m)
  in
  let miter t =
    try Session.frame_miter product t
    with Session.Error m -> raise (Spec_error m)
  in
  let rec frames t =
    if t >= bound then Rtl_equivalent_to_bound (bound, stats_of session t0)
    else begin
      let lit = miter t in
      match Session.check ~budget session lit with
      | Solver.Unknown r -> Rtl_unknown (r, stats_of session t0)
      | Solver.Unsat ->
        (* This frame can never diverge (given earlier frames were also
           checked); block it and move on.  The blocking clause is a
           theorem of the product encoding, so it is sound to keep even
           when the session is shared across calls. *)
        Session.block session lit;
        frames (t + 1)
      | Solver.Sat ->
        let cex = rtl_cex_of_model session product ~a ~b ~cycles:bound in
        Rtl_not_equivalent (cex, stats_of session t0)
    end
  in
  frames 0

let add_stats (b : stats) (s : stats) =
  {
    s with
    aig_ands = s.aig_ands + b.aig_ands;
    sat_conflicts = s.sat_conflicts + b.sat_conflicts;
    sat_decisions = s.sat_decisions + b.sat_decisions;
    sat_propagations = s.sat_propagations + b.sat_propagations;
    sat_clauses = s.sat_clauses + b.sat_clauses;
    learnts_removed = s.learnts_removed + b.learnts_removed;
    nodes_encoded = s.nodes_encoded + b.nodes_encoded;
    nodes_reused = s.nodes_reused + b.nodes_reused;
    unroll_hits = s.unroll_hits + b.unroll_hits;
    queries = s.queries + b.queries;
    unknowns = s.unknowns + b.unknowns;
    frame_seconds = b.frame_seconds @ s.frame_seconds;
  }

let prove_rtl_rtl ?budget ~a ~b ~k () =
  let t0 = now () in
  if k < 1 then fail "k must be >= 1";
  (* Base case. *)
  match check_rtl_rtl ?budget ~a ~b ~bound:k () with
  | (Rtl_not_equivalent _ | Rtl_unknown _) as v -> v
  | Rtl_proved _ -> assert false
  | Rtl_equivalent_to_bound (_, base_stats) -> (
    (* Inductive step: arbitrary initial states, k agreeing cycles imply
       agreement at cycle k (0-based: frames 0..k-1 agree => frame k
       agrees).  The induction hypotheses are not theorems of the
       product machine, so this step runs in its own session rather
       than a shared one. *)
    check_port_compatibility a b;
    let session = Session.create ?budget () in
    let budget = Session.budget session in
    let product =
      Session.product session ~a ~b
        ~initial_a:(Session.arbitrary_state session ~tag:"a" a)
        ~initial_b:(Session.arbitrary_state session ~tag:"b" b)
    in
    let miter t =
      try Session.frame_miter product t
      with Session.Error m -> raise (Spec_error m)
    in
    for t = 0 to k - 1 do
      Session.block session (miter t)
    done;
    match Session.check ~budget session (miter k) with
    | Solver.Unsat ->
      Rtl_proved (k, add_stats base_stats (stats_of session t0))
    | Solver.Sat ->
      (* Induction failed: only the bounded claim survives. *)
      Rtl_equivalent_to_bound (k, stats_of session t0)
    | Solver.Unknown r -> Rtl_unknown (r, stats_of session t0))

(* --- observability ---------------------------------------------------- *)

(* Span-wrapped shadows of the public entry points, so every checker call
   shows up as one "sec.*" span enclosing its per-frame [Session.check]
   spans. *)

let check_slm_rtl ?sweep ?budget ?session ~slm ~rtl ~spec () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_slm_rtl" (fun () ->
      check_slm_rtl ?sweep ?budget ?session ~slm ~rtl ~spec ())

let check_slm_slm ?budget ?session ~a ~b ?constraints () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_slm_slm" (fun () ->
      check_slm_slm ?budget ?session ~a ~b ?constraints ())

let check_rtl_rtl ?budget ?session ~a ~b ~bound () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_rtl_rtl" (fun () ->
      check_rtl_rtl ?budget ?session ~a ~b ~bound ())

let prove_rtl_rtl ?budget ~a ~b ~k () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.prove_rtl_rtl" (fun () ->
      prove_rtl_rtl ?budget ~a ~b ~k ())
