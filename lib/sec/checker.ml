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

(* Words for the spec's sources, expected results and constraints.
   [Spec.validate] has already ruled on every shape and width, so these
   only build. *)
let word = function
  | Elab.Word w -> w
  | Elab.Bank _ -> invalid_arg "Checker: spec not validated"

let bank = function
  | Elab.Bank b -> b
  | Elab.Word _ -> invalid_arg "Checker: spec not validated"

let source_word param_shapes (src : Spec.source) =
  match src with
  | Spec.Const bv -> Word.const bv
  | Spec.Param name -> word (List.assoc name param_shapes)
  | Spec.Param_elem (name, i) -> (bank (List.assoc name param_shapes)).(i)
  | Spec.Param_bits { name; hi; lo } ->
    Word.select (word (List.assoc name param_shapes)) ~hi ~lo

let expected_word result (c : Spec.check) =
  match c.expect with
  | Spec.Result -> word result
  | Spec.Result_elem i -> (bank result).(i)

let constraint_words slm ~g param_shapes constraints =
  let args = List.map snd param_shapes in
  List.mapi
    (fun i expr ->
      (word (Elab.apply (Spec.constraint_program slm i expr) ~g args)).(0))
    constraints

let validated result = Result.iter_error (fun m -> raise (Spec_error m)) result

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

(* --- the query memo ----------------------------------------------------

   On a private session under a budget with no time bound,
   [decide_miter] is a pure function of the whole session graph, the
   literals it encodes and decodes, the budget and the sweep flag: the
   solver starts empty and the sweep is deterministic.  [query_key] is
   exactly those bytes, so an answer stored under a key is the answer a
   fresh solve of that key would give.  The whole graph, not the
   miter's cone, because the sweep walks every node and seeds its
   simulation with their count. *)
let query_key ~sweep ~budget g param_shapes violated cstrs =
  let words =
    List.concat_map
      (fun (_, shape) ->
        match shape with
        | Elab.Word w -> [ w ]
        | Elab.Bank b -> Array.to_list b)
      param_shapes
  in
  let shape (name, s) =
    match s with
    | Elab.Word _ -> name
    | Elab.Bank b -> Printf.sprintf "%s[%d]" name (Array.length b)
  in
  String.concat "|"
    [ string_of_bool sweep;
      Solver.budget_key (Some budget);
      String.concat "," (List.map shape param_shapes);
      Aig.key g (Array.of_list cstrs :: [| violated |] :: words) ]

type answer = Solver.outcome * (string * Interp.value) list option

(* A key maps to [None] while its claimer decides it. *)
type memo = {
  lock : Mutex.t;
  landed : Condition.t;
  answers : (string, answer option) Hashtbl.t;
}

let memo () =
  {
    lock = Mutex.create ();
    landed = Condition.create ();
    answers = Hashtbl.create 64;
  }

let m_memo_hits = Dfv_obs.Metrics.counter "sec.memo_hits"

(* Every reader gets its own arrays: a job may keep, and mutate, the
   parameter values it was handed. *)
let fresh_params =
  Option.map
    (List.map (fun (name, v) ->
         match v with
         | Interp.Varr a -> (name, Interp.Varr (Array.copy a))
         | Interp.Vint _ -> (name, v)))

(* Decide [key] once per memo.  The first caller claims it; a caller
   that meets a claim blocks until the answer lands, polling its stop
   token whenever it wakes.  A claimer that raises (stopped, out of
   stack, anything) withdraws its claim and wakes the waiters, and the
   first of them to run claims the key under its own token.  A hit
   reports the caller's [session], which solved nothing. *)
let memoized memo key ~session decide =
  let rec claim () =
    let found =
      Mutex.protect memo.lock (fun () ->
          match Hashtbl.find_opt memo.answers key with
          | Some None ->
            Condition.wait memo.landed memo.lock;
            `Woken
          | Some (Some answer) -> `Hit answer
          | None ->
            Hashtbl.replace memo.answers key None;
            `Claimed)
    in
    match found with
    | `Woken ->
      Dfv_sat.Stop.poll ();
      claim ()
    | (`Hit _ | `Claimed) as r -> r
  in
  let settle answer =
    Mutex.protect memo.lock (fun () ->
        (match answer with
        | Some a -> Hashtbl.replace memo.answers key (Some a)
        | None -> Hashtbl.remove memo.answers key);
        Condition.broadcast memo.landed)
  in
  match claim () with
  | `Hit (outcome, params) ->
    Dfv_obs.Metrics.incr m_memo_hits;
    Dfv_obs.Trace.instant ~cat:"sec" "sec.memo_hit";
    (outcome, fresh_params params, session)
  | `Claimed ->
    let landed = ref false in
    Fun.protect
      ~finally:(fun () -> if not !landed then settle None)
      (fun () ->
        let ((outcome, params, _) as decided) = decide () in
        settle (Some (outcome, fresh_params params));
        landed := true;
        decided)

(* Rebuild a full counterexample from the SLM argument assignment alone:
   re-run the SLM interpreter for the expected result and re-simulate
   the RTL on the concrete stimulus for the actual diverging values.
   The assignment fully determines the cex, which lets a journal
   record, a serve cache entry or a client response carry only
   [params] (plain bitvectors) and the reader reconstruct the rest
   here. *)
let rebuild_cex ~slm ~rtl ~spec params =
  let slm_result =
    match Interp.run slm (List.map snd params) with
    | v -> Some v
    | exception Interp.Runtime_error _ -> None
  in
  let outputs = Spec.replay (Sim.create rtl) spec params in
  let failed_checks =
    List.map
      (fun (c, _, got) -> (c, got))
      (Spec.failed_checks spec outputs slm_result)
  in
  { params; slm_result; failed_checks }

let cex_of_params ~slm ~rtl ~spec params =
  validated (Spec.validate ~slm ~rtl spec);
  rebuild_cex ~slm ~rtl ~spec params

let check_slm_rtl ?(sweep = true) ?budget ?session ?memo ~slm ~rtl
    ~(spec : Spec.t) () =
  let t0 = now () in
  Typecheck.check slm;
  validated (Spec.validate ~slm ~rtl spec);
  let private_session = session = None in
  let session = get_session budget session in
  let budget = effective_budget budget session in
  let g = Session.graph session in
  let param_shapes, result = Elab.elaborate slm ~g in
  let input_words t =
    List.map
      (fun (port, drive) ->
        (port, source_word param_shapes (Spec.source_at drive t)))
      spec.drives
  in
  let outs =
    Session.unroll_from_reset session rtl ~cycles:spec.rtl_cycles ~input_words
  in
  let violated =
    Aig.or_list g
      (List.map
         (fun (c : Spec.check) ->
           Word.ne g
             (List.assoc c.rtl_port outs.(c.at_cycle))
             (expected_word result c))
         spec.checks)
  in
  let cstrs = constraint_words slm ~g param_shapes spec.constraints in
  let decide () =
    decide_miter ~sweep ~budget session param_shapes violated cstrs
  in
  let outcome, params, dsession =
    match memo with
    | Some memo when private_session && budget.Solver.max_seconds = None ->
      memoized memo ~session
        (query_key ~sweep ~budget g param_shapes violated cstrs)
        decide
    | Some _ | None -> decide ()
  in
  match (outcome, params) with
  | Solver.Unsat, _ -> Equivalent (stats_of dsession t0)
  | Solver.Unknown r, _ -> Unknown (r, stats_of dsession t0)
  | Solver.Sat, None -> assert false
  | Solver.Sat, Some params ->
    Not_equivalent (rebuild_cex ~slm ~rtl ~spec params, stats_of dsession t0)

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
  validated (Spec.validate_constraints ~slm:a constraints);
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

let check_slm_rtl ?sweep ?budget ?session ?memo ~slm ~rtl ~spec () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_slm_rtl" (fun () ->
      check_slm_rtl ?sweep ?budget ?session ?memo ~slm ~rtl ~spec ())

let check_slm_slm ?budget ?session ~a ~b ?constraints () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_slm_slm" (fun () ->
      check_slm_slm ?budget ?session ~a ~b ?constraints ())

let check_rtl_rtl ?budget ?session ~a ~b ~bound () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.check_rtl_rtl" (fun () ->
      check_rtl_rtl ?budget ?session ~a ~b ~bound ())

let prove_rtl_rtl ?budget ~a ~b ~k () =
  Dfv_obs.Trace.with_span ~cat:"sec" "sec.prove_rtl_rtl" (fun () ->
      prove_rtl_rtl ?budget ~a ~b ~k ())
