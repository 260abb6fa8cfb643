(** The sequential equivalence checker.

    Two entry points:

    - {!check_slm_rtl}: the paper's headline flow — an SLM block (a
      conditioned HWIR program, statically elaborated to combinational
      logic) against an RTL block, under a transaction {!Spec.t}.  The
      RTL is unrolled [rtl_cycles] steps from its reset state, inputs
      are tied to the SLM's parameters per the spec, and a SAT query
      decides whether any constraint-satisfying input makes an observed
      output differ.

    - {!check_rtl_rtl}: RTL-vs-RTL sequential equivalence on a product
      machine — bounded model checking from reset with shared inputs,
      plus {!prove_rtl_rtl} for unbounded proofs by k-induction.

    Every entry point is a thin driver over {!Session}: pass [?session]
    to share one solving substrate (solver, AIG, CNF encoding, learnt
    clauses, unroll caches) across many calls, and [?budget] to bound
    each SAT query so no check can hang — a budgeted query that runs out
    returns the {!Unknown} / {!Rtl_unknown} verdict instead.

    All verdicts carry solver statistics so the experiments can report
    effort (time-to-counterexample, conflicts, graph sizes) and reuse
    (nodes re-encoded vs reused, cache hits). *)

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
(** Re-export of {!Session.stats}.  When a call supplied its own
    session the counters are cumulative over that session's lifetime;
    [wall_seconds] is always the reporting call's own elapsed time. *)

type cex = {
  params : (string * Dfv_hwir.Interp.value) list;
      (** SLM argument values that exhibit the divergence. *)
  slm_result : Dfv_hwir.Interp.value option;
      (** The SLM's output on those arguments ([None] if the interpreter
          rejected them, e.g. division by zero). *)
  failed_checks : (Spec.check * Dfv_bitvec.Bitvec.t) list;
      (** Which observations differ, with the RTL's value (from
          re-simulation of the counterexample). *)
}

type verdict =
  | Equivalent of stats
  | Not_equivalent of cex * stats
  | Unknown of Dfv_sat.Solver.reason * stats
      (** The budget ran out before the query was decided. *)

exception Spec_error of string
(** A malformed specification, with the message {!Spec.validate} (or
    {!Spec.validate_constraints}) gives; also raised on RTL pairs whose
    ports differ and on a bound or depth below 1. *)

val cex_of_params :
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Spec.t ->
  (string * Dfv_hwir.Interp.value) list ->
  cex
(** Rebuild a full {!cex} from the SLM argument assignment alone: re-run
    the SLM interpreter for [slm_result] and re-simulate the RTL on the
    concrete stimulus ({!Spec.replay}, {!Spec.failed_checks}) for
    [failed_checks].  The assignment determines the counterexample
    completely, so a portfolio journal, a serve cache entry or a client
    response (see {!Dfv_par.Portfolio}) carries just the parameter
    bitvectors and the reader reconstructs the rest here.  Raises
    {!Spec_error} when {!Spec.validate} rejects [spec]. *)

type memo
(** A query memo: each distinct SEC query decided once, its answer
    shared by every later {!check_slm_rtl} call that poses the same
    query.  A fault campaign holds one, shared by its worker domains;
    it is safe to use from several domains at once. *)

val memo : unit -> memo
(** An empty memo. *)

val check_slm_rtl :
  ?sweep:bool ->
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Session.t ->
  ?memo:memo ->
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Spec.t ->
  unit ->
  verdict
(** Run one SLM-vs-RTL transaction equivalence query.  The SLM program
    must typecheck and be conditioned (statically elaborable); the
    checker raises {!Dfv_hwir.Elab.Not_synthesizable} otherwise — the
    tool-flow consequence of violating the Section 4.3 guidelines.  The
    spec must pass {!Spec.validate}, checked before anything is
    elaborated; {!Spec_error} carries its message otherwise.

    Solving is a portfolio: a bounded direct attempt first, then SAT
    sweeping ({!Dfv_aig.Sweep}) plus a query under whatever budget
    remains; [sweep:false] disables the sweeping fallback (for ablation
    measurements), making the direct attempt use the full budget.

    [session] shares the solving substrate with other calls (per-block
    checks of one design reuse its encoding); the default is a private
    one.  [budget] bounds each SAT query, defaulting to the session's
    budget; when it runs out the verdict is {!Unknown}.

    [memo] decides each distinct query once.  It applies only on a
    private session under a budget without [max_seconds]; then the
    search is a pure function of its input, and the memo's key is
    exactly that input: every node of the session graph in id order
    (the sweep reads them all), the constraint and miter literals in
    encoding order, the parameter words the counterexample is decoded
    from, the budget ({!Dfv_sat.Solver.budget_key}) and [sweep].  Keys
    match byte for byte, so a hit answers what a fresh solve would
    have: the outcome and, for a counterexample, the decoded
    parameters (fresh values per call).  The counterexample's
    [slm_result] and [failed_checks] are still rebuilt on this call's
    [slm] and [rtl].  A hit solves nothing: it adds one to the
    [sec.memo_hits] counter and records a [sec.memo_hit] instant inside
    this call's [sec.check_slm_rtl] span, its stats show no query, and
    [sat.*] and [sec.queries] count only real solves.  Each key is
    decided exactly once per memo, whatever the number of domains:
    the first caller claims it and later callers block until the
    answer lands, polling their {!Dfv_sat.Stop} token when woken.  A
    claimer that raises ({!Dfv_sat.Stop.Stopped} included) withdraws
    its claim, and a waiter decides the key instead. *)

val check_slm_slm :
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Session.t ->
  a:Dfv_hwir.Ast.program ->
  b:Dfv_hwir.Ast.program ->
  ?constraints:Dfv_hwir.Ast.expr list ->
  unit ->
  verdict
(** Equivalence of two SLM blocks with identical entry signatures —
    the cross-abstraction consistency check (e.g. an IEEE-faithful float
    model against its corner-cutting twin, experiment C5).  Both are
    statically elaborated over one shared set of inputs; [constraints]
    restrict the input space as in {!check_slm_rtl}.  The returned
    counterexample's [slm_result] is model [a]'s output; [failed_checks]
    is empty (there is no RTL to re-simulate) — interpret both models on
    [params] to see the divergence. *)

type rtl_cex = {
  inputs_per_cycle : (string * Dfv_bitvec.Bitvec.t) list array;
  diverging_cycle : int;
  diverging_port : string;
  value_a : Dfv_bitvec.Bitvec.t;
  value_b : Dfv_bitvec.Bitvec.t;
}

type rtl_verdict =
  | Rtl_equivalent_to_bound of int * stats
      (** No divergence within the bound (bounded claim only). *)
  | Rtl_proved of int * stats
      (** Proved equivalent for all time by k-induction at depth k. *)
  | Rtl_not_equivalent of rtl_cex * stats
  | Rtl_unknown of Dfv_sat.Solver.reason * stats
      (** The budget ran out before some frame was decided. *)

val check_rtl_rtl :
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Session.t ->
  a:Dfv_rtl.Netlist.elaborated ->
  b:Dfv_rtl.Netlist.elaborated ->
  bound:int ->
  unit ->
  rtl_verdict
(** BMC on the product machine: both designs start at reset, share input
    values by port name (the designs must have identical input and
    output port lists), and every common output is compared at every
    cycle up to [bound].  Frames are unrolled and solved one at a time —
    a shared [session] caches the product machine, so a later call at a
    deeper bound extends the earlier encoding (and re-verifies already
    blocked frames by unit propagation) instead of starting over. *)

val prove_rtl_rtl :
  ?budget:Dfv_sat.Solver.budget ->
  a:Dfv_rtl.Netlist.elaborated ->
  b:Dfv_rtl.Netlist.elaborated ->
  k:int ->
  unit ->
  rtl_verdict
(** k-induction: base case = BMC to depth [k]; inductive step = from an
    arbitrary pair of states, [k] cycles of output agreement imply
    agreement at cycle [k+1].  Returns [Rtl_proved] on success,
    [Rtl_not_equivalent] on a real (reset-reachable) divergence, and
    [Rtl_equivalent_to_bound] when the induction step fails (the bounded
    claim still holds).  The induction step always runs in a private
    session (its hypothesis clauses are not theorems, so they must not
    leak into a shared one). *)
