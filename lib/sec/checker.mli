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

val zero_stats : stats
(** All counters zero, no frame times: the unit of {!add_stats}. *)

val add_stats : stats -> stats -> stats
(** [add_stats a b] sums the counters of [a] and [b] and appends [b]'s
    frame times to [a]'s; [wall_seconds] is [b]'s. *)

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
(** Malformed specification: undriven RTL input, unknown port or
    parameter, width mismatch, out-of-range cycle, non-bool constraint. *)

val cex_of_params :
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Spec.t ->
  (string * Dfv_hwir.Interp.value) list ->
  cex
(** Rebuild a full {!cex} from the SLM argument assignment alone: re-run
    the SLM interpreter for [slm_result] and re-simulate the RTL on the
    concrete stimulus for [failed_checks].  The assignment determines
    the counterexample completely, so a worker process (see
    {!Dfv_par.Portfolio}) can ship just the parameter bitvectors over
    its result pipe and the parent reconstructs the rest here. *)

val check_slm_rtl :
  ?sweep:bool ->
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Session.t ->
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Spec.t ->
  unit ->
  verdict
(** Run one SLM-vs-RTL transaction equivalence query.  The SLM program
    must typecheck and be conditioned (statically elaborable); the
    checker raises {!Dfv_hwir.Elab.Not_synthesizable} otherwise — the
    tool-flow consequence of violating the Section 4.3 guidelines.

    Solving is a portfolio: a bounded direct attempt first, then SAT
    sweeping ({!Dfv_aig.Sweep}) plus a query under whatever budget
    remains; [sweep:false] disables the sweeping fallback (for ablation
    measurements), making the direct attempt use the full budget.

    [session] shares the solving substrate with other calls (per-block
    checks of one design reuse its encoding); the default is a private
    one.  [budget] bounds each SAT query, defaulting to the session's
    budget; when it runs out the verdict is {!Unknown}. *)

val check_slm_slm :
  ?sweep:bool ->
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

val rtl_cex_of_model :
  Session.t ->
  Session.product ->
  a:Dfv_rtl.Netlist.elaborated ->
  b:Dfv_rtl.Netlist.elaborated ->
  cycles:int ->
  rtl_cex
(** [rtl_cex_of_model session product ~a ~b ~cycles] turns the
    session's SAT model of a frame miter over [product] into a
    counterexample: the first [cycles] cycles of product inputs are read
    out of the model, and both designs are simulated from reset on them
    to the first cycle, output port and pair of values where they
    differ.  Raises {!Spec_error} if they do not diverge (a checker
    bug). *)

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
