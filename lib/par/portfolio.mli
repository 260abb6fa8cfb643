(** Portfolio SEC: equivalence checks raced across worker processes.

    Two parallelization shapes, both built on {!Pool.race}
    ({!check_slm_rtl} through {!Dpool.race_auto}):

    - {!check_slm_rtl} races {e solving strategies} — the same
      SLM-vs-RTL query attempted with and without the SAT-sweeping
      fallback — and takes the first conclusive verdict
      ([Equivalent]/[Not_equivalent]), cancelling the rest.  Which
      strategy wins the race may vary with machine load, but the verdict
      cannot: both decide the same miter, so any conclusive answer is
      the answer.

    - {!check_rtl_rtl} shards {e BMC frames}: frame miters of the
      product machine are mutually independent (the sequential checker's
      blocking clauses are only an optimization), so each worker decides
      "do the designs diverge at exactly cycle [t] from reset" in a
      private session.  Any [Sat] frame is a real divergence and
      cancels the rest; all-[Unsat] is the bounded equivalence claim.

    This module lives in [lib/par] rather than [lib/sec] because the
    pool needs the {!Dfv_core.Dfv_error} taxonomy and [lib/core] already
    depends on [lib/sec]; the portfolio wraps {!Dfv_sec.Checker} from
    the outside.

    Counterexamples cross the worker pipe reduced to parameter/input
    bitvectors (Verilog-literal strings under the [dfv-par] envelope);
    the parent rebuilds full counterexamples via
    {!Dfv_sec.Checker.cex_of_params} or product re-simulation.  Worker
    failures surface as [Error] — except a worker wall-clock timeout in
    {!check_rtl_rtl}, which degrades to [Rtl_unknown] (it is the
    parallel analogue of a solver budget running out). *)

(** {2 Wire forms}

    The reduced SLM-vs-RTL verdict that crosses a worker pipe — and,
    since the serve daemon speaks the same frames, a [dfv serve] result
    cache entry and a [dfv client] response payload.  A counterexample
    travels as its SLM parameter assignment alone; the receiving side
    rebuilds the full {!Dfv_sec.Checker.cex} with
    {!Dfv_sec.Checker.cex_of_params}, which requires having the design
    itself (the assignment determines the counterexample completely). *)

type slm_wire =
  | W_equivalent of Dfv_sec.Checker.stats
  | W_not_equivalent of
      (string * Dfv_hwir.Interp.value) list * Dfv_sec.Checker.stats
  | W_unknown of Dfv_sat.Solver.reason * Dfv_sec.Checker.stats

val slm_wire_to_json : slm_wire -> Dfv_obs.Json.t
val slm_wire_of_json : Dfv_obs.Json.t -> (slm_wire, string) result

val slm_wire_of_verdict : Dfv_sec.Checker.verdict -> slm_wire
(** Reduce a verdict to its wire form (the counterexample keeps only
    [params]). *)

val verdict_of_slm_wire :
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Dfv_sec.Spec.t ->
  slm_wire ->
  Dfv_sec.Checker.verdict
(** Rebuild the full verdict, re-deriving the counterexample from its
    parameter assignment against the given design. *)

val slm_conclusive : slm_wire -> bool
(** [true] for [W_equivalent]/[W_not_equivalent]: the verdicts a cache
    may serve unconditionally.  A [W_unknown] is only as good as the
    budget that produced it. *)

val check_slm_rtl :
  ?jobs:int ->
  ?budget:Dfv_sat.Solver.budget ->
  ?journal:string ->
  ?progress:bool ->
  ?exec:Pool.exec_mode ->
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Dfv_sec.Spec.t ->
  unit ->
  (Dfv_sec.Checker.verdict, Dfv_core.Dfv_error.t) result
(** Race the sweeping and direct strategies on one SLM-vs-RTL query.
    First conclusive verdict wins; if every strategy returns [Unknown],
    the first strategy's [Unknown] is reported.  [Error] when every
    strategy's worker crashed.  [budget] is the per-query solver budget,
    as in {!Dfv_sec.Checker.check_slm_rtl}.

    [journal] (a file path) makes the race durable: the journal is
    bound to a campaign key derived from {!Dfv_sec.Fingerprint.pair}
    (the structural content of the query) plus the solver budget, each
    strategy's wire verdict is appended as it lands, and on resume a
    journaled conclusive verdict short-circuits the race entirely (the
    counterexample is rebuilt via {!Dfv_sec.Checker.cex_of_params})
    while journaled [Unknown]s — deterministic under the same budget —
    are not re-run.  If {!Pool.request_stop} fires before any verdict,
    the result is [Error (Interrupted _)] so the CLI can exit with the
    resumable code.  [progress] (default false) renders a live
    {!Progress} line per finished strategy on a TTY stderr.  [exec]
    (default [`Fork]) selects the racing executor — see
    {!Dpool.race_auto}. *)

val check_rtl_rtl :
  ?jobs:int ->
  ?timeout:float ->
  ?budget:Dfv_sat.Solver.budget ->
  a:Dfv_rtl.Netlist.elaborated ->
  b:Dfv_rtl.Netlist.elaborated ->
  bound:int ->
  unit ->
  (Dfv_sec.Checker.rtl_verdict, Dfv_core.Dfv_error.t) result
(** BMC with frames [0..bound-1] sharded across fork-pool workers
    ({!Pool.race}).  Any [Sat]
    frame yields [Rtl_not_equivalent] (the verdict class is
    deterministic; which frame furnishes the counterexample may depend
    on scheduling).  Otherwise: any undecided frame (solver budget or
    worker timeout) yields [Rtl_unknown]; all frames [Unsat] yields
    [Rtl_equivalent_to_bound].  A crashed worker yields [Error] — a
    crash must not silently weaken an equivalence claim.  Solver
    statistics are summed across workers; [wall_seconds] is the
    parent's elapsed time. *)
