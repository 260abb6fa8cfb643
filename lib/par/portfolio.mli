(** Portfolio SEC: one SLM-vs-RTL query raced across solving
    strategies.

    {!check_slm_rtl} races {e solving strategies} — the same query
    attempted with and without the SAT-sweeping fallback — on
    {!Dpool.race}, and takes the first conclusive verdict
    ([Equivalent]/[Not_equivalent]); the losing strategy's stop token
    is cancelled, so it stops at its next poll.  Which strategy wins
    the race may vary with machine load, but the verdict cannot: both
    decide the same miter, so any conclusive answer is the answer.

    This module lives in [lib/par] rather than [lib/sec] because the
    race needs the {!Dfv_core.Dfv_error} taxonomy and [lib/core] already
    depends on [lib/sec]; the portfolio wraps {!Dfv_sec.Checker} from
    the outside. *)

(** {2 Wire forms}

    The reduced SLM-vs-RTL verdict as a portfolio journal record, a
    [dfv serve] result cache entry and a [dfv client] response payload.
    A counterexample travels as its SLM parameter assignment alone; the
    receiving side rebuilds the full {!Dfv_sec.Checker.cex} with
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
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Dfv_sec.Spec.t ->
  unit ->
  (Dfv_sec.Checker.verdict, Dfv_core.Dfv_error.t) result
(** Race the sweeping and direct strategies on one SLM-vs-RTL query.
    First conclusive verdict wins; if every strategy returns [Unknown],
    the first strategy's [Unknown] is reported.  [Error] when every
    strategy failed.  [budget] is the per-query solver budget, as in
    {!Dfv_sec.Checker.check_slm_rtl}.  [jobs] (default: the core count)
    is clamped to {!Pool.cores}; with one worker the strategies run one
    after another, sweep first, and the direct strategy never starts
    once the sweep has concluded.

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
    {!Progress} line per finished strategy on a TTY stderr. *)
