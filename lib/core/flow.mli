(** Verification flows over a design pair.

    The paper's two ways of leveraging an SLM for RTL verification
    (Section 2), both driven by the {e same} transaction specification:

    - {!simulate}: simulation-based comparison — random transactions,
      the SLM (interpreter) produces expected outputs, the RTL simulator
      is driven through the spec's stimulus adapter, and the spec's
      checks are compared;
    - {!sec}: sequential equivalence checking via {!Dfv_sec.Checker}.

    {!verify} combines them the way a design team would: audit first,
    SEC when the model is conditioned, simulation as the fallback — and
    always reports which path ran. *)

type sim_outcome =
  | Sim_clean of { vectors : int }
  | Sim_mismatch of {
      vector_index : int;  (** 0-based index of the failing transaction *)
      params : (string * Dfv_hwir.Interp.value) list;
      failed_checks : (Dfv_sec.Spec.check * Dfv_bitvec.Bitvec.t * Dfv_bitvec.Bitvec.t) list;
          (** (check, expected, got) *)
    }

val simulate :
  ?seed:int ->
  ?max_rounds:int ->
  ?engine:Dfv_hwir.Exec.engine ->
  vectors:int ->
  Pair.t ->
  (sim_outcome, Dfv_error.t) result
(** Run [vectors] random transactions, stopping at the first mismatch.
    The RTL simulator is compiled once per call, at the first
    transaction, and reset before every transaction; the SLM runs once
    per vector.

    [engine] selects how the SLM side executes: [`Compiled] lowers the
    model through the verified normal form onto the shared slot-indexed
    kernel (and errors on models outside it), [`Interp] forces the
    tree-walking reference.  When omitted, the compiled engine runs for
    conditioned models with automatic fallback to the interpreter.
    Parameter values are drawn uniformly; vectors violating the spec's
    constraints are redrawn with a widening search: each of the
    [max_rounds] (default 4) rounds doubles the attempt budget, and
    rounds after the first also mutate the best candidate seen so far
    (most constraints satisfied) by single bit flips.  Every accepted
    vector still satisfies {e all} constraints — widening only changes
    how hard the generator looks.  When the search is exhausted the
    result is [Error (Stimulus_exhausted _)] naming the tightest
    constraints; engine failures while simulating map through
    {!Dfv_error.of_exn} instead of escaping as exceptions.  Before each
    transaction it polls {!Dfv_sat.Stop}, so a cancelled pool job ends
    between transactions. *)

val sec :
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Dfv_sec.Session.t ->
  ?memo:Dfv_sec.Checker.memo ->
  Pair.t ->
  Dfv_sec.Checker.verdict
(** One SEC query on the pair.  [budget] bounds the SAT effort (the
    verdict is [Unknown] when it runs out); [session] shares one solving
    substrate across several queries (see {!Dfv_sec.Session}); [memo]
    answers a query already decided through it (see
    {!Dfv_sec.Checker.check_slm_rtl}). *)

type verify_outcome =
  | Proved of Dfv_sec.Checker.stats
  | Refuted of Dfv_sec.Checker.cex * Dfv_sec.Checker.stats
  | Undecided of Dfv_sat.Solver.reason * Dfv_sec.Checker.stats
      (** SEC ran but its budget expired before a verdict. *)
  | Simulated of sim_outcome
      (** SEC was blocked (see the audit); simulation ran instead. *)
  | Errored of Dfv_error.t
      (** the flow itself failed; recorded, not raised, so campaign
          drivers can keep going *)

type report = { audit : Pair.audit; outcome : verify_outcome }

val verify :
  ?seed:int ->
  ?sim_vectors:int ->
  ?engine:Dfv_hwir.Exec.engine ->
  ?budget:Dfv_sat.Solver.budget ->
  ?session:Dfv_sec.Session.t ->
  Pair.t ->
  report
(** The combined flow ([sim_vectors] defaults to 1000); [budget] and
    [session] are passed to {!sec} when the SEC path runs, [engine] to
    {!simulate} when the simulation path runs. *)

val pp_report : Format.formatter -> report -> unit

val triage_of_report : Pair.t -> report -> Dfv_obs.Triage.t option
(** A mismatch triage bundle for a failed report — [Some] exactly when
    the outcome is [Refuted] (kind ["sec-counterexample"]) or
    [Simulated (Sim_mismatch _)] (kind ["sim-miscompare"]).  The bundle
    carries the failing transaction's stimulus, each diverging check,
    and a VCD slice of the re-simulated transaction windowed ±4 cycles
    around the earliest failing cycle, plus automatic metric/span/
    coverage snapshots (see {!Dfv_obs.Triage}). *)
