(** Mutation campaigns: score the verifier against injected faults.

    A campaign takes one verification subject, derives a set of single-
    fault mutants, pushes every mutant through the verification flow it
    would normally face — SEC for design pairs, the transactor-based
    co-simulation harness for cosim subjects — and classifies the
    verdicts.  The quality bar from the issue: every activatable fault
    must be {e detected} (counterexample, localized to the faulty cone)
    or end in a {e justified unknown}; a [False_equivalent] — the
    prover signing off on a fault that simulation can expose — is the
    fatal outcome the campaign exists to find.

    Each mutant runs inside {!Dfv_core.Dfv_error.guard} with its own
    SAT budget, so one crashing or diverging mutant degrades to a
    recorded verdict and the rest of the campaign still runs.  With
    [jobs > 1] (or a [timeout]) mutants additionally run in forked
    worker processes via {!Dfv_par.Pool}, upgrading that isolation to
    the process level: a segfaulting or OOM-killed mutant becomes
    [Crashed], a wall-clock-exceeded one becomes [Unknown], and the
    campaign completes either way.  Verdicts are independent of [jobs]:
    mutants are enumerated in the parent and each mutant's simulation
    seed is a pure function of the campaign seed and its index
    ({!Dfv_par.Pool.job_seed}). *)

type subject =
  | Sec_pair of Dfv_core.Pair.t
      (** verified by SEC with a simulation cross-check on Equivalent *)
  | Cosim of {
      co_name : string;
      co_rtl : Dfv_rtl.Netlist.elaborated;
      co_check : Dfv_rtl.Netlist.elaborated -> bool;
          (** the harness; returns true when it flags the mutated RTL.
              May raise — engine errors are recorded via the taxonomy. *)
    }

type mutant =
  | Rtl_mutant of Fault.rtl_fault
  | Slm_mutant of Fault.slm_fault
  | Custom_mutant of { cm_name : string; cm_run : unit -> bool }
      (** escape hatch for qualifying the campaign itself (e.g. a
          deliberately crashing mutant); [cm_run] returning true means
          detected *)

type verdict =
  | Detected of { engine : string; seconds : float; localized : bool option }
      (** [localized]: for RTL faults detected by SEC, whether the
          fault site lies in the fan-in cone of the failing check's
          port; [None] when localization does not apply *)
  | Survived of { seconds : float }
      (** SEC equivalent and simulation clean: not proven activatable
          (excluded from the detection-rate denominator) *)
  | False_equivalent of { seconds : float }
      (** SEC equivalent but simulation found a mismatch — a verifier
          soundness bug *)
  | Unknown of { reason : string; seconds : float }  (** justified *)
  | Crashed of Dfv_core.Dfv_error.t
      (** the flow failed on this mutant; recorded, campaign continues *)

type mutant_result = {
  m_name : string;
  m_class : string;
  m_site : string;
  verdict : verdict;
}

type report = {
  r_subject : string;
  r_total : int;
  r_detected : int;
  r_survived : int;
  r_unknown : int;
  r_crashed : int;
  r_false_eq : int;
  r_mislocalized : int;
      (** detected, but the cex was not localized to the faulty cone *)
  r_shed : int;
      (** mutants shed to [Unknown] by the deadline sentinel — a subset
          of [r_unknown], and never silent: {!pp_report} and the JSON
          report both carry the count *)
  r_wall : float;
  r_results : mutant_result list;
}

val run :
  ?budget:Dfv_sat.Solver.budget ->
  ?sim_vectors:int ->
  ?seed:int ->
  ?engine:Dfv_hwir.Exec.engine ->
  ?jobs:int ->
  ?timeout:float ->
  ?deadline_at:float ->
  ?journal:Dfv_par.Journal.t ->
  ?pool:bool ->
  ?exec:Dfv_par.Pool.exec_mode ->
  ?max_rtl_faults:int ->
  ?max_slm_faults:int ->
  ?extra_mutants:mutant list ->
  ?progress:bool ->
  subject ->
  report
(** Run the campaign.  [budget] (per mutant) bounds each SEC query;
    [sim_vectors] (default 400) sizes the cross-check simulation and
    [engine] selects its SLM execution engine (see {!Dfv_core.Flow.simulate});
    [max_rtl_faults] (default 16) / [max_slm_faults] (default 8) bound
    the mutant population per subject.

    [jobs] (default 1) bounds concurrent mutant workers; any value
    above 1 — or any [timeout] — switches to forked per-mutant workers
    ({!Dfv_par.Pool.map}) with identical verdicts, and [pool] overrides
    that rule in either direction (the CLI forces [pool:true] for an
    explicit [--jobs], and [pool:false] on 1-core hosts where forking
    only adds overhead).  [exec] (default [`Fork]) selects the pooled
    executor — the fork pool, the in-process domains executor, or
    adaptive dispatch between them (see {!Dfv_par.Dpool.map_auto};
    verdicts are byte-identical either way, and [`Domains] with a
    [timeout] is an error).  [timeout] is the per-mutant wall-clock
    budget in seconds: an expired mutant is killed and recorded as
    [Unknown] (budget-like), while a worker that dies is recorded as
    [Crashed].

    [journal] makes the campaign durable: each completed mutant verdict
    is appended (fsync'd) as it lands, keyed by a structural mutant
    fingerprint, and mutants already present in the journal are
    {e replayed} instead of re-run — verdicts are exact wire-form
    round-trips, so a resumed report is byte-identical to an
    uninterrupted one (timings aside).  Pool-level failures
    (crash/timeout/interruption) and shed placeholders are never
    journaled; they re-run on resume.

    [deadline_at] (absolute [Unix.gettimeofday] time) arms the
    graceful-degradation sentinel: mutants starting past the halfway
    point of the window run with linearly shrunk solver budgets, and
    mutants starting past the deadline are shed to [Unknown] (counted
    in [r_shed]) instead of the campaign dying.

    If {!Dfv_par.Pool.request_stop} fires (the CLI's SIGINT/SIGTERM
    handlers), remaining mutants are marked [Unknown "interrupted"]
    without running and the campaign returns promptly.

    [progress] (default false) drives a live {!Dfv_par.Progress} line
    on stderr — completion, rate, ETA, time to [deadline_at], and
    per-verdict tallies — stepping on every finished (or replayed, or
    shed) mutant; it renders only when stderr is a TTY. *)

val result_to_json : mutant_result -> Dfv_obs.Json.t
(** The exact wire form of one mutant result — the payload a pool
    worker ships back over its pipe.  Unlike {!json_of_reports} (a
    human-facing report), this round-trips through {!result_of_json}
    losslessly, keeping [Crashed] errors structured. *)

val result_of_json : Dfv_obs.Json.t -> (mutant_result, string) result

val detection_rate : report list -> float
(** [detected / (detected + false_equivalent + crashed)] across the
    reports — survivors and justified unknowns are excluded because
    they were never proven activatable.  1.0 when nothing qualifies. *)

val false_equivalents : report list -> int

val verdict_label : verdict -> string
(** ["detected"], ["survived"], ["false-equivalent"], ["unknown"] or
    ["crashed"]. *)

val pp_report : Format.formatter -> report -> unit

val json_of_reports : min_rate:float -> report list -> Dfv_obs.Json.t
(** The machine-readable campaign report: overall rate and gate plus
    per-subject, per-fault verdicts, under the common envelope
    [{"schema":"dfv-faultsim","version":1,...}]. *)
