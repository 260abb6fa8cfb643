(** The fault-robustness suite over the bundled designs.

    One campaign per design: SEC-driven pairs for alu, fir, gcd and the
    three image-chain blocks, and the transactor/scoreboard harness for
    the memory subsystem (whose SLM is plain OCaml, so SEC does not
    apply).  The suite gate is the acceptance bar from the issue: a
    detection rate of at least {!default_min_rate} over activatable
    faults and zero false-equivalent verdicts. *)

val names : string list
(** Subject names accepted by [?designs]: alu, fir, gcd,
    chain.brightness, chain.convolution, chain.threshold, memsys. *)

val run :
  ?budget:Dfv_sat.Solver.budget ->
  ?seed:int ->
  ?sim_vectors:int ->
  ?engine:Dfv_hwir.Exec.engine ->
  ?jobs:int ->
  ?timeout:float ->
  ?deadline:float ->
  ?journal:Dfv_par.Journal.t ->
  ?pool:bool ->
  ?exec:[ `Auto ] ->
  ?max_rtl_faults:int ->
  ?max_slm_faults:int ->
  ?progress:bool ->
  ?designs:string list ->
  unit ->
  Campaign.report list
(** Run the campaigns ([designs] defaults to all of {!names}; raises
    [Failure] on an unknown name).  [jobs]/[timeout]/[pool] size the
    per-mutant worker pool inside each campaign.  [exec] is ignored:
    there is one executor, and the argument stays only because the
    repository benchmark passes it; it goes with the benchmark's next
    change.  [journal] makes every campaign durable/resumable, [deadline]
    (seconds, one budget across the whole suite) arms the degradation
    sentinel, and [progress] renders a live per-campaign progress line
    on a TTY stderr — see {!Campaign.run}. *)

val campaign_key :
  budget:Dfv_sat.Solver.budget option ->
  seed:int ->
  sim_vectors:int ->
  engine:Dfv_hwir.Exec.engine option ->
  max_rtl_faults:int ->
  max_slm_faults:int ->
  designs:string list ->
  string
(** The canonical configuration key to open a suite journal under
    ({!Dfv_par.Journal.open_} fingerprints it): exactly the knobs that
    can change verdicts.  [jobs]/[timeout]/[deadline] are excluded on
    purpose — a campaign may be resumed at a different parallelism or
    under different pressure without invalidating its journal. *)

val default_min_rate : float
(** 0.95. *)

val gate : ?min_rate:float -> Campaign.report list -> float * int * bool
(** [(detection_rate, false_equivalents, pass)] where [pass] requires
    rate >= min_rate (default {!default_min_rate}) and zero false
    equivalents. *)

val memsys_triage :
  ?seed:int -> ?max_faults:int -> unit -> Dfv_obs.Triage.t option
(** Force a memsys scoreboard miscompare and triage it: inject the first
    enumerated RTL fault (from [seed], scanning at most [max_faults],
    default 32) that the transactor/scoreboard harness flags with a data
    mismatch, then re-run the failing workload dumping a VCD window ±4
    cycles around the first mismatch.  The bundle names the injected
    fault, the failing transaction, the full request stimulus, and every
    scoreboard mismatch.  [None] if no enumerated fault produces a
    miscompare (the harness only sees engine timeouts). *)
