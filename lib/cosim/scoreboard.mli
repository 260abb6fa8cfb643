(** Scoreboards: comparing SLM expectations with RTL observations.

    Section 3.2 of the paper catalogues why SLM and RTL outputs do not
    line up cycle-for-cycle: abstracted micro-architecture, interface
    refinement, stalls, and even out-of-order completion.  Each cause
    needs a different comparison discipline, embodied here as a policy:

    - {!Exact_cycle}: outputs must match value {e and} cycle — only
      usable when the SLM is fully cycle-accurate;
    - {!In_order}: values must match in order, with free latency — for
      in-order RTL with variable delay (pipelines, stalls);
    - {!Out_of_order}: observations carry a tag and match the pending
      expectation with the same tag — for completion-reordering RTL
      (e.g. a cache that hits under a miss).

    The scoreboard records per-item latency so experiment F2 can report
    latency histograms per policy. *)

type policy = Exact_cycle | In_order | Out_of_order

type mismatch = {
  at_cycle : int;  (** cycle of the observation that failed *)
  expected : Dfv_bitvec.Bitvec.t option;
      (** what the SLM predicted ([None]: nothing was pending) *)
  observed : Dfv_bitvec.Bitvec.t;
  tag : Dfv_bitvec.Bitvec.t option;
}

type report = {
  matched : int;
  mismatches : mismatch list;  (** in observation order *)
  unconsumed : int;  (** expectations never observed *)
  latencies : int list;
      (** per matched item: observation cycle - expectation cycle *)
}

type t

val create : policy -> t

val expect :
  ?tag:Dfv_bitvec.Bitvec.t -> t -> cycle:int -> Dfv_bitvec.Bitvec.t -> unit
(** Record a golden prediction.  [cycle] is the SLM-side timestamp (for
    [Exact_cycle] the cycle at which the RTL must produce it; for the
    other policies the baseline for latency measurement).  [tag] is
    required for [Out_of_order]. *)

val observe :
  ?tag:Dfv_bitvec.Bitvec.t -> t -> cycle:int -> Dfv_bitvec.Bitvec.t -> unit
(** Record an RTL observation. *)

val report : t -> report
(** Summarize; call after the run.  Pending expectations count as
    [unconsumed]. *)

val ok : report -> bool
(** No mismatches and nothing unconsumed. *)
