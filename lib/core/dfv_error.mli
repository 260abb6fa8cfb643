(** Structured error taxonomy for the DFV stack.

    The flows in this library orchestrate engines that historically
    signalled trouble with bare [Failure]/ad-hoc exceptions: the HWIR
    interpreter, the RTL elaborator, the SLM kernel, the TLM sockets and
    the transaction engine.  For a single interactive run an exception is
    fine; for a fault-injection campaign (hundreds of mutants, each
    allowed to misbehave) one bad mutant must degrade to a recorded
    verdict instead of aborting the batch.

    [Dfv_error.t] is the shared vocabulary: every engine failure maps to
    one constructor, [of_exn] performs that mapping, and [guard] turns
    an exception-raising thunk into a [result].  [Flow], the fault
    campaign and [bin/dfv] thread these values instead of letting
    exceptions escape. *)

type watchdog_kind =
  | Delta_limit  (** runaway delta loop: too many delta cycles in one run *)
  | Activation_limit  (** too many process activations in one run *)
  | Starvation
      (** the kernel went idle with threads still blocked and no timed
          activity pending — a wait cycle / deadlock *)

type t =
  | Stimulus_exhausted of { attempts : int; rounds : int; detail : string }
      (** constrained-random stimulus generation gave up after widening *)
  | Protocol_violation of { channel : string; detail : string }
      (** a TLM/stream channel broke its transport contract *)
  | Watchdog of {
      kind : watchdog_kind;
      at_time : int;
      deltas : int;
      activations : int;
      processes : string list;  (** named culprit / blocked processes *)
    }
  | Transaction_incomplete of string
      (** the cosim transaction engine ran out of cycles with
          transactions still in flight *)
  | Elaboration_failure of string
      (** HWIR/RTL static elaboration or typecheck failed *)
  | Spec_violation of string  (** the transaction spec is ill-formed *)
  | Model_runtime_fault of string
      (** the SLM faulted while executing (e.g. division by zero) *)
  | Worker_timeout of { job : string; seconds : float }
      (** a pool job passed its per-job wall-clock budget and stopped at
          its next poll ({!Dfv_sat.Stop}) — the parallel analogue of a
          solver budget running out *)
  | Interrupted of { job : string }
      (** the run was stopped by an operator signal (SIGINT/SIGTERM)
          before this job completed; the work is resumable from a
          journal (see {!Dfv_par.Journal}) *)
  | Internal of string  (** anything else; carries the raw message *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** CLI exit code for this error under the documented convention:
    2 for "could not decide" failures (budget-like: stimulus exhaustion,
    watchdog trips, incomplete transactions, worker timeouts), 3 for
    structural/internal errors, 4 for
    "interrupted, resumable". *)

val to_json : t -> Dfv_obs.Json.t
(** Structured rendering, a tagged object [{"kind": ..., ...fields}].
    {!of_json} inverts it exactly; campaign journals and the serve
    protocol use the pair to carry taxonomy values without flattening
    them to strings. *)

val of_json : Dfv_obs.Json.t -> (t, string) result

val of_exn : exn -> t
(** Total mapping from engine exceptions to the taxonomy; unrecognized
    exceptions become [Internal] with their printed form. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting any raised exception via {!of_exn}.
    Asynchronous/fatal exceptions ([Out_of_memory], [Stack_overflow],
    [Sys.Break]) are re-raised, not captured, and so is
    {!Dfv_sat.Stop.Stopped}: a stopped job is the pool's to report. *)
