(** Transaction specifications for sequential equivalence checking.

    Following the paper's Section 2: SEC "requires the specification of
    how the inputs map between the SLM and RTL and specification of when
    to check the outputs" — a repeating computational transaction.  A
    {!t} describes one transaction: the RTL runs for [rtl_cycles] from
    its reset state; each RTL input port is driven, cycle by cycle, from
    SLM parameters or constants; each listed RTL output is compared at a
    given cycle against the SLM result (or an element of an array
    result); and optional constraints restrict the input space — the
    paper's remedy when models are only conditionally bit-accurate
    (Section 3.1.2). *)

type drive =
  | Hold of Dfv_bitvec.Bitvec.t
      (** Drive a constant for the whole transaction. *)
  | At of (int -> source)
      (** Cycle-indexed source — the general stimulus adapter. *)

and source =
  | Const of Dfv_bitvec.Bitvec.t
  | Param of string  (** SLM scalar parameter, width-matched *)
  | Param_elem of string * int  (** element of an SLM array parameter *)
  | Param_bits of { name : string; hi : int; lo : int }
      (** bit-slice of an SLM scalar parameter — for serializing a wide
          SLM argument onto a narrow RTL port *)

type observe =
  | Result  (** the SLM scalar result *)
  | Result_elem of int  (** element [i] of the SLM array result *)

type check = {
  rtl_port : string;
  at_cycle : int;  (** 0-based cycle at which the output is sampled *)
  expect : observe;
}

type t = {
  rtl_cycles : int;  (** transaction length on the RTL side *)
  drives : (string * drive) list;  (** one entry per RTL input port *)
  checks : check list;
  constraints : Dfv_hwir.Ast.expr list;
      (** Boolean HWIR expressions over the SLM entry parameters;
          counterexamples must satisfy all of them. *)
}

val stream_in :
  param:string -> count:int -> ?start:int -> ?stride:int -> unit -> drive
(** [stream_in ~param ~count ()] drives an array parameter one element
    per cycle: element [i] at cycle [start + i*stride] (defaults 0, 1).
    Before the stream begins and after it ends the port holds element 0
    and the last element respectively — a common transactor shape for
    serializing the SLM's parallel interface (paper, Section 3.2). *)

(** {1 The rulebook}

    SEC, simulation and the audit all run the same transaction, so they
    share one definition of a well-formed spec: {!validate}.  The
    checker raises [Checker.Spec_error], [Flow.simulate] returns
    [Spec_violation] and [Pair.audit] blocks SEC, each with the message
    {!validate} returns. *)

val validate :
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  t ->
  (unit, string) result
(** [validate ~slm ~rtl t] is [Ok ()] when [t] is a well-formed
    transaction between [slm]'s entry function and [rtl], and
    [Error message] for the first rule it breaks, checked in this
    order:
    - [rtl_cycles >= 1];
    - every RTL input is driven, and every drive names an RTL input;
    - at every cycle, each drive's source fits its SLM parameter's
      shape and its port's width ([Param], the [Param_elem] index, the
      [Param_bits] range, [Const]);
    - there is at least one check;
    - each check names an RTL output, sits inside the transaction, and
      expects a result of the right shape and width;
    - each constraint is a boolean over the entry's parameters
      ({!validate_constraints}).

    The SLM is read through its declared entry signature, so nothing is
    elaborated.  Raises [Dfv_hwir.Typecheck.Type_error] when [slm] has
    no entry function. *)

val validate_constraints :
  slm:Dfv_hwir.Ast.program -> Dfv_hwir.Ast.expr list -> (unit, string) result
(** The last rule of {!validate} alone, for checks that have
    constraints but no transaction (SLM against SLM): each constraint's
    {!constraint_program} must typecheck.  Only the wrapper function is
    typechecked, so the message names the constraint even when the
    model itself is ill-typed. *)

val constraint_program :
  Dfv_hwir.Ast.program -> int -> Dfv_hwir.Ast.expr -> Dfv_hwir.Ast.program
(** [constraint_program slm i expr] is [slm] plus a boolean function
    [__constraint_<i>] over the entry's parameters that returns [expr],
    as its entry.  The checker elaborates it into a side condition of
    the miter and the simulation flow runs it to filter random vectors,
    so both read a constraint the same way. *)

(** {1 Running a transaction} *)

val source_at : drive -> int -> source
(** [source_at d c] is the source [d] feeds at cycle [c]. *)

val inputs_at :
  t ->
  (string * Dfv_hwir.Interp.value) list ->
  int ->
  (string * Dfv_bitvec.Bitvec.t) list
(** [inputs_at spec params t] is the RTL input vector of cycle [t] of
    the transaction that [params] (the SLM argument assignment) drives:
    one value per entry of [drives], in order.  Raises [Not_found] for
    a parameter [params] lacks and [Failure] when a source does not fit
    its parameter's shape (an array used as a scalar, or a scalar
    indexed or sliced) — neither happens on a spec {!validate} accepts
    with [params] drawn from the SLM's signature. *)

val replay :
  Dfv_rtl.Sim.t ->
  t ->
  (string * Dfv_hwir.Interp.value) list ->
  (string * Dfv_bitvec.Bitvec.t) list array
(** [replay sim t params] resets [sim] and runs the transaction that
    [params] drives: element [c] of the result holds the RTL outputs of
    cycle [c], for the [rtl_cycles] cycles. *)

val expected :
  check -> Dfv_hwir.Interp.value option -> Dfv_bitvec.Bitvec.t option
(** The value a check expects from the SLM's result, or [None] when
    there is no result (the SLM faulted) or it lacks that shape. *)

val failed_checks :
  t ->
  (string * Dfv_bitvec.Bitvec.t) list array ->
  Dfv_hwir.Interp.value option ->
  (check * Dfv_bitvec.Bitvec.t option * Dfv_bitvec.Bitvec.t) list
(** [failed_checks t outputs slm_result] is every check of [t], in
    order, whose RTL value in [outputs] (as {!replay} returns them)
    differs from its {!expected} value or has none, as
    [(check, expected, rtl_value)]. *)
