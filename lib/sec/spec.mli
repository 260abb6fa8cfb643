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

val stream_out :
  rtl_port:string -> count:int -> ?start:int -> ?stride:int -> unit -> check list
(** Compare an array result element per cycle: element [i] against
    [rtl_port] at cycle [start + i*stride]. *)

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
    indexed or sliced). *)
