(** Synthesis of elaborated RTL into AIG transition functions.

    The sequential equivalence checker works on a time-unrolled AIG; this
    module provides the single-cycle transition function it unrolls: given
    words for the current state (registers and memory words) and the
    cycle's inputs, it produces words for the outputs and the next state.
    Memories are bit-blasted word-per-word with address decoders, so they
    must be small on the SEC path (the co-simulation path has no such
    limit). *)

type state_id =
  | Reg of string
  | Mem_word of string * int  (** memory name, word index *)

val state_id_name : state_id -> string

val state_elements :
  Netlist.elaborated -> (state_id * int * Dfv_bitvec.Bitvec.t) list
(** The design's state: each element with its width and initial value,
    in a fixed deterministic order. *)

val build :
  Netlist.elaborated ->
  g:Dfv_aig.Aig.t ->
  inputs:(string -> Dfv_aig.Word.w) ->
  state:(state_id -> Dfv_aig.Word.w) ->
  (string * Dfv_aig.Word.w) list * (state_id * Dfv_aig.Word.w) list
(** [build design ~g ~inputs ~state] instantiates one cycle of the design
    in [g].  [inputs] must supply a word of the declared width for every
    input port; [state] likewise for every state element.  Returns the
    output port words and the next-state words (same order as
    {!state_elements}).

    Semantics match {!Sim} bit-for-bit with two documented exceptions
    that SEC callers must constrain away: division by zero (the AIG is
    total: quotient all-ones, remainder = dividend; the simulator raises)
    and nothing else. *)
