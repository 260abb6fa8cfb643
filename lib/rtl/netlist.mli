(** RTL module definitions, hierarchy and elaboration.

    A module has input ports, named combinational wires, registers (all
    clocked by one implicit clock, with optional enables and synchronous
    initial values established at reset), memories with synchronous write
    ports and asynchronous read (via {!Expr.Mem_read}), output ports
    bound to expressions, and instances of other modules.

    {!elaborate} flattens the hierarchy into a single-level module whose
    internal names are prefixed by the instance path ([u0.acc]), checks
    all widths, and topologically sorts the combinational logic —
    rejecting combinational cycles.  The simulator and the AIG
    synthesizer both consume elaborated modules. *)

type port = { port_name : string; port_width : int }

type reg = {
  reg_name : string;
  reg_width : int;
  init : Dfv_bitvec.Bitvec.t;
  next : Expr.t;
  enable : Expr.t option;  (** update only when this 1-bit expr is 1 *)
}

type write_port = { wr_enable : Expr.t; wr_addr : Expr.t; wr_data : Expr.t }

type memory = {
  mem_name : string;
  word_width : int;
  mem_size : int;
  writes : write_port list;
  mem_init : Dfv_bitvec.Bitvec.t array option;
      (** Initial contents; all-zero words when [None].  Length must
          equal [mem_size] when given. *)
}

type instance = {
  inst_name : string;
  inst_module : t;
  connections : (string * Expr.t) list;
      (** Bindings for the instantiated module's input ports; its output
          ports become parent signals named [inst_name.port]. *)
}

and t = {
  name : string;
  inputs : port list;
  outputs : (string * Expr.t) list;
  wires : (string * Expr.t) list;
  regs : reg list;
  mems : memory list;
  instances : instance list;
}

exception Elaboration_error of string

val empty : string -> t
(** A module with the given name and nothing in it. *)

val reg :
  ?enable:Expr.t ->
  ?init:Dfv_bitvec.Bitvec.t ->
  name:string ->
  width:int ->
  Expr.t ->
  reg
(** Convenience register constructor; [init] defaults to zero. *)

type elaborated = {
  e_name : string;
  e_inputs : port list;
  e_outputs : (string * Expr.t) list;
  e_wires : (string * Expr.t) list;  (** in topological evaluation order *)
  e_regs : reg list;
  e_mems : memory list;
  e_signal_width : string -> int;  (** width of any input/wire/reg *)
}

val elaborate : t -> elaborated
(** Flatten, width-check and schedule a module.  Raises
    {!Elaboration_error} on: duplicate or undriven signal names,
    references to unknown signals or memories, width violations
    (including register next/enable and memory port widths), address
    ports narrower than needed being fine but wider contents mismatches
    rejected, bad memory init length, and combinational cycles. *)

val expr_width : elaborated -> Expr.t -> int
(** Width of an expression over the design's signals and memories, such
    as an output's.  Raises {!Expr.Width_error} or
    {!Elaboration_error} on an ill-formed one. *)

val signal_names : elaborated -> string list
(** All signal names (inputs, wires, registers), sorted. *)
