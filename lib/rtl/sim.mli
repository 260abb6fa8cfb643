(** Cycle-accurate RTL simulation.

    Two-phase semantics per clock cycle: combinational wires settle (in
    the elaborated topological order), outputs are sampled, then all
    registers and memory write ports update simultaneously from the
    settled values.  This is exactly the single-clock synchronous
    abstraction the paper assumes of "the RTL model" — and the slow,
    detailed end of the experiment C1 speed comparison. *)

type t

type engine = [ `Compiled | `Interp ]
(** [`Compiled] (the default) runs the slot-indexed closure kernel from
    {!Compile}: the netlist is levelized and compiled once at creation,
    then every cycle executes straight-line closures over dense value
    stores.  [`Interp] is the original tree-walking interpreter,
    retained as the differential-testing oracle — the two engines are
    bit-identical in outputs, state, peeks and exceptions. *)

val create : ?engine:engine -> Netlist.elaborated -> t
(** Instantiate a simulator in its reset state (registers at their init
    values, memories at their init contents or zero).  [engine]
    defaults to [`Compiled], which compiles the netlist here and counts
    one [rtl.sim.compiles]; to run many transactions, create once and
    {!reset} between them. *)

val engine : t -> engine
(** Which kernel this simulator runs on. *)

val reset : t -> unit
(** Return to the reset state. *)

val cycle : t -> (string * Dfv_bitvec.Bitvec.t) list -> (string * Dfv_bitvec.Bitvec.t) list
(** [cycle sim inputs] runs one clock cycle: applies the given input
    values (every input port must be present, with the right width),
    settles combinational logic, returns the output port values sampled
    this cycle, and performs the clock-edge state update.  Raises
    [Invalid_argument] on missing/mis-sized inputs. *)

val peek : t -> string -> Dfv_bitvec.Bitvec.t
(** Value of any signal (input, wire, register) as of the last settled
    cycle.  Registers read their *current* (pre-update at sample time)
    value.  Raises [Not_found] for unknown names. *)

val peek_mem : t -> string -> int -> Dfv_bitvec.Bitvec.t
(** [peek_mem sim mem i] reads word [i] of a memory. *)

val cycles_run : t -> int
(** Number of [cycle] calls since creation / last reset. *)

val run :
  t ->
  inputs:(int -> (string * Dfv_bitvec.Bitvec.t) list) ->
  cycles:int ->
  (string * Dfv_bitvec.Bitvec.t) list array
(** Drive the simulator for [cycles] cycles, computing the input vector
    for each cycle with [inputs]; collects the outputs of every cycle. *)
