(** Value Change Dump (IEEE 1364 VCD) waveform output.

    Debugging aid for co-simulation mismatches: attach a writer to a
    simulator, call {!sample} once per simulated cycle, and inspect the
    resulting file in any waveform viewer.

    Sampling model: {!sample} must be called immediately after
    {!Sim.cycle}; it records the combinational values the cycle settled
    to and the register values *after* that cycle's clock edge, at
    timestamp [cycles_run - 1].  The timestamp is read from the
    simulator itself, so cycles may be run without sampling and samples
    resumed later — the timeline stays aligned with the cycle count
    (useful for dumping only a window around a failure).  A sample taken
    before the first cycle is clamped to timestamp 0. *)

type t

val create : Buffer.t -> Netlist.elaborated -> Sim.t -> t
(** Write the VCD header (date, timescale, variable declarations for
    every signal of the design) into the buffer and return a writer. *)

val sample : t -> unit
(** Record the current values of all signals; only changes since the last
    sample are emitted, per the VCD format. *)
