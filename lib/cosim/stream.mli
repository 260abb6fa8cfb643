(** Stream transactors and wrapped-RTL stages.

    The paper's Section 2 step 2: to reuse SLM stimulus for RTL, write
    adapters that serialize the SLM's parallel interface onto the RTL's
    streaming interface, instantiate the RTL under those transactors —
    the {e wrapped-RTL} — and compare.  A {!stage} is one such wrapped
    block (or a plain SLM function), and {!run_pipeline} composes stages
    so SLM and RTL implementations of pipeline blocks can be mixed
    plug-and-play (paper Section 4.2). *)

type data = Dfv_bitvec.Bitvec.t array

type stage_stats = {
  stage_name : string;
  kind : [ `Slm | `Rtl ];
  cycles : int;  (** RTL cycles consumed (0 for SLM stages) *)
}

type stage

val slm_stage : name:string -> (data -> data) -> stage
(** A stage computed by the system-level model directly. *)

val hwir_stage :
  name:string ->
  ?engine:Dfv_hwir.Exec.engine ->
  Dfv_hwir.Ast.program ->
  stage
(** A stage computed by an HWIR model whose entry maps one scalar
    element to one scalar element, applied element-wise.  The model is
    prepared once at stage construction (compiled through the verified
    normal form on the default/[`Compiled] engine — see
    {!Dfv_hwir.Exec.create}); [`Compiled] raises
    [Dfv_hwir.Norm.Rejected] on models outside the normal form, while
    the default falls back to the interpreter for them. *)

val rtl_stage :
  name:string ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  in_port:string ->
  out_port:string ->
  ?in_valid:string ->
  ?out_valid:string ->
  ?latency:int ->
  ?stall:(int -> bool) ->
  ?max_cycles:int ->
  unit ->
  stage
(** A wrapped-RTL stage.  Elements are fed one per cycle on [in_port];
    when [in_valid] is given that port is driven 1 on feeding cycles and
    0 otherwise.  On a cycle that feeds nothing, [in_port] keeps the
    last element fed (zero before the first).  [stall] makes the driver
    pause on cycles where it returns true — stimulus-side back-pressure
    for experiment C7.

    Outputs are read from [out_port].  With [out_valid], one is collected
    on every cycle where that port reads nonzero, and [latency] is
    ignored.  Without it, one is collected exactly [latency] cycles
    (default 1) after each element was fed, so stalls shift the outputs
    with their inputs; a design whose latency differs yields the wrong
    cycles' values.  The run stops when as many outputs as inputs have
    been collected, or after [max_cycles] (default [16 * n + 64]). *)

exception Stage_error of string
(** Unknown port, or the wrapped RTL failed to produce enough outputs
    within the cycle budget. *)

val run_stage : stage -> data -> data * stage_stats

val run_pipeline : stage list -> data -> data * stage_stats list
(** Feed the data through every stage in order. *)
