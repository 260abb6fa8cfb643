(** Structural fingerprints of verification inputs.

    The journal/resume machinery ({!Dfv_par.Journal}) and the planned
    content-addressed verification cache key results by {e what was
    checked}, not by file names or process state.  These digests are
    pure functions of the structural content of a model, netlist or
    spec: the same design built by the same code path yields the same
    key across processes and runs, so a resumed portfolio can trust a
    replayed verdict.

    Digests are MD5 over a closure-free structural serialization
    ([Marshal] with [No_sharing], so physical sharing cannot perturb
    the bytes).  The two closure-carrying corners are reflected first:
    an elaborated netlist's width oracle is dropped (it is derived from
    the ports/wires/regs already serialized) and a spec's per-cycle
    drive functions are evaluated over the spec's own cycle horizon. *)

val slm : Dfv_hwir.Ast.program -> string
(** Digest of a conditioned-C program. *)

val rtl : Dfv_rtl.Netlist.elaborated -> string
(** Digest of an elaborated netlist's structure: name, ports, wires (in
    schedule order), registers and memories. *)

val spec : Spec.t -> string
(** Digest of a transaction spec with its drive closures evaluated at
    every cycle in [0 .. rtl_cycles - 1]. *)

val pair : slm:Dfv_hwir.Ast.program -> rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Spec.t -> string
(** Combined key for one SLM-vs-RTL equivalence query. *)

val stimulus : seed:int -> vectors:int -> string
(** Digest of a constrained-random stimulus configuration: the seed and
    the vector count determine every transaction drawn, so two runs
    with equal fingerprints replay identical stimulus. *)

val combine : string list -> string
(** Digest of an ordered list of fingerprints/config atoms — the
    request-level key of the {!Dfv_serve} verification cache: combine
    the operation name, the structural fingerprints above, and the
    budget/seed knobs that can change a verdict, and nothing else. *)
