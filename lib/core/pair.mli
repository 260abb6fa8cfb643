(** Design pairs: one SLM block, one RTL block, one transaction map.

    The unit of the paper's methodology (Section 4.2): a consistently
    partitioned block with a one-to-one SLM/RTL correspondence and a
    cleanly defined interface, packaged with the transaction
    specification that aligns the two.  {!audit} runs the
    design-for-verification checks of Sections 3 and 4 on the pair
    before any verification is attempted. *)

type t = {
  name : string;
  slm : Dfv_hwir.Ast.program;
  rtl : Dfv_rtl.Netlist.elaborated;
  spec : Dfv_sec.Spec.t;
}

val create :
  name:string ->
  slm:Dfv_hwir.Ast.program ->
  rtl:Dfv_rtl.Netlist.elaborated ->
  spec:Dfv_sec.Spec.t ->
  t

type audit = {
  slm_types : (unit, string) result;
      (** HWIR typecheck — width/sign discipline (Section 3.1.1) *)
  violations : Dfv_hwir.Guideline.violation list;
      (** model-conditioning lint (Section 4.3) *)
  conditioned : bool;
      (** no blocking violations: the SLM admits static analysis *)
  rtl_issues : Dfv_rtl.Lint.issue list;  (** structural RTL lint *)
  sec_ready : bool;
      (** typechecks, conditioned, and {!Dfv_sec.Spec.validate} accepts
          the spec *)
  sec_blocker : string option;
      (** why SEC cannot run, when [not sec_ready] *)
}

val audit : t -> audit

val pp_audit : Format.formatter -> audit -> unit
(** Human-readable audit report. *)
