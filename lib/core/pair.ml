module Ast = Dfv_hwir.Ast
module Typecheck = Dfv_hwir.Typecheck
module Guideline = Dfv_hwir.Guideline
module Netlist = Dfv_rtl.Netlist
module Lint = Dfv_rtl.Lint
module Spec = Dfv_sec.Spec

type t = {
  name : string;
  slm : Ast.program;
  rtl : Netlist.elaborated;
  spec : Spec.t;
}

let create ~name ~slm ~rtl ~spec = { name; slm; rtl; spec }

type audit = {
  slm_types : (unit, string) result;
  violations : Guideline.violation list;
  conditioned : bool;
  rtl_issues : Lint.issue list;
  sec_ready : bool;
  sec_blocker : string option;
}

let audit t =
  let slm_types = Typecheck.check_report t.slm in
  let violations = Guideline.check t.slm in
  let conditioned = List.for_all Guideline.is_advisory violations in
  let rtl_issues = Lint.check t.rtl in
  let sec_blocker =
    match slm_types with
    | Error m -> Some ("SLM does not typecheck: " ^ m)
    | Ok () ->
      if not conditioned then
        Some "SLM violates the model-conditioning guidelines"
      else begin
        match Spec.validate ~slm:t.slm ~rtl:t.rtl t.spec with
        | Error m -> Some m
        | Ok () -> None
      end
  in
  {
    slm_types;
    violations;
    conditioned;
    rtl_issues;
    sec_ready = sec_blocker = None;
    sec_blocker;
  }

let pp_audit fmt a =
  let open Format in
  (match a.slm_types with
  | Ok () -> fprintf fmt "SLM types: ok@."
  | Error m -> fprintf fmt "SLM types: ERROR %s@." m);
  if a.violations = [] then fprintf fmt "Guidelines: clean@."
  else
    List.iter
      (fun v ->
        fprintf fmt "Guideline %s: %a@."
          (if Guideline.is_advisory v then "advisory" else "VIOLATION")
          Guideline.pp_violation v)
      a.violations;
  if a.rtl_issues = [] then fprintf fmt "RTL lint: clean@."
  else
    List.iter (fun i -> fprintf fmt "RTL lint: %a@." Lint.pp_issue i) a.rtl_issues;
  match a.sec_blocker with
  | None -> fprintf fmt "SEC: ready@."
  | Some m -> fprintf fmt "SEC: blocked (%s)@." m
