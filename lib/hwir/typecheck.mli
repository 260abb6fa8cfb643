(** Static typing for HWIR programs.

    Checks every function of a program: variable scoping, integer
    width/signedness agreement on operators (the discipline whose C-level
    absence Section 3.1.1 blames for SLM/RTL divergence), array indexing,
    call signatures, absence of recursion, and that the entry point
    exists.  Programs that use the forbidden dynamic constructs still
    typecheck (they are {e well-typed but unconditioned}); catching them
    is {!Guideline}'s job. *)

exception Type_error of string

val check : Ast.program -> unit
(** Raises {!Type_error} with a descriptive message on the first
    violation found. *)

val check_report : Ast.program -> (unit, string) result
(** Non-raising wrapper. *)

val check_entry : Ast.program -> unit
(** {!check} for the entry function alone: the other functions are read
    only for the signatures its calls need. *)

val entry_signature : Ast.program -> (string * Ast.ty) list * Ast.ty
(** Parameter list and return type of the entry function.  Raises
    {!Type_error} if the entry is missing. *)
