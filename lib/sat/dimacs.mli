(** DIMACS CNF reading and writing.

    The standalone interchange format for the SAT substrate: lets the
    solver be exercised against external instances and lets the
    equivalence checker dump the CNF of a miter for inspection. *)

type cnf = { num_vars : int; clauses : Lit.t list list }

val parse_string : string -> cnf
(** Parse DIMACS CNF text.  Comment lines ([c ...]) are skipped; the
    problem line ([p cnf V C]) is validated.  Raises [Failure] with a
    descriptive message on malformed input. *)

val to_string : cnf -> string
(** Render a CNF in DIMACS format. *)

val load : Solver.t -> cnf -> int
(** [load s cnf] allocates [cnf.num_vars] {e fresh} solver variables and
    adds all clauses, relocated onto them.  Returns the base offset [b]:
    CNF variable [v] (0-based) maps to solver variable [b + v].  The
    solver need not be fresh — loading composes with variables and
    clauses already present (and with several [load]s into one solver;
    each gets its own variable block and base). *)

val solver_lit : base:int -> Lit.t -> Lit.t
(** [solver_lit ~base l] relocates a CNF literal onto the solver
    variables of the {!load} call that returned [base]. *)
