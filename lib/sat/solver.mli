(** A CDCL SAT solver.

    Classic conflict-driven clause learning in the MiniSat lineage:
    two-watched-literal propagation, 1-UIP conflict analysis with clause
    minimization, VSIDS variable activity with phase saving, and Luby
    restarts.  Supports incremental solving under assumptions, which is
    what the sequential equivalence checker uses for its per-output and
    per-frame queries. *)

type t

type result =
  | Sat   (** A model was found; query it with {!value} / {!model}. *)
  | Unsat (** The clause set (under the given assumptions) is unsatisfiable. *)

type reason =
  | Conflict_limit  (** The conflict budget was exhausted. *)
  | Time_limit      (** The wall-clock budget was exhausted. *)

val reason_string : reason -> string
(** ["conflict budget exhausted"] or ["time budget exhausted"]: the one
    text every report, verdict line and campaign record gives a
    reason. *)

type budget = {
  max_conflicts : int option;  (** give up after this many conflicts *)
  max_seconds : float option;  (** give up after this much wall-clock time *)
}
(** A resource budget for {!solve_budgeted}.  [None] fields are
    unlimited.  Budgets are what keep equivalence sessions from hanging
    on a hard monolithic miter: a budgeted query always terminates, in
    the worst case with [Unknown]. *)

val no_budget : budget
(** The unlimited budget: [solve_budgeted ~budget:no_budget] = {!solve}. *)

val budget_key : budget option -> string
(** The canonical text of an optional budget inside a key: ["-"] for
    none, else ["c=<conflicts>,s=<seconds>"] with seconds printed by
    [%g] and ["-"] for an unlimited field.  An [Unknown] verdict only
    answers the budget that produced it, so serve stores, campaign
    journals and portfolio journals are all bound to these bytes. *)

val create : unit -> t
(** A fresh solver with no variables and no clauses. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val nvars : t -> int
(** Number of allocated variables. *)

val nclauses : t -> int
(** Number of problem (non-learnt) clauses added so far. *)

val nlearnts : t -> int
(** Number of clauses learnt so far. *)

val nconflicts : t -> int
(** Total conflicts encountered across all [solve] calls. *)

val ndecisions : t -> int
(** Total decisions made across all [solve] calls. *)

val npropagations : t -> int
(** Total unit propagations across all [solve] calls. *)

val nlearnts_removed : t -> int
(** Total learnt clauses dropped by DB reduction so far. *)

val set_learnt_limit : t -> int -> unit
(** Set the learnt-DB size that triggers the next reduction (default
    8192; the limit grows geometrically after each reduction).  Mainly
    for tests and tuning; reduction is always sound. *)

val add_clause : t -> Lit.t list -> unit
(** [add_clause s lits] adds a clause.  Duplicate literals are removed; a
    clause containing [l] and [not l] is dropped as trivially true.
    Adding the empty clause (or a clause falsified at level 0) makes the
    solver permanently unsatisfiable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** [solve ~assumptions s] decides satisfiability of the added clauses
    under the given assumption literals.  The solver remains usable
    afterwards: more variables and clauses may be added and [solve] may
    be called again (incremental use).

    Every 64 conflicts the search also polls the calling domain's
    {!Stop} token, and raises {!Stop.Stopped} (backtracked to level 0,
    still usable) when the pool has cancelled the job.  The same holds
    for {!solve_budgeted} and {!solve_bounded}. *)

type outcome =
  | Sat
  | Unsat
  | Unknown of reason
      (** The budget ran out before the query was decided.  The solver
          remains usable: clauses learnt so far are kept, and a later
          (possibly bigger-budget) call picks up where this one left
          off. *)

val solve_budgeted :
  ?assumptions:Lit.t list -> ?budget:budget -> t -> outcome
(** Like {!solve} but bounded by [budget] (default {!no_budget}).  The
    wall clock is checked every 64 conflicts, so a query that never
    conflicts is allowed to finish even under a tiny time budget. *)

val solve_bounded :
  ?assumptions:Lit.t list -> max_conflicts:int -> t -> result option
(** Like {!solve} but gives up (returning [None]) after [max_conflicts]
    conflicts.  Used by SAT sweeping, where an undecided candidate pair
    is simply not merged.  Equivalent to {!solve_budgeted} with only a
    conflict budget. *)

val value : t -> Lit.t -> bool
(** [value s l] is the truth value of [l] in the most recent model.
    Only meaningful directly after a [solve] that returned [Sat]. *)

val model : t -> bool array
(** The most recent model as an array indexed by variable. *)

val true_lit : t -> Lit.t
(** A literal constrained true at level 0 (lazily allocated).  Useful for
    encoding constants. *)

val false_lit : t -> Lit.t
(** Negation of {!true_lit}. *)
