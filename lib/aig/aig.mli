(** And-Inverter Graphs.

    The formal-netlist representation used by the sequential equivalence
    checker: every combinational function is reduced to two-input AND
    gates and inverters, with structural hashing so that syntactically
    identical subfunctions share nodes.  Literals follow the AIGER
    convention: literal [2*n] is node [n], literal [2*n+1] is its
    complement; node 0 is the constant, so literal 0 is [false] and
    literal 1 is [true]. *)

type t
(** A mutable AIG under construction. *)

type lit = int
(** An AIG literal (node index with complement bit). *)

val create : unit -> t
(** An empty graph (just the constant node). *)

val false_ : lit
val true_ : lit

val input : ?name:string -> t -> lit
(** Allocate a fresh primary input and return its positive literal. *)

val num_inputs : t -> int
(** Number of primary inputs allocated so far. *)

val num_ands : t -> int
(** Number of AND nodes (a size measure for experiment reporting). *)

val input_name : t -> int -> string
(** [input_name g i] is the name of input [i] (a generated one if the
    input was anonymous). *)

val not_ : lit -> lit
(** Complement a literal (free: flips the complement bit). *)

val and_ : t -> lit -> lit -> lit
(** AND with constant folding ([x & 0 = 0], [x & 1 = x], [x & x = x],
    [x & ~x = 0]) and structural hashing. *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val implies : t -> lit -> lit -> lit

val mux : t -> sel:lit -> lit -> lit -> lit
(** [mux g ~sel a b] is [a] when [sel] is true, else [b]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val is_const : lit -> bool
(** Whether a literal is the constant true or false. *)

val eval : t -> (int -> bool) -> lit -> bool
(** [eval g env l] evaluates [l] with primary input [i] set to [env i].
    Cost is linear in the graph; use {!simulate} for many literals. *)

val simulate : t -> bool array -> bool array
(** [simulate g inputs] evaluates the whole graph under the given input
    assignment and returns the value of every *node* (indexed by node,
    not literal).  Read literal [l] as
    [values.(l lsr 1) <> (l land 1 = 1)]. *)

val lit_of_node_value : bool array -> lit -> bool
(** Read a literal's value out of a {!simulate} result. *)

val node_fanins : t -> int -> (lit * lit) option
(** [node_fanins g n] is [Some (a, b)] when node [n] is an AND of
    literals [a] and [b]; [None] for the constant and inputs. *)

val node_input : t -> int -> int option
(** [node_input g n] is [Some k] when node [n] is primary input [k]. *)

val num_nodes : t -> int
(** Total nodes including the constant and inputs; node indices are
    [0 .. num_nodes - 1] in topological order. *)

val key : t -> lit array list -> string
(** [key g groups] is the exact bytes of [g] — every node, in id order
    — followed by each group of literals, its length first.  Two calls
    return equal strings exactly when the graphs have the same nodes in
    the same order and the groups hold the same literals; input names
    are left out.  The SEC query memo keys on it, so anything that
    reads the whole graph (SAT sweeping) sees equal inputs under equal
    keys. *)

(** {1 SAT bridge} *)

type cnf_map
(** A Tseitin encoding of part of one graph into one solver: the solver
    literal of every encoded node, held in an array indexed by node that
    grows with the graph.  {!encode} walks a cone depth first, fanin a's
    cone before fanin b's, and gives a node its variable once its fanins
    have theirs; that order fixes every variable, so it is part of the
    solver's search.  The map keeps its traversal stack between calls,
    so an encode allocates little beyond the variables and clauses it
    adds. *)

val sat_lit : cnf_map -> lit -> Dfv_sat.Lit.t
(** Solver literal for an encoded AIG literal.  Raises [Not_found] if the
    literal's node was not in any encoded cone. *)

val encoder : t -> Dfv_sat.Solver.t -> cnf_map
(** An empty mapping for incremental use: encode literals on demand with
    {!encode}.  The sequential equivalence checker uses one encoder per
    session so successive bounded queries share learnt clauses. *)

val encode : cnf_map -> lit -> Dfv_sat.Lit.t
(** Encode the cone of a literal (if not already encoded) and return its
    solver literal. *)

(** {2 Reuse counters}

    A [cnf_map] is persistent across solves: repeated {!encode} calls
    add clauses only for nodes not yet encoded.  The counters below
    quantify that reuse — the incremental-session statistic the
    equivalence checker reports (nodes re-encoded vs. reused). *)

val fresh_encoded : cnf_map -> int
(** Number of AIG nodes this map has Tseitin-encoded (variables
    allocated and clauses added). *)

val reuse_hits : cnf_map -> int
(** Number of cone visits answered by an already-present encoding — both
    sharing within one {!encode} call and hits from earlier calls. *)

val check_sat :
  ?assumptions:lit list -> t -> lit -> [ `Sat of bool array | `Unsat ]
(** [check_sat g l] decides whether some input assignment makes [l] true;
    on [`Sat], the witness assigns each primary input (indexed by input
    number).  One-shot convenience wrapper: a fresh solver and
    {!encoder}, with [l] and then each assumption encoded and asserted. *)

val equivalent : t -> lit -> lit -> [ `Yes | `No of bool array ]
(** [equivalent g a b] checks functional equivalence of two literals by
    deciding the miter [a xor b]; [`No w] carries a distinguishing input
    assignment. *)
