(** SAT sweeping (fraiging).

    Combinational equivalence checking of whole systems routinely defeats
    plain CDCL when the two sides compute the same functions with
    different local structure: the solver must rediscover every internal
    equivalence inside one huge cone.  The standard industrial remedy —
    and a core ingredient of the sequential equivalence checkers the
    paper builds on — is to {e sweep} the graph first: detect candidate
    equivalent node pairs by random simulation, prove each with a small
    local SAT query (incremental, bottom-up, so earlier merges keep later
    queries local), and merge.  The miter of an equivalent pair then
    collapses to constant false structurally.

    {!fraig} rebuilds the graph with all proven-equivalent nodes merged
    and returns a literal translation into the new graph. *)

val fraig :
  ?sim_words:int ->
  ?max_conflicts:int ->
  Aig.t ->
  Aig.t * (Aig.lit -> Aig.lit)
(** [fraig g] returns [(g', sub)] where [sub] maps any literal of [g] to
    an equivalent literal of [g'].  [sim_words] 62-bit random pattern
    words drive candidate detection (default 8, i.e. 496 patterns);
    [max_conflicts] bounds each pairwise SAT query (default 1000 —
    undecided pairs are left unmerged, so the result is always sound).
    Before each pair it proves it polls {!Dfv_sat.Stop}, so a cancelled
    pool job stops mid-sweep. *)
