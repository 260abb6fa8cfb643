(* Tests for the CDCL SAT solver. *)

open Dfv_sat

let check_bool = Alcotest.check Alcotest.bool
let check_res = Alcotest.check Alcotest.bool

let is_sat (r : Solver.result) =
  match r with Solver.Sat -> true | Solver.Unsat -> false

(* Build a solver with [n] fresh variables. *)
let fresh n =
  let s = Solver.create () in
  let vars = Array.init n (fun _ -> Solver.new_var s) in
  (s, vars)

let test_trivial_sat () =
  let s, v = fresh 2 in
  Solver.add_clause s [ Lit.pos v.(0) ];
  Solver.add_clause s [ Lit.neg v.(1) ];
  check_res "sat" true (is_sat (Solver.solve s));
  check_bool "v0 true" true (Solver.value s (Lit.pos v.(0)));
  check_bool "v1 false" false (Solver.value s (Lit.pos v.(1)))

let test_trivial_unsat () =
  let s, v = fresh 1 in
  Solver.add_clause s [ Lit.pos v.(0) ];
  Solver.add_clause s [ Lit.neg v.(0) ];
  check_res "unsat" false (is_sat (Solver.solve s))

let test_empty_clause () =
  let s, _ = fresh 1 in
  Solver.add_clause s [];
  check_res "unsat" false (is_sat (Solver.solve s))

let test_no_clauses () =
  let s, _ = fresh 3 in
  check_res "sat" true (is_sat (Solver.solve s))

let test_propagation_chain () =
  (* x0 and a chain of implications x_i -> x_{i+1}; then force ~x_last. *)
  let n = 50 in
  let s, v = fresh n in
  Solver.add_clause s [ Lit.pos v.(0) ];
  for i = 0 to n - 2 do
    Solver.add_clause s [ Lit.neg v.(i); Lit.pos v.(i + 1) ]
  done;
  check_res "sat" true (is_sat (Solver.solve s));
  check_bool "chain end true" true (Solver.value s (Lit.pos v.(n - 1)));
  Solver.add_clause s [ Lit.neg v.(n - 1) ];
  check_res "now unsat" false (is_sat (Solver.solve s))

let test_xor_chain_unsat () =
  (* XOR constraints as CNF: x0 (+) x1 = 1, x1 (+) x2 = 1, ..., and then
     force x0 = x_last for an odd-length chain: unsat. *)
  let n = 9 in
  let s, v = fresh n in
  let xor1 a b =
    (* a (+) b = 1 : (a | b) & (~a | ~b) *)
    Solver.add_clause s [ Lit.pos a; Lit.pos b ];
    Solver.add_clause s [ Lit.neg a; Lit.neg b ]
  in
  for i = 0 to n - 2 do
    xor1 v.(i) v.(i + 1)
  done;
  (* Chain of 8 inversions: x8 = x0.  Forcing x8 <> x0 is unsat. *)
  xor1 v.(0) v.(n - 1);
  check_res "unsat" false (is_sat (Solver.solve s))

(* PHP over fresh variables of [s]: pigeon i in some hole; no two pigeons
   share a hole. *)
let pigeonhole_clauses s pigeons holes =
  let var =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  let rows =
    List.init pigeons (fun i -> List.init holes (fun j -> Lit.pos var.(i).(j)))
  in
  let clashes =
    List.concat_map
      (fun j ->
        List.concat_map
          (fun i1 ->
            List.init (pigeons - i1 - 1) (fun d ->
                [ Lit.neg var.(i1).(j); Lit.neg var.(i1 + d + 1).(j) ]))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  rows @ clashes

let pigeonhole pigeons holes =
  let s = Solver.create () in
  List.iter (Solver.add_clause s) (pigeonhole_clauses s pigeons holes);
  s

let test_pigeonhole_unsat () =
  check_res "php 4/3" false (is_sat (Solver.solve (pigeonhole 4 3)));
  check_res "php 5/4" false (is_sat (Solver.solve (pigeonhole 5 4)));
  check_res "php 6/5" false (is_sat (Solver.solve (pigeonhole 6 5)))

let test_pigeonhole_sat () =
  check_res "php 4/4" true (is_sat (Solver.solve (pigeonhole 4 4)));
  check_res "php 5/6" true (is_sat (Solver.solve (pigeonhole 5 6)))

let test_assumptions () =
  let s, v = fresh 3 in
  (* v0 -> v1, v1 -> v2 *)
  Solver.add_clause s [ Lit.neg v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.neg v.(1); Lit.pos v.(2) ];
  check_res "assume v0, ~v2 unsat" false
    (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(0); Lit.neg v.(2) ] s));
  check_res "assume v0 sat" true
    (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(0) ] s));
  check_bool "v2 forced" true (Solver.value s (Lit.pos v.(2)));
  check_res "still sat without assumptions" true (is_sat (Solver.solve s));
  check_res "conflicting assumptions" false
    (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(0); Lit.neg v.(0) ] s))

let test_incremental () =
  let s, v = fresh 4 in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  check_res "sat 1" true (is_sat (Solver.solve s));
  Solver.add_clause s [ Lit.neg v.(0) ];
  check_res "sat 2" true (is_sat (Solver.solve s));
  check_bool "v1 now forced" true (Solver.value s (Lit.pos v.(1)));
  Solver.add_clause s [ Lit.neg v.(1) ];
  check_res "unsat 3" false (is_sat (Solver.solve s));
  (* A permanently-unsat solver stays unsat. *)
  check_res "still unsat" false (is_sat (Solver.solve s))

let test_true_lit () =
  let s = Solver.create () in
  let t = Solver.true_lit s in
  check_res "sat" true (is_sat (Solver.solve s));
  check_bool "true_lit is true" true (Solver.value s t);
  check_bool "false_lit is false" false (Solver.value s (Solver.false_lit s))

let test_duplicate_and_tautology () =
  let s, v = fresh 2 in
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(0); Lit.pos v.(0) ];
  Solver.add_clause s [ Lit.pos v.(1); Lit.neg v.(1) ] (* dropped *);
  check_res "sat" true (is_sat (Solver.solve s));
  check_bool "v0 true" true (Solver.value s (Lit.pos v.(0)))

let test_unallocated_var_rejected () =
  let s, _ = fresh 1 in
  check_bool "raises" true
    (match Solver.add_clause s [ Lit.pos 5 ] with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- model validity and brute-force cross-check ---------------------- *)

let eval_clauses clauses model =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          let v = model.(Lit.var l) in
          if Lit.is_pos l then v else not v)
        clause)
    clauses

let brute_force_sat nvars clauses =
  let rec go i model =
    if i = nvars then eval_clauses clauses model
    else begin
      model.(i) <- false;
      go (i + 1) model
      ||
      (model.(i) <- true;
       go (i + 1) model)
    end
  in
  go 0 (Array.make nvars false)

let gen_random_cnf =
  QCheck.Gen.(
    int_range 3 12 >>= fun nvars ->
    int_range 1 50 >>= fun nclauses ->
    let gen_lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (nvars - 1)) bool in
    let gen_clause = list_size (int_range 1 3) gen_lit in
    map (fun cs -> (nvars, cs)) (list_size (return nclauses) gen_clause))

let arb_random_cnf =
  QCheck.make gen_random_cnf ~print:(fun (nvars, cs) ->
      Printf.sprintf "nvars=%d clauses=[%s]" nvars
        (String.concat "; "
           (List.map
              (fun c -> String.concat " " (List.map Lit.to_string c))
              cs)))

let prop_agrees_with_brute_force =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:300
    arb_random_cnf (fun (nvars, clauses) ->
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      let cdcl = is_sat (Solver.solve s) in
      let brute = brute_force_sat nvars clauses in
      if cdcl <> brute then false
      else if cdcl then
        (* When SAT, the produced model must satisfy every clause. *)
        eval_clauses clauses (Solver.model s)
      else true)

let prop_assumption_consistency =
  QCheck.Test.make ~name:"solve under assumptions = solve with units"
    ~count:150 arb_random_cnf (fun (nvars, clauses) ->
      let mk () =
        let s = Solver.create () in
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        List.iter (Solver.add_clause s) clauses;
        s
      in
      let assumps = [ Lit.pos 0; Lit.neg 1 ] in
      let s1 = mk () in
      let r1 = is_sat (Solver.solve ~assumptions:assumps s1) in
      let s2 = mk () in
      List.iter (fun l -> Solver.add_clause s2 [ l ]) assumps;
      let r2 = is_sat (Solver.solve s2) in
      r1 = r2)

(* --- DIMACS ---------------------------------------------------------- *)

let test_dimacs_parse () =
  let cnf = Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  Alcotest.check Alcotest.int "vars" 3 cnf.Dimacs.num_vars;
  Alcotest.check Alcotest.int "clauses" 2 (List.length cnf.Dimacs.clauses);
  let s = Solver.create () in
  let base = Dimacs.load s cnf in
  Alcotest.check Alcotest.int "fresh solver base" 0 base;
  check_res "sat" true (is_sat (Solver.solve s))

let test_dimacs_roundtrip () =
  let cnf = Dimacs.parse_string "p cnf 4 3\n1 2 0\n-3 4 0\n-1 -2 -4 0\n" in
  let cnf2 = Dimacs.parse_string (Dimacs.to_string cnf) in
  Alcotest.check Alcotest.bool "same" true (cnf = cnf2)

let test_dimacs_errors () =
  let expect_fail s =
    match Dimacs.parse_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "expected failure for %S" s
  in
  expect_fail "1 2 0\n";
  expect_fail "p cnf 2 1\n1 3 0\n";
  expect_fail "p cnf 2 1\n1 2\n";
  expect_fail "p cnf 2 5\n1 2 0\n"

let test_stats_reported () =
  let s = pigeonhole 5 4 in
  ignore (Solver.solve s);
  check_bool "conflicts counted" true (Solver.nconflicts s > 0);
  check_bool "decisions counted" true (Solver.ndecisions s > 0);
  check_bool "propagations counted" true (Solver.npropagations s > 0);
  check_bool "learnt clauses" true (Solver.nlearnts s > 0)

(* More variables than a fresh solver's arrays hold, so intake grows
   them: before any clause when all variables come first, between
   clauses (with populated watch lists) when they come on demand.  The
   clauses come in order of their largest variable, so each growth on
   demand finds the clauses over the lower variables already watched. *)
let top_var c = List.fold_left (fun m l -> max m (Lit.var l)) (-1) c

let gen_wide_cnf =
  QCheck.Gen.(
    int_range 17 80 >>= fun nvars ->
    let gen_lit = map2 Lit.make (int_range 0 (nvars - 1)) bool in
    let gen_clause = list_size (int_range 1 4) gen_lit in
    map
      (fun cs ->
        ( nvars,
          List.stable_sort (fun a b -> compare (top_var a) (top_var b)) cs ))
      (list_size (int_range 1 (4 * nvars)) gen_clause))

let prop_intake_order_keeps_search =
  QCheck.Test.make ~name:"variable intake order keeps the search" ~count:200
    (QCheck.make gen_wide_cnf ~print:(fun (nvars, cs) ->
         Printf.sprintf "nvars=%d clauses=[%s]" nvars
           (String.concat "; "
              (List.map
                 (fun c -> String.concat " " (List.map Lit.to_string c))
                 cs))))
    (fun (nvars, clauses) ->
      let upfront, _ = fresh nvars in
      List.iter (Solver.add_clause upfront) clauses;
      let on_demand = Solver.create () in
      let reach n =
        while Solver.nvars on_demand < n do
          ignore (Solver.new_var on_demand)
        done
      in
      List.iter
        (fun c ->
          reach (1 + top_var c);
          Solver.add_clause on_demand c)
        clauses;
      reach nvars;
      let r1 = is_sat (Solver.solve upfront) in
      let r2 = is_sat (Solver.solve on_demand) in
      r1 = r2
      && ((not r1) || Solver.model upfront = Solver.model on_demand)
      && Solver.nconflicts upfront = Solver.nconflicts on_demand
      && Solver.ndecisions upfront = Solver.ndecisions on_demand
      && Solver.npropagations upfront = Solver.npropagations on_demand)

let qcheck_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_agrees_with_brute_force; prop_assumption_consistency ]

(* A pool job's stop token is polled every 64 conflicts: a cancelled
   token unwinds an unbudgeted search with [Stop.Stopped] (never an
   [Unknown], which would read as a budget verdict), the solver stays
   usable, and outside the token nothing stops. *)
let test_stop_token_unwinds () =
  let s = pigeonhole 7 6 in
  let cancelled = Stop.token (Atomic.make true) in
  (match Stop.with_token cancelled (fun () -> Solver.solve_budgeted s) with
  | _ -> Alcotest.fail "a cancelled token must stop the search"
  | exception Stop.Stopped -> ());
  check_bool "stopped at the 64th conflict" true (Solver.nconflicts s = 64);
  check_bool "the caller's token is inert again" false (Stop.stopped ());
  check_res "usable after the stop" false (is_sat (Solver.solve s))

let suite =
  [ Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "no clauses" `Quick test_no_clauses;
    Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
    Alcotest.test_case "xor chain unsat" `Quick test_xor_chain_unsat;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental" `Quick test_incremental;
    Alcotest.test_case "true_lit" `Quick test_true_lit;
    Alcotest.test_case "duplicates and tautologies" `Quick
      test_duplicate_and_tautology;
    Alcotest.test_case "unallocated var rejected" `Quick
      test_unallocated_var_rejected;
    Alcotest.test_case "dimacs parse" `Quick test_dimacs_parse;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs errors" `Quick test_dimacs_errors;
    Alcotest.test_case "stats reported" `Quick test_stats_reported ]
  @ qcheck_props

let test_solve_bounded () =
  (* A hard instance: the budget is honored and the solver stays usable. *)
  let s = pigeonhole 9 8 in
  (match Solver.solve_bounded ~max_conflicts:50 s with
  | None -> ()
  | Some _ -> Alcotest.fail "php(9,8) should not decide in 50 conflicts");
  check_bool "conflicts counted" true (Solver.nconflicts s >= 50);
  (* After giving up, an unbounded call still works... *)
  check_res "still decidable" false (is_sat (Solver.solve s));
  (* ... and an easy instance decides within a small budget. *)
  let s2 = pigeonhole 4 4 in
  match Solver.solve_bounded ~max_conflicts:100000 s2 with
  | Some r -> check_res "easy decided" true (is_sat r)
  | None -> Alcotest.fail "easy instance exceeded a huge budget"

(* --- budgets and the learnt-clause DB --------------------------------- *)

let test_budgeted_conflicts () =
  let s = pigeonhole 9 8 in
  (match
     Solver.solve_budgeted
       ~budget:{ Solver.max_conflicts = Some 50; max_seconds = None }
       s
   with
  | Solver.Unknown Solver.Conflict_limit -> ()
  | Solver.Unknown Solver.Time_limit -> Alcotest.fail "wrong reason"
  | Solver.Sat | Solver.Unsat ->
    Alcotest.fail "php(9,8) should not decide in 50 conflicts");
  (* The budget is per call, not sticky: an unlimited call still decides,
     keeping the clauses learnt during the budgeted attempt. *)
  (match Solver.solve_budgeted s with
  | Solver.Unsat -> ()
  | Solver.Sat | Solver.Unknown _ -> Alcotest.fail "php(9,8) must be unsat")

(* Serve stores and campaign and portfolio journals are bound to these
   bytes: changing them orphans every persisted key. *)
let test_budget_key () =
  let key c s =
    Solver.budget_key (Some { Solver.max_conflicts = c; max_seconds = s })
  in
  let check = Alcotest.(check string) in
  check "no budget" "-" (Solver.budget_key None);
  check "conflicts only" "c=5000,s=-" (key (Some 5000) None);
  check "seconds only" "c=-,s=0.25" (key None (Some 0.25));
  check "both" "c=200,s=1.5" (key (Some 200) (Some 1.5))

let test_budgeted_time () =
  let s = pigeonhole 9 8 in
  (match
     Solver.solve_budgeted
       ~budget:{ Solver.max_conflicts = None; max_seconds = Some 0.0 }
       s
   with
  | Solver.Unknown Solver.Time_limit -> ()
  | Solver.Unknown Solver.Conflict_limit -> Alcotest.fail "wrong reason"
  | Solver.Sat | Solver.Unsat ->
    Alcotest.fail "php(9,8) should not decide in zero time");
  (* A query that decides without conflicting finishes even under a zero
     time budget (the clock is only polled at conflicts). *)
  let s2, v = fresh 2 in
  Solver.add_clause s2 [ Lit.pos v.(0) ];
  match
    Solver.solve_budgeted
      ~budget:{ Solver.max_conflicts = None; max_seconds = Some 0.0 }
      s2
  with
  | Solver.Sat -> ()
  | Solver.Unsat | Solver.Unknown _ ->
    Alcotest.fail "conflict-free query must still decide"

let test_budget_validation () =
  let s, _ = fresh 1 in
  let bad b =
    match Solver.solve_budgeted ~budget:b s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "conflicts >= 1" true
    (bad { Solver.max_conflicts = Some 0; max_seconds = None });
  check_bool "seconds >= 0" true
    (bad { Solver.max_conflicts = None; max_seconds = Some (-1.0) })

(* The counts pin the search trajectory: a change to the solver's data
   layout must reproduce them exactly (DESIGN.md section 7). *)
let check_counts name s (conflicts, decisions, propagations, removed) =
  Alcotest.(check (list int))
    (name ^ ": conflicts, decisions, propagations, learnts removed")
    [ conflicts; decisions; propagations; removed ]
    [ Solver.nconflicts s; Solver.ndecisions s; Solver.npropagations s;
      Solver.nlearnts_removed s ]

let test_learnt_reduction () =
  (* Force many reductions on a hard instance and check the answer is
     still right: reduction must be sound (learnts are implied). *)
  let s = pigeonhole 7 6 in
  Solver.set_learnt_limit s 64;
  check_res "php(7,6) unsat with tiny learnt DB" false (is_sat (Solver.solve s));
  check_counts "php(7,6)" s (785, 965, 10167, 518);
  (* Queries under assumptions, where reductions meet reasons at the
     assumption levels. *)
  let st = Random.State.make [| 1 |] in
  let lit () = Lit.make (Random.State.int st 100) (Random.State.bool st) in
  let r, _ = fresh 100 in
  Solver.set_learnt_limit r 4;
  List.iter (Solver.add_clause r)
    (List.init 420 (fun _ -> List.init 3 (fun _ -> lit ())));
  for _ = 1 to 6 do
    let assumptions = List.init 3 (fun _ -> lit ()) in
    ignore (Solver.solve ~assumptions r);
    ignore (Solver.solve ~assumptions r)
  done;
  check_counts "random 3-SAT under assumptions" r (320, 394, 7505, 50);
  (* And a satisfiable instance still finds a (valid) model. *)
  let s2 = pigeonhole 6 6 in
  Solver.set_learnt_limit s2 16;
  check_res "php(6,6) sat with tiny learnt DB" true (is_sat (Solver.solve s2));
  check_bool "bad limit rejected" true
    (match Solver.set_learnt_limit s2 0 with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- reduction and arena compaction ----------------------------------- *)

(* Reduction runs only at a restart, after 100 conflicts in one call,
   which a brute-forceable random CNF never reaches.  A pigeonhole core
   behind two fresh guard literals supplies those conflicts: it is
   unsatisfiable while both guards are assumed, and leaving a guard false
   satisfies it, so every other answer still follows from the random
   part alone.  Two guards make the learnt clauses ternary or longer, so
   they are reduction candidates. *)
let guarded_pigeonhole s pigeons holes =
  let g1 = Lit.pos (Solver.new_var s) in
  let g2 = Lit.pos (Solver.new_var s) in
  let core =
    List.map
      (fun c -> Lit.negate g1 :: Lit.negate g2 :: c)
      (pigeonhole_clauses s pigeons holes)
  in
  List.iter (Solver.add_clause s) core;
  ([ g1; g2 ], core)

let units = List.map (fun l -> [ l ])

let gen_reduction_steps =
  QCheck.Gen.(
    int_range 3 10 >>= fun nvars ->
    let gen_lit = map2 Lit.make (int_range 0 (nvars - 1)) bool in
    let step =
      pair
        (list_size (int_range 1 12) (list_size (int_range 1 3) gen_lit))
        (list_size (int_range 0 3) gen_lit)
    in
    map (fun steps -> (nvars, steps)) (list_size (int_range 1 4) step))

let arb_reduction_steps =
  let show ls = String.concat " " (List.map Lit.to_string ls) in
  QCheck.make gen_reduction_steps ~print:(fun (nvars, steps) ->
      Printf.sprintf "nvars=%d %s" nvars
        (String.concat " | "
           (List.map
              (fun (cs, a) ->
                Printf.sprintf "add [%s] assume [%s]"
                  (String.concat "; " (List.map show cs))
                  (show a))
              steps)))

(* Each step adds random clauses and a fresh guarded core, then solves
   under the guards (a reduction-heavy Unsat) and without them (checked
   against brute force, and any model against every clause). *)
let prop_reduction_keeps_answers =
  QCheck.Test.make ~name:"learnt reduction keeps answers exact" ~count:100
    arb_reduction_steps (fun (nvars, steps) ->
      let s, _ = fresh nvars in
      Solver.set_learnt_limit s 4;
      let random = ref [] and all = ref [] in
      List.for_all
        (fun (clauses, assumptions) ->
          List.iter (Solver.add_clause s) clauses;
          let guards, core = guarded_pigeonhole s 6 5 in
          random := clauses @ !random;
          all := clauses @ core @ !all;
          let expect = brute_force_sat nvars (units assumptions @ !random) in
          (not (is_sat (Solver.solve ~assumptions:(guards @ assumptions) s)))
          &&
          if is_sat (Solver.solve ~assumptions s) then
            expect && eval_clauses (units assumptions @ !all) (Solver.model s)
          else not expect)
        steps)

(* Assuming a1..a30 and deciding x false conflicts through
   (x | y | ~a1..~a30) and (x | ~y | ~a1..~a30), which learns
   (x | ~a1 | ... | ~a30).  It asserts x at the last assumption level, so
   it stays the locked reason of x for the rest of the call.  x is
   allocated last, which makes it the first free decision.  The guarded
   core then forces restarts, whose reductions drop the longest learnts:
   this clause, the longest, must stay, and compaction must move it
   together with x's reason. *)
let test_locked_reasons_survive_compaction () =
  let s = Solver.create () in
  let a = List.init 30 (fun _ -> Lit.pos (Solver.new_var s)) in
  let guards, core = guarded_pigeonhole s 7 6 in
  let y = Solver.new_var s in
  let x = Solver.new_var s in
  let not_a = List.map Lit.negate a in
  let pair =
    [ Lit.pos x :: Lit.pos y :: not_a; Lit.pos x :: Lit.neg y :: not_a ]
  in
  List.iter (Solver.add_clause s) pair;
  Solver.set_learnt_limit s 4;
  let assumptions = guards @ a in
  check_res "core unsat under its guards" false
    (is_sat (Solver.solve ~assumptions s));
  check_counts "guarded php(7,6)" s (953, 1173, 12577, 520);
  check_res "same query after the reductions" false
    (is_sat (Solver.solve ~assumptions s));
  check_res "guards off" true (is_sat (Solver.solve ~assumptions:a s));
  check_bool "x forced" true (Solver.value s (Lit.pos x));
  check_bool "model satisfies every clause" true
    (eval_clauses (units a @ pair @ core) (Solver.model s))

let test_interleaved_sessions () =
  (* The access pattern of an equivalence session: add_clause / solve /
     solve ~assumptions interleaved on one solver, with assumption-scoped
     queries not perturbing later unconstrained ones. *)
  let s, v = fresh 6 in
  Solver.add_clause s [ Lit.neg v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.neg v.(1); Lit.pos v.(2) ];
  check_res "frame 0" true (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(0) ] s));
  check_bool "implied" true (Solver.value s (Lit.pos v.(2)));
  (* Block the frame, as BMC does after proving it unreachable. *)
  Solver.add_clause s [ Lit.neg v.(2) ];
  check_res "frame 0 now closed" false
    (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(0) ] s));
  check_res "other frames open" true
    (is_sat (Solver.solve ~assumptions:[ Lit.pos v.(3) ] s));
  (* An activation literal scoping a guarded constraint. *)
  let act = Lit.pos (Solver.new_var s) in
  Solver.add_clause s [ Lit.negate act; Lit.pos v.(4) ];
  check_res "guarded active" true (is_sat (Solver.solve ~assumptions:[ act ] s));
  check_bool "guard fired" true (Solver.value s (Lit.pos v.(4)));
  Solver.add_clause s [ Lit.negate act ];
  check_res "guard retired, v4 free" true
    (is_sat (Solver.solve ~assumptions:[ Lit.neg v.(4) ] s));
  Solver.add_clause s [ Lit.pos v.(5) ];
  check_res "still incremental" true (is_sat (Solver.solve s));
  check_bool "unit holds" true (Solver.value s (Lit.pos v.(5)))

let test_dimacs_offset_load () =
  (* Loading composes with a solver that already has variables. *)
  let s, v = fresh 2 in
  Solver.add_clause s [ Lit.pos v.(0) ];
  Solver.add_clause s [ Lit.neg v.(1) ];
  let cnf = Dimacs.parse_string "p cnf 2 2\n1 2 0\n-1 2 0\n" in
  let base = Dimacs.load s cnf in
  Alcotest.check Alcotest.int "base after 2 vars" 2 base;
  check_res "combined sat" true (is_sat (Solver.solve s));
  (* The pre-existing constraints and the loaded ones both hold. *)
  check_bool "old unit kept" true (Solver.value s (Lit.pos v.(0)));
  check_bool "loaded clause solved" true
    (Solver.value s (Dimacs.solver_lit ~base (Lit.of_dimacs 2)));
  (* A second load gets its own block; make it clash-free with the first
     by construction and force a contradiction across blocks. *)
  let base2 = Dimacs.load s (Dimacs.parse_string "p cnf 1 1\n1 0\n") in
  Alcotest.check Alcotest.int "blocks stack" 4 base2;
  check_res "still sat" true (is_sat (Solver.solve s));
  Solver.add_clause s [ Lit.negate (Dimacs.solver_lit ~base:base2 (Lit.of_dimacs 1)) ];
  check_res "cross-block contradiction" false (is_sat (Solver.solve s))

let suite =
  suite
  @ [ Alcotest.test_case "solve_bounded budget" `Quick test_solve_bounded;
      Alcotest.test_case "budgeted conflicts" `Quick test_budgeted_conflicts;
      Alcotest.test_case "budgeted wall clock" `Quick test_budgeted_time;
      Alcotest.test_case "budget key text" `Quick test_budget_key;
      Alcotest.test_case "budget validation" `Quick test_budget_validation;
      Alcotest.test_case "learnt DB reduction" `Quick test_learnt_reduction;
      Alcotest.test_case "locked reasons survive compaction" `Quick
        test_locked_reasons_survive_compaction;
      QCheck_alcotest.to_alcotest prop_reduction_keeps_answers;
      Alcotest.test_case "interleaved incremental sessions" `Quick
        test_interleaved_sessions;
      Alcotest.test_case "dimacs offset load" `Quick test_dimacs_offset_load;
      QCheck_alcotest.to_alcotest prop_intake_order_keeps_search;
      Alcotest.test_case "a cancelled stop token unwinds the search" `Quick
        test_stop_token_unwinds ]
