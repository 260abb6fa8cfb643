(* Tests for SAT sweeping: function preservation and merge power. *)

open Dfv_bitvec
open Dfv_aig

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* Build a random AIG and check fraig preserves its function. *)
let test_fraig_preserves_function () =
  let st = Random.State.make [| 31337 |] in
  for _round = 1 to 20 do
    let g = Aig.create () in
    let ninputs = 2 + Random.State.int st 6 in
    let inputs = Array.init ninputs (fun _ -> Aig.input g) in
    let pool = ref (Array.to_list inputs) in
    for _ = 1 to 40 do
      let pick () =
        let l = List.nth !pool (Random.State.int st (List.length !pool)) in
        if Random.State.bool st then Aig.not_ l else l
      in
      let n = Aig.and_ g (pick ()) (pick ()) in
      pool := n :: !pool
    done;
    let roots =
      List.filteri (fun i _ -> i < 5) !pool
    in
    let g', sub = Sweep.fraig g in
    (* Compare on random input assignments. *)
    for _ = 1 to 50 do
      let assignment = Array.init ninputs (fun _ -> Random.State.bool st) in
      let v = Aig.simulate g assignment in
      let v' = Aig.simulate g' assignment in
      List.iter
        (fun r ->
          let a = Aig.lit_of_node_value v r in
          let b = Aig.lit_of_node_value v' (sub r) in
          if a <> b then Alcotest.fail "fraig changed a root's function")
        roots
    done
  done

let test_fraig_merges_equal_structures () =
  (* Two structurally different formulations of the same function end up
     at the same literal. *)
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g and c = Aig.input g in
  (* (a & b) & c  vs  a & (b & c) *)
  let x = Aig.and_ g (Aig.and_ g a b) c in
  let y = Aig.and_ g a (Aig.and_ g b c) in
  check_bool "different before sweep" true (x <> y);
  let _, sub = Sweep.fraig g in
  check_int "same after sweep" (sub x) (sub y);
  (* De Morgan pair merges too (complement handling). *)
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.not_ (Aig.and_ g a b) in
  let y = Aig.or_ g (Aig.not_ a) (Aig.not_ b) in
  let _, sub = Sweep.fraig g in
  check_int "de morgan merges" (sub x) (sub y)

let test_fraig_merges_adders () =
  (* Word-level: two adder constructions; after sweeping, every output
     bit pair collapses to one literal — this is what makes monolithic
     SEC tractable. *)
  let g = Aig.create () in
  let width = 8 in
  let a = Word.inputs g width and b = Word.inputs g width in
  let s1 = Word.add g a b in
  let s2 = Word.lognot (Word.sub g (Word.lognot a) b) in
  let _, sub = Sweep.fraig g in
  Array.iteri
    (fun i l1 ->
      if sub l1 <> sub s2.(i) then
        Alcotest.failf "bit %d not merged by sweeping" i)
    s1

let test_fraig_keeps_inequivalent_apart () =
  (* Nodes that agree on most patterns but differ somewhere must not be
     merged (the refinement path). *)
  let g = Aig.create () in
  let width = 10 in
  let a = Word.inputs g width in
  (* f = (a == 0), g = (a == 1): agree except on two inputs out of 1024 —
     random patterns likely never distinguish them, so the SAT query and
     refinement must. *)
  let zero = Word.const (Bitvec.zero width) in
  let one = Word.const (Bitvec.create ~width 1) in
  let f = Word.eq g a zero in
  let h = Word.eq g a one in
  let g', sub = Sweep.fraig g in
  check_bool "not merged" true (sub f <> sub h);
  (* And both still compute their function. *)
  let probe v expect_f expect_h =
    let values = Aig.simulate g' (Bitvec.to_bits (Bitvec.create ~width v)) in
    check_bool "f value" expect_f (Aig.lit_of_node_value values (sub f));
    check_bool "h value" expect_h (Aig.lit_of_node_value values (sub h))
  in
  probe 0 true false;
  probe 1 false true;
  probe 5 false false

let test_fraig_reduces_duplicated_logic () =
  (* A miter of two copies of the same function: sweeping reduces it to
     far fewer nodes. *)
  let g = Aig.create () in
  let width = 8 in
  let a = Word.inputs g width and b = Word.inputs g width in
  let m1 = Word.mul g a b in
  (* A slightly restructured multiply: (a * b) computed via shifted adds
     in a different association order. *)
  let m2 = Word.mul g b a in
  let diff = Word.ne g m1 m2 in
  let before = Aig.num_ands g in
  (* Multiplier commutativity is not structurally local: some candidate
     pairs need deep proofs, so give the sweeper a generous per-pair
     budget for this test. *)
  let g', sub = Sweep.fraig ~max_conflicts:50_000 g in
  check_bool "miter is constant false" true (sub diff = Aig.false_);
  check_bool "graph shrank" true (Aig.num_ands g' < before)

(* The sweep polls its stop token before each candidate pair, so a
   cancelled pool job stops mid-sweep even when no local query reaches
   the solver's 64-conflict poll. *)
let test_fraig_stops () =
  let g = Aig.create () in
  let a = Word.inputs g 8 and b = Word.inputs g 8 in
  ignore (Word.add g a b);
  ignore (Word.lognot (Word.sub g (Word.lognot a) b));
  let cancelled = Dfv_sat.Stop.token (Atomic.make true) in
  let solves = Dfv_obs.Metrics.counter "sat.solves" in
  let before = Dfv_obs.Metrics.counter_value solves in
  (match Dfv_sat.Stop.with_token cancelled (fun () -> Sweep.fraig g) with
  | _ -> Alcotest.fail "a cancelled token must stop the sweep"
  | exception Dfv_sat.Stop.Stopped -> ());
  check_int "stopped before its first pairwise query" before
    (Dfv_obs.Metrics.counter_value solves)

let suite =
  [ Alcotest.test_case "fraig preserves function" `Quick
      test_fraig_preserves_function;
    Alcotest.test_case "fraig merges equal structures" `Quick
      test_fraig_merges_equal_structures;
    Alcotest.test_case "fraig merges adder forms" `Quick
      test_fraig_merges_adders;
    Alcotest.test_case "fraig keeps inequivalent apart" `Quick
      test_fraig_keeps_inequivalent_apart;
    Alcotest.test_case "fraig reduces duplicated logic" `Quick
      test_fraig_reduces_duplicated_logic;
    Alcotest.test_case "fraig stops at a cancelled token" `Quick
      test_fraig_stops ]
