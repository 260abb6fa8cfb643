(* Tests for the AIG and its word-level builder: every word operator is
   cross-checked against the Bitvec reference semantics, both by
   simulation and (for a few) by SAT. *)

open Dfv_bitvec
open Dfv_aig

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* --- plain AIG -------------------------------------------------------- *)

let test_constant_folding () =
  let g = Aig.create () in
  let a = Aig.input g in
  check_int "x & 0" Aig.false_ (Aig.and_ g a Aig.false_);
  check_int "x & 1" a (Aig.and_ g a Aig.true_);
  check_int "x & x" a (Aig.and_ g a a);
  check_int "x & ~x" Aig.false_ (Aig.and_ g a (Aig.not_ a));
  check_int "x | ~x" Aig.true_ (Aig.or_ g a (Aig.not_ a));
  check_int "~~x" a (Aig.not_ (Aig.not_ a))

let test_structural_hashing () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.and_ g a b in
  let y = Aig.and_ g b a in
  check_int "commutative hash" x y;
  let before = Aig.num_ands g in
  let _ = Aig.and_ g a b in
  check_int "no new node" before (Aig.num_ands g)

let test_eval () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let f = Aig.xor_ g a b in
  let e va vb = Aig.eval g (fun i -> if i = 0 then va else vb) f in
  check_bool "00" false (e false false);
  check_bool "01" true (e false true);
  check_bool "10" true (e true false);
  check_bool "11" false (e true true)

let test_mux () =
  let g = Aig.create () in
  let s = Aig.input g and a = Aig.input g and b = Aig.input g in
  let m = Aig.mux g ~sel:s a b in
  let e vs va vb =
    Aig.eval g (fun i -> match i with 0 -> vs | 1 -> va | _ -> vb) m
  in
  check_bool "sel=1 -> a" true (e true true false);
  check_bool "sel=0 -> b" false (e false true false);
  check_bool "sel=0 -> b'" true (e false false true)

let test_check_sat () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  (match Aig.check_sat g (Aig.and_ g a b) with
  | `Sat w ->
    check_bool "witness a" true w.(0);
    check_bool "witness b" true w.(1)
  | `Unsat -> Alcotest.fail "expected sat");
  (match Aig.check_sat g (Aig.and_ g a (Aig.not_ a)) with
  | `Unsat -> ()
  | `Sat _ -> Alcotest.fail "expected unsat");
  (match Aig.check_sat g Aig.true_ with
  | `Sat _ -> ()
  | `Unsat -> Alcotest.fail "constant true is sat")

let test_equivalent () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  (* De Morgan: ~(a & b) = ~a | ~b *)
  let lhs = Aig.not_ (Aig.and_ g a b) in
  let rhs = Aig.or_ g (Aig.not_ a) (Aig.not_ b) in
  (match Aig.equivalent g lhs rhs with
  | `Yes -> ()
  | `No _ -> Alcotest.fail "De Morgan should hold");
  (match Aig.equivalent g (Aig.and_ g a b) (Aig.or_ g a b) with
  | `No w ->
    (* Witness must actually distinguish the two. *)
    let va = w.(0) and vb = w.(1) in
    check_bool "witness distinguishes" true ((va && vb) <> (va || vb))
  | `Yes -> Alcotest.fail "and /= or")

(* --- word level: cross-check against Bitvec --------------------------- *)

(* Evaluate a unary word function against its Bitvec reference. *)
let check_unary_op ~name ~width op_w op_bv =
  let st = Random.State.make [| 42; width |] in
  for _ = 1 to 64 do
    let x = Bitvec.random st ~width in
    let g = Aig.create () in
    let xi = Word.inputs g width in
    let r = op_w g xi in
    let values = Aig.simulate g (Bitvec.to_bits x) in
    let got = Word.to_bitvec g values r in
    let expect = op_bv x in
    if not (Bitvec.equal got expect) then
      Alcotest.failf "%s(%s): got %s, expected %s" name (Bitvec.to_string x)
        (Bitvec.to_string got) (Bitvec.to_string expect)
  done

let check_binary_op ?(iters = 64) ~name ~width op_w op_bv () =
  let st = Random.State.make [| 17; width |] in
  for _ = 1 to iters do
    let x = Bitvec.random st ~width and y = Bitvec.random st ~width in
    let g = Aig.create () in
    let xi = Word.inputs g width and yi = Word.inputs g width in
    let r = op_w g xi yi in
    let inputs = Array.append (Bitvec.to_bits x) (Bitvec.to_bits y) in
    let values = Aig.simulate g inputs in
    let got = Word.to_bitvec g values r in
    let expect = op_bv x y in
    if not (Bitvec.equal got expect) then
      Alcotest.failf "%s(%s, %s): got %s, expected %s" name
        (Bitvec.to_string x) (Bitvec.to_string y) (Bitvec.to_string got)
        (Bitvec.to_string expect)
  done

let check_pred ~name ~width op_w op_bv =
  let st = Random.State.make [| 99; width |] in
  for _ = 1 to 128 do
    let x = Bitvec.random st ~width and y = Bitvec.random st ~width in
    let g = Aig.create () in
    let xi = Word.inputs g width and yi = Word.inputs g width in
    let r = op_w g xi yi in
    let inputs = Array.append (Bitvec.to_bits x) (Bitvec.to_bits y) in
    let values = Aig.simulate g inputs in
    let got = Aig.lit_of_node_value values r in
    let expect = op_bv x y in
    if got <> expect then
      Alcotest.failf "%s(%s, %s): got %b, expected %b" name
        (Bitvec.to_string x) (Bitvec.to_string y) got expect
  done

let test_word_add () =
  List.iter
    (fun w -> check_binary_op ~name:"add" ~width:w Word.add Bitvec.add ())
    [ 1; 7; 8; 32; 65 ]

let test_word_sub () =
  List.iter
    (fun w -> check_binary_op ~name:"sub" ~width:w Word.sub Bitvec.sub ())
    [ 1; 8; 33 ]

let test_word_neg () =
  List.iter
    (fun w -> check_unary_op ~name:"neg" ~width:w Word.neg Bitvec.neg)
    [ 1; 8; 40 ]

let test_word_mul () =
  List.iter
    (fun w -> check_binary_op ~name:"mul" ~width:w Word.mul Bitvec.mul ())
    [ 1; 4; 8; 16 ]

let test_word_div () =
  List.iter
    (fun w ->
      check_binary_op ~iters:32 ~name:"udiv" ~width:w Word.udiv
        (fun a b -> if Bitvec.is_zero b then Bitvec.ones w else Bitvec.udiv a b)
        ();
      check_binary_op ~iters:32 ~name:"urem" ~width:w Word.urem
        (fun a b -> if Bitvec.is_zero b then a else Bitvec.urem a b)
        ())
    [ 1; 4; 8 ]

let test_word_div_exhaustive_4bit () =
  (* Exhaustive 4-bit check of the restoring divider. *)
  let g = Aig.create () in
  let xi = Word.inputs g 4 and yi = Word.inputs g 4 in
  let q = Word.udiv g xi yi and r = Word.urem g xi yi in
  for a = 0 to 15 do
    for b = 1 to 15 do
      let inputs =
        Array.append
          (Bitvec.to_bits (Bitvec.create ~width:4 a))
          (Bitvec.to_bits (Bitvec.create ~width:4 b))
      in
      let values = Aig.simulate g inputs in
      check_int
        (Printf.sprintf "%d / %d" a b)
        (a / b)
        (Bitvec.to_int (Word.to_bitvec g values q));
      check_int
        (Printf.sprintf "%d %% %d" a b)
        (a mod b)
        (Bitvec.to_int (Word.to_bitvec g values r))
    done
  done

let test_word_logic () =
  check_binary_op ~name:"and" ~width:16 Word.logand Bitvec.logand ();
  check_binary_op ~name:"or" ~width:16 Word.logor Bitvec.logor ();
  check_binary_op ~name:"xor" ~width:16 Word.logxor Bitvec.logxor ();
  check_unary_op ~name:"not" ~width:16 (fun _g a -> Word.lognot a) Bitvec.lognot

let test_word_predicates () =
  List.iter
    (fun w ->
      check_pred ~name:"eq" ~width:w Word.eq Bitvec.equal;
      check_pred ~name:"ne" ~width:w Word.ne (fun a b -> not (Bitvec.equal a b));
      check_pred ~name:"ult" ~width:w Word.ult Bitvec.ult;
      check_pred ~name:"ule" ~width:w Word.ule Bitvec.ule;
      check_pred ~name:"slt" ~width:w Word.slt Bitvec.slt;
      check_pred ~name:"sle" ~width:w Word.sle Bitvec.sle)
    [ 1; 8; 17 ]

let test_word_reduce () =
  let width = 9 in
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 64 do
    let x = Bitvec.random st ~width in
    let g = Aig.create () in
    let xi = Word.inputs g width in
    let r_and = Word.reduce_and g xi in
    let r_or = Word.reduce_or g xi in
    let r_xor = Word.reduce_xor g xi in
    let values = Aig.simulate g (Bitvec.to_bits x) in
    check_bool "reduce_and" (Bitvec.reduce_and x)
      (Aig.lit_of_node_value values r_and);
    check_bool "reduce_or" (Bitvec.reduce_or x)
      (Aig.lit_of_node_value values r_or);
    check_bool "reduce_xor" (Bitvec.reduce_xor x)
      (Aig.lit_of_node_value values r_xor)
  done

let test_word_shifts_const () =
  List.iter
    (fun n ->
      check_unary_op ~name:"shl" ~width:13
        (fun g a -> Word.shift_left g a n)
        (fun x -> Bitvec.shift_left x n);
      check_unary_op ~name:"lshr" ~width:13
        (fun g a -> Word.shift_right_logical g a n)
        (fun x -> Bitvec.shift_right_logical x n);
      check_unary_op ~name:"ashr" ~width:13
        (fun g a -> Word.shift_right_arith g a n)
        (fun x -> Bitvec.shift_right_arith x n))
    [ 0; 1; 5; 12 ]

let test_word_shifts_var () =
  (* Variable shifts against the Bitvec reference with clamping. *)
  let width = 8 in
  let ref_shift f x amount =
    let n = Bitvec.to_int amount in
    if n >= width then None else Some (f x n)
  in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let x = Bitvec.random st ~width in
    let amt = Bitvec.random st ~width in
    let g = Aig.create () in
    let xi = Word.inputs g width and ai = Word.inputs g width in
    let inputs = Array.append (Bitvec.to_bits x) (Bitvec.to_bits amt) in
    let run op = Word.to_bitvec g (Aig.simulate g inputs) (op g xi ai) in
    let shl = run Word.shift_left_var in
    (match ref_shift Bitvec.shift_left x amt with
    | Some e -> check_bool "shl_var" true (Bitvec.equal shl e)
    | None -> check_bool "shl_var overflow" true (Bitvec.is_zero shl));
    let lshr = run Word.shift_right_logical_var in
    (match ref_shift Bitvec.shift_right_logical x amt with
    | Some e -> check_bool "lshr_var" true (Bitvec.equal lshr e)
    | None -> check_bool "lshr_var overflow" true (Bitvec.is_zero lshr));
    let ashr = run Word.shift_right_arith_var in
    match ref_shift Bitvec.shift_right_arith x amt with
    | Some e -> check_bool "ashr_var" true (Bitvec.equal ashr e)
    | None ->
      let expect = if Bitvec.msb x then Bitvec.ones width else Bitvec.zero width in
      check_bool "ashr_var overflow" true (Bitvec.equal ashr expect)
  done

let test_word_structure () =
  check_binary_op ~name:"concat" ~width:6
    (fun _g a b -> Word.concat [ a; b ])
    (fun x y -> Bitvec.concat [ x; y ])
    ();
  check_unary_op ~name:"select" ~width:12
    (fun _g a -> Word.select a ~hi:8 ~lo:3)
    (fun x -> Bitvec.select x ~hi:8 ~lo:3);
  check_unary_op ~name:"uresize grow" ~width:9
    (fun _g a -> Word.uresize a 17)
    (fun x -> Bitvec.uresize x 17);
  check_unary_op ~name:"sresize grow" ~width:9
    (fun _g a -> Word.sresize a 17)
    (fun x -> Bitvec.sresize x 17);
  check_unary_op ~name:"uresize shrink" ~width:9
    (fun _g a -> Word.uresize a 4)
    (fun x -> Bitvec.uresize x 4);
  check_unary_op ~name:"repeat" ~width:5
    (fun _g a -> Word.repeat a 3)
    (fun x -> Bitvec.repeat x 3)

let test_word_mux_index () =
  let g = Aig.create () in
  let words = Array.init 4 (fun k -> Word.const (Bitvec.create ~width:8 (10 * k))) in
  let idx = Word.inputs g 3 in
  let default = Word.const (Bitvec.create ~width:8 255) in
  let r = Word.mux_index g ~default idx words in
  for k = 0 to 7 do
    let inputs = Bitvec.to_bits (Bitvec.create ~width:3 k) in
    let values = Aig.simulate g inputs in
    let got = Bitvec.to_int (Word.to_bitvec g values r) in
    let expect = if k < 4 then 10 * k else 255 in
    check_int (Printf.sprintf "idx=%d" k) expect got
  done

(* SAT-level cross-check: addition built two different ways is proven
   equivalent by the solver (not just simulation). *)
let test_sat_equivalence_of_adders () =
  let width = 8 in
  let g = Aig.create () in
  let a = Word.inputs g width and b = Word.inputs g width in
  let sum1 = Word.add g a b in
  (* a + b = ~(~a - b) *)
  let sum2 = Word.lognot (Word.sub g (Word.lognot a) b) in
  let ok = ref true in
  for i = 0 to width - 1 do
    match Aig.equivalent g sum1.(i) sum2.(i) with
    | `Yes -> ()
    | `No _ -> ok := false
  done;
  check_bool "adders equivalent bitwise" true !ok

let test_sat_finds_distinguishing_input () =
  let width = 8 in
  let g = Aig.create () in
  let a = Word.inputs g width and b = Word.inputs g width in
  let good = Word.add g a b in
  (* A buggy adder: drops the carry into bit 4 (a realistic RTL typo). *)
  let bad = Array.copy good in
  bad.(4) <- Aig.xor_ g a.(4) b.(4);
  let found = ref false in
  for i = 0 to width - 1 do
    match Aig.equivalent g good.(i) bad.(i) with
    | `No w ->
      found := true;
      (* Check the witness truly distinguishes via simulation. *)
      let values = Aig.simulate g w in
      let vg = Aig.lit_of_node_value values good.(i) in
      let vb = Aig.lit_of_node_value values bad.(i) in
      check_bool "witness valid" true (vg <> vb)
    | `Yes -> ()
  done;
  check_bool "bug found" true !found

(* --- Tseitin encoder against a reference -------------------------------- *)

module S = Dfv_sat.Solver
module L = Dfv_sat.Lit

(* The list-stack DFS the encoder must reproduce, over the public node
   accessors.  A cone's nodes get their solver variables in this visit
   order (fanin a's cone before fanin b's), so the encoder must number
   every node and count every reuse exactly as this does. *)
type reference = {
  r_solver : S.t;
  r_vars : (int, L.t) Hashtbl.t;
  mutable r_fresh : int;
  mutable r_reuse : int;
}

let reference_lit r l =
  let v = Hashtbl.find r.r_vars (l lsr 1) in
  if l land 1 = 1 then L.negate v else v

let reference_encode g r root =
  let seen = Hashtbl.create 16 in
  let add id v =
    Hashtbl.add r.r_vars id v;
    r.r_fresh <- r.r_fresh + 1
  in
  let push id stack =
    if Hashtbl.mem r.r_vars id then begin
      r.r_reuse <- r.r_reuse + 1;
      stack
    end
    else id :: stack
  in
  let rec go = function
    | [] -> ()
    | id :: rest when Hashtbl.mem r.r_vars id ->
      r.r_reuse <- r.r_reuse + 1;
      go rest
    | id :: rest -> (
      match (Aig.node_fanins g id, Aig.node_input g id) with
      | None, None ->
        add id (S.false_lit r.r_solver);
        go rest
      | None, Some _ ->
        add id (L.pos (S.new_var r.r_solver));
        go rest
      | Some (a, b), _ when not (Hashtbl.mem seen id) ->
        Hashtbl.add seen id ();
        go (push (a lsr 1) (push (b lsr 1) (id :: rest)))
      | Some (a, b), _ ->
        let n = L.pos (S.new_var r.r_solver) in
        let la = reference_lit r a and lb = reference_lit r b in
        S.add_clause r.r_solver [ L.negate n; la ];
        S.add_clause r.r_solver [ L.negate n; lb ];
        S.add_clause r.r_solver [ n; L.negate la; L.negate lb ];
        add id n;
        go rest)
  in
  go [ root lsr 1 ]

(* A script grows one graph in phases: each adds ANDs over literals
   already in the graph, then encodes one root, so the encoder sees the
   graph grow between calls and each root's cone meets earlier ones. *)
let gen_encode_script =
  QCheck.Gen.(
    pair (int_range 1 6)
      (list_size (int_range 1 6)
         (pair
            (list_size (int_range 0 16)
               (pair (pair nat nat) (pair bool bool)))
            (pair nat bool))))

let print_encode_script (ninputs, phases) =
  Printf.sprintf "inputs=%d %s" ninputs
    (String.concat " | "
       (List.map
          (fun (ands, (root, rc)) ->
            Printf.sprintf "ands [%s] root %d%s"
              (String.concat "; "
                 (List.map
                    (fun ((i, j), (ci, cj)) ->
                      Printf.sprintf "%d%s&%d%s" i
                        (if ci then "'" else "")
                        j
                        (if cj then "'" else ""))
                    ands))
              root
              (if rc then "'" else ""))
          phases))

let prop_encoder_matches_reference =
  QCheck.Test.make ~name:"encoder matches the list-stack reference"
    ~count:300
    (QCheck.make gen_encode_script ~print:print_encode_script)
    (fun (ninputs, phases) ->
      let g = Aig.create () in
      for _ = 1 to ninputs do
        ignore (Aig.input g)
      done;
      let s = S.create () in
      let m = Aig.encoder g s in
      let r =
        { r_solver = S.create (); r_vars = Hashtbl.create 16; r_fresh = 0;
          r_reuse = 0 }
      in
      let pick k c = (2 * (k mod Aig.num_nodes g)) lxor Bool.to_int c in
      List.for_all
        (fun (ands, (root, rc)) ->
          List.iter
            (fun ((i, j), (ci, cj)) ->
              let a = pick i ci in
              ignore (Aig.and_ g a (pick j cj)))
            ands;
          let root = pick root rc in
          let sl = Aig.encode m root in
          reference_encode g r root;
          let same_lit id =
            match Aig.sat_lit m (2 * id) with
            | l -> Hashtbl.find_opt r.r_vars id = Some l
            | exception Not_found -> not (Hashtbl.mem r.r_vars id)
          in
          let all_nodes = List.init (Aig.num_nodes g + 2) Fun.id in
          sl = reference_lit r root
          && List.for_all same_lit all_nodes
          && S.nvars s = S.nvars r.r_solver
          && S.nclauses s = S.nclauses r.r_solver
          && Aig.fresh_encoded m = r.r_fresh
          && Aig.reuse_hits m = r.r_reuse)
        phases)

let suite =
  [ Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "structural hashing" `Quick test_structural_hashing;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "mux" `Quick test_mux;
    Alcotest.test_case "check_sat" `Quick test_check_sat;
    Alcotest.test_case "equivalent" `Quick test_equivalent;
    Alcotest.test_case "word add" `Quick test_word_add;
    Alcotest.test_case "word sub" `Quick test_word_sub;
    Alcotest.test_case "word neg" `Quick test_word_neg;
    Alcotest.test_case "word mul" `Quick test_word_mul;
    Alcotest.test_case "word div/rem" `Quick test_word_div;
    Alcotest.test_case "word div exhaustive 4-bit" `Quick
      test_word_div_exhaustive_4bit;
    Alcotest.test_case "word logic" `Quick test_word_logic;
    Alcotest.test_case "word predicates" `Quick test_word_predicates;
    Alcotest.test_case "word reductions" `Quick test_word_reduce;
    Alcotest.test_case "word shifts (const)" `Quick test_word_shifts_const;
    Alcotest.test_case "word shifts (variable)" `Quick test_word_shifts_var;
    Alcotest.test_case "word structure" `Quick test_word_structure;
    Alcotest.test_case "word mux_index" `Quick test_word_mux_index;
    Alcotest.test_case "SAT: adder forms equivalent" `Quick
      test_sat_equivalence_of_adders;
    Alcotest.test_case "SAT: injected bug found" `Quick
      test_sat_finds_distinguishing_input;
    QCheck_alcotest.to_alcotest prop_encoder_matches_reference ]
