module Bitvec = Dfv_bitvec.Bitvec
module Expr = Dfv_rtl.Expr
module Netlist = Dfv_rtl.Netlist
module Ast = Dfv_hwir.Ast

type rtl_fault = {
  rf_name : string;
  rf_class : string;
  rf_site : string;
  rf_apply : Netlist.elaborated -> Netlist.elaborated;
}

type slm_fault = {
  sf_name : string;
  sf_class : string;
  sf_site : string;
  sf_apply : Ast.program -> Ast.program;
}

(* --- class-stratified sampling ---------------------------------------- *)

(* Keep the fault list representative when trimming: shuffle within each
   class, then round-robin across classes so e.g. stuck-ats (numerous)
   do not crowd out register-bit flips (few). *)
let sample ~seed ~max_faults ~class_of faults =
  if List.length faults <= max_faults then faults
  else begin
    let st = Random.State.make [| seed; 0x0fa1; List.length faults |] in
    let order = ref [] in
    let buckets = Hashtbl.create 8 in
    List.iter
      (fun f ->
        let c = class_of f in
        (match Hashtbl.find_opt buckets c with
        | Some r -> r := f :: !r
        | None ->
          Hashtbl.add buckets c (ref [ f ]);
          order := c :: !order))
      faults;
    let arrays =
      List.rev_map
        (fun c ->
          let a = Array.of_list (List.rev !(Hashtbl.find buckets c)) in
          for i = Array.length a - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t
          done;
          a)
        !order
    in
    let picked = ref [] in
    let count = ref 0 in
    let idx = ref 0 in
    let progress = ref true in
    while !count < max_faults && !progress do
      progress := false;
      List.iter
        (fun a ->
          if !count < max_faults && !idx < Array.length a then begin
            picked := a.(!idx) :: !picked;
            incr count;
            progress := true
          end)
        arrays;
      incr idx
    done;
    List.rev !picked
  end

(* --- RTL expression mutations ------------------------------------------ *)

let binop_name op =
  Expr.(
    match op with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul"
    | Udiv -> "udiv" | Urem -> "urem" | Sdiv -> "sdiv" | Srem -> "srem"
    | And -> "and" | Or -> "or" | Xor -> "xor"
    | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
    | Eq -> "eq" | Ne -> "ne" | Ult -> "ult" | Ule -> "ule"
    | Slt -> "slt" | Sle -> "sle")

let unop_name op =
  Expr.(
    match op with
    | Not -> "not" | Neg -> "neg"
    | Red_and -> "rand" | Red_or -> "ror" | Red_xor -> "rxor")

(* Substitutions are width-preserving by construction: both operators of
   each pair impose identical operand/result width rules. *)
let binop_subs op =
  Expr.(
    match op with
    | Add -> [ Sub ] | Sub -> [ Add ] | Mul -> [ Add ]
    | Udiv -> [ Urem ] | Urem -> [ Udiv ]
    | Sdiv -> [ Srem ] | Srem -> [ Sdiv ]
    | And -> [ Or ] | Or -> [ Xor ] | Xor -> [ And ]
    | Shl -> [ Lshr ] | Lshr -> [ Ashr ] | Ashr -> [ Shl ]
    | Eq -> [ Ne ] | Ne -> [ Eq ]
    | Ult -> [ Ule; Slt ] | Ule -> [ Ult ]
    | Slt -> [ Sle; Ult ] | Sle -> [ Slt ])

let unop_subs op =
  Expr.(
    match op with
    | Not -> [ Neg ] | Neg -> [ Not ]
    | Red_and -> [ Red_or ] | Red_or -> [ Red_xor ] | Red_xor -> [ Red_and ])

(* All single-node rewrites of [e]: (class, descriptor, mutated). *)
let rec expr_mutations (e : Expr.t) =
  let within k rebuild =
    List.map (fun (c, d, k') -> (c, d, rebuild k')) (expr_mutations k)
  in
  let here =
    match e with
    | Expr.Binop (op, a, b) ->
      List.map
        (fun op' ->
          ( "op-subst",
            binop_name op ^ "->" ^ binop_name op',
            Expr.Binop (op', a, b) ))
        (binop_subs op)
    | Expr.Unop (u, a) ->
      List.map
        (fun u' ->
          ("op-subst", unop_name u ^ "->" ^ unop_name u', Expr.Unop (u', a)))
        (unop_subs u)
    | Expr.Const bv ->
      [ ( "const-off-by-one",
          "const+1",
          Expr.Const (Bitvec.add bv (Bitvec.one (Bitvec.width bv))) ) ]
    | _ -> []
  in
  let deeper =
    match e with
    | Expr.Const _ | Expr.Signal _ -> []
    | Expr.Unop (u, a) -> within a (fun a' -> Expr.Unop (u, a'))
    | Expr.Binop (op, a, b) ->
      within a (fun a' -> Expr.Binop (op, a', b))
      @ within b (fun b' -> Expr.Binop (op, a, b'))
    | Expr.Mux (s, t1, t2) ->
      within s (fun s' -> Expr.Mux (s', t1, t2))
      @ within t1 (fun t1' -> Expr.Mux (s, t1', t2))
      @ within t2 (fun t2' -> Expr.Mux (s, t1, t2'))
    | Expr.Slice (a, hi, lo) -> within a (fun a' -> Expr.Slice (a', hi, lo))
    | Expr.Concat es ->
      List.concat
        (List.mapi
           (fun i ei ->
             within ei (fun ei' ->
                 Expr.Concat
                   (List.mapi (fun j ej -> if i = j then ei' else ej) es)))
           es)
    | Expr.Zext (a, w) -> within a (fun a' -> Expr.Zext (a', w))
    | Expr.Sext (a, w) -> within a (fun a' -> Expr.Sext (a', w))
    | Expr.Repeat (a, n) -> within a (fun a' -> Expr.Repeat (a', n))
    | Expr.Mem_read (m, a) -> within a (fun a' -> Expr.Mem_read (m, a'))
  in
  here @ deeper

let enumerate_rtl ?(seed = 0) ?(max_faults = 24) (e : Netlist.elaborated) =
  let faults = ref [] in
  let k = ref 0 in
  let add rf_class rf_site desc rf_apply =
    incr k;
    faults :=
      {
        rf_name = Printf.sprintf "%s:%s:%s#%d" rf_class rf_site desc !k;
        rf_class;
        rf_site;
        rf_apply;
      }
      :: !faults
  in
  let replace_wire n ex' el =
    {
      el with
      Netlist.e_wires =
        List.map
          (fun (m, ex) -> if String.equal m n then (m, ex') else (m, ex))
          el.Netlist.e_wires;
    }
  in
  let replace_output n ex' el =
    {
      el with
      Netlist.e_outputs =
        List.map
          (fun (m, ex) -> if String.equal m n then (m, ex') else (m, ex))
          el.Netlist.e_outputs;
    }
  in
  let map_reg n f el =
    {
      el with
      Netlist.e_regs =
        List.map
          (fun (r : Netlist.reg) ->
            if String.equal r.Netlist.reg_name n then f r else r)
          el.Netlist.e_regs;
    }
  in
  let stuck site w replace =
    add "stuck-at-0" site "sa0" (replace (Expr.Const (Bitvec.zero w)));
    add "stuck-at-1" site "sa1" (replace (Expr.Const (Bitvec.ones w)))
  in
  List.iter
    (fun (n, ex) ->
      stuck n (e.Netlist.e_signal_width n) (replace_wire n);
      List.iter
        (fun (c, d, ex') -> add c n d (replace_wire n ex'))
        (expr_mutations ex))
    e.Netlist.e_wires;
  List.iter
    (fun (n, ex) ->
      stuck n (Netlist.expr_width e ex) (replace_output n);
      List.iter
        (fun (c, d, ex') -> add c n d (replace_output n ex'))
        (expr_mutations ex))
    e.Netlist.e_outputs;
  List.iter
    (fun (r : Netlist.reg) ->
      let n = r.Netlist.reg_name and w = r.Netlist.reg_width in
      let bits = if w = 1 then [ 0 ] else [ 0; w - 1 ] in
      List.iter
        (fun bit ->
          add "reg-init-flip" n
            (Printf.sprintf "init[%d]" bit)
            (map_reg n (fun r ->
                 {
                   r with
                   Netlist.init =
                     Bitvec.set_bit r.Netlist.init bit
                       (not (Bitvec.get r.Netlist.init bit));
                 })))
        bits;
      List.iter
        (fun bit ->
          let onehot = Bitvec.set_bit (Bitvec.zero w) bit true in
          add "reg-next-flip" n
            (Printf.sprintf "next[%d]" bit)
            (map_reg n (fun r ->
                 {
                   r with
                   Netlist.next =
                     Expr.Binop (Expr.Xor, r.Netlist.next, Expr.Const onehot);
                 })))
        bits;
      List.iter
        (fun (c, d, ex') ->
          add c n d (map_reg n (fun r -> { r with Netlist.next = ex' })))
        (expr_mutations r.Netlist.next))
    e.Netlist.e_regs;
  sample ~seed ~max_faults ~class_of:(fun f -> f.rf_class) (List.rev !faults)

(* --- HWIR (SLM) mutations ---------------------------------------------- *)

let h_binop_name op =
  Ast.(
    match op with
    | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
    | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
    | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le"
    | Land -> "land" | Lor -> "lor")

(* Type-preserving only: both sides of each pair take and produce the
   same HWIR type, so the mutant still typechecks and stays
   conditioned. *)
let h_binop_subs op =
  Ast.(
    match op with
    | Add -> [ Sub ] | Sub -> [ Add ] | Mul -> [ Add ]
    | Div -> [] | Rem -> []
    | And -> [ Or ] | Or -> [ Xor ] | Xor -> [ And ]
    | Shl -> [ Shr ] | Shr -> [ Shl ]
    | Eq -> [ Ne ] | Ne -> [ Eq ] | Lt -> [ Le ] | Le -> [ Lt ]
    | Land -> [ Lor ] | Lor -> [ Land ])

let rec h_expr_mutations (e : Ast.expr) =
  let within k rebuild =
    List.map (fun (c, d, k') -> (c, d, rebuild k')) (h_expr_mutations k)
  in
  let here =
    match e with
    | Ast.Binop (op, a, b) ->
      List.map
        (fun op' ->
          ( "op-subst",
            h_binop_name op ^ "->" ^ h_binop_name op',
            Ast.Binop (op', a, b) ))
        (h_binop_subs op)
    | Ast.Int (bv, sg) ->
      [ ( "const-off-by-one",
          "const+1",
          Ast.Int (Bitvec.add bv (Bitvec.one (Bitvec.width bv)), sg) ) ]
    | Ast.Cond (c, a, b) -> [ ("branch-swap", "swap", Ast.Cond (c, b, a)) ]
    | _ -> []
  in
  let deeper =
    match e with
    | Ast.Int _ | Ast.Bool _ | Ast.Var _ -> []
    | Ast.Index (a, ie) -> within ie (fun ie' -> Ast.Index (a, ie'))
    | Ast.Unop (u, a) -> within a (fun a' -> Ast.Unop (u, a'))
    | Ast.Binop (op, a, b) ->
      within a (fun a' -> Ast.Binop (op, a', b))
      @ within b (fun b' -> Ast.Binop (op, a, b'))
    | Ast.Cond (c, a, b) ->
      within c (fun c' -> Ast.Cond (c', a, b))
      @ within a (fun a' -> Ast.Cond (c, a', b))
      @ within b (fun b' -> Ast.Cond (c, a, b'))
    | Ast.Cast (ty, a) -> within a (fun a' -> Ast.Cast (ty, a'))
    | Ast.Bitsel (a, hi, lo) -> within a (fun a' -> Ast.Bitsel (a', hi, lo))
    | Ast.Call (f, args) ->
      List.concat
        (List.mapi
           (fun i ai ->
             within ai (fun ai' ->
                 Ast.Call
                   (f, List.mapi (fun j aj -> if i = j then ai' else aj) args)))
           args)
  in
  here @ deeper

let rec stmt_mutations (s : Ast.stmt) =
  let in_expr e rebuild =
    List.map (fun (c, d, e') -> (c, d, rebuild e')) (h_expr_mutations e)
  in
  let in_body b rebuild =
    List.map (fun (c, d, b') -> (c, d, rebuild b')) (body_mutations b)
  in
  match s with
  | Ast.Assign (lv, e) ->
    in_expr e (fun e' -> Ast.Assign (lv, e'))
    @ (match lv with
      | Ast.Lindex (a, ie) ->
        in_expr ie (fun ie' -> Ast.Assign (Ast.Lindex (a, ie'), e))
      | Ast.Lvar _ -> [])
  | Ast.If (c, a, b) ->
    ("cond-negate", "!cond", Ast.If (Ast.Unop (Ast.Lnot, c), a, b))
    :: in_expr c (fun c' -> Ast.If (c', a, b))
    @ in_body a (fun a' -> Ast.If (c, a', b))
    @ in_body b (fun b' -> Ast.If (c, a, b'))
  | Ast.For { ivar; count; body } ->
    in_body body (fun body' -> Ast.For { ivar; count; body = body' })
  | Ast.Bounded_while { cond; max_iter; body } ->
    in_expr cond (fun cond' -> Ast.Bounded_while { cond = cond'; max_iter; body })
    @ in_body body (fun body' -> Ast.Bounded_while { cond; max_iter; body = body' })
  | Ast.Return e -> in_expr e (fun e' -> Ast.Return e')
  | Ast.While _ | Ast.Alloc _ | Ast.Alias _ | Ast.Extern_call _ -> []

and body_mutations body =
  List.concat
    (List.mapi
       (fun i si ->
         List.map
           (fun (c, d, si') ->
             (c, d, List.mapi (fun j sj -> if i = j then si' else sj) body))
           (stmt_mutations si))
       body)

(* Functions reachable from the entry point — mutating anything else
   produces guaranteed survivors (dead code). *)
let reachable_funcs (p : Ast.program) =
  let rec expr_calls acc (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Bool _ | Ast.Var _ -> acc
    | Ast.Index (_, ie) -> expr_calls acc ie
    | Ast.Unop (_, a) | Ast.Cast (_, a) | Ast.Bitsel (a, _, _) ->
      expr_calls acc a
    | Ast.Binop (_, a, b) -> expr_calls (expr_calls acc a) b
    | Ast.Cond (c, a, b) -> expr_calls (expr_calls (expr_calls acc c) a) b
    | Ast.Call (f, args) -> List.fold_left expr_calls (f :: acc) args
  in
  let rec stmt_calls acc (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Lvar _, e) | Ast.Return e -> expr_calls acc e
    | Ast.Assign (Ast.Lindex (_, ie), e) -> expr_calls (expr_calls acc ie) e
    | Ast.If (c, a, b) ->
      List.fold_left stmt_calls
        (List.fold_left stmt_calls (expr_calls acc c) a)
        b
    | Ast.For { body; _ } -> List.fold_left stmt_calls acc body
    | Ast.Bounded_while { cond; body; _ } | Ast.While (cond, body) ->
      List.fold_left stmt_calls (expr_calls acc cond) body
    | Ast.Alloc { size; _ } -> expr_calls acc size
    | Ast.Alias _ -> acc
    | Ast.Extern_call (_, args) -> List.fold_left expr_calls acc args
  in
  let seen = Hashtbl.create 8 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      match
        List.find_opt (fun (f : Ast.func) -> String.equal f.Ast.fname name) p.Ast.funcs
      with
      | Some f -> List.iter visit (List.fold_left stmt_calls [] f.Ast.body)
      | None -> ()
    end
  in
  visit p.Ast.entry;
  seen

let enumerate_slm ?(seed = 0) ?(max_faults = 12) (p : Ast.program) =
  let faults = ref [] in
  let k = ref 0 in
  let reachable = reachable_funcs p in
  List.iter
    (fun (f : Ast.func) ->
      let fname = f.Ast.fname in
      if Hashtbl.mem reachable fname then
        List.iter
          (fun (c, d, body') ->
            incr k;
            let apply (prog : Ast.program) =
              {
                prog with
                Ast.funcs =
                  List.map
                    (fun (g : Ast.func) ->
                      if String.equal g.Ast.fname fname then
                        { g with Ast.body = body' }
                      else g)
                    prog.Ast.funcs;
              }
            in
            faults :=
              {
                sf_name = Printf.sprintf "%s:%s:%s#%d" c fname d !k;
                sf_class = c;
                sf_site = fname;
                sf_apply = apply;
              }
              :: !faults)
          (body_mutations f.Ast.body))
    p.Ast.funcs;
  sample ~seed ~max_faults ~class_of:(fun f -> f.sf_class) (List.rev !faults)

(* --- fan-in cones ------------------------------------------------------- *)

let cone (e : Netlist.elaborated) ~output =
  let wires = Hashtbl.create 32 in
  List.iter (fun (n, ex) -> Hashtbl.replace wires n ex) e.Netlist.e_wires;
  let regs = Hashtbl.create 16 in
  List.iter
    (fun (r : Netlist.reg) -> Hashtbl.replace regs r.Netlist.reg_name r)
    e.Netlist.e_regs;
  let mems = Hashtbl.create 4 in
  List.iter
    (fun (m : Netlist.memory) -> Hashtbl.replace mems m.Netlist.mem_name m)
    e.Netlist.e_mems;
  let seen = Hashtbl.create 64 in
  let seen_mem = Hashtbl.create 8 in
  let rec visit_expr ex =
    List.iter visit_sig (Expr.signals ex);
    List.iter visit_mem (Expr.memories ex)
  and visit_sig n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      (match Hashtbl.find_opt wires n with
      | Some ex -> visit_expr ex
      | None -> ());
      match Hashtbl.find_opt regs n with
      | Some r ->
        visit_expr r.Netlist.next;
        Option.iter visit_expr r.Netlist.enable
      | None -> ()
    end
  and visit_mem m =
    if not (Hashtbl.mem seen_mem m) then begin
      Hashtbl.add seen_mem m ();
      match Hashtbl.find_opt mems m with
      | Some mem ->
        List.iter
          (fun (w : Netlist.write_port) ->
            visit_expr w.Netlist.wr_enable;
            visit_expr w.Netlist.wr_addr;
            visit_expr w.Netlist.wr_data)
          mem.Netlist.writes
      | None -> ()
    end
  in
  (match List.assoc_opt output e.Netlist.e_outputs with
  | Some ex -> visit_expr ex
  | None -> ());
  fun site ->
    String.equal site output || Hashtbl.mem seen site || Hashtbl.mem seen_mem site
