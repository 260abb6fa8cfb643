module Bitvec = Dfv_bitvec.Bitvec
open Ast

exception Type_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Type_error m)) fmt

let is_bool = function Tint { width = 1; signed = false } -> true | _ -> false

(* Scope: name -> type.  Dynamic arrays (from Alloc) are entered with
   size -1, meaning "no static bounds information". *)
type scope = (string, ty) Hashtbl.t

let lookup (sc : scope) fn name =
  match Hashtbl.find_opt sc name with
  | Some t -> t
  | None -> fail "%s: unknown variable %s" fn name

let rec type_of (p : program) (sc : scope) fn (e : expr) : ty =
  match e with
  | Int (bv, signed) -> Tint { width = Bitvec.width bv; signed }
  | Bool _ -> bool_ty
  | Var n -> (
    match lookup sc fn n with
    | Tint _ as t -> t
    | Tarray _ -> fail "%s: array %s used as a scalar" fn n)
  | Index (a, i) -> (
    match lookup sc fn a with
    | Tarray (elem, size) ->
      (match type_of p sc fn i with
      | Tint { signed = false; _ } -> ()
      | Tint { signed = true; _ } ->
        fail "%s: index into %s must be unsigned" fn a
      | Tarray _ -> assert false);
      (* Constant indices are bounds-checked statically. *)
      (match i with
      | Int (bv, _) when size >= 0 ->
        let v = Bitvec.to_int bv in
        if v >= size then
          fail "%s: constant index %d out of bounds for %s[%d]" fn v a size
      | _ -> ());
      elem
    | Tint _ -> fail "%s: scalar %s indexed as an array" fn a)
  | Unop (Lnot, a) ->
    let t = type_of p sc fn a in
    if not (is_bool t) then fail "%s: ! applied to non-bool" fn;
    bool_ty
  | Unop ((Not | Neg), a) -> (
    match type_of p sc fn a with
    | Tint _ as t -> t
    | Tarray _ -> assert false)
  | Binop (((Add | Sub | Mul | Div | Rem | And | Or | Xor) as op), a, b) ->
    let ta = type_of p sc fn a and tb = type_of p sc fn b in
    if not (ty_equal ta tb) then
      fail "%s: operator %s on mismatched types %s and %s" fn
        (binop_name op) (ty_str ta) (ty_str tb);
    ta
  | Binop ((Shl | Shr), a, b) ->
    let ta = type_of p sc fn a in
    (match type_of p sc fn b with
    | Tint { signed = false; _ } -> ()
    | Tint { signed = true; _ } -> fail "%s: shift amount must be unsigned" fn
    | Tarray _ -> assert false);
    ta
  | Binop (((Eq | Ne | Lt | Le) as op), a, b) ->
    let ta = type_of p sc fn a and tb = type_of p sc fn b in
    if not (ty_equal ta tb) then
      fail "%s: comparison %s on mismatched types %s and %s" fn
        (binop_name op) (ty_str ta) (ty_str tb);
    bool_ty
  | Binop ((Land | Lor), a, b) ->
    if not (is_bool (type_of p sc fn a) && is_bool (type_of p sc fn b)) then
      fail "%s: logical operator on non-bool operands" fn;
    bool_ty
  | Cond (c, a, b) ->
    if not (is_bool (type_of p sc fn c)) then
      fail "%s: conditional test must be bool" fn;
    let ta = type_of p sc fn a and tb = type_of p sc fn b in
    if not (ty_equal ta tb) then
      fail "%s: conditional arms have types %s and %s" fn (ty_str ta)
        (ty_str tb);
    ta
  | Cast ((Tint _ as t), a) ->
    (match type_of p sc fn a with
    | Tint _ -> ()
    | Tarray _ -> assert false);
    t
  | Cast (Tarray _, _) -> fail "%s: cannot cast to an array type" fn
  | Bitsel (a, hi, lo) -> (
    match type_of p sc fn a with
    | Tint { width; _ } ->
      if lo < 0 || hi < lo || hi >= width then
        fail "%s: bit-select [%d:%d] out of range for width %d" fn hi lo width;
      uint (hi - lo + 1)
    | Tarray _ -> assert false)
  | Call (callee, args) -> (
    match find_func p callee with
    | None -> fail "%s: call to unknown function %s" fn callee
    | Some f ->
      if List.length args <> List.length f.params then
        fail "%s: %s expects %d arguments, got %d" fn callee
          (List.length f.params) (List.length args);
      List.iter2
        (fun arg (pname, pty) ->
          let ta = arg_type p sc fn arg in
          if not (compatible_arg ta pty) then
            fail "%s: argument %s of %s has type %s, expected %s" fn pname
              callee (ty_str ta) (ty_str pty))
        args f.params;
      f.ret)

and arg_type p sc fn arg =
  (* Arrays may be passed whole: a bare Var of array type is legal in
     argument position. *)
  match arg with
  | Var n -> lookup sc fn n
  | _ -> type_of p sc fn arg

and compatible_arg actual formal =
  match (actual, formal) with
  | Tarray (ea, -1), Tarray (ef, _) -> ty_equal ea ef (* dynamic array *)
  | _ -> ty_equal actual formal

and ty_str t = Format.asprintf "%a" pp_ty t

and binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Land -> "&&"
  | Lor -> "||"

let check_bool p sc fn what e =
  if not (is_bool (type_of p sc fn e)) then
    fail "%s: %s must be bool (1-bit unsigned)" fn what

let rec check_stmt (p : program) (sc : scope) (f : func) (st : stmt) : unit =
  let fn = f.fname in
  match st with
  | Assign (Lvar n, e) -> (
    match lookup sc fn n with
    | Tint _ as t ->
      let te = type_of p sc fn e in
      if not (ty_equal t te) then
        fail "%s: assignment to %s of type %s from %s" fn n (ty_str t)
          (ty_str te)
    | Tarray _ as t -> (
      (* Whole-array assignment from a call or another array variable. *)
      let te = arg_type p sc fn e in
      match (t, te) with
      | Tarray (e1, n1), Tarray (e2, n2)
        when ty_equal e1 e2 && (n1 = n2 || n1 = -1 || n2 = -1) -> ()
      | _ ->
        fail "%s: assignment to array %s of type %s from %s" fn n (ty_str t)
          (ty_str te)))
  | Assign (Lindex (a, i), e) -> (
    match lookup sc fn a with
    | Tarray (elem, size) ->
      (match type_of p sc fn i with
      | Tint { signed = false; _ } -> ()
      | _ -> fail "%s: index into %s must be unsigned" fn a);
      (match i with
      | Int (bv, _) when size >= 0 && Bitvec.to_int bv >= size ->
        fail "%s: constant index out of bounds for %s" fn a
      | _ -> ());
      let te = type_of p sc fn e in
      if not (ty_equal elem te) then
        fail "%s: store to %s[] of type %s from %s" fn a (ty_str elem)
          (ty_str te)
    | Tint _ -> fail "%s: scalar %s indexed as an array" fn a)
  | If (c, t, e) ->
    check_bool p sc fn "if condition" c;
    List.iter (check_stmt p sc f) t;
    List.iter (check_stmt p sc f) e
  | For { ivar; count; body } ->
    if count < 0 then fail "%s: negative loop count" fn;
    if Hashtbl.mem sc ivar then
      fail "%s: loop variable %s shadows an existing name" fn ivar;
    Hashtbl.add sc ivar (uint 32);
    List.iter (check_stmt p sc f) body;
    Hashtbl.remove sc ivar
  | Bounded_while { cond; max_iter; body } ->
    if max_iter < 1 then fail "%s: bounded loop with max_iter %d" fn max_iter;
    check_bool p sc fn "loop condition" cond;
    List.iter (check_stmt p sc f) body
  | While (cond, body) ->
    check_bool p sc fn "loop condition" cond;
    List.iter (check_stmt p sc f) body
  | Return e ->
    let te = arg_type p sc fn e in
    if not (compatible_arg te f.ret) then
      fail "%s: return of type %s, function returns %s" fn (ty_str te)
        (ty_str f.ret)
  | Alloc { var; elem; size } ->
    (match elem with
    | Tint _ -> ()
    | Tarray _ -> fail "%s: allocation of array-of-array" fn);
    (match type_of p sc fn size with
    | Tint { signed = false; _ } -> ()
    | _ -> fail "%s: allocation size must be unsigned" fn);
    if Hashtbl.mem sc var then
      fail "%s: allocation target %s shadows an existing name" fn var;
    Hashtbl.add sc var (Tarray (elem, -1))
  | Alias { var; target } -> (
    match lookup sc fn target with
    | Tarray _ as t ->
      if Hashtbl.mem sc var then
        fail "%s: alias %s shadows an existing name" fn var;
      Hashtbl.add sc var t
    | Tint _ -> fail "%s: alias target %s is not an array" fn target)
  | Extern_call (_, args) ->
    List.iter (fun a -> ignore (arg_type p sc fn a)) args

let rec has_return stmts =
  List.exists
    (function
      | Return _ -> true
      | If (_, t, e) -> has_return t && has_return e
      | For { body; _ } | Bounded_while { body; _ } | While (_, body) ->
        has_return body
      | Assign _ | Alloc _ | Alias _ | Extern_call _ -> false)
    stmts

let check_ty fn what = function
  | Tint { width; _ } ->
    if width < 1 then fail "%s: %s has width %d" fn what width
  | Tarray (Tint { width; _ }, n) ->
    if width < 1 then fail "%s: %s has element width %d" fn what width;
    if n < 1 then fail "%s: %s has size %d" fn what n
  | Tarray (Tarray _, _) -> fail "%s: %s is an array of arrays" fn what

let check_func (p : program) (f : func) =
  let sc : scope = Hashtbl.create 16 in
  List.iter
    (fun (n, t) ->
      check_ty f.fname ("parameter " ^ n) t;
      if Hashtbl.mem sc n then fail "%s: duplicate parameter %s" f.fname n;
      Hashtbl.add sc n t)
    f.params;
  List.iter
    (fun (n, t) ->
      check_ty f.fname ("local " ^ n) t;
      if Hashtbl.mem sc n then fail "%s: duplicate local %s" f.fname n;
      Hashtbl.add sc n t)
    f.locals;
  check_ty f.fname "return type" f.ret;
  List.iter (check_stmt p sc f) f.body;
  if not (has_return f.body) then
    fail "%s: function may finish without returning" f.fname

(* Detect (mutual) recursion: DFS over the static call graph. *)
let rec calls_in_expr acc = function
  | Int _ | Bool _ | Var _ -> acc
  | Index (_, e) | Unop (_, e) | Cast (_, e) | Bitsel (e, _, _) ->
    calls_in_expr acc e
  | Binop (_, a, b) -> calls_in_expr (calls_in_expr acc a) b
  | Cond (c, a, b) -> calls_in_expr (calls_in_expr (calls_in_expr acc c) a) b
  | Call (f, args) -> List.fold_left calls_in_expr (f :: acc) args

let rec calls_in_stmt acc = function
  | Assign (Lvar _, e) | Return e -> calls_in_expr acc e
  | Assign (Lindex (_, i), e) -> calls_in_expr (calls_in_expr acc i) e
  | If (c, t, e) ->
    let acc = calls_in_expr acc c in
    let acc = List.fold_left calls_in_stmt acc t in
    List.fold_left calls_in_stmt acc e
  | For { body; _ } -> List.fold_left calls_in_stmt acc body
  | Bounded_while { cond; body; _ } | While (cond, body) ->
    List.fold_left calls_in_stmt (calls_in_expr acc cond) body
  | Alloc { size; _ } -> calls_in_expr acc size
  | Alias _ -> acc
  | Extern_call (_, args) -> List.fold_left calls_in_expr acc args

let callees f = List.sort_uniq compare (List.fold_left calls_in_stmt [] f.body)

let check_no_recursion p =
  let visiting = Hashtbl.create 8 and done_ = Hashtbl.create 8 in
  let rec visit name =
    if not (Hashtbl.mem done_ name) then begin
      if Hashtbl.mem visiting name then
        fail "recursion detected through function %s" name;
      Hashtbl.add visiting name ();
      (match find_func p name with
      | Some f -> List.iter visit (callees f)
      | None -> () (* unknown callee reported by per-function check *));
      Hashtbl.remove visiting name;
      Hashtbl.add done_ name ()
    end
  in
  List.iter (fun f -> visit f.fname) p.funcs

let check p =
  (match find_func p p.entry with
  | None -> fail "entry function %s not found" p.entry
  | Some _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if Hashtbl.mem seen f.fname then fail "duplicate function %s" f.fname;
      Hashtbl.add seen f.fname ())
    p.funcs;
  List.iter (check_func p) p.funcs;
  check_no_recursion p

let check_report p = match check p with () -> Ok () | exception Type_error m -> Error m

let check_entry p =
  match find_func p p.entry with
  | Some f -> check_func p f
  | None -> fail "entry function %s not found" p.entry

let entry_signature p =
  match find_func p p.entry with
  | Some f -> (f.params, f.ret)
  | None -> fail "entry function %s not found" p.entry
