module Bitvec = Dfv_bitvec.Bitvec
module Ast = Dfv_hwir.Ast
module Interp = Dfv_hwir.Interp
module Typecheck = Dfv_hwir.Typecheck
module Netlist = Dfv_rtl.Netlist
module Sim = Dfv_rtl.Sim

type drive = Hold of Bitvec.t | At of (int -> source)

and source =
  | Const of Bitvec.t
  | Param of string
  | Param_elem of string * int
  | Param_bits of { name : string; hi : int; lo : int }

type observe = Result | Result_elem of int

type check = { rtl_port : string; at_cycle : int; expect : observe }

type t = {
  rtl_cycles : int;
  drives : (string * drive) list;
  checks : check list;
  constraints : Ast.expr list;
}

let stream_in ~param ~count ?(start = 0) ?(stride = 1) () =
  if count < 1 then invalid_arg "Spec.stream_in: count must be >= 1";
  At
    (fun cycle ->
      let i =
        if cycle < start then 0
        else begin
          let k = (cycle - start) / stride in
          min k (count - 1)
        end
      in
      Param_elem (param, i))

let source_at drive cycle =
  match drive with Hold bv -> Const bv | At f -> f cycle

let constraint_program (slm : Ast.program) i expr =
  let params, _ = Typecheck.entry_signature slm in
  let fname = Printf.sprintf "__constraint_%d" i in
  let wrapper =
    {
      Ast.fname;
      params;
      ret = Ast.bool_ty;
      locals = [];
      body = [ Ast.Return expr ];
    }
  in
  { Ast.funcs = slm.Ast.funcs @ [ wrapper ]; entry = fname }

(* --- the rulebook ------------------------------------------------------- *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let result_of f = match f () with () -> Ok () | exception Invalid m -> Error m

(* Only the wrapper is checked, so a constraint is judged on its own
   even when the model around it does not typecheck. *)
let check_constraints slm constraints =
  List.iteri
    (fun i expr ->
      match Typecheck.check_entry (constraint_program slm i expr) with
      | () -> ()
      | exception Typecheck.Type_error m -> fail "constraint %d: %s" i m)
    constraints

let validate_constraints ~slm constraints =
  result_of (fun () -> check_constraints slm constraints)

let check_structure ~slm ~(rtl : Netlist.elaborated) t =
  if t.rtl_cycles < 1 then fail "rtl_cycles must be >= 1";
  List.iter
    (fun p ->
      if not (List.mem_assoc p.Netlist.port_name t.drives) then
        fail "RTL input %s is not driven by the spec" p.Netlist.port_name)
    rtl.Netlist.e_inputs;
  let drives =
    List.map
      (fun (port, drive) ->
        let named p = p.Netlist.port_name = port in
        match List.find_opt named rtl.Netlist.e_inputs with
        | Some p -> (port, p.Netlist.port_width, drive)
        | None -> fail "no RTL input port named %s" port)
      t.drives
  in
  let params, ret = Typecheck.entry_signature slm in
  let param name =
    match List.assoc_opt name params with
    | Some ty -> ty
    | None -> fail "unknown SLM parameter %s" name
  in
  let check_source ~port ~width = function
    | Const bv ->
      if Bitvec.width bv <> width then
        fail "constant for port %s has width %d, port is %d" port
          (Bitvec.width bv) width
    | Param name -> (
      match param name with
      | Ast.Tint { width = w; _ } ->
        if w <> width then
          fail "parameter %s has width %d, port %s is %d" name w port width
      | Ast.Tarray _ -> fail "parameter %s is an array (use Param_elem)" name)
    | Param_elem (name, i) -> (
      match param name with
      | Ast.Tarray (elem, n) ->
        if i < 0 || i >= n then
          fail "element %d out of range for parameter %s" i name;
        let w = Ast.ty_width elem in
        if w <> width then
          fail "elements of %s have width %d, port %s is %d" name w port width
      | Ast.Tint _ -> fail "parameter %s is a scalar (use Param)" name)
    | Param_bits { name; hi; lo } -> (
      match param name with
      | Ast.Tint { width = w; _ } ->
        if lo < 0 || hi < lo || hi >= w then
          fail "bits [%d:%d] out of range for parameter %s" hi lo name;
        if hi - lo + 1 <> width then
          fail "bits [%d:%d] of %s have width %d, port %s is %d" hi lo name
            (hi - lo + 1) port width
      | Ast.Tarray _ -> fail "parameter %s is an array" name)
  in
  for cycle = 0 to t.rtl_cycles - 1 do
    List.iter
      (fun (port, width, drive) ->
        check_source ~port ~width (source_at drive cycle))
      drives
  done;
  let check_result c ~width =
    match (c.expect, ret) with
    | Result, Ast.Tint { width = w; _ } ->
      if w <> width then
        fail "SLM result has width %d, RTL port %s is %d" w c.rtl_port width
    | Result_elem i, Ast.Tarray (elem, n) ->
      if i < 0 || i >= n then fail "result element %d out of range" i;
      let w = Ast.ty_width elem in
      if w <> width then
        fail "SLM result elements have width %d, RTL port %s is %d" w
          c.rtl_port width
    | Result, Ast.Tarray _ -> fail "SLM result is an array (use Result_elem)"
    | Result_elem _, Ast.Tint _ -> fail "SLM result is a scalar (use Result)"
  in
  if t.checks = [] then fail "spec has no output checks";
  List.iter
    (fun c ->
      if c.at_cycle < 0 || c.at_cycle >= t.rtl_cycles then
        fail "check on %s at cycle %d outside transaction of %d cycles"
          c.rtl_port c.at_cycle t.rtl_cycles;
      match List.assoc_opt c.rtl_port rtl.Netlist.e_outputs with
      | Some e -> check_result c ~width:(Netlist.expr_width rtl e)
      | None -> fail "no RTL output port named %s" c.rtl_port)
    t.checks;
  check_constraints slm t.constraints

let validate ~slm ~rtl t = result_of (fun () -> check_structure ~slm ~rtl t)

(* --- running a transaction ---------------------------------------------- *)

let source_value params (src : source) =
  match src with
  | Const bv -> bv
  | Param name -> (
    match List.assoc name params with
    | Interp.Vint bv -> bv
    | Interp.Varr _ -> failwith "Spec: array param used as scalar")
  | Param_elem (name, i) -> (
    match List.assoc name params with
    | Interp.Varr a -> a.(i)
    | Interp.Vint _ -> failwith "Spec: scalar param indexed")
  | Param_bits { name; hi; lo } -> (
    match List.assoc name params with
    | Interp.Vint bv -> Bitvec.select bv ~hi ~lo
    | Interp.Varr _ -> failwith "Spec: array param sliced")

let inputs_at spec params cycle =
  List.map
    (fun (port, drive) -> (port, source_value params (source_at drive cycle)))
    spec.drives

let replay sim t params =
  Sim.reset sim;
  Sim.run sim ~inputs:(inputs_at t params) ~cycles:t.rtl_cycles

let expected c slm_result =
  match (c.expect, slm_result) with
  | Result, Some (Interp.Vint bv) -> Some bv
  | Result_elem i, Some (Interp.Varr a) when i >= 0 && i < Array.length a ->
    Some a.(i)
  | _ -> None

let failed_checks t outputs slm_result =
  List.filter_map
    (fun c ->
      let got = List.assoc c.rtl_port outputs.(c.at_cycle) in
      match expected c slm_result with
      | Some e when Bitvec.equal e got -> None
      | e -> Some (c, e, got))
    t.checks
