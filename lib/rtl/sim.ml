module Bitvec = Dfv_bitvec.Bitvec
open Netlist

type engine = [ `Compiled | `Interp ]

(* --- tree-walking interpreter ------------------------------------------- *)
(* Retained as the differential-testing oracle for the compiled kernel
   (test/test_sim_engines.ml); [`Compiled] is the default engine. *)

type interp = {
  design : elaborated;
  values : (string, Bitvec.t) Hashtbl.t; (* inputs, wires, regs *)
  mems : (string, Bitvec.t array) Hashtbl.t;
}

let m_cycles = Dfv_obs.Metrics.counter "rtl.sim.cycles"
let m_evals = Dfv_obs.Metrics.counter "rtl.sim.evals"
let m_compiles = Dfv_obs.Metrics.counter "rtl.sim.compiles"

let mem_initial mem =
  match mem.mem_init with
  | Some init -> Array.copy init
  | None -> Array.make mem.mem_size (Bitvec.zero mem.word_width)

let i_reset st =
  Hashtbl.reset st.values;
  List.iter
    (fun r -> Hashtbl.replace st.values r.reg_name r.init)
    st.design.e_regs;
  List.iter
    (fun m -> Hashtbl.replace st.mems m.mem_name (mem_initial m))
    st.design.e_mems

let lookup st name =
  match Hashtbl.find_opt st.values name with
  | Some v -> v
  | None -> raise Not_found

(* Expression evaluation over the settled value table. *)
let rec eval st e =
  match e with
  | Expr.Const bv -> bv
  | Expr.Signal n -> lookup st n
  | Expr.Unop (op, a) ->
    let va = eval st a in
    (match op with
    | Expr.Not -> Bitvec.lognot va
    | Expr.Neg -> Bitvec.neg va
    | Expr.Red_and -> Bitvec.of_bool (Bitvec.reduce_and va)
    | Expr.Red_or -> Bitvec.of_bool (Bitvec.reduce_or va)
    | Expr.Red_xor -> Bitvec.of_bool (Bitvec.reduce_xor va))
  | Expr.Binop (op, a, b) ->
    let va = eval st a in
    (match op with
    | Expr.Shl | Expr.Lshr | Expr.Ashr ->
      let vb = eval st b in
      (* Dynamic shift amount; clamp at width (Bitvec shifts by int). *)
      let amount =
        if Bitvec.width vb > 62 then Bitvec.width va (* saturate *)
        else min (Bitvec.to_int vb) (Bitvec.width va)
      in
      (match op with
      | Expr.Shl -> Bitvec.shift_left va amount
      | Expr.Lshr -> Bitvec.shift_right_logical va amount
      | Expr.Ashr -> Bitvec.shift_right_arith va amount
      | _ -> assert false)
    | _ ->
      let vb = eval st b in
      (match op with
      | Expr.Add -> Bitvec.add va vb
      | Expr.Sub -> Bitvec.sub va vb
      | Expr.Mul -> Bitvec.mul va vb
      | Expr.Udiv -> Bitvec.udiv va vb
      | Expr.Urem -> Bitvec.urem va vb
      | Expr.Sdiv -> Bitvec.sdiv va vb
      | Expr.Srem -> Bitvec.srem va vb
      | Expr.And -> Bitvec.logand va vb
      | Expr.Or -> Bitvec.logor va vb
      | Expr.Xor -> Bitvec.logxor va vb
      | Expr.Eq -> Bitvec.of_bool (Bitvec.equal va vb)
      | Expr.Ne -> Bitvec.of_bool (not (Bitvec.equal va vb))
      | Expr.Ult -> Bitvec.of_bool (Bitvec.ult va vb)
      | Expr.Ule -> Bitvec.of_bool (Bitvec.ule va vb)
      | Expr.Slt -> Bitvec.of_bool (Bitvec.slt va vb)
      | Expr.Sle -> Bitvec.of_bool (Bitvec.sle va vb)
      | Expr.Shl | Expr.Lshr | Expr.Ashr -> assert false))
  | Expr.Mux (s, a, b) ->
    if Bitvec.reduce_or (eval st s) then eval st a else eval st b
  | Expr.Slice (a, hi, lo) -> Bitvec.select (eval st a) ~hi ~lo
  | Expr.Concat es -> Bitvec.concat (List.map (eval st) es)
  | Expr.Zext (a, w) -> Bitvec.uresize (eval st a) w
  | Expr.Sext (a, w) -> Bitvec.sresize (eval st a) w
  | Expr.Repeat (a, n) -> Bitvec.repeat (eval st a) n
  | Expr.Mem_read (m, a) ->
    let arr = Hashtbl.find st.mems m in
    let addr = eval st a in
    let i = if Bitvec.width addr > 62 then max_int else Bitvec.to_int addr in
    if i < Array.length arr then arr.(i)
    else Bitvec.zero (Bitvec.width arr.(0))

let i_settle st =
  List.iter
    (fun (n, e) -> Hashtbl.replace st.values n (eval st e))
    st.design.e_wires

let i_apply_inputs st inputs =
  List.iter
    (fun p ->
      match List.assoc_opt p.port_name inputs with
      | None ->
        invalid_arg
          (Printf.sprintf "Sim.cycle: missing input %s" p.port_name)
      | Some v ->
        if Bitvec.width v <> p.port_width then
          invalid_arg
            (Printf.sprintf "Sim.cycle: input %s has width %d, expected %d"
               p.port_name (Bitvec.width v) p.port_width);
        Hashtbl.replace st.values p.port_name v)
    st.design.e_inputs;
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun p -> p.port_name = n) st.design.e_inputs) then
        invalid_arg (Printf.sprintf "Sim.cycle: no input port named %s" n))
    inputs

let i_clock_edge st =
  (* Compute all next-state values from settled current values, then
     commit — registers update simultaneously. *)
  let reg_updates =
    List.filter_map
      (fun r ->
        let enabled =
          match r.enable with
          | None -> true
          | Some e -> Bitvec.reduce_or (eval st e)
        in
        if enabled then Some (r.reg_name, eval st r.next) else None)
      st.design.e_regs
  in
  let mem_updates =
    List.concat_map
      (fun m ->
        let arr = Hashtbl.find st.mems m.mem_name in
        List.filter_map
          (fun wp ->
            if Bitvec.reduce_or (eval st wp.wr_enable) then begin
              (* Clamp a write address too wide for [to_int] to
                 out-of-range, the same rule Mem_read applies — wide
                 addresses are discarded, not a crash. *)
              let a = eval st wp.wr_addr in
              let addr =
                if Bitvec.width a > 62 then max_int else Bitvec.to_int a
              in
              if addr < Array.length arr then
                Some (arr, addr, eval st wp.wr_data)
              else None
            end
            else None)
          m.writes)
      st.design.e_mems
  in
  List.iter (fun (n, v) -> Hashtbl.replace st.values n v) reg_updates;
  List.iter (fun (arr, i, v) -> arr.(i) <- v) mem_updates

let i_peek st name =
  match Hashtbl.find_opt st.values name with
  | Some v -> v
  | None ->
    (* An un-settled wire or unknown name. *)
    if List.mem_assoc name st.design.e_wires then
      invalid_arg (Printf.sprintf "Sim.peek: wire %s not settled yet" name)
    else raise Not_found

let i_peek_mem st name i =
  let arr = Hashtbl.find st.mems name in
  arr.(i)

(* --- engine dispatch ----------------------------------------------------- *)

type kernel = Interp of interp | Compiled of Compile.t

type t = {
  kernel : kernel;
  mutable ncycles : int;
  evals_per_cycle : int; (* wire + output + register evaluations *)
}

let create ?(engine = `Compiled) design =
  let kernel =
    match engine with
    | `Compiled ->
      let c = Compile.compile design in
      Dfv_obs.Metrics.incr m_compiles;
      Compiled c
    | `Interp ->
      let st =
        { design; values = Hashtbl.create 64; mems = Hashtbl.create 8 }
      in
      i_reset st;
      Interp st
  in
  {
    kernel;
    ncycles = 0;
    evals_per_cycle =
      List.length design.e_wires
      + List.length design.e_outputs
      + List.length design.e_regs;
  }

let engine sim =
  match sim.kernel with Compiled _ -> `Compiled | Interp _ -> `Interp

let reset sim =
  (match sim.kernel with
  | Compiled c -> Compile.reset c
  | Interp st -> i_reset st);
  sim.ncycles <- 0

let cycle sim inputs =
  let outputs =
    match sim.kernel with
    | Compiled c ->
      Compile.bind_inputs c inputs;
      Compile.settle c;
      let outputs = Compile.outputs c in
      Compile.clock_edge c;
      outputs
    | Interp st ->
      i_apply_inputs st inputs;
      i_settle st;
      let outputs =
        List.map (fun (n, e) -> (n, eval st e)) st.design.e_outputs
      in
      i_clock_edge st;
      outputs
  in
  sim.ncycles <- sim.ncycles + 1;
  Dfv_obs.Metrics.incr m_cycles;
  Dfv_obs.Metrics.add m_evals sim.evals_per_cycle;
  outputs

let peek sim name =
  match sim.kernel with
  | Compiled c -> Compile.peek c name
  | Interp st -> i_peek st name

let peek_mem sim name i =
  match sim.kernel with
  | Compiled c -> Compile.peek_mem c name i
  | Interp st -> i_peek_mem st name i

let cycles_run sim = sim.ncycles

let run sim ~inputs ~cycles =
  (* Explicit loop: Array.init's application order is unspecified, and
     [cycle] is stateful. *)
  let out = Array.make cycles [] in
  for i = 0 to cycles - 1 do
    out.(i) <- cycle sim (inputs i)
  done;
  out
