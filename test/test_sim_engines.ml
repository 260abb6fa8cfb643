(* Differential fuzz of the compiled simulation kernel against the
   tree-walking interpreter.

   The compiled engine (Sim.create ~engine:`Compiled, the default) must
   be observationally identical to the interpreter oracle: per-cycle
   outputs, every peekable signal, every memory word, and the VCD dump
   byte-for-byte.  Driven over random netlists exercising the full
   expression language (including width-62/63 fast-path boundaries,
   wide shift amounts, memories with multiple write ports, register
   enables) and over every RTL design in lib/designs. *)

module Bitvec = Dfv_bitvec.Bitvec
module Netlist = Dfv_rtl.Netlist
module Expr = Dfv_rtl.Expr
module Sim = Dfv_rtl.Sim
module Vcd = Dfv_rtl.Vcd
open Dfv_designs

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

(* --- generic engine differ --------------------------------------------- *)

let address_width size =
  let rec go w = if 1 lsl w >= size then w else go (w + 1) in
  max 1 (go 0)

type obs =
  | Ok_out of (string * Bitvec.t) list
  | Raised of string (* Printexc rendering *)

let obs_cycle sim inputs =
  try Ok_out (Sim.cycle sim inputs) with e -> Raised (Printexc.to_string e)

let obs_peek sim name =
  try Ok_out [ (name, Sim.peek sim name) ]
  with e -> Raised (Printexc.to_string e)

let pp_obs fmt = function
  | Ok_out kvs ->
    List.iter (fun (n, v) -> Format.fprintf fmt "%s=%a " n Bitvec.pp v) kvs
  | Raised msg -> Format.fprintf fmt "raised %s" msg

let obs_t = Alcotest.testable pp_obs ( = )

(* Drive both engines with the same inputs for [cycles] cycles and hold
   them to identical outputs, peeks, memory contents and VCD dumps; then
   reset both and hold their replay of the first inputs to a fresh
   simulator's. *)
let diff_design ?(cycles = 50) ~seed name (design : Netlist.elaborated) =
  let st = Random.State.make [| seed |] in
  let sim_c = Sim.create ~engine:`Compiled design in
  let sim_i = Sim.create ~engine:`Interp design in
  Alcotest.(check bool) (name ^ ": default is compiled") true
    (Sim.engine (Sim.create design) = `Compiled);
  let buf_c = Buffer.create 1024 and buf_i = Buffer.create 1024 in
  let vcd_c = Vcd.create buf_c design sim_c in
  let vcd_i = Vcd.create buf_i design sim_i in
  let signals = Netlist.signal_names design in
  let check_state tag =
    List.iter
      (fun s ->
        Alcotest.check obs_t
          (Printf.sprintf "%s: %s peek %s" name tag s)
          (obs_peek sim_i s) (obs_peek sim_c s))
      signals;
    List.iter
      (fun m ->
        for i = 0 to m.Netlist.mem_size - 1 do
          Alcotest.check bv
            (Printf.sprintf "%s: %s mem %s[%d]" name tag m.Netlist.mem_name i)
            (Sim.peek_mem sim_i m.Netlist.mem_name i)
            (Sim.peek_mem sim_c m.Netlist.mem_name i)
        done)
      design.Netlist.e_mems
  in
  check_state "post-reset";
  let recorded = Array.make cycles [] in
  for c = 1 to cycles do
    let inputs =
      List.map
        (fun p ->
          (p.Netlist.port_name, Bitvec.random st ~width:p.Netlist.port_width))
        design.Netlist.e_inputs
    in
    recorded.(c - 1) <- inputs;
    let out_i = obs_cycle sim_i inputs in
    let out_c = obs_cycle sim_c inputs in
    Alcotest.check obs_t
      (Printf.sprintf "%s: cycle %d outputs" name c)
      out_i out_c;
    Vcd.sample vcd_i;
    Vcd.sample vcd_c;
    if c mod 10 = 0 || c = cycles then
      check_state (Printf.sprintf "cycle %d" c)
  done;
  Alcotest.(check string)
    (name ^ ": VCD identical")
    (Buffer.contents buf_i) (Buffer.contents buf_c);
  (* Reset returns both engines to the same initial state. *)
  Sim.reset sim_c;
  Sim.reset sim_i;
  check_state "post-second-reset";
  (* ...from which they replay the run's first inputs exactly as a
     freshly created simulator does. *)
  let fresh = Sim.create design in
  for c = 1 to min 10 cycles do
    let inputs = recorded.(c - 1) in
    let out_f = obs_cycle fresh inputs in
    List.iter
      (fun (tag, sim) ->
        Alcotest.check obs_t
          (Printf.sprintf "%s: replay cycle %d outputs, reset %s" name c tag)
          out_f (obs_cycle sim inputs))
      [ ("compiled", sim_c); ("interp", sim_i) ]
  done;
  List.iter
    (fun m ->
      for i = 0 to m.Netlist.mem_size - 1 do
        let word sim = Sim.peek_mem sim m.Netlist.mem_name i in
        List.iter
          (fun (tag, sim) ->
            Alcotest.check bv
              (Printf.sprintf "%s: replay mem %s[%d], reset %s" name
                 m.Netlist.mem_name i tag)
              (word fresh) (word sim))
          [ ("compiled", sim_c); ("interp", sim_i) ]
      done)
    design.Netlist.e_mems

(* --- random netlist generation ------------------------------------------ *)

(* Width pool straddling the Bitvec.Unboxed fast-path boundary (62). *)
let width_pool = [| 1; 2; 3; 5; 8; 12; 16; 31; 32; 33; 48; 61; 62; 63; 64; 96 |]

let pick st arr = arr.(Random.State.int st (Array.length arr))
let pick_width st = pick st width_pool

type env = {
  signals : (string * int) list; (* name, width *)
  mems : (string * int * int) list; (* name, word width, size *)
}

let coerce e we w =
  if we = w then e
  else if we > w then Expr.Slice (e, w - 1, 0)
  else Expr.Zext (e, w)

(* A leaf of exactly width [w]: a constant, or a signal coerced to fit. *)
let leaf env st w =
  let candidates = List.filter (fun (_, ws) -> ws = w) env.signals in
  if candidates <> [] && Random.State.bool st then
    Expr.Signal (fst (pick st (Array.of_list candidates)))
  else if env.signals <> [] && Random.State.int st 3 > 0 then
    let n, ws = pick st (Array.of_list env.signals) in
    coerce (Expr.Signal n) ws w
  else Expr.Const (Bitvec.random st ~width:w)

let rec gen env st depth w =
  if depth <= 0 then leaf env st w
  else
    let g d w = gen env st d w in
    let d = depth - 1 in
    match Random.State.int st 13 with
    | 0 -> leaf env st w
    | 1 ->
      let op =
        pick st [| Expr.Add; Expr.Sub; Expr.Mul; Expr.And; Expr.Or; Expr.Xor |]
      in
      Expr.Binop (op, g d w, g d w)
    | 2 ->
      (* Division with a guaranteed non-zero divisor (both engines raise
         Division_by_zero identically, but mid-settle exceptions leave
         partial state we don't want to compare). *)
      let op = pick st [| Expr.Udiv; Expr.Urem; Expr.Sdiv; Expr.Srem |] in
      let divisor =
        Expr.Binop (Expr.Or, g d w, Expr.Const (Bitvec.one w))
      in
      Expr.Binop (op, g d w, divisor)
    | 3 ->
      (* Shift by a dynamic amount of arbitrary width, including >62-bit
         amounts that exercise the saturation path. *)
      let op = pick st [| Expr.Shl; Expr.Lshr; Expr.Ashr |] in
      let amt_w = if Random.State.int st 4 = 0 then pick_width st else 1 + Random.State.int st 7 in
      Expr.Binop (op, g d w, g d amt_w)
    | 4 ->
      let op =
        pick st [| Expr.Eq; Expr.Ne; Expr.Ult; Expr.Ule; Expr.Slt; Expr.Sle |]
      in
      let wc = pick_width st in
      coerce (Expr.Binop (op, g d wc, g d wc)) 1 w
    | 5 -> Expr.Mux (g d 1, g d w, g d w)
    | 6 -> Expr.Unop (pick st [| Expr.Not; Expr.Neg |], g d w)
    | 7 ->
      let op = pick st [| Expr.Red_and; Expr.Red_or; Expr.Red_xor |] in
      coerce (Expr.Unop (op, g d (pick_width st))) 1 w
    | 8 ->
      let wa = w + 1 + Random.State.int st 8 in
      let lo = Random.State.int st (wa - w + 1) in
      Expr.Slice (g d wa, lo + w - 1, lo)
    | 9 ->
      if w < 2 then leaf env st w
      else
        let w1 = 1 + Random.State.int st (w - 1) in
        Expr.Concat [ g d (w - w1); g d w1 ]
    | 10 ->
      let wa = 1 + Random.State.int st w in
      if Random.State.bool st then Expr.Zext (g d wa, w)
      else Expr.Sext (g d wa, w)
    | 11 when w mod 2 = 0 && Random.State.bool st ->
      Expr.Repeat (g d (w / 2), 2)
    | _ -> (
      match env.mems with
      | [] -> leaf env st w
      | mems ->
        let m, ww, size = pick st (Array.of_list mems) in
        (* Any address width is legal on reads; out-of-range and >62-bit
           addresses must read as zero in both engines. *)
        let aw =
          if Random.State.int st 5 = 0 then pick_width st
          else address_width size + Random.State.int st 2
        in
        coerce (Expr.Mem_read (m, g d aw)) ww w)

let gen_netlist ~seed =
  let st = Random.State.make [| seed |] in
  let n_inputs = 2 + Random.State.int st 3 in
  let inputs =
    List.init n_inputs (fun i ->
        { Netlist.port_name = Printf.sprintf "in%d" i;
          port_width = pick_width st })
  in
  let n_mems = Random.State.int st 3 in
  let mems_meta =
    List.init n_mems (fun i ->
        let word = if Random.State.int st 4 = 0 then 70 else pick_width st in
        let size = pick st [| 4; 8; 16 |] in
        (Printf.sprintf "m%d" i, word, size))
  in
  let n_regs = 1 + Random.State.int st 3 in
  let regs_meta =
    List.init n_regs (fun i -> (Printf.sprintf "r%d" i, pick_width st))
  in
  let base_env =
    {
      signals =
        List.map (fun p -> (p.Netlist.port_name, p.Netlist.port_width)) inputs
        @ regs_meta;
      mems = mems_meta;
    }
  in
  (* Wires reference only inputs, registers and earlier wires, so the
     combinational graph is acyclic by construction. *)
  let n_wires = 2 + Random.State.int st 5 in
  let env, rev_wires =
    List.fold_left
      (fun (env, acc) i ->
        let name = Printf.sprintf "w%d" i in
        let w = pick_width st in
        let e = gen env st (1 + Random.State.int st 3) w in
        ({ env with signals = (name, w) :: env.signals }, (name, e) :: acc))
      (base_env, [])
      (List.init n_wires (fun i -> i))
  in
  let wires = List.rev rev_wires in
  (* Register next/enables may reference anything, including wires. *)
  let regs =
    List.map
      (fun (name, w) ->
        let enable =
          if Random.State.int st 3 = 0 then Some (gen env st 2 1) else None
        in
        {
          Netlist.reg_name = name;
          reg_width = w;
          init = Bitvec.random st ~width:w;
          next = gen env st (1 + Random.State.int st 3) w;
          enable;
        })
      regs_meta
  in
  let mems =
    List.map
      (fun (name, word, size) ->
        let n_ports = 1 + Random.State.int st 2 in
        let writes =
          List.init n_ports (fun _ ->
              {
                Netlist.wr_enable = gen env st 2 1;
                wr_addr = gen env st 2 (address_width size);
                wr_data = gen env st 2 word;
              })
        in
        let mem_init =
          if Random.State.bool st then
            Some (Array.init size (fun _ -> Bitvec.random st ~width:word))
          else None
        in
        { Netlist.mem_name = name; word_width = word; mem_size = size;
          writes; mem_init })
      mems_meta
  in
  let outputs =
    List.init (1 + Random.State.int st 3) (fun i ->
        let w = pick_width st in
        (Printf.sprintf "out%d" i, gen env st (1 + Random.State.int st 3) w))
  in
  Netlist.elaborate
    {
      Netlist.name = Printf.sprintf "fuzz%d" seed;
      inputs;
      outputs;
      wires;
      regs;
      mems;
      instances = [];
    }

let test_random_netlists () =
  for seed = 1 to 25 do
    diff_design ~seed ~cycles:50
      (Printf.sprintf "fuzz%d" seed)
      (gen_netlist ~seed)
  done

(* --- every design in lib/designs ---------------------------------------- *)

let test_designs () =
  let fir = Fir.make ~taps:[ 1; 2; 3; 2; 1 ] () in
  diff_design ~seed:101 "fir" fir.Fir.rtl;
  let alu = Alu.make ~width:8 () in
  diff_design ~seed:102 "alu" alu.Alu.rtl;
  let gcd = Gcd.make ~width:8 in
  diff_design ~seed:103 "gcd" gcd.Gcd.rtl;
  let uart = Uart.make ~baud_div:4 () in
  diff_design ~seed:104 "uart" uart.Uart.rtl;
  let conv = Conv_image.make ~kernel:Conv_image.sharpen ~shift:0 () in
  diff_design ~seed:105 "conv_window" conv.Conv_image.rtl_window;
  diff_design ~seed:106 "conv_stream" (Conv_image.rtl_stream conv ~width:8);
  let chain = Image_chain.make () in
  diff_design ~seed:107 "image_chain" chain.Image_chain.rtl_top;
  let cfg = Memsys.default_config in
  diff_design ~seed:108 ~cycles:200 "memsys_simple" (Memsys.rtl_simple cfg);
  diff_design ~seed:109 ~cycles:200 "memsys_cached" (Memsys.rtl_cached cfg)

(* --- unboxed fast path vs boxed Bitvec ---------------------------------- *)

let test_unboxed_ops () =
  let module U = Bitvec.Unboxed in
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 2000 do
    let w = 1 + Random.State.int st U.max_width in
    let a = Bitvec.random st ~width:w and b = Bitvec.random st ~width:w in
    let ia = U.of_bitvec a and ib = U.of_bitvec b in
    let chk name expected got =
      Alcotest.check bv (Printf.sprintf "%s w=%d" name w) expected
        (U.to_bitvec ~width:w got)
    in
    chk "add" (Bitvec.add a b) (U.add w ia ib);
    chk "sub" (Bitvec.sub a b) (U.sub w ia ib);
    chk "neg" (Bitvec.neg a) (U.neg w ia);
    chk "mul" (Bitvec.mul a b) (U.mul w ia ib);
    chk "and" (Bitvec.logand a b) (U.logand ia ib);
    chk "or" (Bitvec.logor a b) (U.logor ia ib);
    chk "xor" (Bitvec.logxor a b) (U.logxor ia ib);
    chk "not" (Bitvec.lognot a) (U.lognot w ia);
    if not (Bitvec.is_zero b) then begin
      chk "udiv" (Bitvec.udiv a b) (U.udiv ia ib);
      chk "urem" (Bitvec.urem a b) (U.urem ia ib);
      chk "sdiv" (Bitvec.sdiv a b) (U.sdiv w ia ib);
      chk "srem" (Bitvec.srem a b) (U.srem w ia ib)
    end;
    let n = Random.State.int st (w + 1) in
    chk "shl" (Bitvec.shift_left a n) (U.shift_left w ia n);
    chk "lshr" (Bitvec.shift_right_logical a n) (U.shift_right_logical ia n);
    chk "ashr" (Bitvec.shift_right_arith a n) (U.shift_right_arith w ia n);
    let chkb name expected got =
      Alcotest.(check bool) (Printf.sprintf "%s w=%d" name w) expected got
    in
    chkb "red_and" (Bitvec.reduce_and a) (U.reduce_and w ia);
    chkb "red_or" (Bitvec.reduce_or a) (U.reduce_or ia);
    chkb "red_xor" (Bitvec.reduce_xor a) (U.reduce_xor ia);
    chkb "ult" (Bitvec.ult a b) (U.ult ia ib);
    chkb "ule" (Bitvec.ule a b) (U.ule ia ib);
    chkb "slt" (Bitvec.slt a b) (U.slt w ia ib);
    chkb "sle" (Bitvec.sle a b) (U.sle w ia ib);
    let lo = Random.State.int st w in
    let hi = lo + Random.State.int st (w - lo) in
    chk "select"
      (Bitvec.uresize (Bitvec.select a ~hi ~lo) w)
      (U.select ~hi ~lo ia);
    let wider = min U.max_width (w + Random.State.int st 4) in
    Alcotest.check bv
      (Printf.sprintf "sext w=%d->%d" w wider)
      (Bitvec.sresize a wider)
      (U.to_bitvec ~width:wider (U.sext ~from:w ~width:wider ia))
  done

(* --- error-path parity --------------------------------------------------- *)

let mini_design () =
  Netlist.elaborate
    {
      Netlist.name = "mini";
      inputs = [ { port_name = "a"; port_width = 4 } ];
      outputs = [ ("y", Expr.Signal "w") ];
      wires = [ ("w", Expr.(Binop (Add, Signal "a", Signal "r"))) ];
      regs =
        [ { reg_name = "r"; reg_width = 4; init = Bitvec.zero 4;
            next = Expr.Signal "w"; enable = None } ];
      mems = [];
      instances = [];
    }

let test_input_errors () =
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine (mini_design ()) in
      let exn f = try f (); "no exception" with e -> Printexc.to_string e in
      Alcotest.(check string) "missing input"
        (exn (fun () -> ignore (Sim.cycle sim [])))
        "Invalid_argument(\"Sim.cycle: missing input a\")";
      Alcotest.(check string) "wrong width"
        (exn (fun () -> ignore (Sim.cycle sim [ ("a", Bitvec.zero 5) ])))
        "Invalid_argument(\"Sim.cycle: input a has width 5, expected 4\")";
      Alcotest.(check string) "unknown port"
        (exn (fun () ->
             ignore
               (Sim.cycle sim [ ("a", Bitvec.zero 4); ("bogus", Bitvec.zero 1) ])))
        "Invalid_argument(\"Sim.cycle: no input port named bogus\")";
      Alcotest.(check string) "peek unknown"
        (exn (fun () -> ignore (Sim.peek sim "nope")))
        "Not_found";
      Alcotest.(check string) "peek unsettled wire"
        (exn (fun () -> ignore (Sim.peek sim "w")))
        "Invalid_argument(\"Sim.peek: wire w not settled yet\")";
      (* Duplicate input: first occurrence wins in both engines. *)
      let out =
        Sim.cycle sim
          [ ("a", Bitvec.create ~width:4 3); ("a", Bitvec.create ~width:4 9) ]
      in
      Alcotest.check bv "dup input first wins"
        (Bitvec.create ~width:4 3)
        (List.assoc "y" out))
    [ `Compiled; `Interp ]

let test_combinational_cycle () =
  (* Hand-assembled record with a wire cycle: the compiled engine must
     reject it at create instead of silently mis-settling. *)
  let design =
    {
      Netlist.e_name = "cyc";
      e_inputs = [ { port_name = "a"; port_width = 4 } ];
      e_outputs = [ ("y", Expr.Signal "w0") ];
      e_wires =
        [ ("w0", Expr.(Binop (Add, Signal "a", Signal "w1")));
          ("w1", Expr.(Binop (Xor, Signal "w0", Signal "a"))) ];
      e_regs = [];
      e_mems = [];
      e_signal_width = (fun _ -> 4);
    }
  in
  Alcotest.check_raises "cycle rejected"
    (Netlist.Elaboration_error "combinational cycle through wire w0")
    (fun () -> ignore (Sim.create design))

let test_levelizes_unsorted_wires () =
  (* Wires listed in reverse dependency order: the compiled engine
     re-levelizes and still settles correctly. *)
  let design =
    {
      Netlist.e_name = "unsorted";
      e_inputs = [ { Netlist.port_name = "a"; port_width = 8 } ];
      e_outputs = [ ("y", Expr.Signal "w1") ];
      e_wires =
        [ ("w1", Expr.(Binop (Add, Signal "w0", Signal "a")));
          ("w0", Expr.(Binop (Xor, Signal "a", Const (Bitvec.ones 8)))) ];
      e_regs = [];
      e_mems = [];
      e_signal_width = (fun _ -> 8);
    }
  in
  let sim = Sim.create design in
  let a = Bitvec.create ~width:8 5 in
  let out = Sim.cycle sim [ ("a", a) ] in
  Alcotest.check bv "levelized result"
    (Bitvec.add (Bitvec.logxor a (Bitvec.ones 8)) a)
    (List.assoc "y" out)

let test_wide_write_address () =
  (* Regression for the Sim.clock_edge wide-address crash: a 64-bit
     write address cannot be in range of any memory, so the write must
     be discarded — in both engines — exactly as Mem_read treats wide
     read addresses.  Only reachable through a hand-built record, since
     elaborate forces wr_addr to the address width. *)
  let wide_addr = Expr.Const (Bitvec.create ~width:64 (-1)) in
  let design =
    {
      Netlist.e_name = "wide_wr";
      e_inputs = [ { Netlist.port_name = "d"; port_width = 8 } ];
      e_outputs = [ ("y", Expr.(Mem_read ("m", Const (Bitvec.zero 2)))) ];
      e_wires = [];
      e_regs = [];
      e_mems =
        [ { Netlist.mem_name = "m"; word_width = 8; mem_size = 4;
            writes =
              [ { Netlist.wr_enable = Expr.Const (Bitvec.one 1);
                  wr_addr = wide_addr;
                  wr_data = Expr.Signal "d" } ];
            mem_init = None } ];
      e_signal_width = (fun _ -> 8);
    }
  in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine design in
      let d = Bitvec.create ~width:8 0xab in
      (* Before the fix this raised Failure("Bitvec.to_int: value too
         wide") out of the interpreter's clock_edge. *)
      let out = Sim.cycle sim [ ("d", d) ] in
      Alcotest.check bv "memory untouched" (Bitvec.zero 8)
        (List.assoc "y" out);
      for i = 0 to 3 do
        Alcotest.check bv
          (Printf.sprintf "word %d still zero" i)
          (Bitvec.zero 8) (Sim.peek_mem sim "m" i)
      done)
    [ `Compiled; `Interp ]

let suite =
  [
    Alcotest.test_case "random netlists: compiled = interp" `Quick
      test_random_netlists;
    Alcotest.test_case "designs: compiled = interp" `Quick test_designs;
    Alcotest.test_case "unboxed ops match Bitvec" `Quick test_unboxed_ops;
    Alcotest.test_case "input/peek error parity" `Quick test_input_errors;
    Alcotest.test_case "combinational cycle rejected" `Quick
      test_combinational_cycle;
    Alcotest.test_case "unsorted wires re-levelized" `Quick
      test_levelizes_unsorted_wires;
    Alcotest.test_case "wide write address discarded" `Quick
      test_wide_write_address;
  ]
