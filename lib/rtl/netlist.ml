module Bitvec = Dfv_bitvec.Bitvec

type port = { port_name : string; port_width : int }

type reg = {
  reg_name : string;
  reg_width : int;
  init : Bitvec.t;
  next : Expr.t;
  enable : Expr.t option;
}

type write_port = { wr_enable : Expr.t; wr_addr : Expr.t; wr_data : Expr.t }

type memory = {
  mem_name : string;
  word_width : int;
  mem_size : int;
  writes : write_port list;
  mem_init : Bitvec.t array option;
}

type instance = {
  inst_name : string;
  inst_module : t;
  connections : (string * Expr.t) list;
}

and t = {
  name : string;
  inputs : port list;
  outputs : (string * Expr.t) list;
  wires : (string * Expr.t) list;
  regs : reg list;
  mems : memory list;
  instances : instance list;
}

exception Elaboration_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Elaboration_error s)) fmt

let empty name =
  { name; inputs = []; outputs = []; wires = []; regs = []; mems = []; instances = [] }

let reg ?enable ?init ~name ~width next =
  let init = match init with Some i -> i | None -> Bitvec.zero width in
  if Bitvec.width init <> width then
    fail "register %s: init width %d, declared width %d" name
      (Bitvec.width init) width;
  { reg_name = name; reg_width = width; init; next; enable }

(* --- flattening -------------------------------------------------------- *)

(* Flatten instances: internal names of an instance [u] become [u.name]
   in the parent; the instance's input ports become parent wires bound to
   the connection expressions; its outputs become parent wires [u.out]. *)
let rec flatten (m : t) : t =
  let flat_instances =
    List.map
      (fun inst ->
        let sub = flatten inst.inst_module in
        let p n = inst.inst_name ^ "." ^ n in
        let rename_expr e =
          Expr.rename_memories p (Expr.map_signals (fun n -> Expr.Signal (p n)) e)
        in
        (* Input ports become wires driven by connection expressions
           (which reference *parent* signals, so no renaming). *)
        let input_wires =
          List.map
            (fun port ->
              match List.assoc_opt port.port_name inst.connections with
              | Some e -> (p port.port_name, e)
              | None ->
                fail "instance %s of %s: input port %s not connected"
                  inst.inst_name sub.name port.port_name)
            sub.inputs
        in
        let extra =
          List.filter
            (fun (n, _) ->
              not (List.exists (fun port -> port.port_name = n) sub.inputs))
            inst.connections
        in
        (match extra with
        | (n, _) :: _ ->
          fail "instance %s of %s: no input port named %s" inst.inst_name
            sub.name n
        | [] -> ());
        let output_wires =
          List.map (fun (n, e) -> (p n, rename_expr e)) sub.outputs
        in
        let wires =
          input_wires @ output_wires
          @ List.map (fun (n, e) -> (p n, rename_expr e)) sub.wires
        in
        let regs =
          List.map
            (fun r ->
              {
                r with
                reg_name = p r.reg_name;
                next = rename_expr r.next;
                enable = Option.map rename_expr r.enable;
              })
            sub.regs
        in
        let mems =
          List.map
            (fun mem ->
              {
                mem with
                mem_name = p mem.mem_name;
                writes =
                  List.map
                    (fun w ->
                      {
                        wr_enable = rename_expr w.wr_enable;
                        wr_addr = rename_expr w.wr_addr;
                        wr_data = rename_expr w.wr_data;
                      })
                    mem.writes;
              })
            sub.mems
        in
        (wires, regs, mems))
      m.instances
  in
  let inst_wires = List.concat_map (fun (w, _, _) -> w) flat_instances in
  let inst_regs = List.concat_map (fun (_, r, _) -> r) flat_instances in
  let inst_mems = List.concat_map (fun (_, _, mm) -> mm) flat_instances in
  {
    m with
    wires = m.wires @ inst_wires;
    regs = m.regs @ inst_regs;
    mems = m.mems @ inst_mems;
    instances = [];
  }

(* --- elaboration ------------------------------------------------------- *)

type elaborated = {
  e_name : string;
  e_inputs : port list;
  e_outputs : (string * Expr.t) list;
  e_wires : (string * Expr.t) list;
  e_regs : reg list;
  e_mems : memory list;
  e_signal_width : string -> int;
}

let address_width size =
  let rec go w = if 1 lsl w >= size then w else go (w + 1) in
  max 1 (go 0)

let elaborate (m : t) : elaborated =
  let m = flatten m in
  (* Signal table: name -> width. *)
  let widths : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let declare kind name width =
    if Hashtbl.mem widths name then fail "duplicate signal name %s (%s)" name kind;
    if width < 1 then fail "%s %s has width %d" kind name width;
    Hashtbl.add widths name width
  in
  List.iter (fun p -> declare "input" p.port_name p.port_width) m.inputs;
  List.iter (fun r -> declare "register" r.reg_name r.reg_width) m.regs;
  let mem_widths : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun mem ->
      if Hashtbl.mem mem_widths mem.mem_name then
        fail "duplicate memory name %s" mem.mem_name;
      if mem.mem_size < 1 then fail "memory %s has size %d" mem.mem_name mem.mem_size;
      if mem.word_width < 1 then
        fail "memory %s has word width %d" mem.mem_name mem.word_width;
      (match mem.mem_init with
      | Some init when Array.length init <> mem.mem_size ->
        fail "memory %s: init has %d words, size is %d" mem.mem_name
          (Array.length init) mem.mem_size
      | Some init ->
        Array.iteri
          (fun i w ->
            if Bitvec.width w <> mem.word_width then
              fail "memory %s: init word %d has width %d, expected %d"
                mem.mem_name i (Bitvec.width w) mem.word_width)
          init
      | None -> ());
      Hashtbl.add mem_widths mem.mem_name (mem.word_width, mem.mem_size))
    m.mems;
  (* Wires may be declared in any order; detect duplicates now, widths
     computed after everything is declared. *)
  let wire_exprs : (string, Expr.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n, e) ->
      if Hashtbl.mem widths n || Hashtbl.mem wire_exprs n then
        fail "duplicate signal name %s (wire)" n;
      Hashtbl.add wire_exprs n e)
    m.wires;
  let sig_width name =
    match Hashtbl.find_opt widths name with
    | Some w -> w
    | None -> fail "reference to unknown signal %s" name
  and mem_word name =
    match Hashtbl.find_opt mem_widths name with
    | Some (w, _) -> w
    | None -> fail "reference to unknown memory %s" name
  in
  (* Topologically order the wires: a wire depends on the wires its
     expression references.  Registers, inputs and memories are state —
     no dependency edges. *)
  let order : (string * Expr.t) list ref = ref [] in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      if Hashtbl.mem visiting name then
        fail "combinational cycle through wire %s" name;
      match Hashtbl.find_opt wire_exprs name with
      | None -> () (* input / register: no scheduling needed *)
      | Some e ->
        Hashtbl.add visiting name ();
        List.iter visit (Expr.signals e);
        Hashtbl.remove visiting name;
        Hashtbl.add visited name ();
        order := (name, e) :: !order
    end
  in
  Hashtbl.iter (fun n _ -> visit n) wire_exprs;
  let e_wires = List.rev !order in
  (* Now all wires can get widths, in dependency order. *)
  List.iter
    (fun (n, e) ->
      let w =
        try Expr.width_in sig_width mem_word e
        with Expr.Width_error msg -> fail "wire %s: %s" n msg
      in
      declare "wire" n w)
    e_wires;
  (* Check registers. *)
  List.iter
    (fun r ->
      let wn =
        try Expr.width_in sig_width mem_word r.next
        with Expr.Width_error msg -> fail "register %s next: %s" r.reg_name msg
      in
      if wn <> r.reg_width then
        fail "register %s: next width %d, declared %d" r.reg_name wn r.reg_width;
      match r.enable with
      | None -> ()
      | Some e ->
        let we =
          try Expr.width_in sig_width mem_word e
          with Expr.Width_error msg ->
            fail "register %s enable: %s" r.reg_name msg
        in
        if we <> 1 then
          fail "register %s: enable width %d, must be 1" r.reg_name we)
    m.regs;
  (* Check memory write ports. *)
  List.iter
    (fun mem ->
      let aw = address_width mem.mem_size in
      List.iteri
        (fun i wp ->
          let check what e expect =
            let w =
              try Expr.width_in sig_width mem_word e
              with Expr.Width_error msg ->
                fail "memory %s write port %d %s: %s" mem.mem_name i what msg
            in
            if w <> expect then
              fail "memory %s write port %d: %s width %d, expected %d"
                mem.mem_name i what w expect
          in
          check "enable" wp.wr_enable 1;
          check "addr" wp.wr_addr aw;
          check "data" wp.wr_data mem.word_width)
        mem.writes)
    m.mems;
  (* Check memory read address widths used inside expressions: enforced
     lazily — Mem_read addresses may be any width; the simulator masks.
     We do validate outputs. *)
  List.iter
    (fun (n, e) ->
      try ignore (Expr.width_in sig_width mem_word e)
      with Expr.Width_error msg -> fail "output %s: %s" n msg)
    m.outputs;
  {
    e_name = m.name;
    e_inputs = m.inputs;
    e_outputs = m.outputs;
    e_wires;
    e_regs = m.regs;
    e_mems = m.mems;
    e_signal_width = sig_width;
  }

let expr_width e ex =
  let mem_word n =
    match List.find_opt (fun m -> m.mem_name = n) e.e_mems with
    | Some m -> m.word_width
    | None -> fail "reference to unknown memory %s" n
  in
  Expr.width_in e.e_signal_width mem_word ex

let signal_names e =
  List.sort compare
    (List.map (fun p -> p.port_name) e.e_inputs
    @ List.map fst e.e_wires
    @ List.map (fun r -> r.reg_name) e.e_regs)
