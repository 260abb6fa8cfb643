(* And-Inverter Graphs with structural hashing.

   Node array layout: node 0 is the constant-false node.  Each node is
   either an input (fanins (-1, input_number)) or an AND of two literals
   (fanin0, fanin1) with fanin0 >= fanin1, both strictly smaller than the
   node's own positive literal — so node order is a topological order. *)

type lit = int

type node =
  | Const
  | Input of int (* input number *)
  | And of lit * lit

type t = {
  mutable nodes : node array;
  mutable n : int; (* number of nodes in use *)
  strash : (int * int, int) Hashtbl.t; (* (fanin0, fanin1) -> node id *)
  mutable names : string array;
  mutable ninputs : int;
}

let false_ : lit = 0
let true_ : lit = 1

let create () =
  {
    nodes = Array.make 64 Const;
    n = 1;
    strash = Hashtbl.create 256;
    names = Array.make 16 "";
    ninputs = 0;
  }

let push_node g node =
  if g.n = Array.length g.nodes then begin
    let a = Array.make (2 * g.n) Const in
    Array.blit g.nodes 0 a 0 g.n;
    g.nodes <- a
  end;
  g.nodes.(g.n) <- node;
  g.n <- g.n + 1;
  g.n - 1

let input ?name g =
  let k = g.ninputs in
  if k = Array.length g.names then begin
    let a = Array.make (2 * k) "" in
    Array.blit g.names 0 a 0 k;
    g.names <- a
  end;
  g.names.(k) <- (match name with Some s -> s | None -> Printf.sprintf "i%d" k);
  g.ninputs <- k + 1;
  let id = push_node g (Input k) in
  id * 2

let num_inputs g = g.ninputs

let num_ands g =
  let c = ref 0 in
  for i = 0 to g.n - 1 do
    match g.nodes.(i) with And _ -> incr c | Const | Input _ -> ()
  done;
  !c

let input_name g i =
  if i < 0 || i >= g.ninputs then invalid_arg "Aig.input_name";
  g.names.(i)

let not_ l = l lxor 1
let is_const l = l lsr 1 = 0

let and_ g a b =
  (* Order fanins for canonicity. *)
  let a, b = if a >= b then (a, b) else (b, a) in
  if b = false_ then false_
  else if b = true_ then a
  else if a = b then a
  else if a = not_ b then false_
  else begin
    match Hashtbl.find_opt g.strash (a, b) with
    | Some id -> id * 2
    | None ->
      let id = push_node g (And (a, b)) in
      Hashtbl.add g.strash (a, b) id;
      id * 2
  end

let or_ g a b = not_ (and_ g (not_ a) (not_ b))
let implies g a b = or_ g (not_ a) b

let xor_ g a b =
  (* a^b = (a|b) & ~(a&b); structural hashing shares subterms. *)
  and_ g (or_ g a b) (not_ (and_ g a b))

let mux g ~sel a b = or_ g (and_ g sel a) (and_ g (not_ sel) b)

let and_list g = List.fold_left (and_ g) true_
let or_list g = List.fold_left (or_ g) false_

(* --- simulation ----------------------------------------------------- *)

let lit_of_node_value values l = values.(l lsr 1) <> (l land 1 = 1)

let simulate g inputs =
  let values = Array.make g.n false in
  for i = 0 to g.n - 1 do
    match g.nodes.(i) with
    | Const -> values.(i) <- false
    | Input k ->
      values.(i) <- (if k < Array.length inputs then inputs.(k) else false)
    | And (a, b) ->
      values.(i) <- lit_of_node_value values a && lit_of_node_value values b
  done;
  values

let eval g env l =
  let inputs = Array.init g.ninputs env in
  lit_of_node_value (simulate g inputs) l

let node_fanins g n =
  match g.nodes.(n) with
  | And (a, b) -> Some (a, b)
  | Const | Input _ -> None

let node_input g n =
  match g.nodes.(n) with Input k -> Some k | Const | And _ -> None

let num_nodes g = g.n

(* --- exact keys -------------------------------------------------------- *)

(* Unsigned LEB128: seven bits a byte, high bit set on all but the last. *)
let rec add_uint b n =
  if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_uint b (n lsr 7)
  end

(* An input is written as 0 and its number.  An AND of [a >= b] at node
   [id] is written as [2 * id - a] and [a - b], both at least 1 and
   mostly one byte, since fanins sit close below their node. *)
let key g groups =
  let b = Buffer.create (4 * g.n) in
  add_uint b g.n;
  for id = 1 to g.n - 1 do
    match g.nodes.(id) with
    | Const -> ()
    | Input k ->
      add_uint b 0;
      add_uint b k
    | And (a, c) ->
      add_uint b ((2 * id) - a);
      add_uint b (a - c)
  done;
  List.iter
    (fun lits ->
      add_uint b (Array.length lits);
      Array.iter (add_uint b) lits)
    groups;
  Buffer.contents b

(* --- Tseitin conversion ---------------------------------------------- *)

module S = Dfv_sat.Solver
module L = Dfv_sat.Lit

type cnf_map = {
  solver : S.t;
  graph : t;
  mutable vars : int array;   (* node id -> solver literal, -1 if none *)
  mutable stack : int array;  (* [encode_cone]'s stack, kept between calls *)
  mutable fresh_nodes : int;  (* nodes Tseitin-encoded by this map *)
  mutable reuse_hits : int;   (* cone visits answered by an existing encoding *)
}

let sat_lit m l =
  let id = l lsr 1 in
  if id >= Array.length m.vars || m.vars.(id) < 0 then raise Not_found;
  let v = m.vars.(id) in
  if l land 1 = 1 then L.negate v else v

let fresh_encoded m = m.fresh_nodes
let reuse_hits m = m.reuse_hits

(* [a] itself when it holds [n] slots, else a copy at least twice as
   long, its new slots set to [fill]. *)
let ensure a n fill =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make (max n (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let encode_cone m root =
  (* Iterative DFS over the cone of [root]; nodes are numbered in
     topological order so a simple upward sweep also works, but DFS keeps
     the encoding restricted to the cone of influence.  A reuse hit is
     any edge of the traversal answered by an existing encoding — a
     shared node inside this cone, or the boundary with cones encoded by
     earlier queries.

     A stack entry is [2 * id] for a visit of node [id] and [2 * id + 1]
     for an AND's revisit.  The first visit of an AND turns its own entry
     into the revisit and pushes fanin b, then fanin a on top, so the
     fanins are encoded first, a's cone before b's.  This order fixes the
     solver variable of every node. *)
  let g = m.graph and s = m.solver in
  m.vars <- ensure m.vars g.n (-1);
  let vars = m.vars in
  let sp = ref 0 in
  let push e =
    if !sp = Array.length m.stack then m.stack <- ensure m.stack (!sp + 1) 0;
    m.stack.(!sp) <- e;
    incr sp
  in
  push (2 * (root lsr 1));
  while !sp > 0 do
    decr sp;
    let e = m.stack.(!sp) in
    let id = e lsr 1 and revisit = e land 1 = 1 in
    match g.nodes.(id) with
    | _ when (not revisit) && vars.(id) >= 0 ->
      m.reuse_hits <- m.reuse_hits + 1
    | Const ->
      vars.(id) <- S.false_lit s;
      m.fresh_nodes <- m.fresh_nodes + 1
    | Input _ ->
      vars.(id) <- L.pos (S.new_var s);
      m.fresh_nodes <- m.fresh_nodes + 1
    | And (a, b) when not revisit ->
      (* First visit: count already-encoded fanins as reuse, push the
         rest, and come back to build once they are done. *)
      push (e lor 1);
      let ia = a lsr 1 and ib = b lsr 1 in
      if vars.(ib) >= 0 then m.reuse_hits <- m.reuse_hits + 1
      else push (2 * ib);
      if vars.(ia) >= 0 then m.reuse_hits <- m.reuse_hits + 1
      else push (2 * ia)
    | And (a, b) ->
      (* Revisit: the fanins are encoded now (they sat above us on the
         stack). *)
      let n = L.pos (S.new_var s) in
      let la = sat_lit m a and lb = sat_lit m b in
      (* n <-> la & lb *)
      S.add_clause s [ L.negate n; la ];
      S.add_clause s [ L.negate n; lb ];
      S.add_clause s [ n; L.negate la; L.negate lb ];
      vars.(id) <- n;
      m.fresh_nodes <- m.fresh_nodes + 1
  done

let encoder g s =
  {
    solver = s;
    graph = g;
    vars = [||];
    stack = [||];
    fresh_nodes = 0;
    reuse_hits = 0;
  }

let encode m l =
  encode_cone m l;
  sat_lit m l

(* --- one-shot checks -------------------------------------------------- *)

let witness_of_model m =
  let g = m.graph in
  let w = Array.make g.ninputs false in
  (* An input outside the encoded cones is a don't-care: it stays false. *)
  for id = 0 to min g.n (Array.length m.vars) - 1 do
    match g.nodes.(id) with
    | Input k when m.vars.(id) >= 0 -> w.(k) <- S.value m.solver m.vars.(id)
    | Const | Input _ | And _ -> ()
  done;
  w

let check_sat ?(assumptions = []) g l =
  if l = false_ then `Unsat
  else begin
    let s = S.create () in
    let m = encoder g s in
    let roots = List.map (encode m) (l :: assumptions) in
    List.iter (fun sl -> S.add_clause s [ sl ]) roots;
    match S.solve s with
    | S.Sat -> `Sat (witness_of_model m)
    | S.Unsat -> `Unsat
  end

let equivalent g a b =
  let miter = xor_ g a b in
  match check_sat g miter with
  | `Unsat -> `Yes
  | `Sat w -> `No w
