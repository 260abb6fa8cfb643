module S = Dfv_sat.Solver
module L = Dfv_sat.Lit

(* SAT sweeping with counterexample-guided refinement.

   Signatures live on the NEW graph and are maintained incrementally:
   an AND node's signature is the AND of its fanins', so a node created
   at any point (including nodes first built for a query miter and later
   reached by hashing) can have its signature computed lazily.  Candidate
   classes are keyed by the canonical signature (complemented so that the
   first simulated bit is 0 — stable under refinement, which never
   rewrites that bit).  Every refuted query contributes its
   distinguishing input pattern to the signatures, splitting the classes,
   so each spurious collision is paid for once — not once per node. *)

let word_mask = (1 lsl 62) - 1

type state = {
  g' : Aig.t;
  solver : S.t;
  enc : Aig.cnf_map;
  max_conflicts : int;
  mutable sig_words : int array array;
      (* per g' node; [||] = not yet computed *)
  mutable bits_used : int; (* filled bits of the newest word *)
  classes : (int array, Aig.lit list) Hashtbl.t;
  mutable reps : Aig.lit list;
  rnd : Random.State.t;
}

let random_word st =
  (Random.State.bits st.rnd land 0x3FFFFFFF)
  lor ((Random.State.bits st.rnd land 0x3FFFFFFF) lsl 30)
  lor ((Random.State.bits st.rnd land 0x3) lsl 60)

let ensure_capacity st node =
  if node >= Array.length st.sig_words then begin
    let a = Array.make (max 64 (2 * (node + 1))) [||] in
    Array.blit st.sig_words 0 a 0 (Array.length st.sig_words);
    st.sig_words <- a
  end

let sig_length st = Array.length st.sig_words.(0)

(* Force the signature of a g' node, computing missed (miter-born) nodes
   from their fanins. *)
let rec get_sig st node : int array =
  ensure_capacity st node;
  let s = st.sig_words.(node) in
  if s <> [||] || node = 0 then
    if node = 0 && s = [||] then begin
      let z = Array.make (sig_length st) 0 in
      st.sig_words.(0) <- z;
      z
    end
    else s
  else begin
    match Aig.node_fanins st.g' node with
    | Some (a, b) ->
      let sa = get_lit_sig st a and sb = get_lit_sig st b in
      let s = Array.map2 ( land ) sa sb in
      st.sig_words.(node) <- s;
      s
    | None ->
      (* An input that somehow has no signature yet. *)
      let len = sig_length st in
      let s = Array.init len (fun _ -> random_word st) in
      s.(len - 1) <- s.(len - 1) land ((1 lsl st.bits_used) - 1);
      st.sig_words.(node) <- s;
      s
  end

and get_lit_sig st l =
  let s = get_sig st (l lsr 1) in
  if l land 1 = 1 then Array.map (fun w -> lnot w land word_mask) s else s

let canon_of s =
  if s.(0) land 1 = 1 then Array.map (fun w -> lnot w land word_mask) s else s

let phase_of s = s.(0) land 1

let register st canon_sig canon_lit =
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt st.classes canon_sig)
  in
  Hashtbl.replace st.classes (Array.copy canon_sig) (canon_lit :: existing);
  st.reps <- canon_lit :: st.reps

let rebuild_classes st =
  Hashtbl.reset st.classes;
  List.iter
    (fun rep ->
      let s = get_lit_sig st rep in
      let existing = Option.value ~default:[] (Hashtbl.find_opt st.classes s) in
      Hashtbl.replace st.classes (Array.copy s) (rep :: existing))
    st.reps

(* Append one input pattern to every computed signature. *)
let refine st pattern =
  let fresh_word = st.bits_used >= 62 in
  let bit = if fresh_word then 0 else st.bits_used in
  st.bits_used <- (if fresh_word then 1 else st.bits_used + 1);
  (* Only nodes with computed signatures participate; nodes beyond the
     storage (created inside query miters) stay lazy. *)
  let tracked = min (Aig.num_nodes st.g') (Array.length st.sig_words) in
  if fresh_word then
    for node = 0 to tracked - 1 do
      if st.sig_words.(node) <> [||] then
        st.sig_words.(node) <- Array.append st.sig_words.(node) [| 0 |]
    done;
  let last = sig_length st - 1 in
  for node = 0 to tracked - 1 do
    if node > 0 && st.sig_words.(node) <> [||] then begin
      let v =
        match Aig.node_fanins st.g' node with
        | Some (a, b) ->
          let bit_of l =
            let s = st.sig_words.(l lsr 1) in
            let raw = (s.(last) lsr bit) land 1 = 1 in
            if l land 1 = 1 then not raw else raw
          in
          bit_of a && bit_of b
        | None -> (
          match Aig.node_input st.g' node with
          | Some k -> k < Array.length pattern && pattern.(k)
          | None -> false)
      in
      if v then
        st.sig_words.(node).(last) <- st.sig_words.(node).(last) lor (1 lsl bit)
    end
  done;
  rebuild_classes st

(* Decide equivalence of two g' literals; on refutation, refine. *)
let prove_equal st a b =
  if a = b then true
  else if a = Aig.not_ b then false
  else begin
    let miter = Aig.xor_ st.g' a b in
    if miter = Aig.false_ then true
    else if miter = Aig.true_ then false
    else begin
      (* One poll per candidate pair: a cancelled job stops between
         local queries even when none of them reaches 64 conflicts. *)
      Dfv_sat.Stop.poll ();
      let ml = Aig.encode st.enc miter in
      match
        S.solve_bounded ~assumptions:[ ml ] ~max_conflicts:st.max_conflicts
          st.solver
      with
      | Some S.Unsat ->
        S.add_clause st.solver [ L.negate ml ];
        true
      | Some S.Sat ->
        let ninputs = Aig.num_inputs st.g' in
        let pattern = Array.make ninputs false in
        for node = 0 to Aig.num_nodes st.g' - 1 do
          match Aig.node_input st.g' node with
          | Some k -> (
            match Aig.sat_lit st.enc (node * 2) with
            | sl -> pattern.(k) <- S.value st.solver sl
            | exception Not_found -> ())
          | None -> ()
        done;
        refine st pattern;
        false
      | None -> false
    end
  end

let fraig ?(sim_words = 4) ?(max_conflicts = 1000) g =
  let n = Aig.num_nodes g in
  let g' = Aig.create () in
  let solver = S.create () in
  let st =
    {
      g';
      solver;
      enc = Aig.encoder g' solver;
      max_conflicts;
      sig_words = Array.make (max 64 n) [||];
      bits_used = 62;
      classes = Hashtbl.create 1024;
      reps = [];
      rnd = Random.State.make [| 0x5eed; n |];
    }
  in
  st.sig_words.(0) <- Array.make sim_words 0;
  register st (Array.make sim_words 0) Aig.false_;
  let map = Array.make (max 1 n) Aig.false_ in
  let sub l = map.(l lsr 1) lxor (l land 1) in
  let classify node l =
    if Aig.is_const l then map.(node) <- l
    else begin
      let s = get_lit_sig st l in
      let phase = phase_of s in
      let canon_lit = l lxor phase in
      let rec try_reps tried =
        (* Re-read the class each time: refinement rebuilds the table. *)
        let canon_sig = canon_of (get_lit_sig st l) in
        let candidates =
          Option.value ~default:[] (Hashtbl.find_opt st.classes canon_sig)
        in
        let remaining =
          List.filter (fun r -> not (List.memq r tried)) candidates
        in
        match remaining with
        | [] ->
          register st canon_sig canon_lit;
          map.(node) <- l
        | rep :: _ ->
          if rep = canon_lit then map.(node) <- l
          else if prove_equal st canon_lit rep then map.(node) <- rep lxor phase
          else try_reps (rep :: tried)
      in
      try_reps []
    end
  in
  for node = 0 to n - 1 do
    match Aig.node_fanins g node with
    | None -> (
      match Aig.node_input g node with
      | Some _ ->
        let l = Aig.input g' in
        let node' = l lsr 1 in
        ensure_capacity st node';
        let len = sig_length st in
        let s = Array.init len (fun _ -> random_word st) in
        s.(len - 1) <- s.(len - 1) land ((1 lsl st.bits_used) - 1);
        st.sig_words.(node') <- s;
        map.(node) <- l;
        register st (canon_of s) (l lxor phase_of s)
      | None -> map.(node) <- Aig.false_)
    | Some (a, b) ->
      let l = Aig.and_ g' (sub a) (sub b) in
      classify node l
  done;
  (g', sub)
