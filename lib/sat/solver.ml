(* CDCL SAT solver (MiniSat lineage).

   Every clause lives in one growable int array, the arena: a clause at
   offset [c] is its size [arena.(c)] followed by its literals at
   [c + 1 .. c + size].  The two watched literals sit in the first two
   slots.  Watch lists, the clause vectors and the per-variable reasons
   hold arena offsets, with -1 for "none", so the hot loops read and
   write plain ints: no pointer stores and no allocation per
   propagation.  [watches.(l)] lists the clauses currently watching
   literal [l]; a clause is visited when one of its watched literals
   becomes false. *)

type result = Sat | Unsat

type reason = Conflict_limit | Time_limit

let reason_string = function
  | Conflict_limit -> "conflict budget exhausted"
  | Time_limit -> "time budget exhausted"

type budget = { max_conflicts : int option; max_seconds : float option }

let no_budget = { max_conflicts = None; max_seconds = None }

let budget_key = function
  | None -> "-"
  | Some b ->
    let field show = function Some v -> show v | None -> "-" in
    Printf.sprintf "c=%s,s=%s"
      (field string_of_int b.max_conflicts)
      (field (Printf.sprintf "%g") b.max_seconds)

(* Growable int vectors: the solver's hot loops need in-place push/pop
   without list allocation. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  (* No storage until the first push: most literals' watch lists stay
     empty or short. *)
  let create () = { data = [||]; len = 0 }

  let grow v =
    let data = Array.make (max 4 (2 * v.len)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data

  let[@inline] push v x =
    if v.len = Array.length v.data then grow v;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let[@inline] get v i = v.data.(i)
  let[@inline] set v i x = v.data.(i) <- x
  let[@inline] size v = v.len
  let[@inline] shrink v n = v.len <- n
end

type t = {
  (* Per-literal state. *)
  mutable vals : int array; (* -1 unassigned / 0 false / 1 true *)
  (* Per-variable state. *)
  mutable level : int array;
  mutable reason : int array;   (* arena offset of the implying clause, or -1 *)
  mutable activity : float array;
  mutable phase : bool array;   (* saved polarity for decisions *)
  mutable heap_pos : int array; (* position in [heap], or -1 *)
  heap : Vec.t;                 (* binary max-heap of variables by activity *)
  mutable nvars : int;
  (* Clause database. *)
  mutable arena : int array;
  mutable arena_len : int;
  clauses : Vec.t;              (* offsets of problem clauses *)
  learnts : Vec.t;              (* offsets of learnt clauses *)
  mutable watches : Vec.t array; (* indexed by literal *)
  (* Trail. *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  (* Activity bookkeeping. *)
  mutable var_inc : float;
  (* Status. *)
  mutable unsat : bool; (* conflict at level 0: permanently unsat *)
  mutable const_true : int; (* lazily allocated always-true literal, or -1 *)
  (* Statistics. *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflict_budget : int; (* -1 = unlimited; counts down in solve *)
  mutable deadline : float; (* absolute gettimeofday bound; infinity = none *)
  (* Learnt-DB reduction. *)
  mutable learnt_limit : int; (* reduce when learnts exceed this; grows *)
  mutable learnts_removed : int;
  (* Scratch, per solver: solvers run on several domains at once. *)
  mutable seen : bool array;
  analyze_stack : Vec.t; (* lower-level literals of a conflict, in order *)
  lits : Vec.t;          (* the clause being learnt or added *)
}

let create () =
  {
    vals = Array.make 32 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    heap = Vec.create ();
    nvars = 0;
    arena = Array.make 1024 0;
    arena_len = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    watches = Array.init 32 (fun _ -> Vec.create ());
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    unsat = false;
    const_true = -1;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    conflict_budget = -1;
    deadline = infinity;
    learnt_limit = 8192;
    learnts_removed = 0;
    seen = Array.make 16 false;
    analyze_stack = Vec.create ();
    lits = Vec.create ();
  }

let nvars s = s.nvars
let nclauses s = Vec.size s.clauses
let nlearnts s = Vec.size s.learnts
let nconflicts s = s.conflicts
let ndecisions s = s.decisions
let npropagations s = s.propagations
let nlearnts_removed s = s.learnts_removed

let set_learnt_limit s n =
  if n < 1 then invalid_arg "Solver.set_learnt_limit";
  s.learnt_limit <- n

(* --- heap of variables ordered by activity ------------------------- *)

let heap_lt s v w = s.activity.(v) > s.activity.(w)

let heap_swap s i j =
  let vi = Vec.get s.heap i and vj = Vec.get s.heap j in
  Vec.set s.heap i vj;
  Vec.set s.heap j vi;
  s.heap_pos.(vi) <- j;
  s.heap_pos.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s (Vec.get s.heap i) (Vec.get s.heap p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let n = Vec.size s.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && heap_lt s (Vec.get s.heap l) (Vec.get s.heap !best) then best := l;
  if r < n && heap_lt s (Vec.get s.heap r) (Vec.get s.heap !best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    Vec.push s.heap v;
    s.heap_pos.(v) <- Vec.size s.heap - 1;
    heap_up s (Vec.size s.heap - 1)
  end

let heap_pop s =
  let top = Vec.get s.heap 0 in
  let last = Vec.get s.heap (Vec.size s.heap - 1) in
  Vec.shrink s.heap (Vec.size s.heap - 1);
  s.heap_pos.(top) <- -1;
  if Vec.size s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  top

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- variables ------------------------------------------------------ *)

let grow_arrays s =
  let n = Array.length s.level in
  let grow a dummy =
    let b = Array.make (2 * Array.length a) dummy in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.vals <- grow s.vals (-1);
  s.level <- grow s.level 0;
  s.reason <- grow s.reason (-1);
  s.activity <- grow s.activity 0.0;
  s.phase <- grow s.phase false;
  s.heap_pos <- grow s.heap_pos (-1);
  s.seen <- grow s.seen false;
  let w = s.watches in
  s.watches <-
    Array.init (4 * n) (fun l -> if l < 2 * n then w.(l) else Vec.create ())

let new_var s =
  if s.nvars = Array.length s.level then grow_arrays s;
  let v = s.nvars in
  s.nvars <- s.nvars + 1;
  heap_insert s v;
  v

(* --- assignment ----------------------------------------------------- *)

(* -1 unassigned, 0 false, 1 true *)
let[@inline] lit_value s l = s.vals.(l)

let[@inline] decision_level s = Vec.size s.trail_lim

let[@inline] enqueue s l reason =
  let v = Lit.var l in
  s.vals.(l) <- 1;
  s.vals.(Lit.negate l) <- 0;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

(* --- clause arena --------------------------------------------------- *)

(* Append the clause [src.(pos .. pos+n-1)] to the arena; return its
   offset. *)
let alloc_clause s src pos n =
  let need = s.arena_len + 1 + n in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_len;
    s.arena <- a
  end;
  let c = s.arena_len in
  s.arena.(c) <- n;
  Array.blit src pos s.arena (c + 1) n;
  s.arena_len <- need;
  c

let attach_clause s c =
  Vec.push s.watches.(s.arena.(c + 1)) c;
  Vec.push s.watches.(s.arena.(c + 2)) c

(* --- propagation ---------------------------------------------------- *)

(* Returns the offset of a conflicting clause, or -1. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < Vec.size s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* Literal [np] just became false: visit its watchers.  Neither the
       arena nor [vals] can be reallocated during propagation. *)
    let np = Lit.negate p in
    let ws = s.watches.(np) in
    let wd = ws.data and n = ws.len in
    let arena = s.arena and vals = s.vals in
    (* In-place compaction: clauses that keep watching [np] are copied
       down to position [j]. *)
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = wd.(!i) in
      incr i;
      (* Ensure the false watch is at position 1. *)
      let first =
        let l0 = arena.(c + 1) in
        if l0 = np then begin
          let l1 = arena.(c + 2) in
          arena.(c + 1) <- l1;
          arena.(c + 2) <- np;
          l1
        end
        else l0
      in
      if vals.(first) = 1 then begin
        (* Clause already satisfied by the other watch. *)
        wd.(!j) <- c;
        incr j
      end
      else begin
        (* Look for a new literal to watch. *)
        let stop = c + 1 + arena.(c) in
        let k = ref (c + 3) in
        while !k < stop && vals.(arena.(!k)) = 0 do
          incr k
        done;
        if !k < stop then begin
          (* Move the new watch into position 1 and drop c from [ws] by
             not copying it down.  The new watch is not false, so its
             list is not [ws]. *)
          let w = arena.(!k) in
          arena.(c + 2) <- w;
          arena.(!k) <- np;
          Vec.push s.watches.(w) c
        end
        else begin
          wd.(!j) <- c;
          incr j;
          if vals.(first) = 0 then begin
            (* All other literals false and the first false too:
               conflict.  Keep the remaining watchers in place. *)
            while !i < n do
              wd.(!j) <- wd.(!i);
              incr i;
              incr j
            done;
            s.qhead <- Vec.size s.trail;
            confl := c
          end
          else (* Unit clause: propagate the first literal. *)
            enqueue s first c
        end
      end
    done;
    ws.len <- !j
  done;
  !confl

(* --- activity ------------------------------------------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

(* --- backtracking --------------------------------------------------- *)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.phase.(v) <- Lit.is_pos l;
      s.vals.(l) <- -1;
      s.vals.(Lit.negate l) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* --- conflict analysis (1-UIP) -------------------------------------- *)

(* A learnt literal [q] is redundant when every other literal of its
   reason is already in the clause or fixed at level 0. *)
let redundant s q r =
  let arena = s.arena in
  let k = ref (r + 1) and stop = r + 1 + arena.(r) in
  while
    !k < stop
    &&
    let v = Lit.var arena.(!k) in
    v = Lit.var q || s.seen.(v) || s.level.(v) = 0
  do
    incr k
  done;
  !k >= stop

(* Leaves the learnt clause in [s.lits] and returns the backtrack level.
   The asserting literal comes first, then the other literals in reverse
   discovery order, with the highest-level one swapped into slot 1. *)
let analyze s conflict =
  let stack = s.analyze_stack in
  Vec.shrink stack 0;
  let arena = s.arena in
  let dl = decision_level s in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (Vec.size s.trail - 1) in
  let c = ref conflict in
  let continue = ref true in
  while !continue do
    for k = !c + 1 to !c + arena.(!c) do
      let q = arena.(k) in
      (* Skip the asserting literal itself on non-first iterations. *)
      if q <> !p then begin
        let v = Lit.var q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          var_bump s v;
          if s.level.(v) >= dl then incr path else Vec.push stack q
        end
      end
    done;
    (* Walk the trail backwards to the next marked literal. *)
    while not s.seen.(Lit.var (Vec.get s.trail !idx)) do
      decr idx
    done;
    let l = Vec.get s.trail !idx in
    decr idx;
    let v = Lit.var l in
    s.seen.(v) <- false;
    decr path;
    if !path = 0 then begin
      (* l is the 1-UIP; its negation asserts the learnt clause. *)
      p := Lit.negate l;
      continue := false
    end
    else begin
      (* A decision cannot be interior to the cut. *)
      assert (s.reason.(v) >= 0);
      c := s.reason.(v);
      p := l
    end
  done;
  (* Clause minimization (self-subsumption, non-recursive).  The
     lower-level literals are still marked in [seen]. *)
  let out = s.lits in
  Vec.shrink out 0;
  Vec.push out !p;
  for i = Vec.size stack - 1 downto 0 do
    let q = Vec.get stack i in
    let r = s.reason.(Lit.var q) in
    if r < 0 || not (redundant s q r) then Vec.push out q
  done;
  for i = 0 to Vec.size stack - 1 do
    s.seen.(Lit.var (Vec.get stack i)) <- false
  done;
  (* Find the backtrack level: the highest level among the non-asserting
     literals (0 if the clause is unit). *)
  let blevel = ref 0 in
  let pos = ref 0 in
  for i = 1 to Vec.size out - 1 do
    let lv = s.level.(Lit.var (Vec.get out i)) in
    if lv > !blevel then begin
      blevel := lv;
      pos := i
    end
  done;
  (* Put the second-highest-level literal at index 1 (watch invariant). *)
  if Vec.size out > 1 then begin
    let tmp = Vec.get out 1 in
    Vec.set out 1 (Vec.get out !pos);
    Vec.set out !pos tmp
  end;
  !blevel

(* --- clause addition ------------------------------------------------ *)

let rec push_lits s buf = function
  | [] -> ()
  | l :: rest ->
    if Lit.var l >= s.nvars || l < 0 then
      invalid_arg "Solver.add_clause: unallocated variable";
    Vec.push buf l;
    push_lits s buf rest

(* Sort [a.(0 .. n-1)] ascending.  Insertion sort suits the short clauses
   of Tseitin encodings; a long clause (from DIMACS, say) must not cost
   quadratic time. *)
let sort_prefix a n =
  if n > 32 then begin
    let b = Array.sub a 0 n in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let add_clause s lits =
  if not s.unsat then begin
    let buf = s.lits in
    Vec.shrink buf 0;
    push_lits s buf lits;
    (* Normalize in place: sort, dedupe, drop tautologies and
       level-0-false literals. *)
    let a = buf.data and n = Vec.size buf in
    sort_prefix a n;
    let m = ref 0 and dropped = ref false in
    for i = 0 to n - 1 do
      let l = a.(i) in
      (* Sorted, so [l]'s duplicates and its negation sit just before
         it.  [a.(i - 1)] has not been overwritten: [!m < i]. *)
      if i = 0 || a.(i - 1) <> l then begin
        if i > 0 && a.(i - 1) = Lit.negate l then dropped := true;
        let at_root = s.level.(Lit.var l) = 0 in
        match lit_value s l with
        | 1 when at_root -> dropped := true
        | 0 when at_root -> ()
        | _ ->
          a.(!m) <- l;
          incr m
      end
    done;
    if not !dropped then begin
      match !m with
      | 0 -> s.unsat <- true
      | 1 ->
        let l = a.(0) in
        if lit_value s l = -1 then begin
          enqueue s l (-1);
          if propagate s >= 0 then s.unsat <- true
        end
      | m ->
        let c = alloc_clause s a 0 m in
        Vec.push s.clauses c;
        attach_clause s c
    end
  end

(* --- learnt-DB reduction --------------------------------------------- *)

(* A learnt clause is locked while it is the reason for a current
   assignment: it must survive reduction so conflict analysis can still
   walk the implication graph through it. *)
let is_locked s c =
  let l = s.arena.(c + 1) in
  lit_value s l >= 0 && s.reason.(Lit.var l) = c

(* Copy the problem clauses and the learnts into a fresh arena, in that
   order, and remap [clauses], [learnts] and every reason.  Each old
   header is overwritten with -1 - (new offset) once its clause moved. *)
let compact s =
  let old = s.arena in
  let live = ref 0 in
  let count v =
    for i = 0 to Vec.size v - 1 do
      live := !live + 1 + old.(Vec.get v i)
    done
  in
  count s.clauses;
  count s.learnts;
  s.arena <- Array.make (max 1024 (2 * !live)) 0;
  s.arena_len <- 0;
  let move v =
    for i = 0 to Vec.size v - 1 do
      let c = Vec.get v i in
      let c' = alloc_clause s old (c + 1) old.(c) in
      old.(c) <- -1 - c';
      Vec.set v i c'
    done
  in
  move s.clauses;
  move s.learnts;
  for i = 0 to Vec.size s.trail - 1 do
    let v = Lit.var (Vec.get s.trail i) in
    let r = s.reason.(v) in
    if r >= 0 then begin
      (* Every reason is a problem clause or a locked learnt. *)
      assert (old.(r) < 0);
      s.reason.(v) <- -1 - old.(r)
    end
  done

(* Drop roughly half of the learnt clauses, longest first.  Binary and
   locked clauses always survive.  Sound at any point outside
   [propagate]: removing learnt (implied) clauses never changes
   satisfiability, and every watch list is rebuilt from scratch with the
   same watched literals, so the two-watched invariant is preserved. *)
let reduce_learnts s =
  let keep = Vec.create () and cands = Vec.create () in
  for i = Vec.size s.learnts - 1 downto 0 do
    let c = Vec.get s.learnts i in
    if s.arena.(c) <= 2 || is_locked s c then Vec.push keep c
    else Vec.push cands c
  done;
  let cands = Array.sub cands.data 0 (Vec.size cands) in
  Array.stable_sort (fun a b -> Int.compare s.arena.(a) s.arena.(b)) cands;
  let target = Array.length cands / 2 in
  let removed = Array.length cands - target in
  if removed > 0 then begin
    s.learnts_removed <- s.learnts_removed + removed;
    Vec.shrink s.learnts 0;
    for i = 0 to Vec.size keep - 1 do
      Vec.push s.learnts (Vec.get keep i)
    done;
    for i = 0 to target - 1 do
      Vec.push s.learnts cands.(i)
    done;
    compact s;
    (* Rebuild every watch list: problem clauses plus surviving learnts. *)
    Array.iter (fun w -> Vec.shrink w 0) s.watches;
    for i = 0 to Vec.size s.clauses - 1 do
      attach_clause s (Vec.get s.clauses i)
    done;
    for i = 0 to Vec.size s.learnts - 1 do
      attach_clause s (Vec.get s.learnts i)
    done;
    Dfv_obs.Trace.instant ~cat:"sat"
      ~args:[ ("removed", Dfv_obs.Json.Int removed) ]
      "sat.reduce_learnts"
  end

(* --- search --------------------------------------------------------- *)

let luby i =
  (* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let rec go k sz seq_i =
    if sz - 1 = seq_i then k
    else if seq_i >= sz / 2 then go k (sz / 2) (seq_i - (sz / 2))
    else go (k - 1) (sz / 2) seq_i
  in
  let rec size k = if k = 0 then 1 else (2 * size (k - 1)) + 1 in
  let rec find k = if size k - 1 >= i then k else find (k + 1) in
  let k = find 0 in
  1 lsl go k (size k) i

(* Pop variables by activity until an unassigned one turns up; -1 when
   every variable is assigned. *)
let rec pick_branch_var s =
  if Vec.size s.heap = 0 then -1
  else begin
    let v = heap_pop s in
    if lit_value s (Lit.pos v) < 0 then v else pick_branch_var s
  end

exception Result of result
exception Out_of_budget of reason

let solve ?(assumptions = []) s =
  if s.unsat then Unsat
  else begin
    let n_assumps = List.length assumptions in
    let assumps = Array.of_list assumptions in
    let restart_unit = 100 in
    let restart_idx = ref 0 in
    let budget = ref (restart_unit * luby !restart_idx) in
    try
      (* Main CDCL loop. *)
      while true do
        let conflict = propagate s in
        if conflict >= 0 then begin
          s.conflicts <- s.conflicts + 1;
          if s.conflict_budget > 0 then begin
            s.conflict_budget <- s.conflict_budget - 1;
            if s.conflict_budget = 0 then begin
              cancel_until s 0;
              raise (Out_of_budget Conflict_limit)
            end
          end;
          if s.conflicts land 63 = 0 then begin
            if s.deadline < infinity && Unix.gettimeofday () > s.deadline
            then begin
              cancel_until s 0;
              raise (Out_of_budget Time_limit)
            end;
            (* The same cadence serves the pool's stop token, which
               unwinds the job rather than answering [Unknown]. *)
            if Stop.stopped () then begin
              cancel_until s 0;
              raise Stop.Stopped
            end
          end;
          decr budget;
          if decision_level s <= n_assumps then begin
            (* Conflict among assumptions (or at level 0). *)
            if decision_level s = 0 then s.unsat <- true;
            cancel_until s 0;
            raise (Result Unsat)
          end;
          let blevel = analyze s conflict in
          (* Never backtrack past the assumption levels' consequences:
             analyze can produce blevel below assumptions; that is fine —
             the learnt clause stays valid, and re-deciding assumptions is
             handled by the decision loop. *)
          cancel_until s blevel;
          let learnt = s.lits in
          let asserting = Vec.get learnt 0 in
          if Vec.size learnt = 1 then begin
            if decision_level s > 0 then cancel_until s 0;
            if lit_value s asserting = 0 then begin
              s.unsat <- true;
              raise (Result Unsat)
            end
            else if lit_value s asserting = -1 then enqueue s asserting (-1)
          end
          else begin
            let c = alloc_clause s learnt.data 0 (Vec.size learnt) in
            Vec.push s.learnts c;
            attach_clause s c;
            enqueue s asserting c
          end;
          var_decay s
        end
        else if !budget <= 0 && decision_level s > n_assumps then begin
          (* Restart; also the safe point for learnt-DB reduction. *)
          incr restart_idx;
          budget := restart_unit * luby !restart_idx;
          cancel_until s n_assumps;
          if Vec.size s.learnts >= s.learnt_limit then begin
            reduce_learnts s;
            (* Geometric growth keeps reductions amortized. *)
            s.learnt_limit <- s.learnt_limit + (s.learnt_limit / 2)
          end
        end
        else begin
          (* Decide: first the assumptions, then free variables. *)
          let dl = decision_level s in
          if dl < n_assumps then begin
            let a = assumps.(dl) in
            if Lit.var a >= s.nvars then
              invalid_arg "Solver.solve: assumption over unallocated variable";
            match lit_value s a with
            | 1 ->
              (* Already true: open an empty level to keep indices
                 aligned with the assumption array. *)
              Vec.push s.trail_lim (Vec.size s.trail)
            | 0 -> raise (Result Unsat)
            | _ ->
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s a (-1)
          end
          else begin
            let v = pick_branch_var s in
            if v < 0 then raise (Result Sat);
            s.decisions <- s.decisions + 1;
            Vec.push s.trail_lim (Vec.size s.trail);
            enqueue s (Lit.make v s.phase.(v)) (-1)
          end
        end
      done;
      assert false
    with Result r ->
      (* On Sat the trail stays intact so [value] can read the model; the
         next solve or add resets it. *)
      r
  end

let value s l = lit_value s l = 1 (* unassigned vars are don't-cares *)

let model s = Array.init s.nvars (fun v -> lit_value s (Lit.pos v) = 1)

let true_lit s =
  if s.const_true < 0 then begin
    (* Must be added at level 0. *)
    cancel_until s 0;
    let v = new_var s in
    s.const_true <- Lit.pos v;
    add_clause s [ Lit.pos v ]
  end;
  s.const_true

let false_lit s = Lit.negate (true_lit s)

(* Keep the solver reusable: callers may add clauses after a solve; make
   sure additions happen at level 0. *)
let add_clause s lits =
  cancel_until s 0;
  add_clause s lits

let solve_raw = solve

(* --- observability --------------------------------------------------- *)

let m_solves = Dfv_obs.Metrics.counter "sat.solves"
let m_conflicts = Dfv_obs.Metrics.counter "sat.conflicts"
let m_decisions = Dfv_obs.Metrics.counter "sat.decisions"
let m_propagations = Dfv_obs.Metrics.counter "sat.propagations"
let m_learnts_removed = Dfv_obs.Metrics.counter "sat.learnts_removed"
let m_solve_us = Dfv_obs.Metrics.histogram "sat.solve_us"

(* Publish one batch of counter deltas per solve call instead of touching
   the registry from the search loops: the hot path keeps its local
   stat fields and observability costs a handful of subtractions per
   solve. *)
let observed s f =
  let c0 = s.conflicts and d0 = s.decisions in
  let p0 = s.propagations and l0 = s.learnts_removed in
  let t0 = Unix.gettimeofday () in
  let finally () =
    Dfv_obs.Metrics.incr m_solves;
    Dfv_obs.Metrics.add m_conflicts (s.conflicts - c0);
    Dfv_obs.Metrics.add m_decisions (s.decisions - d0);
    Dfv_obs.Metrics.add m_propagations (s.propagations - p0);
    Dfv_obs.Metrics.add m_learnts_removed (s.learnts_removed - l0);
    Dfv_obs.Metrics.observe m_solve_us
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
  in
  Dfv_obs.Trace.with_span ~cat:"sat" "sat.solve" (fun () ->
      Fun.protect ~finally f)

let solve ?assumptions s =
  cancel_until s 0;
  s.conflict_budget <- -1;
  s.deadline <- infinity;
  observed s (fun () -> solve_raw ?assumptions s)

type outcome = Sat | Unsat | Unknown of reason

let solve_budgeted ?assumptions ?(budget = no_budget) s : outcome =
  (match budget.max_conflicts with
  | Some n when n < 1 -> invalid_arg "Solver.solve_budgeted: max_conflicts"
  | Some _ | None -> ());
  (match budget.max_seconds with
  | Some sec when sec < 0.0 -> invalid_arg "Solver.solve_budgeted: max_seconds"
  | Some _ | None -> ());
  cancel_until s 0;
  s.conflict_budget <-
    (match budget.max_conflicts with Some n -> n | None -> -1);
  s.deadline <-
    (match budget.max_seconds with
    | Some sec -> Unix.gettimeofday () +. sec
    | None -> infinity);
  let restore () =
    s.conflict_budget <- -1;
    s.deadline <- infinity
  in
  match observed s (fun () -> solve_raw ?assumptions s) with
  | r ->
    restore ();
    (match r with Sat -> Sat | Unsat -> Unsat)
  | exception Out_of_budget reason ->
    restore ();
    Unknown reason
  | exception Stop.Stopped ->
    restore ();
    raise Stop.Stopped

let solve_bounded ?assumptions ~max_conflicts s =
  let budget = { max_conflicts = Some max_conflicts; max_seconds = None } in
  match solve_budgeted ?assumptions ~budget s with
  | Sat -> Some (Sat : result)
  | Unsat -> Some (Unsat : result)
  | Unknown _ -> None
