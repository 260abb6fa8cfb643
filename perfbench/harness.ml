(* Shared machinery of the benchmark: the clock, closed-loop records,
   percentiles, golden transcripts, counter windows, span attribution
   and the result line. *)

module Json = Dfv_obs.Json
module Metrics = Dfv_obs.Metrics
module Trace = Dfv_obs.Trace

let now = Unix.gettimeofday

(* Taken at module initialisation, as close to process start as the
   benchmark can observe from inside: set-up time runs from here. *)
let process_start = now ()

type ctx = {
  seed : int;
  smoke : bool;  (** minimal sizes, for the smoke test *)
  rundir : string;  (** scratch directory inside the checkout *)
}

(* One completed operation.  [label] names what was asked (kind and
   target).  [finish] runs after the timed window: it gives what came
   back as it is written to the transcript, and whether the
   library-independent oracle accepted it; [finish_all] stores these in
   [out] and [ok]. *)
type record = {
  idx : int;
  lat : float;  (** seconds, call to return *)
  label : string;
  finish : unit -> string * bool;
  mutable out : string;
  mutable ok : bool;
}

let record ~idx ~lat ~label finish =
  { idx; lat; label; finish; out = ""; ok = false }

let finish_all records =
  List.iter
    (fun r ->
      let out, ok = r.finish () in
      r.out <- out;
      r.ok <- ok)
    records

type stop = Deadline of float | Count of int

(* Past a deadline, a loop still completes the round in progress (op
   [next] starts a round when [next mod round = 0]), so a timed window
   holds whole rounds and the same mix of ops for every seed. *)
let continue_loop ?(round = 1) stop ~next ~done_ =
  match stop with
  | Deadline t -> now () < t || next mod round <> 0
  | Count n -> done_ < n

let span ?(cat = "pb") ~op name f =
  Trace.with_span ~cat ~args:[ ("op", Json.Int op) ] name f

(* A closed loop with one caller: op [i] starts when op [i-1] returned.
   [after n] runs once [n] ops have completed, outside any op's time. *)
let closed_loop ?round ?(after = ignore) ~first stop op =
  let acc = ref [] in
  let n = ref 0 in
  while continue_loop ?round stop ~next:(first + !n) ~done_:!n do
    let i = first + !n in
    let r = span ~op:i "pb.op" (fun () -> op i) in
    acc := r :: !acc;
    incr n;
    after !n
  done;
  List.rev !acc

(* Fisher-Yates, driven by the workload's seeded state. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* An op sequence built one round at a time: op [i] is entry
   [i mod len] of round [i / len], and [make r] builds round [r]. *)
type 'a rounds = {
  len : int;
  make : int -> 'a array;
  mutable cur : int * 'a array;
}

let rounds ~len make = { len; make; cur = (-1, [||]) }

let op_at rs i =
  let r = i / rs.len in
  if fst rs.cur <> r then rs.cur <- (r, rs.make r);
  (snd rs.cur).(i mod rs.len)

(* Times the library call alone. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let hex_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* FNV-1a over 63-bit ints (the 64-bit offset basis, top bit cleared):
   cheap enough to run inside the timed window on every output of a
   batch. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_add h x = (h lxor x) * 0x100000001b3
let fnv_hex h = Printf.sprintf "%016x" (h land max_int)
let digest_ints a = fnv_hex (Array.fold_left fnv_add fnv_offset a)

(* --- statistics --------------------------------------------------------- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A share, 0 when there is nothing to divide by. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let sorted_lats records =
  let a = Array.of_list (List.map (fun r -> r.lat) records) in
  Array.sort compare a;
  a

(* --- process facts ------------------------------------------------------ *)

(* VmHWM of a process, in MB; the whole-life peak resident set. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* --- golden transcripts ------------------------------------------------- *)

(* A transcript line is [key TAB out]; the key is [idx TAB label], or the
   label alone for workloads whose ops repeat (serve-mixed), where the
   transcript lists each distinct op once. *)
let golden_key ~by_label r =
  if by_label then r.label else Printf.sprintf "%d\t%s" r.idx r.label

let golden_path ~workload ~seed =
  Filename.concat "perfbench"
    (Filename.concat "golden" (Printf.sprintf "%s-seed%d.txt" workload seed))

let load_golden path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let t = Hashtbl.create 1024 in
    (try
       while true do
         let line = input_line ic in
         match String.rindex_opt line '\t' with
         | Some k ->
           Hashtbl.replace t (String.sub line 0 k)
             (String.sub line (k + 1) (String.length line - k - 1))
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Some t

let write_golden path ~by_label records =
  let seen = Hashtbl.create 1024 in
  let oc = open_out path in
  List.iter
    (fun r ->
      let k = golden_key ~by_label r in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        Printf.fprintf oc "%s\t%s\n" k r.out
      end)
    records;
  close_out oc

(* Apply the golden to the records: a record whose key is in the golden
   must carry the golden output.  Returns how many records were checked
   against it. *)
let check_golden golden ~by_label records =
  match golden with
  | None -> 0
  | Some g ->
    List.fold_left
      (fun n r ->
        match Hashtbl.find_opt g (golden_key ~by_label r) with
        | None -> n
        | Some out ->
          if out <> r.out then begin
            Printf.printf "GOLDEN MISMATCH op %d %s: got %S, golden %S\n"
              r.idx r.label r.out out;
            r.ok <- false
          end;
          n + 1)
      0 records

(* --- counters ----------------------------------------------------------- *)

(* Program counters read from outside through the metrics registry; a
   window is the difference of two readings. *)
let counter_names =
  [ "sat.solves"; "sat.conflicts"; "sat.decisions"; "sat.propagations";
    "sat.learnts_removed"; "sec.queries"; "sec.unknowns"; "sec.unroll_hits";
    "hwir.compile.runs"; "hwir.compile.insts"; "rtl.sim.cycles";
    "rtl.sim.evals"; "slm.kernel.deltas"; "slm.kernel.activations";
    "cosim.scoreboard.matches"; "cosim.scoreboard.mismatches";
    "journal.appends"; "pool.exec.fork"; "pool.exec.domains";
    "pool.domains.steals"; "pool.retry.attempts"; "pool.telemetry.shipped";
    "trace.dropped" ]

let sat_solve_us = Metrics.histogram "sat.solve_us"

type reading = {
  counters : (string * int) list;
  solve_us : int;
  minor_words : float;
  major_collections : int;
}

let read_counters () =
  let g = Gc.quick_stat () in
  {
    counters =
      List.map
        (fun n -> (n, Metrics.counter_value (Metrics.counter n)))
        counter_names;
    solve_us = Metrics.histogram_sum sat_solve_us;
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
  }

let window a b =
  List.map2
    (fun (n, x) (_, y) -> (n, float_of_int (y - x)))
    a.counters b.counters
  @ [ ("sat.solve_s", float_of_int (b.solve_us - a.solve_us) /. 1e6);
      ("runtime.minor_mwords", (b.minor_words -. a.minor_words) /. 1e6);
      ( "runtime.major_collections",
        float_of_int (b.major_collections - a.major_collections) ) ]

(* --- span attribution --------------------------------------------------- *)

(* Span category -> layer.  The benchmark's own spans carry their layer
   as category; the program's spans carry their library's name ("flow"
   is lib/core).  "pb" is the per-op root: benchmark glue. *)
let layer_of_cat = function
  | "flow" -> "core"
  | ("sat" | "sec" | "core" | "hwir" | "rtl" | "slm" | "cosim" | "fault"
    | "par" | "serve") as c ->
    c
  | _ -> "residual"

let layers =
  [ "sat"; "sec"; "core"; "hwir"; "rtl"; "slm"; "cosim"; "fault"; "par";
    "serve"; "residual" ]

type ev = { name : string; cat : string; ts : float; dur : float }

(* Complete events recorded by this process's main domain; worker domains
   and forked workers run beside it, not on its blocking path. *)
let main_events () =
  let pid = Unix.getpid () in
  match Json.field "traceEvents" (Trace.to_json ()) with
  | Some (Json.List evs) ->
    List.filter_map
      (fun e ->
        let str k =
          match Json.field k e with Some (Json.String s) -> s | _ -> ""
        in
        let num k =
          match Json.field k e with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> nan
        in
        if str "ph" = "X" && Json.field "pid" e = Some (Json.Int pid) then
          Some
            {
              name = str "name";
              cat = str "cat";
              ts = num "ts";
              dur = num "dur";
            }
        else None)
      evs
  | _ -> []

type attribution = {
  self_s : (string * float) list;  (** per layer, residual included *)
  named_s : (string * float) list;  (** total duration per span name *)
  outer_sec_s : float;  (** sec-layer time not nested in another sec span *)
}

(* Self time of a span = its duration minus its direct children's.  The
   residual row is the wall clock no layer span covers, plus the self
   time of the benchmark's per-op root spans. *)
let attribute ~wall evs =
  (* Parents first: by start, then longest first, then latest recorded
     first, since a span is recorded when it ends and timestamps are only
     microseconds apart. *)
  let evs =
    List.mapi (fun k e -> (k, e)) evs
    |> List.sort (fun (ka, a) (kb, b) ->
           compare (a.ts, -.a.dur, -ka) (b.ts, -.b.dur, -kb))
    |> List.map snd
  in
  let self = Hashtbl.create 16 and named = Hashtbl.create 32 in
  let add t k v =
    Hashtbl.replace t k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t k))
  in
  let outer_sec = ref 0.0 in
  (* stack of (event, children's summed duration) *)
  let stack = ref [] in
  let close (e, kids) =
    add self (layer_of_cat e.cat) ((e.dur -. kids) /. 1e6)
  in
  List.iter
    (fun e ->
      let rec pop () =
        match !stack with
        | (top, kids) :: rest when top.ts +. top.dur <= e.ts ->
          close (top, kids);
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      add named e.name (e.dur /. 1e6);
      (match !stack with
      | (parent, kids) :: rest ->
        if e.cat = "sec" && parent.cat <> "sec" then
          outer_sec := !outer_sec +. (e.dur /. 1e6);
        stack := (e, 0.0) :: (parent, kids +. e.dur) :: rest
      | [] ->
        if e.cat = "sec" then outer_sec := !outer_sec +. (e.dur /. 1e6);
        stack := [ (e, 0.0) ]))
    evs;
  List.iter close !stack;
  let attributed =
    Hashtbl.fold
      (fun k v acc -> if k = "residual" then acc else acc +. v)
      self 0.0
  in
  let self_s =
    List.map
      (fun l ->
        if l = "residual" then (l, wall -. attributed)
        else (l, Option.value ~default:0.0 (Hashtbl.find_opt self l)))
      layers
  in
  {
    self_s;
    named_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) named [];
    outer_sec_s = !outer_sec;
  }

let named_total a name =
  Option.value ~default:0.0 (List.assoc_opt name a.named_s)

(* --- metric catalogue ----------------------------------------------------- *)

let per_layer =
  [ ("sat.solves", "count"); ("sat.conflicts", "count");
    ("sat.decisions", "count"); ("sat.propagations", "count");
    ("sat.learnts_removed", "count"); ("sat.solve_s", "s");
    ("aig.ands", "count"); ("sec.check_s", "s"); ("sec.queries", "count");
    ("sec.unknowns", "count"); ("sec.unroll_hits", "count");
    ("sec.nodes_encoded", "count"); ("sec.nodes_reused", "count");
    ("sec.reuse_frac", "frac"); ("sec.solve_frac", "frac");
    ("sec.eq_frac", "frac"); ("sec.shared_session_frac", "frac");
    ("core.flow_sec_s", "s"); ("core.flow_simulate_s", "s");
    ("hwir.compile.runs", "count"); ("hwir.compile.insts", "count");
    ("hwir.window_s", "s"); ("rtl.sim.cycles", "count");
    ("rtl.sim.evals", "count"); ("rtl.cycles_per_s", "1/s");
    ("rtl.sim_create_s", "s"); ("slm.kernel.deltas", "count");
    ("slm.kernel.activations", "count"); ("slm.run_s", "s");
    ("cosim.txn_s", "s"); ("cosim.stream_s", "s");
    ("cosim.scoreboard.matches", "count");
    ("cosim.scoreboard.mismatches", "count"); ("fault.mutants", "count");
    ("fault.detected", "count"); ("fault.survived", "count");
    ("fault.unknown", "count"); ("fault.crashed", "count");
    ("fault.detect_frac", "frac"); ("fault.campaign_s", "s");
    ("fault.mutants_per_s", "1/s"); ("fault.short_job_frac", "frac");
    ("journal.appends", "count"); ("journal.overhead_frac", "frac");
    ("pool.exec.fork", "count"); ("pool.exec.domains", "count");
    ("pool.domains.steals", "count"); ("pool.retry.attempts", "count");
    ("pool.telemetry.shipped", "count"); ("serve.hit_rtt_ms", "ms");
    ("serve.miss_rtt_ms", "ms"); ("serve.requests", "count");
    ("serve.solves", "count"); ("serve.coalesced", "count");
    ("serve.errors", "count"); ("serve.cache.hit", "count");
    ("serve.cache.miss", "count"); ("serve.cache.evicted", "count");
    ("serve.hit_frac", "frac"); ("serve.coalesced_frac", "frac");
    ("serve.hot_keys", "count"); ("serve.startup_s", "s");
    ("serve.warm_s", "s"); ("obs.trace_overhead_frac", "frac");
    ("trace.dropped", "count"); ("runtime.minor_mwords", "Mwords");
    ("runtime.major_collections", "count") ]
  @ List.map (fun l -> ("share." ^ l, "frac")) layers

(* Counts that depend on thread scheduling or on message arrival order,
   not only on the seed, with the reason; every other count repeats
   exactly between two runs of one seed. *)
let unrepeatable ~workload name =
  match (workload, name) with
  | _, "pool.domains.steals" ->
    Some "which idle worker domain steals is scheduling"
  | ( "serve-mixed",
      ( "serve.cache.hit" | "serve.cache.miss" | "serve.coalesced"
      | "serve.hit_frac" | "serve.coalesced_frac" ) ) ->
    Some
      "a duplicate sent on two connections coalesces or hits depending on \
       arrival order"
  | "serve-mixed", ("runtime.minor_mwords" | "runtime.major_collections") ->
    Some "the client's select loop allocates once per wake-up"
  | ( "faultsim-journaled",
      ("runtime.minor_mwords" | "runtime.major_collections") ) ->
    Some
      "the coordinating domain waits on worker domains, and any domain's \
       allocation can start a major collection"
  | _ -> None

(* Readings the benchmark cannot take from outside the program, with the
   reason; the traced run prints them. *)
let unmeasured ~workload =
  [ ("aig self time", "AIG building has no spans; it runs inside sec spans");
    ("kernel self time", "lib/kernel is reached only through rtl and hwir") ]
  @
  if workload = "serve-mixed" then
    [ ( "sat.*, sec.*, aig.ands",
        "solves run in the daemon, whose stats reply carries serve counters \
         only" ) ]
  else []

(* --- the result line ------------------------------------------------------ *)

(* Printed by hand rather than through [Json]: values keep all their
   digits. *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed body
