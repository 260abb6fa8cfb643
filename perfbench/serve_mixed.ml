(* serve-mixed: a forked [dfv serve] daemon with default config and an
   on-disk store, driven over closed-loop client connections from this
   one process.  Hits exercise parsing, resolving, fingerprint key
   derivation, the LRU probe and per-request bookkeeping; misses add a
   solve and an fsync'd store append, and hits queue behind them on the
   select loop, so this workload has reads beside writes on one layer. *)

open Dfv_designs
module Protocol = Dfv_serve.Protocol
module Server = Dfv_serve.Server
module Portfolio = Dfv_par.Portfolio
module Checker = Dfv_sec.Checker
module Solver = Dfv_sat.Solver
module Pair = Dfv_core.Pair
module Flow = Dfv_core.Flow
module Json = Dfv_obs.Json
module H = Harness

let name = "serve-mixed"

(* The daemon resolves (design, bug) per request, building the pair
   each time, as the [dfv serve] command does. *)
let make_pair design bug =
  let pair name slm rtl spec = Ok (Pair.create ~name ~slm ~rtl ~spec) in
  let alu_bug =
    List.find_opt (fun b -> Alu.bug_name b = bug) Alu.all_bugs
  in
  match (design, bug) with
  | "gcd", "none" ->
    let t = Gcd.make ~width:4 in
    pair "gcd" t.Gcd.slm t.Gcd.rtl t.Gcd.spec
  | "alu", _ when bug = "none" || alu_bug <> None ->
    let t = Alu.make ?bug:alu_bug ~width:8 () in
    pair "alu" t.Alu.slm t.Alu.rtl t.Alu.spec
  | "conv", ("none" | "wrap") ->
    let good = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
    let rtl =
      if bug = "none" then good.Conv_image.rtl_window
      else
        (Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ())
          .Conv_image.rtl_window
    in
    pair "conv" good.Conv_image.slm_window rtl good.Conv_image.window_spec
  | "uart", ("none" | "baud") ->
    let t = Uart.make ~baud_div:4 () in
    let rtl =
      if bug = "baud" then (Uart.make ~baud_div:5 ()).Uart.rtl else t.Uart.rtl
    in
    pair "uart" t.Uart.slm rtl t.Uart.spec
  | "chain", "convolution" ->
    let t = Image_chain.make ~buggy:Image_chain.Convolution () in
    pair "chain" t.Image_chain.slm t.Image_chain.rtl_top
      t.Image_chain.chain_spec
  | _ -> Error (Printf.sprintf "unknown design %s/%s" design bug)

type req = { label : string; op : Protocol.op }

let sec design bug budget =
  let b =
    match budget with
    | None -> "budget=none"
    | Some b ->
      Printf.sprintf "conflicts=%d"
        (Option.value ~default:0 b.Solver.max_conflicts)
  in
  {
    label = Printf.sprintf "sec %s/%s %s" design bug b;
    op = Protocol.Sec { design; bug; budget };
  }

let sim ?(bug = "none") design ~vectors ~seed =
  {
    label =
      Printf.sprintf "sim %s/%s vectors=%d seed=%d" design bug vectors seed;
    op = Protocol.Sim { design; bug; vectors; seed };
  }

(* The hot set: sec and sim keys every client keeps asking for, far
   fewer than the daemon's 256-entry LRU holds.  The sims of bugged pairs
   stop at a mismatching vector that the seed fixes, so their transcript
   lines check that SLM and RTL outputs are compared. *)
let hot_set =
  let sims ?bug design ~vectors n =
    List.init n (fun s -> sim ?bug design ~vectors ~seed:(s + 1))
  in
  Array.of_list
    ([ sec "alu" "none" None; sec "uart" "none" None; sec "uart" "baud" None;
       sec "gcd" "none" None; sec "conv" "none" None; sec "conv" "wrap" None;
       sec "chain" "convolution" None ]
    @ List.map (fun b -> sec "alu" (Alu.bug_name b) None) Alu.all_bugs
    @ sims "alu" ~vectors:200 4
    @ sims ~bug:"missing-carry" "alu" ~vectors:200 4
    @ sims "uart" ~vectors:50 3
    @ sims ~bug:"baud" "uart" ~vectors:50 3
    @ sims "gcd" ~vectors:50 6 @ sims "conv" ~vectors:50 2
    @ sims ~bug:"wrap" "conv" ~vectors:50 2)

(* Novel keys change the cache key but not the verdict: a fresh sim seed,
   or a fresh conflict budget far above what the query needs.  [i] is the
   op index, so no two ops share a novel key. *)
type novel_kind = Sim_alu | Sim_uart | Sec_alu | Sec_uart

let novel seed i kind =
  let budget =
    Some { Solver.max_conflicts = Some (1_000_000 + i); max_seconds = None }
  in
  let sim_seed = 1_000_000 + (seed * 100_003) + i in
  match kind with
  | Sim_alu -> sim "alu" ~vectors:40 ~seed:sim_seed
  | Sim_uart -> sim "uart" ~vectors:40 ~seed:sim_seed
  | Sec_alu -> sec "alu" "none" budget
  | Sec_uart -> sec "uart" "baud" budget

(* A round of 50 requests: 40 hot; 2 novel singles; 2 pairs of distinct
   novel keys and 2 novel keys sent twice, each pair on two connections
   at once, so the duplicates coalesce.  A single keeps one connection
   solving while a hit on the other queues behind it.  A pair keeps both
   connections on misses, so few hits queue and p50 falls inside the
   band of plain hits instead of on its steep upper edge, where a few
   more or fewer queued hits would move it.  Of the 10 novel requests 6
   are alu sims (about 1.5 ms as a miss on a 2-core x86 host), so p90
   falls in the middle of that band rather than between two kinds of
   miss. *)
let round_len = 50
let novel_singles = [ Sim_alu; Sec_uart ]
let novel_pairs = [ (Sim_alu, Sim_alu); (Sim_alu, Sec_alu) ]
let novel_dups = [ Sim_alu; Sim_uart ]

type item = Hot | Novel | Pair | Dup

(* [paired]: this slot and the next go out together, on two
   connections. *)
type slot = { sreq : req; paired : bool }

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;  (** read buffer, reused so reads do not allocate it *)
  mutable pending : string;  (** partial last line *)
  mutable busy : (int * int * float * req) option;
      (** wire id, op index, send time, request *)
}

type t = {
  pid : int;
  reaped : bool ref;  (** the daemon has exited and been waited for *)
  conns : conn array;
  mutable next_id : int;
  ops : slot H.rounds;
  expected : (string, (string, string) result) Hashtbl.t;
      (** per op label: the direct library call's payload, canonical *)
  mutable startup_s : float;
  mutable warm_s : float;
  mutable stats_before : Json.t option;
}

let make_round ~seed r =
  let st = Random.State.make [| seed; r; 0x5e7e |] in
  let items =
    H.shuffle st
      (List.init 40 (fun _ -> Hot)
      @ List.map (fun _ -> Novel) novel_singles
      @ List.map (fun _ -> Pair) novel_pairs
      @ List.map (fun _ -> Dup) novel_dups)
  in
  let singles = ref (Array.to_list (H.shuffle st novel_singles)) in
  let pairs = ref (Array.to_list (H.shuffle st novel_pairs)) in
  let dups = ref (Array.to_list (H.shuffle st novel_dups)) in
  let take l =
    match !l with
    | k :: rest ->
      l := rest;
      k
    | [] -> assert false
  in
  let slots = ref [] in
  Array.iter
    (fun it ->
      let i = (r * round_len) + List.length !slots in
      let push q paired = slots := { sreq = q; paired } :: !slots in
      match it with
      | Hot -> push hot_set.(Random.State.int st (Array.length hot_set)) false
      | Novel -> push (novel seed i (take singles)) false
      | Pair ->
        let k1, k2 = take pairs in
        push (novel seed i k1) true;
        push (novel seed (i + 1) k2) false
      | Dup ->
        let q = novel seed i (take dups) in
        push q true;
        push q false)
    items;
  Array.of_list (List.rev !slots)

(* --- wire ----------------------------------------------------------------- *)

(* Writes [s] without copying it, so nothing is allocated between an
   op's send time and its write. *)
let write_all fd s =
  let n = ref 0 in
  while !n < String.length s do
    n := !n + Unix.write_substring fd s !n (String.length s - !n)
  done

(* An op's time runs from the write of its encoded frame to the read
   that brings its answer, so the client's own encoding and decoding stay
   out of it. *)
let send t c ~op_idx req =
  let id = t.next_id in
  t.next_id <- id + 1;
  H.span ~cat:"serve" ~op:op_idx "pb.serve.send" (fun () ->
      let frame =
        Protocol.frame (Protocol.request_to_json { Protocol.id; op = req.op })
      in
      let sent = H.now () in
      write_all c.fd frame;
      c.busy <- Some (id, op_idx, sent, req))

(* The time of one read, and the complete lines it brings; a partial last
   line waits. *)
let read_lines c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  let at = H.now () in
  if n = 0 then failwith "dfv serve closed the connection";
  match String.split_on_char '\n' (c.pending ^ Bytes.sub_string c.buf 0 n) with
  | [] -> (at, [])
  | parts ->
    let rev = List.rev parts in
    c.pending <- List.hd rev;
    (at, List.rev (List.tl rev))

let decode line =
  match Result.bind (Protocol.parse_frame line) Protocol.response_of_json with
  | Ok r -> r
  | Error m -> failwith ("bad dfv serve frame: " ^ m)

(* --- the oracle ----------------------------------------------------------- *)

let strip_stats s = { s with Checker.frame_seconds = []; wall_seconds = 0.0 }

(* Timing fields zeroed, so a payload compares byte for byte. *)
let strip = function
  | Protocol.R_sec (Portfolio.W_equivalent s) ->
    Protocol.R_sec (Portfolio.W_equivalent (strip_stats s))
  | Protocol.R_sec (Portfolio.W_not_equivalent (p, s)) ->
    Protocol.R_sec (Portfolio.W_not_equivalent (p, strip_stats s))
  | Protocol.R_sec (Portfolio.W_unknown (r, s)) ->
    Protocol.R_sec (Portfolio.W_unknown (r, strip_stats s))
  | p -> p

let canonical p = Json.to_string (Protocol.payload_to_json (strip p))

(* What the library returns for the op when called directly. *)
let direct (q : req) =
  match q.op with
  | Protocol.Sec { design; bug; budget } ->
    Result.map
      (fun pair ->
        Protocol.R_sec (Portfolio.slm_wire_of_verdict (Flow.sec ?budget pair)))
      (make_pair design bug)
  | Protocol.Sim { design; bug; vectors; seed } ->
    Result.bind (make_pair design bug) (fun pair ->
        match Flow.simulate ~seed ~vectors pair with
        | Ok (Flow.Sim_clean { vectors }) ->
          Ok (Protocol.R_sim (Protocol.Sim_clean vectors))
        | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
          Ok (Protocol.R_sim (Protocol.Sim_mismatch vector_index))
        | Error e -> Error (Dfv_core.Dfv_error.to_string e))
  | _ -> Error "not a verify op"

(* A served payload must equal the direct library call's, timings
   zeroed.  It runs after the timed window; each distinct op is computed
   directly once.  The transcript keeps what any correct solver must
   return: the verdict kind of a sec payload (its stats and
   counterexample depend on the solver), and all of a sim payload. *)
let check t req payload () =
  match payload with
  | Error m -> ("error " ^ m, false)
  | Ok p ->
    let served = canonical p in
    let out =
      match p with
      | Protocol.R_sec _ -> Protocol.payload_status p
      | _ -> Protocol.payload_status p ^ " " ^ H.hex_digest served
    in
    let expected =
      match Hashtbl.find_opt t.expected req.label with
      | Some e -> e
      | None ->
        let e = Result.map canonical (direct req) in
        Hashtbl.replace t.expected req.label e;
        e
    in
    (out, expected = Ok served)

(* A completed request: its record, and whether the daemon served it
   from cache. *)
type done_ = {
  rec_ : H.record;
  cached : bool;
  payload : (Protocol.payload, string) result;
}

let complete t c ~read_at line =
  let rsp = decode line in
  match c.busy with
  | Some (id, op_idx, sent, req) when id = rsp.Protocol.rsp_id ->
    let lat = read_at -. sent in
    c.busy <- None;
    let payload =
      Result.map_error Dfv_core.Dfv_error.to_string rsp.Protocol.outcome
    in
    {
      rec_ =
        H.record ~idx:op_idx ~lat ~label:req.label (check t req payload);
      cached = rsp.Protocol.cached;
      payload;
    }
  | _ -> failwith "dfv serve answered an id it was not asked"

(* Wait until some busy connection has answers, and collect them.  Every
   readable connection is read before any answer is decoded. *)
let await t =
  let busy = List.filter (fun c -> c.busy <> None) (Array.to_list t.conns) in
  match Unix.select (List.map (fun c -> c.fd) busy) [] [] 60.0 with
  | [], _, _ -> failwith "dfv serve did not answer within 60 s"
  | readable, _, _ ->
    let reads =
      List.filter_map
        (fun c ->
          if List.mem c.fd readable then
            let read_at, lines = read_lines c in
            Some (c, read_at, lines)
          else None)
        busy
    in
    List.concat_map
      (fun (c, read_at, lines) ->
        List.filter_map
          (fun l ->
            if String.trim l = "" then None
            else Some (complete t c ~read_at l))
          lines)
      reads

(* The closed loop: each connection sends its next request only once its
   previous one is answered; a paired slot waits for two idle
   connections and goes out on both at once with the slot after it.
   [after n] runs whenever answers come in, [n] being the number
   answered so far. *)
let drive ?(after = ignore) t ~first ~slot stop =
  let issued = ref 0 and next = ref first and acc = ref [] in
  let answered = ref 0 in
  let rec issue () =
    if H.continue_loop stop ~next:!next ~done_:!issued then
      let s = slot !next in
      match List.filter (fun c -> c.busy = None) (Array.to_list t.conns) with
      | c1 :: c2 :: _ when s.paired ->
        send t c1 ~op_idx:!next s.sreq;
        send t c2 ~op_idx:(!next + 1) (slot (!next + 1)).sreq;
        next := !next + 2;
        issued := !issued + 2;
        issue ()
      | c :: _ when not s.paired ->
        send t c ~op_idx:!next s.sreq;
        incr next;
        incr issued;
        issue ()
      | _ -> ()
  in
  let rec loop () =
    issue ();
    if Array.exists (fun c -> c.busy <> None) t.conns then begin
      let got =
        H.span ~cat:"serve" ~op:!next "pb.serve.await" (fun () -> await t)
      in
      acc := List.rev_append got !acc;
      answered := !answered + List.length got;
      after !answered;
      loop ()
    end
  in
  loop ();
  List.sort (fun a b -> compare a.rec_.H.idx b.rec_.H.idx) !acc

(* One control request on the first connection, outside the op sequence;
   a stats reply can span many reads. *)
let call t op =
  send t t.conns.(0) ~op_idx:(-1) { label = Protocol.op_name op; op };
  let rec wait () = match await t with [] -> wait () | d :: _ -> d.payload in
  wait ()

let stats t =
  match call t Protocol.Stats with
  | Ok (Protocol.R_stats j) -> j
  | _ -> failwith "dfv serve stats failed"

(* --- the daemon ----------------------------------------------------------- *)

let connect path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      if n = 0 then
        failwith ("cannot reach dfv serve: " ^ Unix.error_message e);
      ignore (Unix.select [] [] [] 0.005);
      go (n - 1)
  in
  go 2000

let fork_daemon ~socket ~store ~log =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    List.iter
      (fun s -> Sys.set_signal s Sys.Signal_default)
      [ Sys.sigint; Sys.sigterm ];
    let fd =
      Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Unix.dup2 fd Unix.stdout;
    Unix.dup2 fd Unix.stderr;
    Unix.close fd;
    let cfg =
      { (Server.default_config ~socket) with Server.store = Some store }
    in
    let code =
      try Server.run ~resolve:(fun ~design ~bug -> make_pair design bug) cfg
      with e ->
        prerr_endline (Printexc.to_string e);
        3
    in
    Unix._exit code
  | pid -> pid

(* Hot requests that fill the daemon's 4096-entry request log, so timed
   requests see its steady state. *)
let log_fill = 4200

let setup ctx =
  let t0 = H.now () in
  (* A relative socket path stays under the sun_path length limit however
     deep the checkout sits. *)
  let file f = Filename.concat ctx.H.rundir f in
  let socket = file "s.sock" in
  let pid =
    fork_daemon ~socket ~store:(file "store.jsonl") ~log:(file "daemon.log")
  in
  let reaped = ref false in
  (* A run that fails before [teardown] still stops the daemon. *)
  at_exit (fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end);
  let conns =
    Array.init
      (max 2 (Dfv_par.Pool.cores ()))
      (fun _ ->
        {
          fd = connect socket;
          buf = Bytes.create 65536;
          pending = "";
          busy = None;
        })
  in
  let t =
    {
      pid;
      reaped;
      conns;
      next_id = 1;
      ops = H.rounds ~len:round_len (make_round ~seed:ctx.H.seed);
      expected = Hashtbl.create 1024;
      startup_s = 0.0;
      warm_s = 0.0;
      stats_before = None;
    }
  in
  (match call t Protocol.Ping with
  | Ok Protocol.R_pong -> ()
  | _ -> failwith "dfv serve did not answer ping");
  t.startup_s <- H.now () -. t0;
  let t1 = H.now () in
  let fixed q paired _ = { sreq = q; paired } in
  Array.iter
    (fun q -> ignore (drive t ~first:0 ~slot:(fixed q false) (H.Count 1)))
    hot_set;
  ignore
    (drive t ~first:0
       ~slot:(fun i -> fixed hot_set.(i mod Array.length hot_set) false i)
       (H.Count (if ctx.H.smoke then 64 else log_fill)));
  (* One warm-up op of each kind: novel sim, novel sec, duplicate pair. *)
  List.iteri
    (fun k (kind, dup) ->
      let q = novel ctx.H.seed (-1 - k) kind in
      ignore
        (drive t ~first:0 ~slot:(fixed q dup)
           (H.Count (if dup then 2 else 1))))
    [ (Sim_alu, false); (Sec_alu, false); (Sim_uart, true) ];
  t.warm_s <- H.now () -. t1;
  t

let run ?after t ~first stop =
  t.stats_before <- Some (stats t);
  drive ?after t ~first ~slot:(H.op_at t.ops) stop

(* --- per-layer view and teardown ------------------------------------------ *)

let int_field k j = match Json.field k j with Some (Json.Int n) -> n | _ -> 0

(* Daemon counters from its stats reply: the request count and the
   per-endpoint and cache tallies, all cumulative. *)
let daemon_counts j =
  let endpoints =
    match Json.field "endpoints" j with Some (Json.List l) -> l | _ -> []
  in
  let sum k = List.fold_left (fun acc e -> acc + int_field k e) 0 endpoints in
  let cache = Option.value ~default:Json.Null (Json.field "cache" j) in
  [ ("serve.requests", int_field "requests" j); ("serve.solves", sum "solves");
    ("serve.coalesced", sum "misses" - sum "solves");
    ("serve.errors", sum "errors");
    ("serve.cache.hit", int_field "hits" cache);
    ("serve.cache.miss", int_field "misses" cache);
    ("serve.cache.evicted", int_field "evicted" cache) ]

(* Per-layer metrics of the last [run], from the daemon's stats replies
   before and after it; the closing stats request is not counted. *)
let layer t dones =
  let after = daemon_counts (stats t) in
  let before =
    match t.stats_before with
    | Some j -> daemon_counts j
    | None -> List.map (fun (k, _) -> (k, 0)) after
  in
  let d =
    List.map2
      (fun (k, a) (_, b) ->
        (k, float_of_int (a - b - if k = "serve.requests" then 1 else 0)))
      after before
  in
  let get k = List.assoc k d in
  let rtt cached =
    let a =
      Array.of_list
        (List.filter_map
           (fun x -> if x.cached = cached then Some x.rec_.H.lat else None)
           dones)
    in
    Array.sort compare a;
    1000.0 *. H.percentile a 50.0
  in
  d
  @ [ ("serve.hit_rtt_ms", rtt true); ("serve.miss_rtt_ms", rtt false);
      ( "serve.hit_frac",
        H.ratio (get "serve.cache.hit")
          (get "serve.cache.hit" +. get "serve.cache.miss") );
      ( "serve.coalesced_frac",
        H.ratio (get "serve.coalesced") (get "serve.cache.miss") );
      ("serve.hot_keys", float_of_int (Array.length hot_set));
      ("serve.startup_s", t.startup_s); ("serve.warm_s", t.warm_s) ]

let peak_rss_mb t = H.peak_rss_mb (string_of_int t.pid)

let teardown t =
  ignore (call t Protocol.Shutdown);
  Array.iter (fun c -> Unix.close c.fd) t.conns;
  let _, status = Unix.waitpid [] t.pid in
  t.reaped := true;
  if status <> Unix.WEXITED 0 then
    failwith "dfv serve daemon did not exit cleanly"

(* Ops per phase of a traced run: whole rounds, about a quarter of
   [seconds] on a 2-core x86 host. *)
let trace_ops ~seconds =
  round_len * max 1 (int_of_float (Float.round (seconds *. 12.0)))

let golden_ops = 100 * round_len
