(* The repo benchmark.  One workload per process:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a human table and, as its last line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   [--workload all] runs every workload, each in a fresh child process.
   See perfbench/README.md. *)

module H = Harness
module Json = Dfv_obs.Json
module Trace = Dfv_obs.Trace

type inst = {
  run : after:(int -> unit) -> first:int -> H.stop -> H.record list;
  layer : campaign_s:float -> (string * float) list;
  reset_layer : unit -> unit;
  set_paired : bool -> unit;
  rss : unit -> float;
  teardown : unit -> unit;
}

type workload = {
  name : string;
  why : string;
  by_label : bool;
  golden_ops : int;
  rss_ops : int;  (** ops after set-up before peak RSS is read *)
  trace_ops : seconds:float -> int;
  setup : H.ctx -> inst;
}

(* A single-caller workload: one op at a time, work done in this
   process, timed windows of whole rounds of [round] ops. *)
let single ~round ~run_op ~layer ~reset_layer =
  {
    run =
      (fun ~after ~first stop ->
        H.closed_loop ~round ~after ~first stop run_op);
    layer;
    reset_layer;
    set_paired = ignore;
    rss = (fun () -> H.peak_rss_mb "self");
    teardown = ignore;
  }

let workloads =
  [ {
      name = Sec_mix.name;
      why = "SEC queries back to back: SAT, AIG, Tseitin and session reuse";
      by_label = false;
      golden_ops = Sec_mix.golden_ops;
      (* a fifth of a round; set-up already ran one op of each class *)
      rss_ops = 10;
      trace_ops = Sec_mix.trace_ops;
      setup =
        (fun ctx ->
          let t = Sec_mix.setup ctx in
          single ~round:Sec_mix.round_len ~run_op:(Sec_mix.run_op t)
            ~layer:(fun ~campaign_s:_ -> Sec_mix.layer t)
            ~reset_layer:(fun () -> Sec_mix.reset_layer t));
    };
    {
      name = Sim_ladder.name;
      why = "fixed simulation batches at every rung of the abstraction ladder";
      by_label = false;
      golden_ops = Sim_ladder.golden_ops;
      rss_ops = Sim_ladder.round_len;
      trace_ops = Sim_ladder.trace_ops;
      setup =
        (fun ctx ->
          let t = Sim_ladder.setup ctx in
          single ~round:Sim_ladder.round_len ~run_op:(Sim_ladder.run_op t)
            ~layer:(fun ~campaign_s:_ -> Sim_ladder.layer t)
            ~reset_layer:(fun () -> Sim_ladder.reset_layer t));
    };
    {
      name = Faultsim_journaled.name;
      why = "journaled, pooled fault campaigns of few-ms mutants";
      by_label = false;
      golden_ops = Faultsim_journaled.golden_ops;
      rss_ops = 2 * Faultsim_journaled.round_len;
      trace_ops = Faultsim_journaled.trace_ops;
      setup =
        (fun ctx ->
          let t = Faultsim_journaled.setup ctx in
          {
            (single ~round:Faultsim_journaled.round_len
               ~run_op:(Faultsim_journaled.run_op t)
               ~layer:(fun ~campaign_s ->
                 Faultsim_journaled.layer t ~campaign_s)
               ~reset_layer:(fun () -> Faultsim_journaled.reset_layer t))
            with
            set_paired = (fun b -> t.Faultsim_journaled.paired <- b);
          });
    };
    {
      name = Serve_mixed.name;
      why = "dfv serve daemon: hot cache hits beside novel-key solves";
      by_label = true;
      golden_ops = Serve_mixed.golden_ops;
      (* enough novel keys to fill the daemon's LRU *)
      rss_ops = 30 * Serve_mixed.round_len;
      trace_ops = Serve_mixed.trace_ops;
      setup =
        (fun ctx ->
          let t = Serve_mixed.setup ctx in
          let last = ref [] in
          {
            run =
              (fun ~after ~first stop ->
                let d = Serve_mixed.run ~after t ~first stop in
                last := d;
                List.map (fun d -> d.Serve_mixed.rec_) d);
            layer = (fun ~campaign_s:_ -> Serve_mixed.layer t !last);
            reset_layer = ignore;
            set_paired = ignore;
            rss = (fun () -> Serve_mixed.peak_rss_mb t);
            teardown = (fun () -> Serve_mixed.teardown t);
          });
    } ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %s (one of: all, %s)\n" name
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2

(* --- arguments ---------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  fresh_sample : bool;
  write_golden : bool;
  order : string list option;
}

let parse_args () =
  let bad m =
    Printf.eprintf "perfbench: %s\n" m;
    exit 2
  in
  let int_arg k v =
    match int_of_string_opt v with Some n -> n | None -> bad ("bad " ^ k)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> bad "bad --seconds")
    | "--trace" :: v :: rest ->
      go { a with trace = int_arg "--trace" v <> 0 } rest
    | "--order" :: v :: rest ->
      go { a with order = Some (String.split_on_char ',' v) } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--fresh-sample" :: rest -> go { a with fresh_sample = true } rest
    | "--write-golden" :: rest -> go { a with write_golden = true } rest
    | x :: _ -> bad ("unknown argument " ^ x)
  in
  go
    {
      workload = "all";
      seed = 1;
      seconds = 20.0;
      trace = false;
      smoke = false;
      fresh_sample = false;
      write_golden = false;
      order = None;
    }
    (List.tl (Array.to_list Sys.argv))

(* The benchmark runs from the root of a checkout; refuse anywhere else. *)
let check_checkout () =
  if not (Sys.file_exists "dune-project" && Sys.file_exists "perfbench") then
  begin
    prerr_endline "perfbench: run from the root of a checkout";
    exit 2
  end

let run_base = ".perfbench-run"

let make_rundir name =
  (try Unix.mkdir run_base 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir =
    Filename.concat run_base (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  H.rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* --- child processes ---------------------------------------------------- *)

(* Run this executable with [argv]; its exit status and output lines. *)
let run_child argv =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  let pid =
    Unix.create_process exe (Array.of_list (exe :: argv)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.rev !lines)

let last l = match List.rev l with x :: _ -> Some x | [] -> None

(* Set-up time and peak RSS measured in fresh processes: each child sets
   up, runs the first [rss_ops] ops, reports its set-up time and the
   working process's VmHWM, and tears down. *)
let fresh_samples args n =
  List.init n (fun _ ->
      let argv =
        [ "--fresh-sample"; "--workload"; args.workload; "--seed";
          string_of_int args.seed ]
      in
      match run_child argv with
      | Unix.WEXITED 0, lines -> (
        match
          Option.map (String.split_on_char ' ') (last lines)
          |> Option.map (List.map float_of_string_opt)
        with
        | Some [ Some s; Some rss ] -> (s, rss)
        | _ -> failwith "fresh-sample child printed no sample")
      | _ -> failwith "fresh-sample child failed")

(* --- reporting ---------------------------------------------------------- *)

(* Golden and oracle verdicts over [records]; the number that failed. *)
let check w args records =
  (* Smoke sizes differ from the transcript's, so smoke runs use the
     oracle alone. *)
  let golden =
    if args.smoke then None
    else H.load_golden (H.golden_path ~workload:w.name ~seed:args.seed)
  in
  let checked = H.check_golden golden ~by_label:w.by_label records in
  (match golden with
  | Some _ -> Printf.printf "  golden transcript: %d ops checked\n" checked
  | None ->
    Printf.printf "  golden transcript: none for seed %d (oracle only)\n"
      args.seed);
  let failed = List.filter (fun r -> not r.H.ok) records in
  List.iter
    (fun r -> Printf.printf "  FAILED op %d %s: %s\n" r.H.idx r.H.label r.H.out)
    failed;
  List.length failed

let emit ~attempted ~failed metrics =
  print_endline
    (H.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

(* --- one workload, untraced --------------------------------------------- *)

let untraced w args ctx =
  (* Two samples in fresh child processes, then this process's own; the
     children's time is not part of this process's set-up. *)
  let t_children = ref 0.0 in
  let children =
    if args.smoke then []
    else begin
      let t0 = H.now () in
      let s = fresh_samples args 2 in
      t_children := H.now () -. t0;
      s
    end
  in
  let inst = w.setup ctx in
  let setups =
    (H.now () -. H.process_start -. !t_children) :: List.map fst children
  in
  let rss = ref nan in
  let after n =
    if n >= w.rss_ops && Float.is_nan !rss then rss := inst.rss ()
  in
  let r0 = H.read_counters () in
  let t0 = H.now () in
  let records = inst.run ~after ~first:0 (H.Deadline (t0 +. args.seconds)) in
  let wall = H.now () -. t0 in
  let r1 = H.read_counters () in
  if Float.is_nan !rss then rss := inst.rss ();
  let rsss = !rss :: List.map snd children in
  (* The oracle runs after the timed window. *)
  let failed, check_s =
    H.timed (fun () ->
        H.finish_all records;
        check w args records)
  in
  let counts = H.window r0 r1 @ inst.layer ~campaign_s:0.0 in
  inst.teardown ();
  let n = List.length records in
  let lats = H.sorted_lats records in
  let op_s = Array.fold_left ( +. ) 0.0 lats in
  let p50 = H.percentile lats 50.0 *. 1000.0 in
  let p90 = H.percentile lats 90.0 *. 1000.0 in
  let beyond =
    List.length (List.filter (fun r -> r.H.lat *. 1000.0 > p90) records)
  in
  let ok = n - failed in
  let metrics =
    [ ("setup_s", "s", H.median setups);
      ("ops_per_s", "1/s", float_of_int n /. wall);
      ("latency_p50_ms", "ms", p50); ("latency_p90_ms", "ms", p90);
      ( "ok_frac",
        "frac",
        if n = 0 then 0.0 else float_of_int ok /. float_of_int n );
      ("peak_rss_mb", "MB", H.median rsss) ]
  in
  Printf.printf
    "  timed window: %d ops in %.2f s, summed op time %.2f s; oracle checks \
     took %.2f s after it\n"
    n wall op_s check_s;
  Printf.printf "  counts over the timed window:\n";
  List.iter
    (fun (k, v) -> if v <> 0.0 then Printf.printf "    %-28s %s\n" k (H.num v))
    counts;
  let samples =
    [ ("setup_s", List.length setups); ("ops_per_s", n);
      ("latency_p50_ms", n); ("latency_p90_ms", n); ("ok_frac", n);
      ("peak_rss_mb", List.length rsss) ]
  in
  let list l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf "  %-16s %14s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (name, unit_, v) ->
      Printf.printf "  %-16s %14.4f %-6s %d%s\n" name v unit_
        (List.assoc name samples)
        (match name with
        | "setup_s" -> " set-ups: " ^ list setups
        | "ops_per_s" -> Printf.sprintf " ops in %.2f s" wall
        | "latency_p90_ms" -> Printf.sprintf " (%d beyond p90)" beyond
        | "ok_frac" -> Printf.sprintf " (%d/%d)" ok n
        | "peak_rss_mb" ->
          Printf.sprintf " fresh processes after set-up and %d ops: %s"
            w.rss_ops (list rsss)
        | _ -> ""))
    metrics;
  Printf.printf "# samples %s\n"
    (String.concat " "
       (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) samples));
  emit ~attempted:n ~failed metrics

(* --- one workload, traced ----------------------------------------------- *)

(* Room for every event of a traced phase, so nothing is dropped. *)
let trace_capacity = 1 lsl 21

(* Ops per second of op time (call to return), independent of the
   benchmark's own work between ops. *)
let rate records =
  let s = List.fold_left (fun acc r -> acc +. r.H.lat) 0.0 records in
  if s = 0.0 then 0.0 else float_of_int (List.length records) /. s

let traced w args ctx =
  let inst = w.setup ctx in
  let n = if args.smoke then 4 else w.trace_ops ~seconds:args.seconds in
  (* Phase A, untraced: the baseline for the tracing overhead; fault
     campaigns also run paired without a journal here. *)
  inst.set_paired true;
  let recs_a = inst.run ~after:ignore ~first:0 (H.Count n) in
  inst.set_paired false;
  let journal_overhead =
    List.assoc_opt "journal.overhead_frac" (inst.layer ~campaign_s:0.0)
  in
  inst.reset_layer ();
  (* Phase B, traced: the next [n] ops of the same sequence. *)
  Trace.enable ~capacity:trace_capacity ();
  let r0 = H.read_counters () in
  let t0 = H.now () in
  let recs_b = inst.run ~after:ignore ~first:n (H.Count n) in
  let wall = H.now () -. t0 in
  let r1 = H.read_counters () in
  let evs = H.main_events () in
  Trace.disable ();
  let att = H.attribute ~wall evs in
  let span_s name = H.named_total att name in
  let campaign_s = span_s "pb.fault.campaign" in
  let layer = inst.layer ~campaign_s in
  let records = recs_a @ recs_b in
  H.finish_all records;
  let failed = check w args records in
  inst.teardown ();
  let rate_a = rate recs_a and rate_b = rate recs_b in
  let spans =
    [ ("sec.check_s", att.H.outer_sec_s);
      ("core.flow_sec_s", span_s "pb.core.flow_sec");
      ("core.flow_simulate_s", span_s "pb.core.flow_simulate");
      ("hwir.window_s", span_s "pb.hwir.window");
      ("rtl.sim_create_s", span_s "pb.rtl.sim_create");
      ("slm.run_s", span_s "pb.slm.run");
      ("cosim.txn_s", span_s "pb.cosim.txn");
      ("cosim.stream_s", span_s "pb.cosim.stream");
      ("fault.campaign_s", campaign_s);
      ( "obs.trace_overhead_frac",
        if rate_a = 0.0 then 0.0 else 1.0 -. (rate_b /. rate_a) ) ]
    @ List.map (fun (l, s) -> ("share." ^ l, s /. wall)) att.H.self_s
  in
  let measured =
    H.window r0 r1 @ spans @ layer
    @
    match journal_overhead with
    | Some v -> [ ("journal.overhead_frac", v) ]
    | None -> []
  in
  (* Later readings win: workload-specific ones refine the generic. *)
  let value name =
    List.fold_left (fun acc (k, v) -> if k = name then v else acc) 0.0 measured
  in
  Printf.printf
    "  traced phase: %d ops in %.3f s, %d spans; untraced phase: %d ops\n"
    (List.length recs_b) wall (List.length evs) (List.length recs_a);
  Printf.printf "  %-12s %12s %8s\n" "layer" "self s" "share";
  List.iter
    (fun (l, s) ->
      Printf.printf "  %-12s %12.4f %7.1f%%\n" l s (100.0 *. s /. wall))
    att.H.self_s;
  Printf.printf "  tracing overhead: %.1f%% (%.3f vs %.3f ops/s of op time)\n"
    (100.0 *. value "obs.trace_overhead_frac")
    rate_b rate_a;
  List.iter
    (fun (what, why) ->
      Printf.printf "  not measured from outside: %s (%s)\n" what why)
    (H.unmeasured ~workload:w.name);
  let metrics = List.map (fun (k, u) -> (k, u, value k)) H.per_layer in
  List.iter
    (fun (k, u, v) ->
      Printf.printf "  %-30s %16s %s%s\n" k (H.num v) u
        (match H.unrepeatable ~workload:w.name k with
        | Some why -> "  (not repeatable: " ^ why ^ ")"
        | None -> ""))
    metrics;
  emit ~attempted:(List.length records) ~failed metrics

(* --- maintenance: write the golden transcript --------------------------- *)

let write_golden w args ctx =
  let inst = w.setup ctx in
  let records = inst.run ~after:ignore ~first:0 (H.Count w.golden_ops) in
  H.finish_all records;
  inst.teardown ();
  let bad = List.filter (fun r -> not r.H.ok) records in
  if bad <> [] then begin
    List.iter
      (fun r -> Printf.printf "FAILED op %d %s: %s\n" r.H.idx r.H.label r.H.out)
      bad;
    exit 1
  end;
  let path = H.golden_path ~workload:w.name ~seed:args.seed in
  H.write_golden path ~by_label:w.by_label records;
  Printf.printf "wrote %s (%d ops)\n" path (List.length records)

(* --- every workload, each in its own process ---------------------------- *)

let samples_prefix = "# samples "

(* The per-metric sample counts a child printed before its result. *)
let samples_of lines =
  let k = String.length samples_prefix in
  match
    List.find_opt
      (fun l -> String.length l > k && String.sub l 0 k = samples_prefix)
      lines
  with
  | Some l ->
    List.filter_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> Some (k, v)
        | _ -> None)
      (String.split_on_char ' ' (String.sub l k (String.length l - k)))
  | None -> []

let all args =
  let names =
    match args.order with
    | Some l -> l
    | None -> List.map (fun w -> w.name) workloads
  in
  List.iter (fun n -> ignore (find_workload n)) names;
  let results =
    List.map
      (fun name ->
        let argv =
          [ "--workload"; name; "--seed"; string_of_int args.seed;
            "--seconds"; Printf.sprintf "%g" args.seconds; "--trace";
            (if args.trace then "1" else "0") ]
          @ if args.smoke then [ "--smoke" ] else []
        in
        Printf.printf "== %s\n%!" name;
        let status, lines = run_child argv in
        List.iter print_endline lines;
        let parsed =
          Option.bind (last lines) (fun l -> Result.to_option (Json.parse l))
        in
        (name, status, parsed, samples_of lines))
      names
  in
  let attempted = ref 0 and failed = ref 0 and ok = ref true in
  let metrics = ref [] in
  Printf.printf "== summary (seed %d)\n" args.seed;
  Printf.printf "  %-20s %-24s %16s %-8s %s\n" "workload" "metric" "value"
    "unit" "samples";
  List.iter
    (fun (name, status, parsed, samples) ->
      if status <> Unix.WEXITED 0 then ok := false;
      match parsed with
      | None ->
        ok := false;
        Printf.printf "  %-20s (no result)\n" name
      | Some j -> (
        let int k = match Json.field k j with Some (Json.Int n) -> n | _ -> 0 in
        attempted := !attempted + int "attempted";
        failed := !failed + int "failed";
        if Json.field "correct" j <> Some (Json.Bool true) then ok := false;
        match Json.field "metrics" j with
        | Some (Json.Obj ms) ->
          List.iter
            (fun (k, m) ->
              let v =
                match Json.field "value" m with
                | Some (Json.Float f) -> f
                | Some (Json.Int i) -> float_of_int i
                | _ -> nan
              in
              let u =
                match Json.field "unit" m with
                | Some (Json.String u) -> u
                | _ -> ""
              in
              metrics := (name ^ "/" ^ k, u, v) :: !metrics;
              Printf.printf "  %-20s %-24s %16s %-8s %s\n" name k (H.num v) u
                (Option.value ~default:"" (List.assoc_opt k samples)))
            ms
        | _ -> ok := false))
    results;
  let failed = if !ok then !failed else max 1 !failed in
  emit ~attempted:(max 1 !attempted) ~failed (List.rev !metrics)

let () =
  let args = parse_args () in
  check_checkout ();
  if args.workload = "all" then all args
  else begin
    let w = find_workload args.workload in
    let ctx =
      { H.seed = args.seed; smoke = args.smoke; rundir = make_rundir w.name }
    in
    at_exit (fun () ->
        H.rm_rf ctx.H.rundir;
        (* the shared base goes once no other run is using it *)
        try Unix.rmdir run_base with Unix.Unix_error _ -> ());
    (* An interrupted run still stops what it started and cleans up. *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
      [ Sys.sigint; Sys.sigterm ];
    Printf.printf "perfbench %s seed=%d seconds=%g trace=%d%s: %s\n%!" w.name
      args.seed args.seconds
      (if args.trace then 1 else 0)
      (if args.smoke then " smoke" else "")
      w.why;
    if args.fresh_sample then begin
      let inst = w.setup ctx in
      let s = H.now () -. H.process_start in
      ignore (inst.run ~after:ignore ~first:0 (H.Count w.rss_ops));
      let rss = inst.rss () in
      inst.teardown ();
      Printf.printf "%.17g %.17g\n" s rss
    end
    else if args.write_golden then write_golden w args ctx
    else if args.trace then traced w args ctx
    else untraced w args ctx
  end
