(* The benchmark harness: one experiment per figure / quantitative claim
   of the paper (see DESIGN.md section 4 for the index).

     dune exec bench/main.exe            -- run every experiment
     dune exec bench/main.exe -- f1 c2   -- run a subset

   The paper has two figures (both qualitative) and a set of in-text
   quantitative claims; each experiment regenerates the corresponding
   rows and states the expected shape next to the measured one. *)

open Dfv_bitvec
open Dfv_rtl
open Dfv_hwir
open Dfv_sec
open Dfv_slm
open Dfv_cosim
open Dfv_designs

let now () = Unix.gettimeofday ()

(* Optional SAT budget for the heavyweight queries (set with `-- --budget N`
   on the command line); lets CI smoke-run the expensive experiments. *)
let budget_opt : Dfv_sat.Solver.budget option ref = ref None

(* Parallel-leg width for par_speedup (set with `-- --jobs N`); defaults
   to 4, the CI runner's vCPU count. *)
let jobs_opt : int ref = ref 4

(* Machine-readable results: experiments append BENCH_<ID>.json next to
   the human-readable output so the perf trajectory is tracked across
   PRs (the CI bench smoke job uploads these as artifacts). *)
let write_bench id fields =
  let open Dfv_obs.Json in
  let path = Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii id) in
  write_file path
    (envelope ~schema:"dfv-bench" ~version:1
       (("experiment", String id) :: fields));
  Printf.printf "wrote %s\n%!" path

(* Where a committed artifact came from: the checkout it was built from
   ([git describe --always --dirty], so a tree with uncommitted changes
   names its base commit plus "-dirty"), the compiler, the cores this
   process may use, and the repetitions behind each leg. *)
let provenance reps =
  let commit =
    try
      let ic =
        Unix.open_process_in "git describe --always --dirty 2>/dev/null"
      in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with Unix.Unix_error _ | Sys_error _ -> "unknown"
  in
  let open Dfv_obs.Json in
  Obj
    [ ("commit", String commit); ("ocaml", String Sys.ocaml_version);
      ("cores", Int (Dfv_par.Pool.cores ()));
      ("reps", Obj (List.map (fun (leg, n) -> (leg, Int n)) reps)) ]

(* The median of repeated timings, and the artifact field recording
   it with the range: [{median, min, max}]. *)
let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  ( a.(n / 2),
    Dfv_obs.Json.Obj
      [ ("median", Float a.(n / 2)); ("min", Float a.(0));
        ("max", Float a.(n - 1)) ] )

let header id title claim =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s: %s\n" id title;
  Printf.printf "paper: %s\n" claim;
  Printf.printf "--------------------------------------------------------------\n%!"

(* Micro-benchmark helper: bechamel OLS estimate of ns/run per test. *)
let bechamel_table rows =
  let open Bechamel in
  let open Toolkit in
  let test =
    Test.make_grouped ~name:"g"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) rows)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.filter_map
    (fun (name, _) ->
      match Hashtbl.find_opt results ("g/" ^ name) with
      | Some o -> (
        match Analyze.OLS.estimates o with
        | Some (e :: _) -> Some (name, e)
        | Some [] | None -> None)
      | None -> None)
    rows

(* ---------------------------------------------------------------------- *)
(* F1: Fig. 1 — addition is non-associative in finite precision            *)
(* ---------------------------------------------------------------------- *)

let fig1_module ~first =
  let open Expr in
  {
    (Netlist.empty (if first then "fig1_left" else "fig1_right")) with
    Netlist.inputs =
      [ { Netlist.port_name = "a"; port_width = 8 };
        { Netlist.port_name = "b"; port_width = 8 };
        { Netlist.port_name = "c"; port_width = 8 } ];
    wires =
      [ ( "tmp",
          if first then sig_ "a" +: sig_ "b" else sig_ "b" +: sig_ "c" ) ];
    outputs =
      [ ( "out",
          sext (sig_ "tmp") 9 +: sext (if first then sig_ "c" else sig_ "a") 9
        ) ];
  }

let f1 () =
  header "F1" "Fig. 1: non-associativity of 8-bit addition"
    "(a+b)+c != (b+c)+a through an 8-bit tmp; masked when the SLM uses C ints";
  (* The paper's witness, through the actual RTL simulator. *)
  let run m a b c =
    let sim = Sim.create (Netlist.elaborate m) in
    Bitvec.to_signed_int
      (List.assoc "out"
         (Sim.cycle sim
            [ ("a", Bitvec.create ~width:8 a);
              ("b", Bitvec.create ~width:8 b);
              ("c", Bitvec.create ~width:8 c) ]))
  in
  let left = run (fig1_module ~first:true) 64 64 (-1) in
  let right = run (fig1_module ~first:false) 64 64 (-1) in
  Printf.printf "RTL witness a=b=64, c=-1:  (a+b)+c = %d   (b+c)+a = %d\n" left
    right;
  (* The same computation in a C-int SLM: the overflow is masked. *)
  let module C = Dfv_bitvec.Cint in
  let i8 = C.make C.I8 in
  let c1 = C.add (C.add (i8 64) (i8 64)) (i8 (-1)) in
  let c2 = C.add (C.add (i8 64) (i8 (-1))) (i8 64) in
  Printf.printf "C-int SLM (int arithmetic): (a+b)+c = %d   (b+c)+a = %d  (masked!)\n"
    (C.value c1) (C.value c2);
  (* Exhaustive witness count over all 2^24 inputs (semantics mirrored on
     plain ints for speed; the Bitvec path is checked by the test suite). *)
  let t0 = now () in
  let to_s8 x = if x land 0x80 <> 0 then (x land 0xff) - 256 else x land 0xff in
  let count = ref 0 in
  for a = 0 to 255 do
    for b = 0 to 255 do
      for c = 0 to 255 do
        let tmp1 = to_s8 (a + b) in
        let o1 = tmp1 + to_s8 c in
        let tmp2 = to_s8 (b + c) in
        let o2 = tmp2 + to_s8 a in
        if o1 <> o2 then incr count
      done
    done
  done;
  Printf.printf
    "exhaustive 2^24 sweep: %d diverging inputs (%.1f%%) in %.1fs\n" !count
    (100.0 *. float_of_int !count /. 16777216.0)
    (now () -. t0);
  (* And SEC finds a witness formally, without any sweep. *)
  let t0 = now () in
  match
    Checker.check_rtl_rtl
      ~a:(Netlist.elaborate (fig1_module ~first:true))
      ~b:(Netlist.elaborate (fig1_module ~first:false))
      ~bound:1 ()
  with
  | Checker.Rtl_not_equivalent (cex, _) ->
    let v n = Bitvec.to_signed_int (List.assoc n cex.Checker.inputs_per_cycle.(0)) in
    Printf.printf "SEC witness in %.3fs: a=%d b=%d c=%d -> %d vs %d\n"
      (now () -. t0) (v "a") (v "b") (v "c")
      (Bitvec.to_signed_int cex.Checker.value_a)
      (Bitvec.to_signed_int cex.Checker.value_b)
  | _ -> print_endline "unexpected: SEC found the orders equivalent"

(* ---------------------------------------------------------------------- *)
(* F2: Fig. 2 — timing alignment between SLM and RTL is non-trivial        *)
(* ---------------------------------------------------------------------- *)

let f2 () =
  header "F2" "Fig. 2: SLM/RTL timing alignment"
    "same outputs, different cycles; alignment needs latency-aware transactors";
  (* FIR: fixed latency 1, so the offset is constant. *)
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let st = Random.State.make [| 5 |] in
  let signal = Array.init 64 (fun _ -> Random.State.int st 256) in
  let _, cycles = Fir.run_rtl_stream fir signal in
  Printf.printf "FIR: 64 untimed SLM outputs vs %d RTL cycles (constant skew)\n"
    cycles;
  (* Memsys: latency depends on the cache state. *)
  let c = Memsys.default_config in
  let requests =
    List.init 24 (fun i ->
        { Memsys.req_tag = i mod 16;
          op = Memsys.Read (if i mod 3 = 0 then 16 * (i / 3) else 0x10) })
  in
  let completions, _ =
    Txn_engine.run ~rtl:(Memsys.rtl_cached c) ~iface:(Memsys.iface c ~ready:true)
      ~requests:(Memsys.to_engine_requests c requests) ()
  in
  (* Latency per completion = completion cycle - issue index (approximate
     issue time; requests issue 1/cycle when accepted). *)
  let sb = Scoreboard.create Scoreboard.Out_of_order in
  let slm = Memsys.Slm.create c in
  List.iteri
    (fun i (tag, data) ->
      Scoreboard.expect sb
        ~tag:(Bitvec.create ~width:c.Memsys.tag_width tag)
        ~cycle:i
        (Bitvec.create ~width:c.Memsys.data_width data))
    (Memsys.Slm.execute_all slm requests);
  List.iter
    (fun (cp : Txn_engine.completion) ->
      Scoreboard.observe sb ~tag:cp.Txn_engine.c_tag ~cycle:cp.Txn_engine.c_cycle
        cp.Txn_engine.c_data)
    completions;
  let r = Scoreboard.report sb in
  let hist = Hashtbl.create 8 in
  List.iter
    (fun l ->
      Hashtbl.replace hist l (1 + Option.value ~default:0 (Hashtbl.find_opt hist l)))
    r.Scoreboard.latencies;
  print_endline "cached-memory latency histogram (cycles from program order):";
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) hist []
  |> List.sort compare
  |> List.iter (fun (l, n) -> Printf.printf "  %3d: %s\n" l (String.make n '#'));
  Printf.printf "alignment: out-of-order scoreboard %s (matched %d/%d)\n"
    (if Scoreboard.ok r then "PASS" else "FAIL")
    r.Scoreboard.matched (List.length requests)

(* ---------------------------------------------------------------------- *)
(* C1: SLM simulates 10x-1000x faster than RTL                             *)
(* ---------------------------------------------------------------------- *)

(* A cycle-approximate SLM of the FIR on the event kernel: one clocked
   thread consuming a sample per clock edge.  It sits between the untimed
   model (no events at all) and the RTL (every register explicit). *)
let kernel_fir_throughput fir signal =
  let k = Kernel.create () in
  let clk = Clock.create k "clk" ~period:10 in
  let input = Fifo.create k "in" ~capacity:16 in
  let output = Fifo.create k "out" ~capacity:(Array.length signal + 4) in
  let n = Array.length signal in
  Kernel.thread k ~name:"stimulus" (fun () ->
      Array.iter (fun s -> Fifo.write input s) signal);
  Kernel.thread k ~name:"fir" (fun () ->
      let taps = Array.of_list fir.Fir.taps in
      let window = Array.make (Array.length taps) 0 in
      for _ = 1 to n do
        Clock.wait_posedge clk;
        let s = Fifo.read input in
        Array.blit window 0 window 1 (Array.length window - 1);
        window.(0) <- s;
        Fifo.write output (Fir.golden_exact fir window)
      done);
  let t0 = now () in
  Kernel.run ~until:(10 * (n + 4)) k;
  let dt = now () -. t0 in
  if Fifo.length output <> n then failwith "kernel fir lost samples";
  dt

(* Regression gate for the compiled HWIR engine (ISSUE 6): the
   normal-form rung must stay >= 5x the tree-walking interpreter on the
   FIR window model, or the bench job fails. *)
let hwir_compiled_min_ratio = 5.0

let c1 () =
  header "C1" "simulation speed across abstraction levels"
    "SLMs simulate typically 10x to 1000x faster than RTL";
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let st = Random.State.make [| 9 |] in
  let n = 20_000 in
  let signal = Array.init n (fun _ -> Random.State.int st 256) in
  (* Rung 1: untimed native SLM. *)
  let t0 = now () in
  let _ = Fir.filter_signal fir signal in
  let t_native = now () -. t0 in
  (* Rungs 2/2b feed the compiled-vs-interpreted gate, so they are
     measured engine-only: windows are built outside the timed region
     and each rung takes the best of three passes to shed scheduler
     noise. *)
  let windows =
    Array.init n (fun i ->
        Array.init 4 (fun k -> if i - k >= 0 then signal.(i - k) else 0))
  in
  let best_of_3 count run =
    let pass () =
      let t0 = now () in
      for i = 0 to count - 1 do
        ignore (run windows.(i))
      done;
      now () -. t0
    in
    min (pass ()) (min (pass ()) (pass ()))
  in
  (* Rung 2: untimed HWIR-interpreted SLM (window per sample). *)
  let n_interp = 2000 in
  let run_interp =
    Fir.slm_window_runner ~engine:`Interp fir.Fir.slm_exact
      ~width:fir.Fir.width
  in
  let t_interp =
    best_of_3 n_interp run_interp *. float_of_int n /. float_of_int n_interp
  in
  (* Rung 2b: the same HWIR model through the verified normal form onto
     the slot-indexed kernel, prepared once and run per window. *)
  let run_compiled =
    Fir.slm_window_runner ~engine:`Compiled fir.Fir.slm_exact
      ~width:fir.Fir.width
  in
  let t_hwir_compiled = best_of_3 n run_compiled in
  (* Rung 3: cycle-approximate SLM on the event kernel. *)
  let n_kernel = 5000 in
  let t_kernel =
    kernel_fir_throughput fir (Array.sub signal 0 n_kernel)
    *. float_of_int n /. float_of_int n_kernel
  in
  (* Rung 4: cycle-accurate RTL simulation (compiled engine, the
     default since the closure-kernel rewrite). *)
  let n_rtl = 20_000 in
  let t0 = now () in
  let _ = Fir.run_rtl_stream fir (Array.sub signal 0 n_rtl) in
  let t_rtl = (now () -. t0) *. float_of_int n /. float_of_int n_rtl in
  (* Rung 5: the retained tree-walking interpreter, for the trajectory. *)
  let n_rtl_interp = 2000 in
  let sim_interp = Sim.create ~engine:`Interp fir.Fir.rtl in
  let vin = Bitvec.one 1 in
  let t0 = now () in
  for i = 0 to n_rtl_interp - 1 do
    ignore
      (Sim.cycle sim_interp
         [ ("din", Bitvec.create ~width:8 signal.(i)); ("vin", vin) ])
  done;
  let t_rtl_interp =
    (now () -. t0) *. float_of_int n /. float_of_int n_rtl_interp
  in
  let json_rows = ref [] in
  let row name t =
    json_rows :=
      (name, float_of_int n /. t, t_rtl /. t) :: !json_rows;
    Printf.printf "  %-28s %10.0f samples/s   %8.1fx vs RTL\n" name
      (float_of_int n /. t) (t_rtl /. t)
  in
  Printf.printf "FIR filtering, %d samples (normalized):\n" n;
  row "untimed SLM (native)" t_native;
  row "untimed SLM (HWIR interp)" t_interp;
  row "untimed SLM (HWIR compiled)" t_hwir_compiled;
  row "cycle-approx SLM (kernel)" t_kernel;
  row "cycle-accurate RTL" t_rtl;
  row "cycle-accurate RTL (interp)" t_rtl_interp;
  Printf.printf
    "shape check: untimed/RTL = %.0fx interpreted (paper: 10x-1000x), \
     %.0fx compiled\n"
    (t_rtl_interp /. t_native) (t_rtl /. t_native);
  (* Bechamel micro-benchmarks of one transaction at each level. *)
  let window = [| 11; 22; 33; 44 |] in
  let rtl_sim = Sim.create fir.Fir.rtl in
  let rtl_sim_interp = Sim.create ~engine:`Interp fir.Fir.rtl in
  let rows =
    bechamel_table
      [ ("untimed-native", fun () -> ignore (Fir.golden_exact fir window));
        ( "untimed-interp",
          fun () ->
            ignore (Fir.run_slm_window fir.Fir.slm_exact ~width:8 window) );
        ("untimed-compiled", fun () -> ignore (run_compiled window));
        ( "rtl-cycle",
          fun () ->
            ignore
              (Sim.cycle rtl_sim
                 [ ("din", Bitvec.create ~width:8 17); ("vin", Bitvec.one 1) ])
        );
        ( "rtl-cycle-interp",
          fun () ->
            ignore
              (Sim.cycle rtl_sim_interp
                 [ ("din", Bitvec.create ~width:8 17); ("vin", Bitvec.one 1) ])
        ) ]
  in
  print_endline "bechamel (per transaction / per cycle):";
  List.iter (fun (n, ns) -> Printf.printf "  %-18s %12.1f ns\n" n ns) rows;
  let open Dfv_obs.Json in
  write_bench "c1"
    [ ("design", String "fir");
      ("samples", Int n);
      ( "rungs",
        List
          (List.rev_map
             (fun (name, rate, vs_rtl) ->
               Obj
                 [ ("name", String name);
                   ("samples_per_s", Float rate);
                   ("vs_rtl", Float vs_rtl) ])
             !json_rows) );
      ("untimed_over_rtl", Float (t_rtl /. t_native));
      ("untimed_over_rtl_interp", Float (t_rtl_interp /. t_native));
      ("compiled_over_interp", Float (t_rtl_interp /. t_rtl));
      ("hwir_gate", Float hwir_compiled_min_ratio);
      ("hwir_compiled_over_interp", Float (t_interp /. t_hwir_compiled));
      ( "bechamel_ns",
        Obj (List.map (fun (name, ns) -> (name, Float ns)) rows) ) ];
  let hwir_ratio = t_interp /. t_hwir_compiled in
  if hwir_ratio < hwir_compiled_min_ratio then begin
    Printf.printf
      "REGRESSION: compiled HWIR is only %.1fx the interpreter on the FIR \
       window (gate: >= %.0fx)\n"
      hwir_ratio hwir_compiled_min_ratio;
    exit 1
  end;
  Printf.printf
    "shape check: the compiled HWIR rung clears the %.0fx gate over the \
     interpreter (%.1fx).\n"
    hwir_compiled_min_ratio hwir_ratio

(* ---------------------------------------------------------------------- *)
(* C2: SEC finds discrepancies quickly, without block testbenches          *)
(* ---------------------------------------------------------------------- *)

let c2 () =
  header "C2" "SEC vs random simulation: time to first discrepancy"
    "SEC is very effective at quickly finding SLM/RTL discrepancies";
  let open Dfv_core in
  Printf.printf "  %-26s %14s %22s\n" "bug" "SEC time" "random sim (vectors)";
  let trial name pair =
    let t0 = now () in
    let sec_result =
      match Flow.sec pair with
      | Checker.Not_equivalent _ -> Printf.sprintf "cex %.3fs" (now () -. t0)
      | Checker.Equivalent _ -> "missed!"
      | Checker.Unknown _ -> "unknown!"
    in
    let t0 = now () in
    let sim_result =
      match Flow.simulate ~seed:7 ~vectors:200_000 pair with
      | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
        Printf.sprintf "cex %.3fs (%d vectors)" (now () -. t0) (vector_index + 1)
      | Ok (Flow.Sim_clean { vectors }) -> Printf.sprintf ">%d vectors" vectors
      | Error e -> "error: " ^ Dfv_core.Dfv_error.to_string e
    in
    Printf.printf "  %-26s %14s %22s\n%!" name sec_result sim_result
  in
  List.iter
    (fun bug ->
      let t = Alu.make ~bug ~width:8 () in
      trial
        ("alu/" ^ Alu.bug_name bug)
        (Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl ~spec:t.Alu.spec))
    Alu.all_bugs;
  let fir = Fir.make ~taps:[ 127; 127; 127; -128 ] () in
  trial "fir/c-style-accumulator"
    (Pair.create ~name:"fir" ~slm:fir.Fir.slm_cstyle ~rtl:fir.Fir.rtl
       ~spec:fir.Fir.spec);
  let good = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
  let wrap = Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 () in
  trial "conv/missing-clamp"
    (Pair.create ~name:"conv" ~slm:good.Conv_image.slm_window
       ~rtl:wrap.Conv_image.rtl_window ~spec:good.Conv_image.window_spec);
  (* Corner-case bugs through the composed chain: the off-by-one threshold
     only shows when the convolution output lands exactly on the
     threshold, and the missing brightness clamp only on near-saturated
     pixels that survive the later stages — the needles the paper says
     simulation struggles with. *)
  List.iter
    (fun block ->
      let chain = Image_chain.make ~buggy:block () in
      trial
        ("chain/" ^ Image_chain.block_name block ^ " (corner case)")
        (Pair.create ~name:"chain" ~slm:chain.Image_chain.slm
           ~rtl:chain.Image_chain.rtl_top ~spec:chain.Image_chain.chain_spec))
    [ Image_chain.Threshold; Image_chain.Brightness ];
  (* The sharpest needle: flushed denormals under *realistic* stimulus.
     The paper's point exactly — workloads on well-conditioned data never
     visit the corner the RTL cut, so simulation runs clean for a long
     time while SEC dives straight into it. *)
  let mf = Minifloat.make () in
  let t0 = now () in
  let sec_str =
    match Checker.check_slm_slm ~a:mf.Minifloat.full ~b:mf.Minifloat.lite () with
    | Checker.Not_equivalent _ -> Printf.sprintf "cex %.3fs" (now () -. t0)
    | Checker.Equivalent _ -> "missed!"
    | Checker.Unknown _ -> "unknown!"
  in
  let st = Random.State.make [| 99 |] in
  let t0 = now () in
  let rec hunt i =
    if i >= 200_000 then Printf.sprintf ">%d vectors" 200_000
    else begin
      (* Realistic stimulus: well-scaled operands (exponent >= 3), the
         kind of data an application workload actually produces. *)
      let draw () =
        ((3 + Random.State.int st 13) lsl 3)
        lor Random.State.int st 8
        lor (if Random.State.bool st then 0x80 else 0)
      in
      let a = draw () and b = draw () in
      if
        Minifloat.golden_add ~flush:false a b
        <> Minifloat.golden_add ~flush:true a b
      then Printf.sprintf "cex %.3fs (%d vectors)" (now () -. t0) (i + 1)
      else hunt (i + 1)
    end
  in
  Printf.printf "  %-30s %12s %22s\n" "fpu/flushed-denormals" sec_str (hunt 0);
  print_endline
    "shape check: gross datapath bugs fall to both methods instantly; the\n\
     corner-case bugs need orders of magnitude more random vectors while\n\
     SEC stays in seconds, with a concrete witness either way."

(* ---------------------------------------------------------------------- *)
(* C3: incremental block-level SEC is cheaper and localizes                *)
(* ---------------------------------------------------------------------- *)

let c3 () =
  header "C3" "incremental vs monolithic SEC"
    "incremental runs are much more effective and localize the source quickly";
  let vstr = function
    | Checker.Equivalent _ -> "EQ "
    | Checker.Not_equivalent _ -> "NEQ"
    | Checker.Unknown _ -> "UNK"
  in
  let sec_time ?session slm rtl spec =
    let t0 = now () in
    let verdict = Checker.check_slm_rtl ?budget:!budget_opt ?session ~slm ~rtl ~spec () in
    (now () -. t0, vstr verdict)
  in
  (* Per-block SEC both ways: a fresh substrate per block (the seed
     behaviour) and one shared session across the three blocks — the
     incremental path whose reuse the session counters quantify. *)
  let per_block ?session chain =
    let rows =
      List.map
        (fun b ->
          let t, v =
            sec_time ?session
              (Image_chain.block_slm chain b)
              (Image_chain.block_rtl chain b)
              (Image_chain.block_spec b)
          in
          (b, t, v))
        Image_chain.all_blocks
    in
    (rows, List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 rows)
  in
  (* One shot of a millisecond leg says little, so each per-block leg
     runs [reps] times per bug, the two alternating which goes first, and
     reports its median and range.  The monolithic check, one to two
     orders of magnitude slower, stays one shot. *)
  let reps = 5 in
  Printf.printf "  %-14s %14s %15s %16s %22s\n" "planted bug" "monolithic"
    "blocks (fresh)" "blocks (session)" "session reuse";
  let fresh_grand = Array.make reps 0.0 and shared_grand = Array.make reps 0.0 in
  let c3_rows = ref [] in
  List.iter
    (fun buggy ->
      let chain = Image_chain.make ?buggy:(Some buggy) () in
      let mono_t, mono_v =
        sec_time chain.Image_chain.slm chain.Image_chain.rtl_top
          chain.Image_chain.chain_spec
      in
      let fresh = ref [] and shared = ref [] in
      let localized = ref true and stats = ref None in
      for rep = 0 to reps - 1 do
        let fresh_leg () =
          let _, t = per_block chain in
          fresh := t :: !fresh;
          fresh_grand.(rep) <- fresh_grand.(rep) +. t
        in
        let session_leg () =
          let session = Dfv_sec.Session.create ?budget:!budget_opt () in
          let rows, t = per_block ~session chain in
          shared := t :: !shared;
          shared_grand.(rep) <- shared_grand.(rep) +. t;
          localized :=
            !localized
            && List.for_all (fun (b, _, v) -> (v = "NEQ") = (b = buggy)) rows;
          stats := Some (Dfv_sec.Session.stats session)
        in
        if rep mod 2 = 0 then (
          fresh_leg ();
          session_leg ())
        else (
          session_leg ();
          fresh_leg ())
      done;
      let fresh_med, fresh_json = spread !fresh in
      let shared_med, shared_json = spread !shared in
      let s = Option.get !stats in
      let reuse_pct =
        let total = s.Dfv_sec.Session.nodes_encoded + s.Dfv_sec.Session.nodes_reused in
        if total = 0 then 0.0
        else
          100.0
          *. float_of_int s.Dfv_sec.Session.nodes_reused
          /. float_of_int total
      in
      c3_rows :=
        Dfv_obs.Json.Obj
          [ ("bug", String (Image_chain.block_name buggy));
            ("monolithic_s", Float mono_t);
            ("blocks_fresh_s", fresh_json);
            ("blocks_session_s", shared_json);
            ("session_reuse_pct", Float reuse_pct);
            ("localized", Bool !localized) ]
        :: !c3_rows;
      Printf.printf
        "  %-14s %8.3fs %s %13.3fs %15.3fs %7.1f%% (%d/%d)  %s\n%!"
        (Image_chain.block_name buggy)
        mono_t mono_v fresh_med shared_med reuse_pct
        s.Dfv_sec.Session.nodes_reused
        (s.Dfv_sec.Session.nodes_encoded + s.Dfv_sec.Session.nodes_reused)
        (if !localized then "names the block" else "ambiguous"))
    Image_chain.all_blocks;
  let chain = Image_chain.make () in
  let mono_t, mono_v =
    sec_time chain.Image_chain.slm chain.Image_chain.rtl_top
      chain.Image_chain.chain_spec
  in
  Printf.printf "  %-14s %8.3fs %s %s\n" "(clean)" mono_t mono_v
    "               (baseline)";
  let fresh_total, fresh_json = spread (Array.to_list fresh_grand) in
  let shared_total, shared_json = spread (Array.to_list shared_grand) in
  Printf.printf
    "per-block columns are medians of %d alternating runs; totals across the \
     bug sweep: shared session %.3fs vs fresh %.3fs\n"
    reps shared_total fresh_total;
  write_bench "c3"
    [ ( "provenance",
        provenance
          [ ("monolithic", 1); ("blocks_fresh", reps); ("blocks_session", reps) ]
      );
      ("rows", Dfv_obs.Json.List (List.rev !c3_rows));
      ("fresh_total_s", fresh_json);
      ("session_total_s", shared_json) ];
  (* Guard the point of the session layer: sharing the substrate must not
     cost wall-clock vs the seed's fresh-solver-per-block behaviour (the
     slack absorbs timer noise on these millisecond-scale queries). *)
  if shared_total > (fresh_total *. 1.5) +. 0.1 then begin
    Printf.printf
      "REGRESSION: shared-session per-block SEC (%.3fs) is slower than \
       fresh sessions (%.3fs)\n"
      shared_total fresh_total;
    exit 1
  end;
  print_endline
    "shape check: per-block runs localize the planted bug by name, reuse a\n\
     nonzero share of the encoding, and sharing one session costs no wall\n\
     clock vs fresh per-block solvers."

(* ---------------------------------------------------------------------- *)
(* C4: int-based SLMs mask overflow; bit-accurate datatypes restore SEC    *)
(* ---------------------------------------------------------------------- *)

let c4 () =
  header "C4" "bit-accuracy vs C-int masking (saturating FIR)"
    "int-based C models mask overflow effects that RTL bit-vectors exhibit";
  Printf.printf "  %-26s %12s %13s %11s\n" "taps" "divergence" "SEC c-style"
    "SEC exact";
  let st = Random.State.make [| 4 |] in
  (* Intermediate saturation (and hence divergence of the wide-int model)
     becomes reachable once the partial sums can exceed the 16-bit
     saturation bound; the ladder crosses that point. *)
  List.iter
    (fun (name, taps) ->
      let fir = Fir.make ~taps () in
      let n = 20_000 in
      let diverging = ref 0 in
      for _ = 1 to n do
        let w = Array.init 4 (fun _ -> Random.State.int st 256) in
        if Fir.golden_exact fir w <> Fir.golden_cstyle fir w then incr diverging
      done;
      let verdict slm =
        match Checker.check_slm_rtl ~slm ~rtl:fir.Fir.rtl ~spec:fir.Fir.spec () with
        | Checker.Equivalent _ -> "EQ"
        | Checker.Not_equivalent _ -> "NEQ"
        | Checker.Unknown _ -> "UNK"
      in
      Printf.printf "  %-26s %10.2f%% %13s %11s\n%!" name
        (100.0 *. float_of_int !diverging /. float_of_int n)
        (verdict fir.Fir.slm_cstyle) (verdict fir.Fir.slm_exact))
    [ ("mild [3;-5;7;2]", [ 3; -5; 7; 2 ]);
      ("medium [64;-64;64;32]", [ 64; -64; 64; 32 ]);
      ("hot [100;-110;120;-90]", [ 100; -110; 120; -90 ]);
      ("max [127;127;127;-128]", [ 127; 127; 127; -128 ]) ];
  print_endline
    "shape check: the bit-accurate model stays EQ at every scale; the C-int\n\
     model crosses from EQ to NEQ once intermediate sums can overflow."

(* ---------------------------------------------------------------------- *)
(* C4b: fault-injection robustness — the verifier catches seeded faults    *)
(* ---------------------------------------------------------------------- *)

let c4f () =
  header "C4F" "fault-injection robustness of the verification flow"
    "every activatable single fault must surface as a counterexample or a \
     justified unknown — never a false equivalence";
  let open Dfv_fault in
  let reports = Suite.run ?budget:!budget_opt () in
  List.iter
    (fun (r : Campaign.report) ->
      Printf.printf
        "  %-18s %3d mutants: %3d detected %3d survived %3d unknown %3d \
         crashed %3d false-eq %3d mislocalized (%.2fs)\n%!"
        r.Campaign.r_subject r.Campaign.r_total r.Campaign.r_detected
        r.Campaign.r_survived r.Campaign.r_unknown r.Campaign.r_crashed
        r.Campaign.r_false_eq r.Campaign.r_mislocalized r.Campaign.r_wall)
    reports;
  let rate, false_eq, pass = Suite.gate reports in
  Printf.printf
    "detection rate %.1f%% (min %.0f%%), %d false equivalents: %s\n"
    (100.0 *. rate)
    (100.0 *. Suite.default_min_rate)
    false_eq
    (if pass then "PASS" else "FAIL");
  print_endline
    "shape check: injected stuck-ats, operator substitutions and bit-flips\n\
     are detected (or justifiably unknown); the prover never certifies a\n\
     detectable fault as equivalent.";
  if not pass then exit 1

(* ---------------------------------------------------------------------- *)
(* PAR: worker-pool speedup on domains, byte-identical verdicts           *)
(* ---------------------------------------------------------------------- *)

let par_speedup () =
  let open Dfv_fault in
  let jobs = max 2 !jobs_opt in
  let cores = Dfv_par.Pool.cores () in
  header "PAR"
    (Printf.sprintf "fault-campaign wall-clock at %d jobs on domains" jobs)
    "job->seed partitioning keeps verdicts byte-identical at any --jobs; \
     the pool must never lose to sequential, and must buy real \
     wall-clock on a multicore host";
  (* Canonical verdict transcript: every field except the timings.  The
     two legs must agree byte-for-byte or the pool changed a verdict. *)
  let canon reports =
    reports
    |> List.concat_map (fun (r : Campaign.report) ->
           List.map
             (fun (m : Campaign.mutant_result) ->
               let v =
                 match m.Campaign.verdict with
                 | Campaign.Detected { engine; localized; _ } ->
                   Printf.sprintf "detected(%s,%s)" engine
                     (match localized with
                     | None -> "-"
                     | Some b -> string_of_bool b)
                 | Campaign.Survived _ -> "survived"
                 | Campaign.False_equivalent _ -> "false-equivalent"
                 | Campaign.Unknown { reason; _ } -> "unknown(" ^ reason ^ ")"
                 | Campaign.Crashed e ->
                   "crashed(" ^ Dfv_core.Dfv_error.to_string e ^ ")"
               in
               Printf.sprintf "%s/%s[%s@%s]=%s" r.Campaign.r_subject
                 m.Campaign.m_name m.Campaign.m_class m.Campaign.m_site v)
             r.Campaign.r_results)
    |> String.concat "\n"
  in
  let time_run f =
    let t0 = now () in
    let reports = f () in
    (now () -. t0, reports)
  in
  (* The sequential leg runs first on purpose: it fixes the global
     metric/coverage registry insertion order that the canonical
     transcript (and any telemetry comparison) is read back in. *)
  let seq_s, seq_reports =
    time_run (fun () -> Suite.run ?budget:!budget_opt ~jobs:1 ())
  in
  let seq_canon = canon seq_reports in
  Printf.printf "  seq      %6.2fs\n%!" seq_s;
  let run_seq () = Suite.run ?budget:!budget_opt ~jobs:1 () in
  let run_pool () = Suite.run ?budget:!budget_opt ~jobs ~pool:true () in
  (* The domains gate on a 1-core host is a breakeven test with zero
     parallelism margin, and small hosts (burstable VMs) suffer
     multi-second CPU-steal episodes that swamp any single ~30s timing.
     So each domains rep is timed against a sequential rep run
     immediately after it, and the BEST paired ratio is the verdict: a
     genuine regression (a per-job fork round trip read ~0.8x on this
     workload) loses in every pair, while scheduler noise only ever
     makes a pair look worse.  All pairs land in the artifact for
     transparency. *)
  let dom_reps = if cores = 1 then 3 else 1 in
  let dom_pairs = ref [] in
  for rep = 1 to dom_reps do
    let d_s, d_reports = time_run run_pool in
    let parity = canon d_reports = seq_canon in
    let s_s, _ = time_run run_seq in
    let ratio = s_s /. d_s in
    Printf.printf
      "  domains  %6.2fs vs adjacent seq %6.2fs   pair %d/%d: %.2fx, \
       parity %s\n%!"
      d_s s_s rep dom_reps ratio
      (if parity then "byte-identical" else "MISMATCH");
    dom_pairs := (d_s, s_s, ratio, parity) :: !dom_pairs
  done;
  let dom_pairs = List.rev !dom_pairs in
  let best_d, _, best_ratio, _ =
    List.fold_left
      (fun (bd, bs, br, bp) (d, s, r, p) ->
        if r > br then (d, s, r, p) else (bd, bs, br, bp))
      (List.hd dom_pairs) (List.tl dom_pairs)
  in
  let dom_parity = List.for_all (fun (_, _, _, p) -> p) dom_pairs in
  Printf.printf "  domains  best paired speedup %.2fx over %d pair(s)\n%!"
    best_ratio dom_reps;
  (* Short jobs: faultsim-journaled's five subjects at its sizes, seeds
     1-4, where a mutant takes a few ms and a pool that keeps a domain
     parked beside its workers loses to sequential on a 2-core host.
     Each pair times both legs back to back, alternating which goes
     first, and the median ratio is gated. *)
  let short_reps = 7 in
  let short_run ~jobs ?pool () =
    List.concat_map
      (fun seed ->
        Suite.run
          ~budget:
            { Dfv_sat.Solver.max_conflicts = Some 20_000; max_seconds = None }
          ~seed ~sim_vectors:400 ~jobs ?pool ~max_rtl_faults:16
          ~max_slm_faults:8
          ~designs:
            [ "alu"; "gcd"; "chain.brightness"; "chain.threshold"; "memsys" ]
          ())
      [ 1; 2; 3; 4 ]
  in
  let short_seq () = short_run ~jobs:1 () in
  let short_dom () = short_run ~jobs ~pool:true () in
  (* The reference transcript; its run also warms both legs' caches. *)
  let short_canon = canon (short_seq ()) in
  let short_pairs = ref [] in
  for rep = 1 to short_reps do
    let seq_first = rep mod 2 = 1 in
    let (s_s, _), (d_s, d_reports) =
      if seq_first then
        let s = time_run short_seq in
        (s, time_run short_dom)
      else
        let d = time_run short_dom in
        (time_run short_seq, d)
    in
    let parity = canon d_reports = short_canon in
    let ratio = s_s /. d_s in
    Printf.printf
      "  short    %6.3fs domains vs %6.3fs seq (%s first)   pair %d/%d: \
       %.2fx, parity %s\n%!"
      d_s s_s
      (if seq_first then "seq" else "domains")
      rep short_reps ratio
      (if parity then "byte-identical" else "MISMATCH");
    short_pairs := (d_s, s_s, ratio, parity, seq_first) :: !short_pairs
  done;
  let short_pairs = List.rev !short_pairs in
  let median xs = fst (spread xs) in
  let short_ratio = median (List.map (fun (_, _, r, _, _) -> r) short_pairs) in
  Printf.printf "  short    median paired speedup %.2fx over %d pairs\n%!"
    short_ratio short_reps;
  let open Dfv_obs.Json in
  let domains_leg =
    ( "domains", best_d, best_ratio, dom_parity,
      List.map
        (fun (d, s, r, p) ->
          Obj
            [ ("seconds", Float d); ("adjacent_seq_seconds", Float s);
              ("speedup", Float r); ("verdict_parity", Bool p) ])
        dom_pairs )
  in
  let short_leg =
    ( "domains-short",
      median (List.map (fun (d, _, _, _, _) -> d) short_pairs),
      short_ratio,
      List.for_all (fun (_, _, _, p, _) -> p) short_pairs,
      List.map
        (fun (d, s, r, p, seq_first) ->
          Obj
            [ ("seconds", Float d); ("adjacent_seq_seconds", Float s);
              ("speedup", Float r); ("verdict_parity", Bool p);
              ("first", String (if seq_first then "seq" else "domains")) ])
        short_pairs )
  in
  let legs = [ domains_leg; short_leg ] in
  write_bench "par_speedup"
    [ ( "provenance",
        provenance
          [ ("seq", 1); ("domains", dom_reps); ("domains-short", short_reps) ]
      );
      ("jobs", Int jobs); ("cores", Int cores); ("seq_seconds", Float seq_s);
      ( "modes",
        List
          (List.map
             (fun (mode, s, speedup, parity, pairs) ->
               Obj
                 ([ ("mode", String mode); ("jobs", Int jobs);
                    ("cores", Int cores); ("seconds", Float s);
                    ("speedup", Float speedup);
                    ("verdict_parity", Bool parity) ]
                 @ if pairs = [] then [] else [ ("pairs", List pairs) ]))
             legs) ) ];
  print_endline
    "shape check: verdicts are a pure function of (campaign seed, mutant\n\
     index), so the job count does not change them; the pool must at\n\
     least break even against sequential on any host, and must shrink\n\
     wall-clock given real cores.";
  let parity_failed = ref false in
  List.iter
    (fun (mode, _, _, parity, _) ->
      if not parity then begin
        Printf.printf "REGRESSION: %s verdicts differ from --jobs 1\n" mode;
        parity_failed := true
      end)
    legs;
  if !parity_failed then exit 1;
  let speedup_of m =
    let _, _, sp, _, _ = List.find (fun (mode, _, _, _, _) -> mode = m) legs in
    sp
  in
  let dom_speedup = speedup_of "domains" in
  if cores >= 4 && jobs >= 4 then begin
    if dom_speedup < 2.5 then begin
      Printf.printf
        "REGRESSION: domains speedup %.2fx < 2.5x at %d jobs on %d cores\n"
        dom_speedup jobs cores;
      exit 1
    end
  end
  else
    Printf.printf
      "multicore speedup gates skipped (need >= 4 cores and >= 4 jobs; \
       have %d/%d)\n"
      cores jobs;
  (* The flagship number this executor exists for: on a 1-core host a
     per-job fork round trip lost to sequential (~0.92x); domains must
     at least break even.  0.995 is >= 1.0x within the two-decimal
     resolution the artifact records — anything below it is a real
     in-process scheduling overhead, not timer noise. *)
  if cores = 1 && dom_speedup < 0.995 then begin
    Printf.printf
      "REGRESSION: best paired domains speedup %.2fx < 1.0x against \
       sequential on a 1-core host\n"
      dom_speedup;
    exit 1
  end;
  (* Short jobs on any multicore host: a pool of few-ms mutants must not
     lose to running them one after another. *)
  if cores >= 2 && short_ratio < 1.0 then begin
    Printf.printf
      "REGRESSION: median paired domains speedup %.2fx < 1.0x against \
       sequential on short jobs (%d cores, %d jobs)\n"
      short_ratio cores jobs;
    exit 1
  end

(* ---------------------------------------------------------------------- *)
(* JOURNAL: write-ahead journal overhead and resume fidelity               *)
(* ---------------------------------------------------------------------- *)

let journal_overhead () =
  let open Dfv_fault in
  header "JOURNAL" "durable-campaign journal: fsync cost and resume fidelity"
    "durability must be cheap relative to a SAT-bound mutant and must \
     never perturb verdicts";
  (* Raw append throughput: every append is an fsync, the worst case. *)
  let module Journal = Dfv_par.Journal in
  let path = Filename.temp_file "dfv_bench_journal" ".jsonl" in
  Sys.remove path;
  let j =
    match Journal.open_ ~path ~campaign:"bench" with
    | Ok j -> j
    | Error m -> failwith ("journal: " ^ m)
  in
  let n = 500 in
  let payload i =
    let open Dfv_obs.Json in
    Obj
      [ ("name", String (Printf.sprintf "mutant#%d" i));
        ("class", String "stuck-at-0"); ("site", String "y");
        ( "verdict",
          Obj
            [ ("kind", String "detected"); ("engine", String "sec");
              ("seconds", Float 0.123); ("localized", Bool true) ] ) ]
  in
  let t0 = now () in
  for i = 0 to n - 1 do
    Journal.append j ~fp:(Journal.fingerprint (string_of_int i)) (payload i)
  done;
  let append_s = now () -. t0 in
  Journal.close j;
  let replayed =
    match Journal.open_ ~path ~campaign:"bench" with
    | Ok j ->
      let r = Journal.replayed j in
      Journal.close j;
      r
    | Error m -> failwith ("journal reopen: " ^ m)
  in
  Sys.remove path;
  let per_append_us = 1e6 *. append_s /. float_of_int n in
  Printf.printf
    "  %d fsync'd appends in %.3fs (%.0f us/append, %.0f appends/s)\n" n
    append_s per_append_us
    (float_of_int n /. append_s);
  Printf.printf "  reload: %d/%d records replayed\n" replayed n;
  (* End-to-end: a journaled campaign must match an unjournaled one
     verdict-for-verdict, and the fsync tax must stay small against the
     SAT work each record represents. *)
  let canon (r : Campaign.report) =
    List.map
      (fun (m : Campaign.mutant_result) ->
        (m.Campaign.m_name, Campaign.verdict_label m.Campaign.verdict))
      r.Campaign.r_results
  in
  let subject () =
    let t = Dfv_designs.Alu.make ~width:8 () in
    Campaign.Sec_pair
      (Dfv_core.Pair.create ~name:"alu" ~slm:t.Dfv_designs.Alu.slm
         ~rtl:t.Dfv_designs.Alu.rtl ~spec:t.Dfv_designs.Alu.spec)
  in
  let t0 = now () in
  let plain = Campaign.run ?budget:!budget_opt (subject ()) in
  let plain_s = now () -. t0 in
  let jpath = Filename.temp_file "dfv_bench_campaign" ".jsonl" in
  Sys.remove jpath;
  let j =
    match Journal.open_ ~path:jpath ~campaign:"bench-campaign" with
    | Ok j -> j
    | Error m -> failwith ("journal: " ^ m)
  in
  let t0 = now () in
  let journaled = Campaign.run ?budget:!budget_opt ~journal:j (subject ()) in
  let journaled_s = now () -. t0 in
  Journal.close j;
  Sys.remove jpath;
  let parity = canon plain = canon journaled in
  let overhead_pct = 100.0 *. ((journaled_s /. plain_s) -. 1.0) in
  Printf.printf
    "  campaign: plain %.2fs, journaled %.2fs (%+.1f%% wall)\n" plain_s
    journaled_s overhead_pct;
  Printf.printf "  verdict parity: %s\n%!"
    (if parity then "byte-identical" else "MISMATCH");
  let open Dfv_obs.Json in
  write_bench "journal_overhead"
    [ ("appends", Int n); ("append_seconds", Float append_s);
      ("append_us", Float per_append_us); ("replayed", Int replayed);
      ("campaign_plain_seconds", Float plain_s);
      ("campaign_journaled_seconds", Float journaled_s);
      ("overhead_pct", Float overhead_pct); ("verdict_parity", Bool parity) ];
  if replayed <> n then begin
    Printf.printf "REGRESSION: %d of %d records lost on reload\n" (n - replayed)
      n;
    exit 1
  end;
  if not parity then begin
    print_endline "REGRESSION: journaling changed campaign verdicts";
    exit 1
  end

(* ---------------------------------------------------------------------- *)
(* C5: floating-point corner cases; constraints restore equivalence        *)
(* ---------------------------------------------------------------------- *)

let c5 () =
  header "C5" "floating point: IEEE SLM vs corner-cutting RTL"
    "non-IEEE RTL diverges on corner cases; constrain the inputs for SEC";
  let open Dfv_softfloat in
  let st = Random.State.make [| 21 |] in
  let rand32 () =
    (Random.State.bits st land 0xFFFF) lor ((Random.State.bits st land 0xFFFF) lsl 16)
  in
  let n = 200_000 in
  let classes = Hashtbl.create 8 in
  let total = ref 0 in
  for _ = 1 to n do
    let a = rand32 () and b = rand32 () in
    List.iter
      (fun (opname, op) ->
        let i = op F32.ieee a b and r = op F32.rtl_lite a b in
        if not (F32.equal_numeric i r) then begin
          incr total;
          let k =
            if F32.is_nan a || F32.is_nan b then opname ^ "/nan-input"
            else if F32.is_infinity a || F32.is_infinity b then opname ^ "/inf-input"
            else if F32.is_denormal a || F32.is_denormal b then
              opname ^ "/denormal-input"
            else opname ^ "/overflow-or-underflow"
          in
          Hashtbl.replace classes k
            (1 + Option.value ~default:0 (Hashtbl.find_opt classes k))
        end)
      [ ("add", F32.add); ("mul", F32.mul) ]
  done;
  Printf.printf "binary32, %d random pairs: %d divergences\n" n !total;
  let class_rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) classes [] |> List.sort compare
  in
  List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) class_rows;
  let mf = Minifloat.make () in
  let t0 = now () in
  let unconstrained_verdict, unconstrained_t =
    match Checker.check_slm_slm ~a:mf.Minifloat.full ~b:mf.Minifloat.lite () with
    | Checker.Not_equivalent _ ->
      let dt = now () -. t0 in
      Printf.printf "minifloat SEC unconstrained: NOT EQUIVALENT (%.2fs)\n" dt;
      ("NEQ", dt)
    | Checker.Equivalent _ ->
      print_endline "unexpected EQ";
      ("EQ", now () -. t0)
    | Checker.Unknown _ ->
      print_endline "unexpected UNKNOWN";
      ("UNK", now () -. t0)
  in
  let t0 = now () in
  let constrained_verdict, constrained_t =
    match
      Checker.check_slm_slm ~a:mf.Minifloat.full ~b:mf.Minifloat.lite
        ~constraints:mf.Minifloat.safe_constraints ()
    with
    | Checker.Equivalent _ ->
      let dt = now () -. t0 in
      Printf.printf "minifloat SEC with input constraints: EQUIVALENT (%.2fs)\n"
        dt;
      ("EQ", dt)
    | Checker.Not_equivalent _ ->
      print_endline "unexpected NEQ";
      ("NEQ", now () -. t0)
    | Checker.Unknown _ ->
      print_endline "unexpected UNKNOWN";
      ("UNK", now () -. t0)
  in
  let open Dfv_obs.Json in
  write_bench "c5"
    [ ("random_pairs", Int n);
      ("divergences", Int !total);
      ( "classes",
        Obj (List.map (fun (k, v) -> (k, Int v)) class_rows) );
      ( "minifloat_sec",
        Obj
          [ ("unconstrained", String unconstrained_verdict);
            ("unconstrained_s", Float unconstrained_t);
            ("constrained", String constrained_verdict);
            ("constrained_s", Float constrained_t) ] ) ]

(* ---------------------------------------------------------------------- *)
(* C6: model conditioning gates static analyzability                       *)
(* ---------------------------------------------------------------------- *)

let c6 () =
  header "C6" "model conditioning (Section 4.3 guidelines)"
    "conditioned SLMs admit static analysis (SEC/synthesis); others do not";
  let open Ast in
  let gcd = Gcd.make ~width:4 in
  let unconditioned_gcd =
    {
      gcd.Gcd.slm with
      funcs =
        List.map
          (fun f ->
            {
              f with
              body =
                List.map
                  (function
                    | Bounded_while { cond; body; _ } -> While (cond, body)
                    | st -> st)
                  f.body;
            })
          gcd.Gcd.slm.funcs;
    }
  in
  let alloc_model =
    {
      funcs =
        [ {
            fname = "f";
            params = [ ("n", uint 8) ];
            ret = uint 8;
            locals = [];
            body =
              [ Alloc { var = "buf"; elem = uint 8; size = var "n" };
                Extern_call ("memset", [ var "n" ]);
                ret (var "n") ];
          } ];
      entry = "f";
    }
  in
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let mf = Minifloat.make () in
  Printf.printf "  %-28s %10s %12s %10s\n" "model" "violations" "elaborates"
    "SEC-ready";
  List.iter
    (fun (name, p) ->
      let blocking =
        List.filter (fun v -> not (Guideline.is_advisory v)) (Guideline.check p)
      in
      let elaborates =
        match Elab.elaborate p ~g:(Dfv_aig.Aig.create ()) with
        | _ -> true
        | exception Elab.Not_synthesizable _ -> false
      in
      Printf.printf "  %-28s %10d %12s %10s\n" name (List.length blocking)
        (if elaborates then "yes" else "NO")
        (if elaborates && blocking = [] then "yes" else "NO"))
    [ ("gcd (bounded loop)", gcd.Gcd.slm);
      ("gcd (while loop)", unconditioned_gcd);
      ("fir (exact)", fir.Fir.slm_exact);
      ("fir (c-style)", fir.Fir.slm_cstyle);
      ("minifloat adder", mf.Minifloat.full);
      ("malloc + extern model", alloc_model) ];
  print_endline
    "shape check: exactly the guideline-conditioned models elaborate; the\n\
     unconditioned ones still *run* (interpreter) but block formal tools.";
  (* And the lint pinpoints each guideline by name. *)
  List.iter
    (fun v -> Format.printf "  lint: %a@." Guideline.pp_violation v)
    (Guideline.check alloc_model);
  (* The other payoff of conditioning (Section 4.3): behavioral
     synthesis.  Generate RTL from the conditioned gcd and prove it. *)
  let module Behsyn = Dfv_behsyn.Behsyn in
  let t0 = now () in
  let synth = Netlist.elaborate (Behsyn.synthesize gcd.Gcd.slm) in
  (match
     Checker.check_slm_rtl ~slm:gcd.Gcd.slm ~rtl:synth
       ~spec:(Behsyn.spec gcd.Gcd.slm) ()
   with
  | Checker.Equivalent _ ->
    Printf.printf
      "behavioral synthesis: conditioned gcd -> FSM RTL, SEC-proved in %.2fs\n"
      (now () -. t0)
  | Checker.Not_equivalent _ | Checker.Unknown _ -> print_endline "synthesis bug?!")

(* ---------------------------------------------------------------------- *)
(* C7: variable latency / out-of-order completion vs comparison discipline *)
(* ---------------------------------------------------------------------- *)

let c7 () =
  header "C7" "latency variability and scoreboard policies (memsys)"
    "stalls/caches break cycle-accurate comparison; OOO needs tagged transactors";
  let c = Memsys.default_config in
  let run_mix name locality nreq =
    let st = Random.State.make [| locality; nreq |] in
    let requests =
      List.init nreq (fun i ->
          let addr =
            if Random.State.int st 100 < locality then Random.State.int st 4
            else Random.State.int st 256
          in
          if i < 4 then { Memsys.req_tag = i mod 16; op = Memsys.Write (addr, i * 7) }
          else { Memsys.req_tag = i mod 16; op = Memsys.Read addr })
    in
    let completions, cycles =
      Txn_engine.run ~rtl:(Memsys.rtl_cached c)
        ~iface:(Memsys.iface c ~ready:true)
        ~requests:(Memsys.to_engine_requests c requests) ()
    in
    (* Reorder metric: inversions — request pairs issued in one order but
       completed in the other (first completion per tag). *)
    let completion_pos = Hashtbl.create 64 in
    List.iteri
      (fun pos (cp : Txn_engine.completion) ->
        let t = Bitvec.to_int cp.Txn_engine.c_tag in
        if not (Hashtbl.mem completion_pos t) then
          Hashtbl.replace completion_pos t pos)
      completions;
    let inversions = ref 0 in
    List.iteri
      (fun i ri ->
        List.iteri
          (fun j rj ->
            if i < j && i < 16 && j < 16 then begin
              match
                ( Hashtbl.find_opt completion_pos ri.Memsys.req_tag,
                  Hashtbl.find_opt completion_pos rj.Memsys.req_tag )
              with
              | Some pi, Some pj when pi > pj -> incr inversions
              | _ -> ()
            end)
          requests)
      requests;
    (* Scoreboard verdicts. *)
    let slm = Memsys.Slm.create c in
    let golden = Memsys.Slm.execute_all slm requests in
    let policy_ok policy uses_tag =
      let sb = Scoreboard.create policy in
      List.iteri
        (fun i (tag, data) ->
          let tag =
            if uses_tag then Some (Bitvec.create ~width:c.Memsys.tag_width tag)
            else None
          in
          Scoreboard.expect ?tag sb ~cycle:i
            (Bitvec.create ~width:c.Memsys.data_width data))
        golden;
      List.iter
        (fun (cp : Txn_engine.completion) ->
          let tag = if uses_tag then Some cp.Txn_engine.c_tag else None in
          Scoreboard.observe ?tag sb ~cycle:cp.Txn_engine.c_cycle
            cp.Txn_engine.c_data)
        completions;
      Scoreboard.ok (Scoreboard.report sb)
    in
    Printf.printf "  %-18s %7d %8d %12s %10s %12s\n%!" name cycles !inversions
      (if policy_ok Scoreboard.Exact_cycle false then "PASS" else "FAIL")
      (if policy_ok Scoreboard.In_order false then "PASS" else "FAIL")
      (if policy_ok Scoreboard.Out_of_order true then "PASS" else "FAIL")
  in
  Printf.printf "  %-18s %7s %8s %12s %10s %12s\n" "mix" "cycles" "invrsns"
    "exact-cycle" "in-order" "out-of-order";
  run_mix "hot (95% local)" 95 16;
  run_mix "warm (60% local)" 60 16;
  run_mix "cold (10% local)" 10 16;
  print_endline
    "shape check: the tagged (out-of-order) policy is the only one that\n\
     accepts every mix; in-order fails once misses are overtaken.";
  (* The fixed-latency memory passes even the exact-cycle policy if the
     expectation accounts for the constant pipeline delay. *)
  let requests =
    List.init 8 (fun i -> { Memsys.req_tag = i; op = Memsys.Read i })
  in
  let completions, _ =
    Txn_engine.run ~rtl:(Memsys.rtl_simple c) ~iface:(Memsys.iface c ~ready:false)
      ~requests:(Memsys.to_engine_requests c requests) ()
  in
  let sb = Scoreboard.create Scoreboard.Exact_cycle in
  let slm = Memsys.Slm.create c in
  List.iteri
    (fun i (_, data) ->
      Scoreboard.expect sb ~cycle:(i + 3)
        (Bitvec.create ~width:c.Memsys.data_width data))
    (Memsys.Slm.execute_all slm requests);
  List.iter
    (fun (cp : Txn_engine.completion) ->
      Scoreboard.observe sb ~cycle:cp.Txn_engine.c_cycle cp.Txn_engine.c_data)
    completions;
  Printf.printf
    "fixed-latency memory + constant-skew expectation: exact-cycle %s\n"
    (if Scoreboard.ok (Scoreboard.report sb) then "PASS" else "FAIL")

(* ---------------------------------------------------------------------- *)
(* C8: consistent partitioning enables SLM/RTL plug-and-play               *)
(* ---------------------------------------------------------------------- *)

let c8 () =
  header "C8" "plug-and-play co-simulation (partitioned pipeline)"
    "consistent partitioning allows swapping SLM and RTL blocks freely";
  let chain = Image_chain.make () in
  let st = Random.State.make [| 77 |] in
  let pixels =
    Array.init 4096 (fun _ -> Bitvec.create ~width:8 (Random.State.int st 256))
  in
  let slm_b = Image_chain.slm_stage chain Image_chain.Brightness in
  let slm_t = Image_chain.slm_stage chain Image_chain.Threshold in
  let rtl_b =
    Stream.rtl_stage ~name:"brightness-rtl" ~rtl:chain.Image_chain.rtl_brightness
      ~in_port:"p" ~out_port:"q" ~latency:0 ()
  in
  let rtl_t =
    Stream.rtl_stage ~name:"threshold-rtl" ~rtl:chain.Image_chain.rtl_threshold
      ~in_port:"p" ~out_port:"q" ~latency:0 ()
  in
  let configs =
    [ ("SLM | SLM", [ slm_b; slm_t ]);
      ("RTL | SLM", [ rtl_b; slm_t ]);
      ("SLM | RTL", [ slm_b; rtl_t ]);
      ("RTL | RTL", [ rtl_b; rtl_t ]) ]
  in
  let reference = ref [||] in
  Printf.printf "  %-10s %10s %14s %10s\n" "pipeline" "rtl-cycles" "wall" "output";
  let differing =
    List.filter
      (fun (name, stages) ->
        let t0 = now () in
        let out, stats = Stream.run_pipeline stages pixels in
        let dt = now () -. t0 in
        let cycles =
          List.fold_left (fun acc s -> acc + s.Stream.cycles) 0 stats
        in
        if !reference = [||] then reference := out;
        let same = Array.for_all2 Bitvec.equal !reference out in
        Printf.printf "  %-10s %10d %12.1fms %10s\n%!" name cycles
          (1000.0 *. dt)
          (if same then "identical" else "DIFFERS");
        not same)
      configs
  in
  if differing <> [] then begin
    Printf.printf "REGRESSION: output differs from SLM | SLM in %s\n"
      (String.concat ", " (List.map fst differing));
    exit 1
  end;
  print_endline
    "shape check: every mix produces identical output; each swapped-in RTL\n\
     block adds simulation cost (the cosim price of detail)."

(* ---------------------------------------------------------------------- *)
(* C5O: observability overhead — spans/metrics/coverage must be cheap      *)
(* ---------------------------------------------------------------------- *)

let c5o () =
  header "C5O" "observability overhead (spans + metrics + coverage)"
    "instrumentation must cost ~nothing when the sinks are off and stay \
     under 5% with them on";
  (* The C3-style workload, which crosses every instrumented layer: a
     shared-session per-block SEC sweep (sat.solve spans, solver counter
     deltas, sec.frame histograms) plus a constrained-random cosimulation
     (Sim.cycle counters, SLM kernel deltas, stimulus covergroups). *)
  let workload () =
    let chain = Image_chain.make () in
    let session = Dfv_sec.Session.create ?budget:!budget_opt () in
    List.iter
      (fun b ->
        ignore
          (Checker.check_slm_rtl ?budget:!budget_opt ~session
             ~slm:(Image_chain.block_slm chain b)
             ~rtl:(Image_chain.block_rtl chain b)
             ~spec:(Image_chain.block_spec b) ()))
      Image_chain.all_blocks;
    let t = Alu.make ~width:8 () in
    let pair =
      Dfv_core.Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl
        ~spec:t.Alu.spec
    in
    ignore (Dfv_core.Flow.simulate ~seed:5 ~vectors:400 pair)
  in
  let time_min f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = now () in
      f ();
      best := min !best (now () -. t0)
    done;
    !best
  in
  workload () (* warm-up so neither configuration pays first-run costs *);
  Dfv_obs.Trace.disable ();
  Dfv_obs.Coverage.disable ();
  let t_off = time_min workload in
  Dfv_obs.Trace.enable ();
  Dfv_obs.Coverage.enable ();
  let t_on = time_min workload in
  let span_events = List.length (Dfv_obs.Trace.events ()) in
  Dfv_obs.Trace.disable ();
  Dfv_obs.Coverage.disable ();
  Printf.printf
    "  sinks off: %.3fs   sinks on: %.3fs (%d span events)   overhead %+.1f%%\n"
    t_off t_on span_events
    (100.0 *. (t_on -. t_off) /. t_off);
  (* The acceptance gate: <5% with sinks on (the additive slack absorbs
     timer noise on sub-second runs).  The sinks-off run shares the run
     with the seed's uninstrumented behaviour by construction: every
     span/coverage entry point is a branch-and-return when disabled. *)
  if t_on > (t_off *. 1.05) +. 0.05 then begin
    Printf.printf
      "REGRESSION: instrumented run (%.3fs) exceeds 5%% overhead over the \
       uninstrumented baseline (%.3fs)\n"
      t_on t_off;
    exit 1
  end;
  print_endline
    "shape check: the instrumented run records every span event yet stays\n\
     within noise of the sinks-off baseline; disabled sinks reduce every\n\
     instrumentation site to a branch.";
  (* --- pooled shipping: parity and overhead across --jobs -------------- *)
  (* The domains pool hands each job's metric/trace/coverage deltas to
     the calling domain, which merges them.  Three gates: (1) on a
     multicore host a --jobs 4 campaign's merged trace carries spans
     from at least 2 distinct worker lanes (one core runs every job on
     the caller, with no lanes to count); (2) its merged metrics and
     coverage snapshots equal the --jobs 1 run's byte for byte once
     duration-valued fields and the counters that describe the pool's
     shape (jobs shipped, jobs stolen) are stripped; (3) shipping keeps
     the pooled instrumented run inside the same 5% envelope. *)
  let campaign jobs =
    let t = Alu.make ~width:8 () in
    let pair =
      Dfv_core.Pair.create ~name:"alu" ~slm:t.Alu.slm ~rtl:t.Alu.rtl
        ~spec:t.Alu.spec
    in
    ignore
      (Dfv_fault.Campaign.run ?budget:!budget_opt ~seed:0 ~jobs ~pool:true
         ~max_rtl_faults:8 ~max_slm_faults:4
         (Dfv_fault.Campaign.Sec_pair pair))
  in
  let executor_shape = [ "pool.telemetry.shipped"; "pool.domains.steals" ] in
  let strip_shape = function
    | Dfv_obs.Json.Obj fields ->
      Dfv_obs.Json.Obj
        (List.map
           (function
             | "counters", Dfv_obs.Json.Obj cs ->
               ( "counters",
                 Dfv_obs.Json.Obj
                   (List.filter
                      (fun (name, _) -> not (List.mem name executor_shape))
                      cs) )
             | f -> f)
           fields)
    | j -> j
  in
  let snapshots jobs =
    Dfv_obs.Metrics.reset ();
    Dfv_obs.Trace.enable ();
    Dfv_obs.Coverage.enable ();
    Dfv_obs.Coverage.reset ();
    campaign jobs;
    let m =
      strip_shape (Dfv_obs.Metrics.strip_timing (Dfv_obs.Metrics.snapshot ()))
    in
    let c = Dfv_obs.Coverage.snapshot () in
    let trace = Dfv_obs.Trace.to_json () in
    Dfv_obs.Trace.disable ();
    Dfv_obs.Coverage.disable ();
    (Dfv_obs.Json.to_string m, Dfv_obs.Json.to_string c, trace)
  in
  let m1, c1, _ = snapshots 1 in
  let m4, c4, trace4 = snapshots 4 in
  (* A worker lane is a trace pid other than the process's own: the
     merge files each job's spans under its worker domain's id. *)
  let worker_lanes =
    match Dfv_obs.Json.field "traceEvents" trace4 with
    | Some (Dfv_obs.Json.List evs) ->
      let self = Unix.getpid () in
      List.sort_uniq compare
        (List.filter_map
           (fun e ->
             match Dfv_obs.Json.field "pid" e with
             | Some (Dfv_obs.Json.Int p) when p <> self -> Some p
             | _ -> None)
           evs)
    | _ -> []
  in
  Printf.printf
    "  pooled --jobs 4: %d worker lane(s) in the merged trace; metrics \
     parity %s; coverage parity %s\n"
    (List.length worker_lanes)
    (if m1 = m4 then "ok" else "BROKEN")
    (if c1 = c4 then "ok" else "BROKEN");
  if Dfv_par.Pool.cores () = 1 then
    print_endline
      "  worker lane count skipped (1 core: every job runs on the caller)"
  else if List.length worker_lanes < 2 then begin
    Printf.printf
      "REGRESSION: merged --jobs 4 trace has spans from %d worker \
       lane(s) (gate: >= 2)\n"
      (List.length worker_lanes);
    exit 1
  end;
  if m1 <> m4 then begin
    Printf.printf
      "REGRESSION: merged --jobs 4 metrics snapshot differs from the \
       --jobs 1 run's (timing fields excluded)\n\
      \  jobs=1: %s\n\
      \  jobs=4: %s\n"
      m1 m4;
    exit 1
  end;
  if c1 <> c4 then begin
    Printf.printf
      "REGRESSION: merged --jobs 4 coverage snapshot differs from the \
       --jobs 1 run's\n";
    exit 1
  end;
  let time_pooled sinks =
    let best = ref infinity in
    for _ = 1 to 3 do
      if sinks then begin
        Dfv_obs.Trace.enable ();
        Dfv_obs.Coverage.enable ()
      end;
      let t0 = now () in
      campaign 4;
      best := min !best (now () -. t0);
      Dfv_obs.Trace.disable ();
      Dfv_obs.Coverage.disable ()
    done;
    !best
  in
  let tp_off = time_pooled false in
  let tp_on = time_pooled true in
  Printf.printf
    "  pooled sinks off: %.3fs   sinks on (shipping): %.3fs   overhead \
     %+.1f%%\n"
    tp_off tp_on
    (100.0 *. (tp_on -. tp_off) /. tp_off);
  if tp_on > (tp_off *. 1.05) +. 0.05 then begin
    Printf.printf
      "REGRESSION: pooled instrumented run (%.3fs) exceeds 5%% overhead \
       over the pooled uninstrumented baseline (%.3fs)\n"
      tp_on tp_off;
    exit 1
  end;
  print_endline
    "shape check: worker telemetry merges into one multi-lane timeline, the\n\
     sharded snapshots reproduce the sequential run's, and shipping the\n\
     deltas costs no more than the sinks themselves."

(* ---------------------------------------------------------------------- *)
(* SIMT: compiled vs interpreted RTL simulation throughput                 *)
(* ---------------------------------------------------------------------- *)

(* Regression gate for the compiled engine (ISSUE 4): compiled must stay
   >= 5x the interpreter on FIR, or the bench job fails.  The measured
   target of the PR itself is >= 10x on FIR and memsys. *)
let sim_throughput_min_ratio = 5.0

let sim_throughput () =
  header "SIMT" "RTL simulation throughput: compiled kernel vs interpreter"
    "compiled-code simulation is the standard answer to interpreter-bound \
     RTL rungs (Strauch, AOC C-models)";
  (* Stimulus is precomputed per port (a 256-entry random table) so both
     engines pay the same negligible driver cost. *)
  let make_inputs st (design : Netlist.elaborated) =
    let table =
      List.map
        (fun p ->
          ( p.Netlist.port_name,
            Array.init 256 (fun _ ->
                Bitvec.random st ~width:p.Netlist.port_width) ))
        design.Netlist.e_inputs
    in
    fun i -> List.map (fun (name, arr) -> (name, arr.(i land 255))) table
  in
  let throughput design inputs ~cycles engine =
    let sim = Sim.create ~engine design in
    let t0 = now () in
    for i = 0 to cycles - 1 do
      ignore (Sim.cycle sim (inputs i))
    done;
    float_of_int cycles /. (now () -. t0)
  in
  let st = Random.State.make [| 13 |] in
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let designs =
    [ ("fir", fir.Fir.rtl, 400_000, 20_000);
      (* "memsys" is the cached memory system — the design C7/C8/F2
         actually drive; the fixed-latency pipe is kept as context (it
         has almost no combinational logic, so the compiled engine's
         advantage is smallest there). *)
      ("memsys", Memsys.rtl_cached Memsys.default_config, 100_000, 5_000);
      ("memsys_simple", Memsys.rtl_simple Memsys.default_config, 100_000, 10_000) ]
  in
  Printf.printf "  %-16s %16s %16s %10s\n" "design" "compiled cyc/s"
    "interp cyc/s" "speedup";
  let rows =
    List.map
      (fun (name, design, n_compiled, n_interp) ->
        let inputs = make_inputs st design in
        (* Warm both engines once so neither pays first-touch costs. *)
        ignore (throughput design inputs ~cycles:100 `Compiled);
        ignore (throughput design inputs ~cycles:100 `Interp);
        let compiled = throughput design inputs ~cycles:n_compiled `Compiled in
        let interp = throughput design inputs ~cycles:n_interp `Interp in
        let ratio = compiled /. interp in
        Printf.printf "  %-16s %16.0f %16.0f %9.1fx\n%!" name compiled interp
          ratio;
        (name, compiled, interp, ratio))
      designs
  in
  let open Dfv_obs.Json in
  write_bench "sim_throughput"
    [ ("min_ratio_gate", Float sim_throughput_min_ratio);
      ( "designs",
        List
          (List.map
             (fun (name, compiled, interp, ratio) ->
               Obj
                 [ ("design", String name);
                   ("compiled_cycles_per_s", Float compiled);
                   ("interp_cycles_per_s", Float interp);
                   ("speedup", Float ratio) ])
             rows) ) ];
  let _, _, _, fir_ratio = List.hd rows in
  if fir_ratio < sim_throughput_min_ratio then begin
    Printf.printf
      "REGRESSION: compiled engine is only %.1fx the interpreter on FIR \
       (gate: >= %.0fx)\n"
      fir_ratio sim_throughput_min_ratio;
    exit 1
  end;
  Printf.printf
    "shape check: the compiled kernel clears the %.0fx gate on FIR and the\n\
     speedup holds across the memory-system designs.\n"
    sim_throughput_min_ratio

(* ---------------------------------------------------------------------- *)
(* SERVE_CACHE: the dfv serve daemon answers repeats from cache            *)
(* ---------------------------------------------------------------------- *)

(* Acceptance gate for the serve daemon (ISSUE 10): a repeated SEC
   request answered from the content-addressed cache must come back at
   least 10x faster than the cold solve, with a byte-identical verdict
   (timing fields excluded — they record the original solve). *)
let serve_cache_min_ratio = 10.0

let serve_cache () =
  header "SERVE_CACHE" "dfv serve: cached SEC requests vs the cold solve"
    "a verification service keyed on structural fingerprints answers \
     repeated questions from cache at interactive latency";
  let module Protocol = Dfv_serve.Protocol in
  let module Server = Dfv_serve.Server in
  let module Client = Dfv_serve.Client in
  let module Portfolio = Dfv_par.Portfolio in
  let chain = Image_chain.make () in
  let pair =
    Dfv_core.Pair.create ~name:"chain" ~slm:chain.Image_chain.slm
      ~rtl:chain.Image_chain.rtl_top ~spec:chain.Image_chain.chain_spec
  in
  (* Cold baseline: the single-shot CLI path, one full solve. *)
  let t0 = now () in
  let cold_verdict = Dfv_core.Flow.sec ?budget:!budget_opt pair in
  let cold_s = now () -. t0 in
  let cold_wire = Portfolio.slm_wire_of_verdict cold_verdict in
  Printf.printf "  cold solve (single-shot CLI path): %.3fs\n%!" cold_s;
  (* The daemon, forked on a private socket.  This experiment forks, so
     it must not follow a domains-spawning experiment (par_speedup) in
     the same invocation — both are off the default list and CI runs
     them as separate processes. *)
  let dir = Filename.temp_file "dfv_bench_serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let resolve ~design ~bug =
    if design = "chain" && bug = "none" then Ok pair
    else Error (Printf.sprintf "unknown %s/%s" design bug)
  in
  let pid =
    match Unix.fork () with
    | 0 ->
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 devnull Unix.stdout;
      Unix.dup2 devnull Unix.stderr;
      Unix.close devnull;
      Dfv_par.Pool.reset_stop ();
      let cfg =
        { (Server.default_config ~socket) with Server.capacity = 16; jobs = 2 }
      in
      let code = try Server.run ~resolve cfg with _ -> 3 in
      Unix._exit code
    | pid -> pid
  in
  let c =
    match Client.connect ~retries:100 ~delay:0.05 socket with
    | Ok c -> c
    | Error m -> failwith ("serve_cache connect: " ^ m)
  in
  let op =
    Protocol.Sec
      { design = "chain"; bug = "none"; budget = !budget_opt }
  in
  let call () =
    let t0 = now () in
    match Client.call c op with
    | Ok r -> (r, now () -. t0)
    | Error m -> failwith ("serve_cache call: " ^ m)
  in
  (* First request: a miss — the daemon pays one solve. *)
  let first, first_s = call () in
  if first.Protocol.cached then failwith "first request must be a cache miss";
  Printf.printf "  first request (daemon miss + solve): %.3fs round-trip\n%!"
    first_s;
  (* Repeats: every one must be a hit; the mean round-trip is the
     latency a client actually sees. *)
  let n = 20 in
  let times =
    List.init n (fun _ ->
        let r, dt = call () in
        if not r.Protocol.cached then failwith "repeat was not served from cache";
        dt)
  in
  let mean_s = List.fold_left ( +. ) 0.0 times /. float_of_int n in
  let min_s = List.fold_left min infinity times in
  let speedup = cold_s /. mean_s in
  Printf.printf
    "  %d cached repeats: mean %.4fs, min %.4fs round-trip   speedup %.0fx \
     vs cold\n%!"
    n mean_s min_s speedup;
  (* Verdict parity: the served payload must equal the cold solve's wire
     form byte for byte once the timing fields (which record the
     original solve) are zeroed. *)
  let strip_stats s =
    { s with Checker.frame_seconds = []; wall_seconds = 0.0 }
  in
  let strip = function
    | Portfolio.W_equivalent s -> Portfolio.W_equivalent (strip_stats s)
    | Portfolio.W_not_equivalent (p, s) ->
      Portfolio.W_not_equivalent (p, strip_stats s)
    | Portfolio.W_unknown (r, s) -> Portfolio.W_unknown (r, strip_stats s)
  in
  let served_wire =
    match first.Protocol.outcome with
    | Ok (Protocol.R_sec w) -> w
    | Ok _ -> failwith "sec request answered with a non-sec payload"
    | Error e -> failwith ("serve_cache: " ^ Dfv_core.Dfv_error.to_string e)
  in
  let parity =
    Dfv_obs.Json.to_string (Portfolio.slm_wire_to_json (strip cold_wire))
    = Dfv_obs.Json.to_string (Portfolio.slm_wire_to_json (strip served_wire))
  in
  Printf.printf "  verdict parity vs cold solve: %s\n%!"
    (if parity then "byte-identical (timings excluded)" else "MISMATCH");
  (match Client.call c Protocol.Shutdown with
  | Ok _ -> ()
  | Error m -> failwith ("serve_cache shutdown: " ^ m));
  Client.close c;
  let exit_code =
    match snd (Unix.waitpid [] pid) with Unix.WEXITED n -> n | _ -> -1
  in
  let open Dfv_obs.Json in
  write_bench "serve_cache"
    [ ("design", String "chain");
      ("cold_seconds", Float cold_s);
      ("first_request_seconds", Float first_s);
      ("cached_repeats", Int n);
      ("cached_mean_seconds", Float mean_s);
      ("cached_min_seconds", Float min_s);
      ("speedup", Float speedup);
      ("min_ratio_gate", Float serve_cache_min_ratio);
      ("verdict_parity", Bool parity);
      ("daemon_exit", Int exit_code) ];
  if exit_code <> 0 then begin
    Printf.printf "REGRESSION: daemon exited %d after Shutdown (want 0)\n"
      exit_code;
    exit 1
  end;
  if not parity then begin
    print_endline "REGRESSION: served verdict differs from the cold solve";
    exit 1
  end;
  if speedup < serve_cache_min_ratio then begin
    Printf.printf
      "REGRESSION: cached request is only %.1fx the cold solve (gate: >= \
       %.0fx)\n"
      speedup serve_cache_min_ratio;
    exit 1
  end;
  Printf.printf
    "shape check: the daemon spends one solve on the first request and\n\
     answers every repeat from the fingerprint-keyed cache, clearing the\n\
     %.0fx gate with the verdict unchanged.\n"
    serve_cache_min_ratio

(* ---------------------------------------------------------------------- *)

let experiments =
  [ ("f1", f1); ("f2", f2); ("c1", c1); ("c2", c2); ("c3", c3);
    ("c3_incremental_sec", c3); ("c4", c4); ("c4_fault_robustness", c4f);
    ("c5", c5); ("c5_obs_overhead", c5o); ("c6", c6); ("c7", c7); ("c8", c8);
    ("sim_throughput", sim_throughput); ("par_speedup", par_speedup);
    ("journal_overhead", journal_overhead); ("serve_cache", serve_cache) ]

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--budget" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 ->
        budget_opt :=
          Some
            {
              Dfv_sat.Solver.max_conflicts = Some n;
              Dfv_sat.Solver.max_seconds = None;
            }
      | Some _ | None -> Printf.eprintf "bad --budget value %s\n" n);
      parse names rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> jobs_opt := n
      | Some _ | None -> Printf.eprintf "bad --jobs value %s\n" n);
      parse names rest
    | name :: rest -> parse (String.lowercase_ascii name :: names) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] ->
      List.map fst
        (List.remove_assoc "c3_incremental_sec"
           (List.remove_assoc "c4_fault_robustness"
              (List.remove_assoc "c5_obs_overhead"
                 (List.remove_assoc "par_speedup"
                    (List.remove_assoc "serve_cache" experiments)))))
    | names -> names
  in
  let t0 = now () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    requested;
  Printf.printf "\nall experiments done in %.1fs\n" (now () -. t0)
