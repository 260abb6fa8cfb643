(* sim-ladder: one caller runs seeded-size simulation batches at each rung
   of the C1 abstraction ladder.  lib/kernel, lib/rtl, lib/hwir, lib/slm
   and lib/cosim do all the work and there is no SAT, so simulator
   changes show here and should not move sec-mix.  The SLM-only,
   RTL-only and mixed rungs use the same kernel in different ways. *)

open Dfv_designs
module Bitvec = Dfv_bitvec.Bitvec
module Sim = Dfv_rtl.Sim
module Kernel = Dfv_slm.Kernel
module Clock = Dfv_slm.Clock
module Fifo = Dfv_slm.Fifo
module Stream = Dfv_cosim.Stream
module Txn_engine = Dfv_cosim.Txn_engine
module Scoreboard = Dfv_cosim.Scoreboard
module Metrics = Dfv_obs.Metrics
module Pair = Dfv_core.Pair
module Flow = Dfv_core.Flow
module H = Harness

let name = "sim-ladder"

(* Nominal batch sizes, in three bands holding 2, 7 and 2 of the 11
   rungs, about 6, 11 and 26 ms each on a 2-core x86 host at its faster
   speed: the event-kernel and RTL rungs; the HWIR, memsys transactor and
   five Flow.simulate rungs; the two stream rungs.  p50 then falls in the
   middle of the second band and p90 in the middle of the third, the one
   stream changes move. *)
let hwir_windows = 15_000
let kernel_samples = 4_800
let rtl_samples = 8_000
let txn_requests = 1_700
let stream_pixels_rr = 25_600
let stream_pixels_sr = 40_000

(* Design, vectors per Flow.simulate batch, and the bugged pair simulated
   after it with the same seed.  The bugged pair's first mismatching
   vector is fixed by the seed and goes to the transcript, so a simulator
   that stopped comparing SLM and RTL outputs fails the check. *)
let sim_targets =
  [ ("alu", 750, "alu/missing-carry"); ("gcd", 860, "alu/swapped-or-xor");
    ("conv", 510, "conv/wrap"); ("uart", 365, "uart/baud");
    ("fir", 246, "fir/taps") ]

(* At most this many vectors for a bugged pair; all of them find their
   bug within it, so smoke runs keep it too. *)
let bug_vectors = 1000

type rung =
  | Hwir
  | Slm_kernel
  | Rtl
  | Flow_sim of string
  | Txn
  | Stream_rtl_rtl
  | Stream_slm_rtl

let rungs =
  [ Hwir; Slm_kernel; Rtl; Txn; Stream_rtl_rtl; Stream_slm_rtl ]
  @ List.map (fun (d, _, _) -> Flow_sim d) sim_targets

let round_len = List.length rungs

type t = {
  ctx : H.ctx;
  fir : Fir.t;
  chain : Image_chain.t;
  window : int array -> int;
  pairs : (string * Pair.t) list;
  stages_rr : Stream.stage list;
  stages_sr : Stream.stage list;
  mem_rtl : Dfv_rtl.Netlist.elaborated;
  ops : rung H.rounds;
  mutable rtl_cycles : int;
  mutable rtl_seconds : float;
}

let mem = Memsys.default_config
let scale t n = if t.ctx.H.smoke then max 8 (n / 50) else n

(* The batch size of op [i]: the rung's nominal size times a factor drawn
   uniformly from [0.6, 1.4].  Op latencies then spread over a continuum
   with no gaps, so when the host's speed changes during a run, p50 and
   p90 shift with the mix of fast and slow stretches as ops_per_s does,
   instead of jumping between a fast and a slow copy of one band.  The
   warm-up ops of set-up (negative [i]) run at the largest size, so the
   peak RSS read after set-up does not depend on the sizes the seed
   draws. *)
let size t i nominal =
  let factor =
    if i < 0 then 1.4
    else
      let st = Random.State.make [| t.ctx.H.seed; i; 0x512e |] in
      0.6 +. Random.State.float st 0.8
  in
  scale t (int_of_float (float_of_int nominal *. factor))

let pairs () =
  let pair name slm rtl spec = Pair.create ~name ~slm ~rtl ~spec in
  let alu = Alu.make ~width:8 () in
  let gcd = Gcd.make ~width:4 in
  let conv = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
  let uart = Uart.make ~baud_div:4 () in
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let alu_bug b =
    let t = Alu.make ~bug:b ~width:8 () in
    ("alu/" ^ Alu.bug_name b, pair "alu" alu.Alu.slm t.Alu.rtl alu.Alu.spec)
  in
  [ ("alu", pair "alu" alu.Alu.slm alu.Alu.rtl alu.Alu.spec);
    ("gcd", pair "gcd" gcd.Gcd.slm gcd.Gcd.rtl gcd.Gcd.spec);
    ( "conv",
      pair "conv" conv.Conv_image.slm_window conv.Conv_image.rtl_window
        conv.Conv_image.window_spec );
    ("uart", pair "uart" uart.Uart.slm uart.Uart.rtl uart.Uart.spec);
    ("fir", pair "fir" fir.Fir.slm_exact fir.Fir.rtl fir.Fir.spec);
    alu_bug Alu.Missing_carry; alu_bug Alu.Swapped_or_xor;
    ( "conv/wrap",
      pair "conv" conv.Conv_image.slm_window
        (Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ())
          .Conv_image.rtl_window conv.Conv_image.window_spec );
    ( "uart/baud",
      pair "uart" uart.Uart.slm (Uart.make ~baud_div:5 ()).Uart.rtl
        uart.Uart.spec );
    (* an RTL whose last tap is off by one *)
    ( "fir/taps",
      pair "fir" fir.Fir.slm_exact (Fir.make ~taps:[ 3; -5; 7; 3 ] ()).Fir.rtl
        fir.Fir.spec ) ]

let make_round ~seed r =
  H.shuffle (Random.State.make [| seed; r; 0x1add |]) rungs

(* The event-kernel FIR: one clocked thread consuming a sample per edge. *)
let kernel_fir fir signal =
  let k = Kernel.create () in
  let clk = Clock.create k "clk" ~period:10 in
  let input = Fifo.create k "in" ~capacity:16 in
  let n = Array.length signal in
  let output = Fifo.create k "out" ~capacity:(n + 4) in
  Kernel.thread k ~name:"stimulus" (fun () ->
      Array.iter (fun s -> Fifo.write input s) signal);
  Kernel.thread k ~name:"fir" (fun () ->
      let taps = List.length fir.Fir.taps in
      let window = Array.make taps 0 in
      for _ = 1 to n do
        Clock.wait_posedge clk;
        let s = Fifo.read input in
        Array.blit window 0 window 1 (taps - 1);
        window.(0) <- s;
        Fifo.write output (Fir.golden_exact fir window)
      done);
  Kernel.run ~until:(10 * (n + 4)) k;
  Array.init (Fifo.length output) (fun _ ->
      match Fifo.try_read output with Some v -> v | None -> min_int)

(* Compiled RTL streaming, driven cycle by cycle: the RTL-only rung. *)
let rtl_stream ~op fir signal =
  let sim =
    H.span ~cat:"rtl" ~op "pb.rtl.sim_create" (fun () ->
        Sim.create fir.Fir.rtl)
  in
  H.span ~cat:"rtl" ~op "pb.rtl.stream" @@ fun () ->
  let n = Array.length signal in
  let out = Array.make n min_int in
  let got = ref 0 and fed = ref 0 in
  let one = Bitvec.one 1 and zero = Bitvec.zero 1 in
  let idle = Bitvec.zero fir.Fir.width in
  while !got < n && Sim.cycles_run sim < n + 64 do
    let inputs =
      if !fed < n then
        [ ("din", Bitvec.create ~width:fir.Fir.width signal.(!fed));
          ("vin", one) ]
      else [ ("din", idle); ("vin", zero) ]
    in
    incr fed;
    let o = Sim.cycle sim inputs in
    if Bitvec.to_int (List.assoc "vout" o) = 1 then begin
      out.(!got) <- Bitvec.to_signed_int (List.assoc "dout" o);
      incr got
    end
  done;
  out

(* Reads over a small hot set (so the cache hits, and hits pass misses)
   plus a few writes. *)
let memsys_requests st n =
  let addr () = Random.State.int st (1 lsl mem.Memsys.addr_width) in
  let hot = Array.init 24 (fun _ -> addr ()) in
  List.init n (fun i ->
      let a =
        if Random.State.int st 4 = 0 then addr ()
        else hot.(Random.State.int st (Array.length hot))
      in
      let op =
        if Random.State.int st 5 = 0 then
          Memsys.Write (a, Random.State.int st (1 lsl mem.Memsys.data_width))
        else Memsys.Read a
      in
      { Memsys.req_tag = i mod (1 lsl mem.Memsys.tag_width); op })

(* The transactor run, then the zero-delay SLM's answers through an
   out-of-order scoreboard. *)
let txn t ~op requests =
  let completions, cycles =
    H.span ~cat:"cosim" ~op "pb.cosim.txn" (fun () ->
        Txn_engine.run ~rtl:t.mem_rtl
          ~iface:(Memsys.iface mem ~ready:true)
          ~requests:(Memsys.to_engine_requests mem requests)
          ())
  in
  let sb = Scoreboard.create Scoreboard.Out_of_order in
  List.iteri
    (fun i (tag, data) ->
      Scoreboard.expect sb
        ~tag:(Bitvec.create ~width:mem.Memsys.tag_width tag)
        ~cycle:i
        (Bitvec.create ~width:mem.Memsys.data_width data))
    (Memsys.Slm.execute_all (Memsys.Slm.create mem) requests);
  List.iter
    (fun (cp : Txn_engine.completion) ->
      Scoreboard.observe sb ~tag:cp.Txn_engine.c_tag
        ~cycle:cp.Txn_engine.c_cycle cp.Txn_engine.c_data)
    completions;
  (completions, cycles, Scoreboard.report sb)

let rtl_cycles () = Metrics.counter_value (Metrics.counter "rtl.sim.cycles")

(* The inputs of op [i]: a function of the seed and [i] alone, so the
   oracle can rebuild them after the timed window. *)
let inputs t i = Random.State.make [| t.ctx.H.seed; i; 0x51 |]
let signal st n = Array.init n (fun _ -> Random.State.int st 256)

let fir_windows s n =
  Array.init n (fun k -> [| s.(k + 3); s.(k + 2); s.(k + 1); s.(k) |])

(* The image chain's brightness (add the bias, saturate to 8 bits) then
   threshold, written out natively. *)
let stream_reference t pixels =
  let c = t.chain in
  Array.map
    (fun p ->
      let b = max 0 (min 255 (p + c.Image_chain.bias)) in
      if b >= c.Image_chain.thresh then 255 else 0)
    pixels

let sim_outcome = function
  | Ok (Flow.Sim_clean { vectors }) -> Printf.sprintf "clean %d" vectors
  | Ok (Flow.Sim_mismatch { vector_index; _ }) ->
    Printf.sprintf "mismatch at %d" vector_index
  | Error e -> "error " ^ Dfv_core.Dfv_error.to_string e

(* Each rung's batch runs timed; its oracle runs after the timed window
   from the rebuilt inputs, against native reference models. *)
let run_rung t i rung =
  let st = inputs t i in
  let result label lat finish = H.record ~idx:i ~lat ~label finish in
  (* output digest against the reference's, rebuilt later *)
  let against out reference () = (out, out = H.digest_ints (reference ())) in
  match rung with
  | Hwir ->
    let n = size t i hwir_windows in
    let windows = fir_windows (signal st (n + 3)) n in
    let outs, lat =
      H.timed (fun () ->
          H.span ~cat:"hwir" ~op:i "pb.hwir.window" (fun () ->
              Array.map t.window windows))
    in
    result
      (Printf.sprintf "hwir fir-windows[%d]" n)
      lat
      (against (H.digest_ints outs) (fun () ->
           let windows = fir_windows (signal (inputs t i) (n + 3)) n in
           Array.map (Fir.golden_exact t.fir) windows))
  | Slm_kernel ->
    let n = size t i kernel_samples in
    let outs, lat =
      let s = signal st n in
      H.timed (fun () ->
          H.span ~cat:"slm" ~op:i "pb.slm.run" (fun () -> kernel_fir t.fir s))
    in
    result
      (Printf.sprintf "slm-kernel fir[%d]" n)
      lat
      (against (H.digest_ints outs) (fun () ->
           Fir.filter_signal t.fir (signal (inputs t i) n)))
  | Rtl ->
    let n = size t i rtl_samples in
    let s = signal st n in
    let c0 = rtl_cycles () in
    let outs, lat = H.timed (fun () -> rtl_stream ~op:i t.fir s) in
    t.rtl_cycles <- t.rtl_cycles + rtl_cycles () - c0;
    t.rtl_seconds <- t.rtl_seconds +. lat;
    result
      (Printf.sprintf "rtl fir-stream[%d]" n)
      lat
      (against (H.digest_ints outs) (fun () ->
           Fir.filter_signal t.fir (signal (inputs t i) n)))
  | Flow_sim d ->
    let _, vectors, bug =
      List.find (fun (d', _, _) -> d' = d) sim_targets
    in
    let vectors = size t i vectors in
    let seed = Random.State.bits st in
    let sim p vectors = Flow.simulate ~seed ~vectors (List.assoc p t.pairs) in
    let (clean, bugged), lat =
      H.timed (fun () ->
          H.span ~cat:"core" ~op:i "pb.core.flow_simulate" (fun () ->
              let clean = sim d vectors in
              (clean, sim bug bug_vectors)))
    in
    result
      (Printf.sprintf "flow-sim %s+%s[%d]" d bug vectors)
      lat
      (fun () ->
        let c = sim_outcome clean in
        ( Printf.sprintf "%s; %s %s" c bug (sim_outcome bugged),
          c = Printf.sprintf "clean %d" vectors
          &&
          match bugged with
          | Ok (Flow.Sim_mismatch { failed_checks; _ }) -> failed_checks <> []
          | _ -> false ))
  | Txn ->
    let n = size t i txn_requests in
    let requests = memsys_requests st n in
    let (completions, cycles, report), lat =
      H.timed (fun () -> txn t ~op:i requests)
    in
    (* Cycle-accurate: the completion order and cycles are part of the
       output any correct simulator must reproduce. *)
    let trace =
      List.fold_left
        (fun h (cp : Txn_engine.completion) ->
          H.fnv_add
            (H.fnv_add
               (H.fnv_add h cp.Txn_engine.c_cycle)
               (Bitvec.to_int cp.Txn_engine.c_tag))
            (Bitvec.to_int cp.Txn_engine.c_data))
        H.fnv_offset completions
    in
    result
      (Printf.sprintf "txn memsys-cached[%d]" n)
      lat
      (fun () ->
        ( Printf.sprintf "matched %d cycles %d %s" report.Scoreboard.matched
            cycles (H.fnv_hex trace),
          Scoreboard.ok report && report.Scoreboard.matched = n ))
  | (Stream_rtl_rtl | Stream_slm_rtl) as r ->
    let pixels, stages, tag =
      if r = Stream_rtl_rtl then (stream_pixels_rr, t.stages_rr, "rtl|rtl")
      else (stream_pixels_sr, t.stages_sr, "slm|rtl")
    in
    let n = size t i pixels in
    let pixels = Array.map (Bitvec.create ~width:8) (signal st n) in
    let (outs, _), lat =
      H.timed (fun () ->
          H.span ~cat:"cosim" ~op:i "pb.cosim.stream" (fun () ->
              Stream.run_pipeline stages pixels))
    in
    result
      (Printf.sprintf "stream %s[%d]" tag n)
      lat
      (against
         (H.digest_ints (Array.map Bitvec.to_int outs))
         (fun () -> stream_reference t (signal (inputs t i) n)))

let run_op t i = run_rung t i (H.op_at t.ops i)

let setup ctx =
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let chain = Image_chain.make () in
  let rtl_stage name rtl =
    Stream.rtl_stage ~name ~rtl ~in_port:"p" ~out_port:"q" ~latency:0 ()
  in
  let rtl_b = rtl_stage "brightness-rtl" chain.Image_chain.rtl_brightness in
  let rtl_t = rtl_stage "threshold-rtl" chain.Image_chain.rtl_threshold in
  let slm_b = Image_chain.slm_stage chain Image_chain.Brightness in
  let pairs = pairs () in
  List.iter (fun (_, p) -> ignore (Pair.audit p)) pairs;
  let t =
    {
      ctx;
      fir;
      chain;
      (* Compiling the simulators is part of set-up. *)
      window =
        Fir.slm_window_runner ~engine:`Compiled fir.Fir.slm_exact
          ~width:fir.Fir.width;
      pairs;
      stages_rr = [ rtl_b; rtl_t ];
      stages_sr = [ slm_b; rtl_t ];
      mem_rtl = Memsys.rtl_cached mem;
      ops = H.rounds ~len:round_len (make_round ~seed:ctx.H.seed);
      rtl_cycles = 0;
      rtl_seconds = 0.0;
    }
  in
  (* One warm-up op of each rung, outside the op sequence. *)
  List.iteri (fun k r -> ignore (run_rung t (-1 - k) r)) rungs;
  t.rtl_cycles <- 0;
  t.rtl_seconds <- 0.0;
  t

let reset_layer t =
  t.rtl_cycles <- 0;
  t.rtl_seconds <- 0.0

let layer t =
  [ ( "rtl.cycles_per_s",
      if t.rtl_seconds = 0.0 then 0.0
      else float_of_int t.rtl_cycles /. t.rtl_seconds ) ]

(* Ops per phase of a traced run: whole rounds, about [seconds / 2] of
   work on a 2-core x86 host. *)
let trace_ops ~seconds =
  round_len * max 1 (int_of_float (Float.round (seconds *. 1.6)))

let golden_ops = 120 * round_len
