(* sec-mix: one caller issues SEC queries back to back over the bundled
   pairs.  SAT, AIG, Tseitin encoding and session reuse do nearly all the
   work and simulation almost none, so SEC-engine changes show here and
   should not move sim-ladder. *)

open Dfv_designs
module Checker = Dfv_sec.Checker
module Session = Dfv_sec.Session
module Pair = Dfv_core.Pair
module Flow = Dfv_core.Flow
module H = Harness

let name = "sec-mix"

(* Latency classes.  A round of 50 ops holds 15 A (mostly under 5 ms),
   24 B (15-70 ms), 10 C (0.3-0.4 s) and 1 D (the second-scale fir UNSAT
   proof), so p50 falls in the middle of B and p90 inside C's fir/cstyle
   band, never on a gap between op kinds; D takes about a fifth of the
   wall clock.  Each class is spread evenly through its round. *)
type cls = A | B | C | D

type target =
  | Flow_sec of { t_name : string; pair : Pair.t; eq : bool }
  | Block of { variant : int; block : Image_chain.block }

type variant = { v_name : string; chain : Image_chain.t }

type acc = {
  mutable ops : int;
  mutable eq : int;
  mutable shared : int;
  mutable aig_ands : int;
  mutable encoded : int;
  mutable reused : int;
  mutable frame_s : float;
  mutable wall_s : float;
}

type t = {
  variants : variant array;
  sessions : (int * Session.t * Checker.stats option ref) option array;
      (** per variant: the round that owns it, the session, its last stats *)
  ops : (cls * target) H.rounds;
  mutable acc : acc;
}

let round_len = 50

let build_flows () =
  let pair name slm rtl spec = Pair.create ~name ~slm ~rtl ~spec in
  let alu bug =
    let t = Alu.make ?bug ~width:8 () in
    pair "alu" t.Alu.slm t.Alu.rtl t.Alu.spec
  in
  let conv = Conv_image.make ~kernel:Conv_image.sharpen ~shift:2 () in
  let conv_wrap =
    Conv_image.make ~clamped:false ~kernel:Conv_image.sharpen ~shift:2 ()
  in
  let uart = Uart.make ~baud_div:4 () in
  let fir = Fir.make ~taps:[ 3; -5; 7; 2 ] () in
  let gcd = Gcd.make ~width:4 in
  let chain b =
    let c = Image_chain.make ~buggy:b () in
    pair "chain" c.Image_chain.slm c.Image_chain.rtl_top
      c.Image_chain.chain_spec
  in
  let f cls t_name pair eq = (t_name, (cls, Flow_sec { t_name; pair; eq })) in
  [ f A "alu/none" (alu None) true ]
  @ List.map
      (fun b -> f A ("alu/" ^ Alu.bug_name b) (alu (Some b)) false)
      Alu.all_bugs
  @ [ f A "uart/none" (pair "uart" uart.Uart.slm uart.Uart.rtl uart.Uart.spec)
        true;
      f A "uart/baud"
        (pair "uart" uart.Uart.slm (Uart.make ~baud_div:5 ()).Uart.rtl
           uart.Uart.spec)
        false;
      f B "gcd/none" (pair "gcd" gcd.Gcd.slm gcd.Gcd.rtl gcd.Gcd.spec) true;
      f B "conv/none"
        (pair "conv" conv.Conv_image.slm_window conv.Conv_image.rtl_window
           conv.Conv_image.window_spec)
        true;
      f B "conv/wrap"
        (pair "conv" conv.Conv_image.slm_window
           conv_wrap.Conv_image.rtl_window conv.Conv_image.window_spec)
        false;
      f B "chain/convolution" (chain Image_chain.Convolution) false;
      f C "fir/cstyle"
        (pair "fir" fir.Fir.slm_cstyle fir.Fir.rtl fir.Fir.spec)
        true;
      f C "chain/brightness" (chain Image_chain.Brightness) false;
      f D "fir/none"
        (pair "fir" fir.Fir.slm_exact fir.Fir.rtl fir.Fir.spec)
        true ]

(* How many times each flow target appears in one round. *)
let flow_weights =
  [ ("alu/none", 1); ("alu/unsigned-slt", 1);
    ("alu/truncated-shift-amount", 1); ("alu/missing-carry", 2);
    ("alu/swapped-or-xor", 1); ("uart/none", 1); ("uart/baud", 1);
    ("gcd/none", 5); ("conv/none", 5); ("conv/wrap", 5);
    ("chain/convolution", 4); ("fir/cstyle", 7); ("chain/brightness", 3);
    ("fir/none", 1) ]

let variants () =
  Array.of_list
    (List.map
       (fun b ->
         let v_name =
           match b with None -> "clean" | Some b -> Image_chain.block_name b
         in
         { v_name; chain = Image_chain.make ?buggy:b () })
       [ None; Some Image_chain.Brightness; Some Image_chain.Convolution;
         Some Image_chain.Threshold ])

let block_cls v block =
  match block with
  | Image_chain.Convolution -> B
  | Image_chain.Threshold when v.chain.Image_chain.buggy = Some block -> B
  | Image_chain.Brightness | Image_chain.Threshold -> A

(* Stratified placement: the k-th of n ops of a class lands at
   (k + u) / n of the round, u uniform, so every stretch of the sequence
   holds each class in its round proportion. *)
let make_round ~seed ~flows ~variants r =
  let st = Random.State.make [| seed; r; 0x5ec |] in
  let ops =
    List.concat_map
      (fun (n, w) -> List.init w (fun _ -> List.assoc n flows))
      flow_weights
    @ List.concat
        (List.init (Array.length variants) (fun variant ->
             List.map
               (fun block ->
                 (block_cls variants.(variant) block, Block { variant; block }))
               Image_chain.all_blocks))
  in
  assert (List.length ops = round_len);
  let placed =
    List.concat_map
      (fun c ->
        let members = H.shuffle st (List.filter (fun (c', _) -> c' = c) ops) in
        let n = float_of_int (Array.length members) in
        Array.to_list
          (Array.mapi
             (fun k op ->
               ((float_of_int k +. Random.State.float st 1.0) /. n, op))
             members))
      [ A; B; C; D ]
  in
  let seq =
    Array.of_list
      (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) placed))
  in
  (* A block's solve time depends on what its session already holds, so
     each variant's blocks take its slots in pipeline order, and every
     round holds the same op latencies whatever the seed. *)
  Array.iteri
    (fun variant v ->
      let blocks = ref Image_chain.all_blocks in
      Array.iteri
        (fun k (_, target) ->
          match (target, !blocks) with
          | Block b, block :: rest when b.variant = variant ->
            seq.(k) <- (block_cls v block, Block { variant; block });
            blocks := rest
          | _ -> ())
        seq)
    variants;
  seq

let verdict_eq = function Checker.Equivalent _ -> true | _ -> false

(* The transcript outcome: the verdict kind, and for NEQ whether the
   counterexample, re-simulated from its parameters alone, fails a check.
   It runs after the timed window. *)
let outcome ~slm ~rtl ~spec = function
  | Checker.Equivalent _ -> "EQ"
  | Checker.Not_equivalent (cex, _) ->
    let re = Checker.cex_of_params ~slm ~rtl ~spec cex.Checker.params in
    if re.Checker.failed_checks <> [] then "NEQ resim-fails-check"
    else "NEQ resim-passes"
  | Checker.Unknown _ -> "UNKNOWN"

let expected eq = if eq then "EQ" else "NEQ resim-fails-check"

(* Accumulate a verdict's stats; a shared session's are cumulative, so
   [prev] (its stats after the previous query) is subtracted. *)
let note_stats t ~shared ~prev (s : Checker.stats) =
  let a = t.acc in
  let sum = List.fold_left ( +. ) 0.0 in
  let ands, enc, reu, frames =
    match prev with
    | None -> (0, 0, 0, 0.0)
    | Some (p : Checker.stats) ->
      ( p.Checker.aig_ands,
        p.Checker.nodes_encoded,
        p.Checker.nodes_reused,
        sum p.Checker.frame_seconds )
  in
  a.aig_ands <- a.aig_ands + s.Checker.aig_ands - ands;
  a.encoded <- a.encoded + s.Checker.nodes_encoded - enc;
  a.reused <- a.reused + s.Checker.nodes_reused - reu;
  a.frame_s <- a.frame_s +. sum s.Checker.frame_seconds -. frames;
  a.wall_s <- a.wall_s +. s.Checker.wall_seconds;
  if shared then a.shared <- a.shared + 1

let stats_of = function
  | Checker.Equivalent s
  | Checker.Not_equivalent (_, s)
  | Checker.Unknown (_, s) ->
    s

let run_op t i =
  let a = t.acc in
  a.ops <- a.ops + 1;
  match snd (H.op_at t.ops i) with
  | Flow_sec { t_name; pair; eq } ->
    let v, lat =
      H.timed (fun () ->
          H.span ~cat:"core" ~op:i "pb.core.flow_sec" (fun () -> Flow.sec pair))
    in
    note_stats t ~shared:false ~prev:None (stats_of v);
    if verdict_eq v then a.eq <- a.eq + 1;
    H.record ~idx:i ~lat ~label:("flow-sec " ^ t_name) (fun () ->
        let out =
          outcome ~slm:pair.Pair.slm ~rtl:pair.Pair.rtl ~spec:pair.Pair.spec v
        in
        (out, out = expected eq))
  | Block { variant; block } ->
    (* The blocks of one variant share a session for one round. *)
    let r = i / round_len in
    let session, last =
      match t.sessions.(variant) with
      | Some (r', s, last) when r' = r -> (s, last)
      | _ ->
        let s = Session.create () and last = ref None in
        t.sessions.(variant) <- Some (r, s, last);
        (s, last)
    in
    let v = t.variants.(variant) in
    let slm = Image_chain.block_slm v.chain block
    and rtl = Image_chain.block_rtl v.chain block
    and spec = Image_chain.block_spec block in
    let verdict, lat =
      H.timed (fun () ->
          H.span ~cat:"sec" ~op:i "pb.sec.check" (fun () ->
              Checker.check_slm_rtl ~session ~slm ~rtl ~spec ()))
    in
    let s = stats_of verdict in
    note_stats t ~shared:(!last <> None) ~prev:!last s;
    last := Some s;
    if verdict_eq verdict then a.eq <- a.eq + 1;
    let eq = v.chain.Image_chain.buggy <> Some block in
    let label =
      Printf.sprintf "block %s@%s" (Image_chain.block_name block) v.v_name
    in
    H.record ~idx:i ~lat ~label (fun () ->
        let out = outcome ~slm ~rtl ~spec verdict in
        (out, out = expected eq))

let fresh_acc () =
  {
    ops = 0;
    eq = 0;
    shared = 0;
    aig_ands = 0;
    encoded = 0;
    reused = 0;
    frame_s = 0.0;
    wall_s = 0.0;
  }

let setup ctx =
  let flows = build_flows () in
  (* Building and auditing the pairs is part of set-up. *)
  List.iter
    (fun (_, (_, target)) ->
      match target with
      | Flow_sec { pair; _ } -> ignore (Pair.audit pair)
      | Block _ -> ())
    flows;
  let variants = variants () in
  (* One warm-up op of each latency class and one pass over the blocks,
     outside the op sequence. *)
  List.iter
    (fun cls ->
      match List.find (fun (_, (c, _)) -> c = cls) flows with
      | _, (_, Flow_sec { pair; _ }) -> ignore (Flow.sec pair)
      | _, (_, Block _) -> ())
    (if ctx.H.smoke then [ A ] else [ A; B; C; D ]);
  let session = Session.create () and c = variants.(0).chain in
  List.iter
    (fun b ->
      ignore
        (Checker.check_slm_rtl ~session ~slm:(Image_chain.block_slm c b)
           ~rtl:(Image_chain.block_rtl c b) ~spec:(Image_chain.block_spec b)
           ()))
    Image_chain.all_blocks;
  {
    variants;
    sessions = Array.make (Array.length variants) None;
    ops =
      H.rounds ~len:round_len (make_round ~seed:ctx.H.seed ~flows ~variants);
    acc = fresh_acc ();
  }

let reset_layer t = t.acc <- fresh_acc ()
let frac n d = H.ratio (float_of_int n) (float_of_int d)

let layer t =
  let a = t.acc in
  [ ("aig.ands", float_of_int a.aig_ands);
    ("sec.nodes_encoded", float_of_int a.encoded);
    ("sec.nodes_reused", float_of_int a.reused);
    ("sec.reuse_frac", frac a.reused (a.encoded + a.reused));
    ("sec.solve_frac", H.ratio a.frame_s a.wall_s);
    ("sec.eq_frac", frac a.eq a.ops);
    ("sec.shared_session_frac", frac a.shared a.ops) ]

(* Ops per phase of a traced run: whole rounds, about [seconds / 2] of
   work on a 2-core x86 host. *)
let trace_ops ~seconds =
  round_len * max 1 (int_of_float (Float.round (seconds /. 11.0)))

let golden_ops = 6 * round_len
