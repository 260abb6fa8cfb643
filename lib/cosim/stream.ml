module Bitvec = Dfv_bitvec.Bitvec
module Netlist = Dfv_rtl.Netlist
module Sim = Dfv_rtl.Sim

type data = Bitvec.t array

type stage_stats = {
  stage_name : string;
  kind : [ `Slm | `Rtl ];
  cycles : int;
}

exception Stage_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Stage_error m)) fmt

type rtl_config = {
  rtl : Netlist.elaborated;
  in_port : string;
  out_port : string;
  in_valid : string option;
  out_valid : string option;
  latency : int;
  stall : int -> bool;
  max_cycles : int option;
}

type stage =
  | Slm of { name : string; f : data -> data }
  | Rtl of { name : string; config : rtl_config }

let slm_stage ~name f = Slm { name; f }

let hwir_stage ~name ?engine prog =
  let module Exec = Dfv_hwir.Exec in
  let module Interp = Dfv_hwir.Interp in
  let ex =
    match engine with
    | None -> Exec.auto prog
    | Some e -> Exec.create ~engine:e prog
  in
  let f =
    Array.map (fun bv -> Interp.as_int (Exec.run ex [ Interp.Vint bv ]))
  in
  Slm { name; f }

let rtl_stage ~name ~rtl ~in_port ~out_port ?in_valid ?out_valid ?(latency = 1)
    ?(stall = fun _ -> false) ?max_cycles () =
  if latency < 0 then fail "stage %s: negative latency" name;
  let has_input p =
    List.exists (fun q -> q.Netlist.port_name = p) rtl.Netlist.e_inputs
  in
  let has_output p = List.mem_assoc p rtl.Netlist.e_outputs in
  if not (has_input in_port) then fail "stage %s: no input port %s" name in_port;
  if not (has_output out_port) then fail "stage %s: no output port %s" name out_port;
  Option.iter
    (fun p -> if not (has_input p) then fail "stage %s: no input port %s" name p)
    in_valid;
  Option.iter
    (fun p ->
      if not (has_output p) then fail "stage %s: no output port %s" name p)
    out_valid;
  Rtl
    {
      name;
      config =
        { rtl; in_port; out_port; in_valid; out_valid; latency; stall; max_cycles };
    }

let port_width rtl p =
  (List.find (fun q -> q.Netlist.port_name = p) rtl.Netlist.e_inputs)
    .Netlist.port_width

let run_rtl name (c : rtl_config) (input : data) : data * int =
  let n = Array.length input in
  if n = 0 then ([||], 0)
  else begin
    let sim = Sim.create c.rtl in
    let width = port_width c.rtl c.in_port in
    Array.iter
      (fun v ->
        if Bitvec.width v <> width then
          fail "stage %s: element width %d, port %s is %d" name
            (Bitvec.width v) c.in_port width)
      input;
    let budget =
      match c.max_cycles with Some m -> m | None -> (16 * n) + 64
    in
    let valid_bit b =
      match c.in_valid with Some p -> [ (p, Bitvec.of_bool b) ] | None -> []
    in
    let valid_on = valid_bit true and valid_off = valid_bit false in
    let idle = Bitvec.zero width in
    let collected = Array.make n idle in
    let feed_at = Array.make n 0 (* the cycle each element was fed on *) in
    let ncollected = ref 0 in
    let fed = ref 0 in
    let cycle = ref 0 in
    while !ncollected < n && !cycle < budget do
      let feeding = !fed < n && not (c.stall !cycle) in
      let data_in =
        if feeding then input.(!fed)
        else if !fed > 0 then input.(!fed - 1)
        else idle
      in
      let inputs =
        (c.in_port, data_in) :: (if feeding then valid_on else valid_off)
      in
      if feeding then begin
        feed_at.(!fed) <- !cycle;
        incr fed
      end;
      let outs = Sim.cycle sim inputs in
      let valid =
        match c.out_valid with
        | Some p -> Bitvec.reduce_or (List.assoc p outs)
        | None ->
          (* Without a valid signal, assume a fixed latency: element i's
             output appears [latency] cycles after element i was fed.
             Feed cycles increase, so the one due is the oldest
             uncollected element's. *)
          !ncollected < !fed && feed_at.(!ncollected) + c.latency = !cycle
      in
      if valid then begin
        collected.(!ncollected) <- List.assoc c.out_port outs;
        incr ncollected
      end;
      incr cycle
    done;
    if !ncollected < n then
      fail "stage %s: produced %d of %d outputs within %d cycles" name
        !ncollected n budget;
    (collected, !cycle)
  end

let run_stage stage input =
  match stage with
  | Slm { name; f } ->
    (f input, { stage_name = name; kind = `Slm; cycles = 0 })
  | Rtl { name; config } ->
    let out, cycles = run_rtl name config input in
    (out, { stage_name = name; kind = `Rtl; cycles })

let run_pipeline stages input =
  let data = ref input and stats = ref [] in
  List.iter
    (fun stage ->
      let out, st = run_stage stage !data in
      data := out;
      stats := st :: !stats)
    stages;
  (!data, List.rev !stats)
