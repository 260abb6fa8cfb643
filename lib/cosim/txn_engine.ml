module Bitvec = Dfv_bitvec.Bitvec
module Netlist = Dfv_rtl.Netlist
module Sim = Dfv_rtl.Sim

type request = { tag : Bitvec.t; payload : (string * Bitvec.t) list }

type completion = { c_cycle : int; c_tag : Bitvec.t; c_data : Bitvec.t }

type interface = {
  idle : (string * Bitvec.t) list;
  issue_valid : string;
  req_tag : string option;
  ready : string option;
  resp_valid : string;
  resp_tag : string;
  resp_data : string;
}

exception Engine_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Engine_error m)) fmt

let run ~rtl ~iface ~requests ?(gap = fun _ -> false) ?max_cycles
    ?(on_cycle = fun _ _ -> ()) () =
  let n = List.length requests in
  let budget = match max_cycles with Some m -> m | None -> (64 * n) + 256 in
  let sim = Sim.create rtl in
  (* A cycle's input vector: [override] first, then every idle value
     whose port it does not drive.  The idle vector and each request's
     issue vector are built once, here, not every cycle. *)
  let with_idle override =
    override
    @ List.filter (fun (p, _) -> not (List.mem_assoc p override)) iface.idle
  in
  let idle_inputs = with_idle [ (iface.issue_valid, Bitvec.of_bool false) ] in
  let issue_inputs r =
    let tag_drive =
      match iface.req_tag with Some port -> [ (port, r.tag) ] | None -> []
    in
    with_idle
      ((iface.issue_valid, Bitvec.of_bool true) :: (tag_drive @ r.payload))
  in
  let pending = ref (List.map issue_inputs requests) in
  let completions = ref [] in
  let ncompleted = ref 0 in
  let cycle = ref 0 in
  (* The ready signal is combinational: we need its value *before*
     committing the cycle.  The two-phase simulator samples outputs
     during [Sim.cycle], so issuing uses a try-then-commit shape: we
     optimistically present the request; if the design reports not-ready
     on that same cycle, the request stays pending (the design, by
     convention, latches only when ready && valid — the standard
     handshake). *)
  while !ncompleted < n && !cycle < budget do
    let issuing, inputs =
      match !pending with
      | issue :: _ when not (gap !cycle) -> (true, issue)
      | _ -> (false, idle_inputs)
    in
    let outs = Sim.cycle sim inputs in
    let accepted =
      issuing
      &&
      match iface.ready with
      | None -> true
      | Some p -> Bitvec.reduce_or (List.assoc p outs)
    in
    if accepted then begin
      match !pending with
      | _ :: rest -> pending := rest
      | [] -> assert false
    end;
    if Bitvec.reduce_or (List.assoc iface.resp_valid outs) then begin
      completions :=
        {
          c_cycle = !cycle;
          c_tag = List.assoc iface.resp_tag outs;
          c_data = List.assoc iface.resp_data outs;
        }
        :: !completions;
      incr ncompleted
    end;
    on_cycle sim !cycle;
    incr cycle
  done;
  if !ncompleted < n then begin
    let done_tags =
      List.map (fun c -> Bitvec.to_string c.c_tag) !completions
    in
    let missing =
      List.filter
        (fun r -> not (List.mem (Bitvec.to_string r.tag) done_tags))
        requests
    in
    fail "%d of %d requests incomplete after %d cycles (missing tags: %s)"
      (n - !ncompleted) n budget
      (String.concat ", "
         (List.map (fun r -> Bitvec.to_string r.tag) missing))
  end;
  (List.rev !completions, !cycle)
