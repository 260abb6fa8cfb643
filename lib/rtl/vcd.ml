module Bitvec = Dfv_bitvec.Bitvec

type t = {
  buf : Buffer.t;
  sim : Sim.t;
  signals : (string * string * int) list; (* name, vcd id, width *)
  last : (string, Bitvec.t) Hashtbl.t;
}

(* VCD identifier codes: printable ASCII 33..126, shortest-first. *)
let id_of_index i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create buf design sim =
  let names = Netlist.signal_names design in
  let signals =
    List.mapi
      (fun i n -> (n, id_of_index i, design.Netlist.e_signal_width n))
      names
  in
  Buffer.add_string buf "$date reproduction run $end\n";
  Buffer.add_string buf "$version dfv rtl simulator $end\n";
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$scope module %s $end\n" design.Netlist.e_name);
  List.iter
    (fun (n, id, w) ->
      Buffer.add_string buf (Printf.sprintf "$var wire %d %s %s $end\n" w id n))
    signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  { buf; sim; signals; last = Hashtbl.create 64 }

let binary_digits bv =
  let w = Bitvec.width bv in
  String.init w (fun i -> if Bitvec.get bv (w - 1 - i) then '1' else '0')

let sample t =
  (* Timestamp follows the documented [cycles_run - 1] convention.  A
     sample taken before the first cycle would land at -1, which is not
     a legal VCD time: clamp it to 0. *)
  let time = max 0 (Sim.cycles_run t.sim - 1) in
  Buffer.add_string t.buf (Printf.sprintf "#%d\n" time);
  List.iter
    (fun (n, id, w) ->
      match Sim.peek t.sim n with
      | v ->
        let changed =
          match Hashtbl.find_opt t.last n with
          | Some prev -> not (Bitvec.equal prev v)
          | None -> true
        in
        if changed then begin
          Hashtbl.replace t.last n v;
          if w = 1 then
            Buffer.add_string t.buf
              (Printf.sprintf "%c%s\n" (if Bitvec.get v 0 then '1' else '0') id)
          else
            Buffer.add_string t.buf
              (Printf.sprintf "b%s %s\n" (binary_digits v) id)
        end
      | exception (Not_found | Invalid_argument _) ->
        (* Signal not yet settled (e.g. before the first cycle). *)
        ())
    t.signals
