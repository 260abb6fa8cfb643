module Netlist = Dfv_rtl.Netlist

(* No_sharing forces a purely structural serialization: two values that
   are structurally equal digest identically even when one run shares
   subtrees the other copies.  All serialized types are immutable
   algebraic data (bitvectors included), so the bytes are a stable
   function of structure alone. *)
let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let slm (p : Dfv_hwir.Ast.program) = digest p

let rtl (e : Netlist.elaborated) =
  (* Everything but the derived width oracle (a closure). *)
  digest
    (e.Netlist.e_name, e.Netlist.e_inputs, e.Netlist.e_outputs,
     e.Netlist.e_wires, e.Netlist.e_regs, e.Netlist.e_mems)

let spec (s : Spec.t) =
  (* A drive is a function of the cycle; over the spec's own bounded
     horizon its full behaviour is the value table, which is plain
     data. *)
  let drives =
    List.map
      (fun (port, d) ->
        match d with
        | Spec.Hold bv -> (port, Either.Left bv)
        | Spec.At f ->
          (port, Either.Right (List.init (max s.Spec.rtl_cycles 1) f)))
      s.Spec.drives
  in
  digest (s.Spec.rtl_cycles, drives, s.Spec.checks, s.Spec.constraints)

let pair ~slm:p ~rtl:e ~spec:s = digest (slm p, rtl e, spec s)

let stimulus ~seed ~vectors = digest ("stimulus", seed, vectors)

let combine parts = digest ("combine", parts)
