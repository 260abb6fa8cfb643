module Bitvec = Dfv_bitvec.Bitvec
module Interp = Dfv_hwir.Interp

type drive = Hold of Bitvec.t | At of (int -> source)

and source =
  | Const of Bitvec.t
  | Param of string
  | Param_elem of string * int
  | Param_bits of { name : string; hi : int; lo : int }

type observe = Result | Result_elem of int

type check = { rtl_port : string; at_cycle : int; expect : observe }

type t = {
  rtl_cycles : int;
  drives : (string * drive) list;
  checks : check list;
  constraints : Dfv_hwir.Ast.expr list;
}

let stream_in ~param ~count ?(start = 0) ?(stride = 1) () =
  if count < 1 then invalid_arg "Spec.stream_in: count must be >= 1";
  At
    (fun cycle ->
      let i =
        if cycle < start then 0
        else begin
          let k = (cycle - start) / stride in
          min k (count - 1)
        end
      in
      Param_elem (param, i))

let stream_out ~rtl_port ~count ?(start = 0) ?(stride = 1) () =
  List.init count (fun i ->
      { rtl_port; at_cycle = start + (i * stride); expect = Result_elem i })

let source_value params (src : source) =
  match src with
  | Const bv -> bv
  | Param name -> (
    match List.assoc name params with
    | Interp.Vint bv -> bv
    | Interp.Varr _ -> failwith "Flow: array param used as scalar")
  | Param_elem (name, i) -> (
    match List.assoc name params with
    | Interp.Varr a -> a.(i)
    | Interp.Vint _ -> failwith "Flow: scalar param indexed")
  | Param_bits { name; hi; lo } -> (
    match List.assoc name params with
    | Interp.Vint bv -> Bitvec.select bv ~hi ~lo
    | Interp.Varr _ -> failwith "Flow: array param sliced")

let inputs_at spec params t =
  List.map
    (fun (port, drive) ->
      let src = match drive with Hold bv -> Const bv | At f -> f t in
      (port, source_value params src))
    spec.drives
