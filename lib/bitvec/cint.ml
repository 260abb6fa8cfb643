(* C/C++ integer semantics on an LP64 data model.

   Representation: the two's-complement bits live in an [int64], already
   normalized to the static type (sign-extended for signed types,
   zero-extended for unsigned ones, with U64 using all 64 bits). *)

type ctype = I8 | U8 | I16 | U16 | I32 | U32 | I64 | U64

type t = { ty : ctype; bits : int64 }

let ctype_width = function
  | I8 | U8 -> 8
  | I16 | U16 -> 16
  | I32 | U32 -> 32
  | I64 | U64 -> 64

let ctype_signed = function
  | I8 | I16 | I32 | I64 -> true
  | U8 | U16 | U32 | U64 -> false

let rank = function
  | I8 | U8 -> 0
  | I16 | U16 -> 1
  | I32 | U32 -> 2
  | I64 | U64 -> 3

let unsigned_of = function
  | I8 | U8 -> U8
  | I16 | U16 -> U16
  | I32 | U32 -> U32
  | I64 | U64 -> U64

(* Normalize raw bits to the representation invariant of [ty]. *)
let norm ty bits =
  let w = ctype_width ty in
  let bits =
    if w = 64 then bits
    else begin
      let shift = 64 - w in
      if ctype_signed ty then Int64.shift_right (Int64.shift_left bits shift) shift
      else Int64.shift_right_logical (Int64.shift_left bits shift) shift
    end
  in
  { ty; bits }

let make ty v = norm ty (Int64.of_int v)
let ctype t = t.ty
let value_i64 t = t.bits

let value t =
  match t.ty with
  | U64 when Int64.compare t.bits 0L < 0 || Int64.compare t.bits (Int64.of_int max_int) > 0 ->
    failwith "Cint.value: u64 value exceeds OCaml int range"
  | I64 | U64 | I32 | U32 | I16 | U16 | I8 | U8 -> Int64.to_int t.bits

let equal a b = a.ty = b.ty && Int64.equal a.bits b.bits

let type_name = function
  | I8 -> "int8" | U8 -> "uint8" | I16 -> "int16" | U16 -> "uint16"
  | I32 -> "int32" | U32 -> "uint32" | I64 -> "int64" | U64 -> "uint64"

let pp fmt t =
  if t.ty = U64 && Int64.compare t.bits 0L < 0 then
    Format.fprintf fmt "%Lu:%s" t.bits (type_name t.ty)
  else Format.fprintf fmt "%Ld:%s" t.bits (type_name t.ty)

let cast ty t = norm ty t.bits

(* Integer promotion: every type of rank below int promotes to int (all
   their values fit in int, so the promoted type is always signed I32). *)
let promote t = if rank t.ty < rank I32 then cast I32 t else t

let common_type ta tb =
  if ta = tb then ta
  else begin
    let sa = ctype_signed ta and sb = ctype_signed tb in
    if sa = sb then (if rank ta >= rank tb then ta else tb)
    else begin
      let u, s = if sa then (tb, ta) else (ta, tb) in
      if rank u >= rank s then u
        (* LP64: a signed type of strictly greater rank represents every
           value of the lower-rank unsigned type. *)
      else if rank s > rank u then s
      else unsigned_of s
    end
  end

let usual_conversions a b =
  let a = promote a and b = promote b in
  let ty = common_type a.ty b.ty in
  (cast ty a, cast ty b)

(* --- signed-overflow instrumentation ------------------------------- *)

let overflows = ref 0
let reset_overflow_count () = overflows := 0
let overflow_occurred () = !overflows > 0

let record_if_wrapped ty exact_fits =
  if ctype_signed ty && not exact_fits then incr overflows

(* Whether [bits] (a full-width int64 result of the mathematical op on
   int64 inputs, itself possibly wrapped at 64 bits) equals the normalized
   value: detects wrap at widths < 64.  For 64-bit ops we detect wrap
   separately. *)
let fits ty bits = Int64.equal (norm ty bits).bits bits

let add a b =
  let a, b = usual_conversions a b in
  let r = Int64.add a.bits b.bits in
  let wrapped64 =
    (* Signed 64-bit overflow: operands same sign, result different. *)
    ctype_width a.ty = 64
    && Int64.compare (Int64.logxor a.bits b.bits) 0L >= 0
    && Int64.compare (Int64.logxor a.bits r) 0L < 0
  in
  record_if_wrapped a.ty (not wrapped64 && fits a.ty r);
  norm a.ty r

let sub a b =
  let a, b = usual_conversions a b in
  let r = Int64.sub a.bits b.bits in
  let wrapped64 =
    ctype_width a.ty = 64
    && Int64.compare (Int64.logxor a.bits b.bits) 0L < 0
    && Int64.compare (Int64.logxor a.bits r) 0L < 0
  in
  record_if_wrapped a.ty (not wrapped64 && fits a.ty r);
  norm a.ty r

let mul a b =
  let a, b = usual_conversions a b in
  let r = Int64.mul a.bits b.bits in
  let wrapped64 =
    ctype_width a.ty = 64 && ctype_signed a.ty
    && (not (Int64.equal a.bits 0L))
    && not (Int64.equal (Int64.div r a.bits) b.bits)
  in
  record_if_wrapped a.ty (not wrapped64 && fits a.ty r);
  norm a.ty r

let udiv64 a b = Int64.unsigned_div a b
let urem64 a b = Int64.unsigned_rem a b

let div a b =
  let a, b = usual_conversions a b in
  if Int64.equal b.bits 0L then raise Division_by_zero;
  let r =
    if ctype_signed a.ty then Int64.div a.bits b.bits else udiv64 a.bits b.bits
  in
  norm a.ty r

let rem a b =
  let a, b = usual_conversions a b in
  if Int64.equal b.bits 0L then raise Division_by_zero;
  let r =
    if ctype_signed a.ty then Int64.rem a.bits b.bits else urem64 a.bits b.bits
  in
  norm a.ty r

let logand a b =
  let a, b = usual_conversions a b in
  norm a.ty (Int64.logand a.bits b.bits)

let logor a b =
  let a, b = usual_conversions a b in
  norm a.ty (Int64.logor a.bits b.bits)

let logxor a b =
  let a, b = usual_conversions a b in
  norm a.ty (Int64.logxor a.bits b.bits)

let lognot a =
  let a = promote a in
  norm a.ty (Int64.lognot a.bits)

let neg a =
  let a = promote a in
  let r = Int64.neg a.bits in
  record_if_wrapped a.ty (fits a.ty r);
  norm a.ty r

let shift_left a n =
  let a = promote a in
  if n < 0 || n >= ctype_width a.ty then
    invalid_arg "Cint.shift_left: shift amount out of range";
  let r = Int64.shift_left a.bits n in
  record_if_wrapped a.ty (fits a.ty r);
  norm a.ty r

let shift_right a n =
  let a = promote a in
  if n < 0 || n >= ctype_width a.ty then
    invalid_arg "Cint.shift_right: shift amount out of range";
  let r =
    if ctype_signed a.ty then Int64.shift_right a.bits n
    else Int64.shift_right_logical a.bits n
  in
  norm a.ty r

let cmp a b =
  let a, b = usual_conversions a b in
  if ctype_signed a.ty then Int64.compare a.bits b.bits
  else Int64.unsigned_compare a.bits b.bits

let lt a b = cmp a b < 0
let le a b = cmp a b <= 0
let gt a b = cmp a b > 0
let ge a b = cmp a b >= 0
let eq a b = cmp a b = 0

let to_bitvec t =
  let w = ctype_width t.ty in
  if w <= 62 then Bitvec.create ~width:w (Int64.to_int t.bits)
  else begin
    let lo = Bitvec.create ~width:32 (Int64.to_int (Int64.logand t.bits 0xFFFFFFFFL)) in
    let hi =
      Bitvec.create ~width:32 (Int64.to_int (Int64.shift_right_logical t.bits 32))
    in
    Bitvec.concat [ hi; lo ]
  end

let of_bitvec ty bv =
  let w = ctype_width ty in
  let bv = Bitvec.uresize bv w in
  if w <= 62 then make ty (Bitvec.to_int bv)
  else begin
    let lo = Int64.of_int (Bitvec.to_int (Bitvec.select bv ~hi:31 ~lo:0)) in
    let hi = Int64.of_int (Bitvec.to_int (Bitvec.select bv ~hi:63 ~lo:32)) in
    norm ty (Int64.logor (Int64.shift_left hi 32) lo)
  end
