(* Arbitrary-width two-state bit-vectors.

   Representation: little-endian array of 32-bit limbs stored in OCaml
   ints.  Invariants: [width >= 1]; [Array.length limbs = (width+31)/32];
   unused high bits of the top limb are zero.  Limb products are computed
   via 16-bit digit splitting so every intermediate fits in a 63-bit
   OCaml int. *)

type t = { width : int; limbs : int array }

exception Width_mismatch of string
exception Invalid_width of int

let limb_bits = 32
let limb_mask = 0xFFFFFFFF

let nlimbs width = (width + limb_bits - 1) / limb_bits

(* Mask of valid bits in the top limb of a [width]-bit vector. *)
let top_mask width =
  let r = width mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

let check_width w = if w < 1 then raise (Invalid_width w)

let normalize width limbs =
  let n = nlimbs width in
  limbs.(n - 1) <- limbs.(n - 1) land top_mask width;
  { width; limbs }

let zero w =
  check_width w;
  { width = w; limbs = Array.make (nlimbs w) 0 }

let ones w =
  check_width w;
  let limbs = Array.make (nlimbs w) limb_mask in
  normalize w limbs

let create ~width v =
  check_width width;
  if width <= limb_bits then
    (* One limb, the common case: the same value as the loop below. *)
    { width; limbs = [| v land top_mask width |] }
  else begin
    let n = nlimbs width in
    let limbs = Array.make n 0 in
    (* Fill from [v]; negative values sign-extend with all-ones limbs. *)
    let fill = if v < 0 then limb_mask else 0 in
    let rec loop i x =
      if i < n then begin
        limbs.(i) <- x land limb_mask;
        (* Arithmetic shift keeps the sign for negative [v]. *)
        loop (i + 1) (x asr limb_bits)
      end
    in
    loop 0 v;
    (* [asr] exhausts to 0 or -1; pad remaining limbs accordingly. *)
    let filled = min n ((Sys.int_size + limb_bits - 1) / limb_bits) in
    for i = filled to n - 1 do
      limbs.(i) <- fill
    done;
    normalize width limbs
  end

let one w = create ~width:w 1
let of_bool b = if b then one 1 else zero 1

let width t = t.width

let get t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bitvec.get: bit %d of %d-bit vector" i t.width);
  t.limbs.(i lsr 5) land (1 lsl (i land 31)) <> 0

let set_bit t i b =
  if i < 0 || i >= t.width then
    invalid_arg
      (Printf.sprintf "Bitvec.set_bit: bit %d of %d-bit vector" i t.width);
  let limbs = Array.copy t.limbs in
  let j = i lsr 5 and m = 1 lsl (i land 31) in
  limbs.(j) <- (if b then limbs.(j) lor m else limbs.(j) land lnot m);
  { t with limbs }

let of_bits a =
  let w = Array.length a in
  check_width w;
  let limbs = Array.make (nlimbs w) 0 in
  for i = 0 to w - 1 do
    if a.(i) then limbs.(i lsr 5) <- limbs.(i lsr 5) lor (1 lsl (i land 31))
  done;
  { width = w; limbs }

let to_bits t = Array.init t.width (fun i -> get t i)

let is_zero t = Array.for_all (fun l -> l = 0) t.limbs

let msb t = get t (t.width - 1)

let popcount t =
  let count_limb l =
    let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
    go 0 l
  in
  Array.fold_left (fun acc l -> acc + count_limb l) 0 t.limbs

let to_int t =
  let n = Array.length t.limbs in
  if n > 2 then begin
    for i = 2 to n - 1 do
      if t.limbs.(i) <> 0 then failwith "Bitvec.to_int: value too wide"
    done
  end;
  let lo = t.limbs.(0) in
  let hi = if n >= 2 then t.limbs.(1) else 0 in
  if hi lsr (Sys.int_size - 1 - limb_bits) <> 0 then
    failwith "Bitvec.to_int: value too wide";
  (hi lsl limb_bits) lor lo

let to_signed_int t =
  if not (msb t) then to_int t
  else begin
    (* Negative: the complement is [-t - 1], which fits an int exactly
       when [t] does, [min_int] included (its magnitude does not). *)
    let inverted = Array.map (fun l -> lnot l land limb_mask) t.limbs in
    try lnot (to_int (normalize t.width inverted))
    with Failure _ -> failwith "Bitvec.to_signed_int: value too wide"
  end

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let equal a b = a.width = b.width && a.limbs = b.limbs

let ucompare a b =
  if a.width <> b.width then raise (Width_mismatch "ucompare");
  let n = Array.length a.limbs in
  let rec go i =
    if i < 0 then 0
    else if a.limbs.(i) <> b.limbs.(i) then compare a.limbs.(i) b.limbs.(i)
    else go (i - 1)
  in
  go (n - 1)

let scompare a b =
  if a.width <> b.width then raise (Width_mismatch "scompare");
  match (msb a, msb b) with
  | true, false -> -1
  | false, true -> 1
  | _ -> ucompare a b

let compare a b =
  if a.width <> b.width then Stdlib.compare a.width b.width else ucompare a b

let ult a b = ucompare a b < 0
let ule a b = ucompare a b <= 0
let uge a b = ucompare a b >= 0
let slt a b = scompare a b < 0
let sle a b = scompare a b <= 0
let sgt a b = scompare a b > 0
let sge a b = scompare a b >= 0

(* ------------------------------------------------------------------ *)
(* Resizing                                                            *)

let uresize t w =
  check_width w;
  if w = t.width then t
  else begin
    let n = nlimbs w in
    let limbs = Array.make n 0 in
    Array.blit t.limbs 0 limbs 0 (min n (Array.length t.limbs));
    normalize w limbs
  end

let sresize t w =
  check_width w;
  if w = t.width then t
  else if w < t.width || not (msb t) then uresize t w
  else begin
    let n = nlimbs w in
    let limbs = Array.make n limb_mask in
    let on = Array.length t.limbs in
    Array.blit t.limbs 0 limbs 0 on;
    (* Extend the sign through the unused bits of the old top limb. *)
    let r = t.width mod limb_bits in
    if r <> 0 then limbs.(on - 1) <- t.limbs.(on - 1) lor (limb_mask lxor top_mask t.width);
    normalize w limbs
  end

(* ------------------------------------------------------------------ *)
(* Bitwise                                                             *)

let map2 name f a b =
  if a.width <> b.width then raise (Width_mismatch name);
  let limbs = Array.init (Array.length a.limbs) (fun i -> f a.limbs.(i) b.limbs.(i)) in
  normalize a.width limbs

let logand a b = map2 "logand" ( land ) a b
let logor a b = map2 "logor" ( lor ) a b
let logxor a b = map2 "logxor" ( lxor ) a b

let lognot a =
  let limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs in
  normalize a.width limbs

let reduce_and t = equal t (ones t.width)
let reduce_or t = not (is_zero t)
let reduce_xor t = popcount t land 1 = 1

let shift_left t n =
  if n < 0 then invalid_arg "Bitvec.shift_left: negative amount";
  if n = 0 then t
  else if n >= t.width then zero t.width
  else begin
    let nl = Array.length t.limbs in
    let limbs = Array.make nl 0 in
    let limb_shift = n lsr 5 and bit_shift = n land 31 in
    for i = nl - 1 downto limb_shift do
      let lo = t.limbs.(i - limb_shift) lsl bit_shift in
      let hi =
        if bit_shift = 0 || i - limb_shift - 1 < 0 then 0
        else t.limbs.(i - limb_shift - 1) lsr (limb_bits - bit_shift)
      in
      limbs.(i) <- (lo lor hi) land limb_mask
    done;
    normalize t.width limbs
  end

let shift_right_logical t n =
  if n < 0 then invalid_arg "Bitvec.shift_right_logical: negative amount";
  if n = 0 then t
  else if n >= t.width then zero t.width
  else begin
    let nl = Array.length t.limbs in
    let limbs = Array.make nl 0 in
    let limb_shift = n lsr 5 and bit_shift = n land 31 in
    for i = 0 to nl - 1 - limb_shift do
      let lo = t.limbs.(i + limb_shift) lsr bit_shift in
      let hi =
        if bit_shift = 0 || i + limb_shift + 1 >= nl then 0
        else (t.limbs.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
      in
      limbs.(i) <- lo lor hi
    done;
    normalize t.width limbs
  end

let shift_right_arith t n =
  if n < 0 then invalid_arg "Bitvec.shift_right_arith: negative amount";
  if not (msb t) then shift_right_logical t n
  else if n >= t.width then ones t.width
  else begin
    let shifted = shift_right_logical t n in
    (* Set the top [n] bits. *)
    let fill = shift_left (ones t.width) (t.width - n) in
    logor shifted fill
  end

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)

let select t ~hi ~lo =
  if lo < 0 || hi < lo || hi >= t.width then
    invalid_arg
      (Printf.sprintf "Bitvec.select: [%d:%d] of %d-bit vector" hi lo t.width);
  uresize (shift_right_logical t lo) (hi - lo + 1)

let concat parts =
  match parts with
  | [] -> invalid_arg "Bitvec.concat: empty list"
  | _ ->
    let w = List.fold_left (fun acc p -> acc + p.width) 0 parts in
    let bits = Array.make w false in
    (* Head is most significant: fill from the top down. *)
    let pos = ref w in
    List.iter
      (fun p ->
        pos := !pos - p.width;
        for i = 0 to p.width - 1 do
          bits.(!pos + i) <- get p i
        done)
      parts;
    of_bits bits

let repeat t n =
  if n < 1 then invalid_arg "Bitvec.repeat: count must be >= 1";
  concat (List.init n (fun _ -> t))

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)

let add a b =
  if a.width <> b.width then raise (Width_mismatch "add");
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize a.width limbs

let neg a = add (lognot a) (one a.width)

let sub a b =
  if a.width <> b.width then raise (Width_mismatch "sub");
  add a (neg b)

let add_carry a b =
  if a.width <> b.width then raise (Width_mismatch "add_carry");
  let w = a.width + 1 in
  add (uresize a w) (uresize b w)

(* 16-bit digit view of the limbs, for overflow-free multiplication. *)
let to_digits t =
  let nl = Array.length t.limbs in
  Array.init (2 * nl) (fun i ->
      let l = t.limbs.(i lsr 1) in
      if i land 1 = 0 then l land 0xFFFF else l lsr 16)

let of_digits width digits =
  let n = nlimbs width in
  let limbs =
    Array.init n (fun i ->
        let lo = if 2 * i < Array.length digits then digits.(2 * i) else 0 in
        let hi = if (2 * i) + 1 < Array.length digits then digits.((2 * i) + 1) else 0 in
        lo lor (hi lsl 16))
  in
  normalize width limbs

let mul_full a b =
  let da = to_digits a and db = to_digits b in
  let na = Array.length da and nb = Array.length db in
  let acc = Array.make (na + nb) 0 in
  for i = 0 to na - 1 do
    if da.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to nb - 1 do
        let p = (da.(i) * db.(j)) + acc.(i + j) + !carry in
        acc.(i + j) <- p land 0xFFFF;
        carry := p lsr 16
      done;
      let k = ref (i + nb) in
      while !carry <> 0 do
        let p = acc.(!k) + !carry in
        acc.(!k) <- p land 0xFFFF;
        carry := p lsr 16;
        incr k
      done
    end
  done;
  of_digits (a.width + b.width) acc

let mul a b =
  if a.width <> b.width then raise (Width_mismatch "mul");
  uresize (mul_full a b) a.width

(* Restoring shift-subtract division: O(width) compares on limb arrays.
   Acceptable for the widths this library is used at (<= a few hundred
   bits). *)
let udivrem a b =
  if a.width <> b.width then raise (Width_mismatch "udiv/urem");
  if is_zero b then raise Division_by_zero;
  let w = a.width in
  let q = ref (zero w) and r = ref (zero w) in
  for i = w - 1 downto 0 do
    r := shift_left !r 1;
    if get a i then r := set_bit !r 0 true;
    if uge !r b then begin
      r := sub !r b;
      q := set_bit !q i true
    end
  done;
  (!q, !r)

let udiv a b = fst (udivrem a b)
let urem a b = snd (udivrem a b)

let abs_s t = if msb t then neg t else t

let sdiv a b =
  if a.width <> b.width then raise (Width_mismatch "sdiv");
  if is_zero b then raise Division_by_zero;
  let q = udiv (abs_s a) (abs_s b) in
  if msb a <> msb b then neg q else q

let srem a b =
  if a.width <> b.width then raise (Width_mismatch "srem");
  if is_zero b then raise Division_by_zero;
  let r = urem (abs_s a) (abs_s b) in
  if msb a then neg r else r

(* ------------------------------------------------------------------ *)
(* Text                                                                *)

let to_string t =
  let ndigits = (t.width + 3) / 4 in
  let buf = Buffer.create (ndigits + 8) in
  Buffer.add_string buf (string_of_int t.width);
  Buffer.add_string buf "'h";
  for d = ndigits - 1 downto 0 do
    let nib = ref 0 in
    for b = 3 downto 0 do
      let i = (d * 4) + b in
      nib := (!nib lsl 1) lor (if i < t.width && get t i then 1 else 0)
    done;
    Buffer.add_char buf "0123456789abcdef".[!nib]
  done;
  Buffer.contents buf

let to_binary_string t =
  let buf = Buffer.create (t.width + 8) in
  Buffer.add_string buf (string_of_int t.width);
  Buffer.add_string buf "'b";
  for i = t.width - 1 downto 0 do
    Buffer.add_char buf (if get t i then '1' else '0')
  done;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

let digit_value base c =
  let v =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad digit %c" c)
  in
  if v >= base then invalid_arg (Printf.sprintf "Bitvec.of_string: bad digit %c" c);
  v

let of_string s =
  match String.index_opt s '\'' with
  | None -> invalid_arg "Bitvec.of_string: missing width separator (')"
  | Some q ->
    let w =
      match int_of_string_opt (String.sub s 0 q) with
      | Some w when w >= 1 -> w
      | _ -> invalid_arg "Bitvec.of_string: bad width"
    in
    if q + 1 >= String.length s then invalid_arg "Bitvec.of_string: missing base";
    let base =
      match Char.lowercase_ascii s.[q + 1] with
      | 'b' -> 2
      | 'o' -> 8
      | 'd' -> 10
      | 'h' -> 16
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad base %c" c)
    in
    let digits = String.sub s (q + 2) (String.length s - q - 2) in
    if digits = "" then invalid_arg "Bitvec.of_string: missing digits";
    (* Accumulate digit-by-digit at width w+4 so an overflowing literal is
       detected rather than silently truncated. *)
    let acc_w = w + 5 in
    let base_v = create ~width:acc_w base in
    let acc = ref (zero acc_w) in
    String.iter
      (fun c ->
        if c <> '_' then begin
          let d = digit_value base c in
          acc := add (mul !acc base_v) (create ~width:acc_w d)
        end)
      digits;
    if not (is_zero (shift_right_logical !acc w)) then
      invalid_arg (Printf.sprintf "Bitvec.of_string: %s does not fit in %d bits" s w);
    uresize !acc w

let random st ~width =
  check_width width;
  let random_limb () =
    (* Random.State.bits yields 30 bits; compose two draws into 32. *)
    (Random.State.bits st land 0xFFFF)
    lor ((Random.State.bits st land 0xFFFF) lsl 16)
  in
  let limbs = Array.init (nlimbs width) (fun _ -> random_limb ()) in
  normalize width limbs

(* ------------------------------------------------------------------ *)
(* Unboxed fast path                                                   *)

(* Operations on plain OCaml ints standing for unsigned masked values
   of a known width <= 62.  Callers keep the invariant that every value
   is already masked to its width; each operation re-establishes it for
   its result.  Two's-complement wrap-around of the native int is
   exactly modular arithmetic, so masking the low [w] bits after a
   wrapping [+]/[-]/[*] yields the same bits the limb implementation
   produces. *)
module Unboxed = struct
  let max_width = 62
  let fits w = w >= 1 && w <= max_width
  let mask w = (1 lsl w) - 1

  let signed w v = if v land (1 lsl (w - 1)) <> 0 then v lor (-1 lsl w) else v

  let to_bitvec ~width v =
    check_width width;
    if width > max_width then
      invalid_arg "Bitvec.Unboxed.to_bitvec: width exceeds the fast path";
    let limbs =
      if width <= limb_bits then [| v land limb_mask |]
      else [| v land limb_mask; (v lsr limb_bits) land limb_mask |]
    in
    normalize width limbs

  let of_bitvec = to_int

  let add w a b = (a + b) land mask w
  let sub w a b = (a - b) land mask w
  let neg w a = -a land mask w
  let mul w a b = a * b land mask w
  let udiv a b = a / b
  let urem a b = a mod b
  let sdiv w a b = signed w a / signed w b land mask w
  let srem w a b = signed w a mod signed w b land mask w

  let logand a b = a land b
  let logor a b = a lor b
  let logxor a b = a lxor b
  let lognot w a = lnot a land mask w

  (* Shift amounts are expected pre-clamped to [0, w]; shifting by the
     full width is well-defined here (w <= 62 < Sys.int_size). *)
  let shift_left w a n = if n >= w then 0 else a lsl n land mask w
  let shift_right_logical a n = a lsr n

  let shift_right_arith w a n =
    if n >= w then if a land (1 lsl (w - 1)) <> 0 then mask w else 0
    else signed w a asr n land mask w

  let reduce_and w a = a = mask w
  let reduce_or a = a <> 0

  let reduce_xor a =
    let x = a lxor (a lsr 32) in
    let x = x lxor (x lsr 16) in
    let x = x lxor (x lsr 8) in
    let x = x lxor (x lsr 4) in
    let x = x lxor (x lsr 2) in
    let x = x lxor (x lsr 1) in
    x land 1 = 1

  let ult a b = a < b
  let ule a b = a <= b
  let slt w a b = signed w a < signed w b
  let sle w a b = signed w a <= signed w b

  let select ~hi ~lo a = (a lsr lo) land mask (hi - lo + 1)
  let sext ~from ~width v = signed from v land mask width
end
