(* Tests for Bitvec: Verilog-semantics bit-vectors. *)

open Dfv_bitvec

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let check_bv = Alcotest.check bv
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_str = Alcotest.check Alcotest.string

let v w x = Bitvec.create ~width:w x

(* --- construction / observation ----------------------------------- *)

let test_create_basic () =
  check_int "to_int" 5 (Bitvec.to_int (v 8 5));
  check_int "width" 8 (Bitvec.width (v 8 5));
  check_int "truncates" 44 (Bitvec.to_int (v 8 300));
  check_int "wrap negative" 0xff (Bitvec.to_int (v 8 (-1)));
  check_int "signed read" (-1) (Bitvec.to_signed_int (v 8 (-1)));
  check_int "signed read min" (-128) (Bitvec.to_signed_int (v 8 128));
  check_int "width 1" 1 (Bitvec.to_int (v 1 (-1)))

let test_create_wide () =
  let x = v 100 (-1) in
  check_int "popcount of -1 at 100 bits" 100 (Bitvec.popcount x);
  check_bool "msb" true (Bitvec.msb x);
  check_int "signed" (-1) (Bitvec.to_signed_int x);
  let y = v 100 12345 in
  check_int "roundtrip through 100 bits" 12345 (Bitvec.to_int y)

let test_invalid_width () =
  Alcotest.check_raises "zero width" (Bitvec.Invalid_width 0) (fun () ->
      ignore (Bitvec.zero 0));
  Alcotest.check_raises "negative width" (Bitvec.Invalid_width (-3)) (fun () ->
      ignore (Bitvec.create ~width:(-3) 0))

let test_bits_roundtrip () =
  let x = v 13 0x155a in
  check_bv "of_bits . to_bits" x (Bitvec.of_bits (Bitvec.to_bits x));
  check_bool "bit 1" true (Bitvec.get (v 8 2) 1);
  check_bool "bit 0" false (Bitvec.get (v 8 2) 0);
  let y = Bitvec.set_bit (Bitvec.zero 8) 3 true in
  check_int "set_bit" 8 (Bitvec.to_int y);
  check_int "set_bit clear" 0 (Bitvec.to_int (Bitvec.set_bit y 3 false))

let test_get_out_of_range () =
  Alcotest.check_raises "get oob"
    (Invalid_argument "Bitvec.get: bit 8 of 8-bit vector") (fun () ->
      ignore (Bitvec.get (v 8 0) 8))

(* --- text ----------------------------------------------------------- *)

let test_to_string () =
  check_str "hex" "8'h3a" (Bitvec.to_string (v 8 0x3a));
  check_str "hex pads" "12'h03a" (Bitvec.to_string (v 12 0x3a));
  check_str "bin" "4'b0101" (Bitvec.to_binary_string (v 4 5))

let test_of_string () =
  check_bv "hex" (v 8 0xff) (Bitvec.of_string "8'hff");
  check_bv "hex upper" (v 8 0xff) (Bitvec.of_string "8'hFF");
  check_bv "bin" (v 4 10) (Bitvec.of_string "4'b1010");
  check_bv "dec" (v 16 1234) (Bitvec.of_string "16'd1234");
  check_bv "oct" (v 12 0o777) (Bitvec.of_string "12'o777");
  check_bv "underscores" (v 16 0xabcd) (Bitvec.of_string "16'hab_cd");
  check_bv "roundtrip" (v 77 987654321)
    (Bitvec.of_string (Bitvec.to_string (v 77 987654321)))

let test_of_string_errors () =
  let expect_invalid s =
    match Bitvec.of_string s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected Invalid_argument for %S" s
  in
  expect_invalid "8hff";
  expect_invalid "8'xff";
  expect_invalid "8'h";
  expect_invalid "0'h0";
  expect_invalid "4'hff" (* does not fit *);
  expect_invalid "8'b2"

(* --- arithmetic ----------------------------------------------------- *)

let test_add_wraps () =
  check_bv "simple" (v 8 5) (Bitvec.add (v 8 2) (v 8 3));
  check_bv "wrap" (v 8 0) (Bitvec.add (v 8 255) (v 8 1));
  check_bv "wrap mid" (v 8 4) (Bitvec.add (v 8 250) (v 8 10));
  Alcotest.check_raises "width mismatch" (Bitvec.Width_mismatch "add") (fun () ->
      ignore (Bitvec.add (v 8 1) (v 9 1)))

let test_add_carry () =
  let r = Bitvec.add_carry (v 8 255) (v 8 1) in
  check_int "width" 9 (Bitvec.width r);
  check_int "value" 256 (Bitvec.to_int r)

let test_sub_neg () =
  check_bv "sub" (v 8 255) (Bitvec.sub (v 8 1) (v 8 2));
  check_bv "neg" (v 8 0x80) (Bitvec.neg (v 8 0x80));
  check_bv "neg 1" (v 8 0xff) (Bitvec.neg (v 8 1))

let test_mul () =
  check_bv "simple" (v 8 6) (Bitvec.mul (v 8 2) (v 8 3));
  check_bv "wrap" (v 8 0x20) (Bitvec.mul (v 8 0x30) (v 8 0x06));
  let f = Bitvec.mul_full (v 8 255) (v 8 255) in
  check_int "full width" 16 (Bitvec.width f);
  check_int "full value" 65025 (Bitvec.to_int f)

let test_mul_wide () =
  (* (2^64 - 1)^2 computed at 128 bits, checked against known limbs. *)
  let m = Bitvec.sub (Bitvec.zero 64) (Bitvec.one 64) in
  let p = Bitvec.mul_full m m in
  (* (2^64-1)^2 = 2^128 - 2^65 + 1 *)
  let expect =
    Bitvec.add
      (Bitvec.sub (Bitvec.zero 128)
         (Bitvec.shift_left (Bitvec.one 128) 65))
      (Bitvec.one 128)
  in
  check_bv "(2^64-1)^2" expect p

let test_div_rem () =
  check_bv "udiv" (v 8 4) (Bitvec.udiv (v 8 13) (v 8 3));
  check_bv "urem" (v 8 1) (Bitvec.urem (v 8 13) (v 8 3));
  check_bv "sdiv trunc" (v 8 (-3)) (Bitvec.sdiv (v 8 (-7)) (v 8 2));
  check_bv "srem sign of dividend" (v 8 (-1)) (Bitvec.srem (v 8 (-7)) (v 8 2));
  check_bv "sdiv both negative" (v 8 3) (Bitvec.sdiv (v 8 (-7)) (v 8 (-2)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bitvec.udiv (v 8 1) (v 8 0)));
  Alcotest.check_raises "sdiv by zero" Division_by_zero (fun () ->
      ignore (Bitvec.sdiv (v 8 1) (v 8 0)))

(* The paper's Fig. 1: 8-bit signed addition is not associative because
   the intermediate wire overflows.  a = b = 64, c = -1 is a witness. *)
let test_fig1_nonassociativity () =
  let sext9 x = Bitvec.sresize x 9 in
  let order1 a b c =
    let tmp = Bitvec.add a b in
    Bitvec.add (sext9 tmp) (sext9 c)
  in
  let order2 a b c =
    let tmp = Bitvec.add b c in
    Bitvec.add (sext9 tmp) (sext9 a)
  in
  let a = v 8 64 and b = v 8 64 and c = v 8 (-1) in
  let o1 = order1 a b c and o2 = order2 a b c in
  check_bool "orders disagree" false (Bitvec.equal o1 o2);
  check_int "(a+b)+c" (-129) (Bitvec.to_signed_int o1);
  check_int "(b+c)+a" 127 (Bitvec.to_signed_int o2)

(* --- bitwise -------------------------------------------------------- *)

let test_logic () =
  check_bv "and" (v 8 0x0c) (Bitvec.logand (v 8 0x3c) (v 8 0x0f));
  check_bv "or" (v 8 0x3f) (Bitvec.logor (v 8 0x3c) (v 8 0x0f));
  check_bv "xor" (v 8 0x33) (Bitvec.logxor (v 8 0x3c) (v 8 0x0f));
  check_bv "not" (v 8 0xc3) (Bitvec.lognot (v 8 0x3c))

let test_shifts () =
  check_bv "shl" (v 8 0xf0) (Bitvec.shift_left (v 8 0x0f) 4);
  check_bv "shl out" (v 8 0) (Bitvec.shift_left (v 8 0xff) 8);
  check_bv "lshr" (v 8 0x0f) (Bitvec.shift_right_logical (v 8 0xf0) 4);
  check_bv "ashr neg" (v 8 0xff) (Bitvec.shift_right_arith (v 8 0x80) 7);
  check_bv "ashr pos" (v 8 0x07) (Bitvec.shift_right_arith (v 8 0x70) 4);
  check_bv "ashr all" (v 8 0xff) (Bitvec.shift_right_arith (v 8 0x80) 100);
  check_bv "shl across limbs" (Bitvec.shift_left (Bitvec.one 100) 77)
    (Bitvec.shift_left (Bitvec.shift_left (Bitvec.one 100) 40) 37)

let test_reduce () =
  check_bool "and of ones" true (Bitvec.reduce_and (v 5 31));
  check_bool "and not" false (Bitvec.reduce_and (v 5 30));
  check_bool "or" true (Bitvec.reduce_or (v 5 4));
  check_bool "or zero" false (Bitvec.reduce_or (v 5 0));
  check_bool "xor odd" true (Bitvec.reduce_xor (v 5 7));
  check_bool "xor even" false (Bitvec.reduce_xor (v 5 5))

(* --- structure ------------------------------------------------------ *)

let test_select_concat () =
  (* The paper's mask-and-shift example: selecting bits [23:16]. *)
  let x = v 32 0x00ab0000 in
  check_bv "select [23:16]" (v 8 0xab) (Bitvec.select x ~hi:23 ~lo:16);
  check_bv "select full" x (Bitvec.select x ~hi:31 ~lo:0);
  check_bv "concat" (v 12 0xabc)
    (Bitvec.concat [ v 4 0xa; v 4 0xb; v 4 0xc ]);
  check_bv "repeat" (v 8 0xaa) (Bitvec.repeat (v 2 2) 4);
  check_bv "select of concat"
    (v 4 0xb)
    (Bitvec.select (Bitvec.concat [ v 4 0xa; v 4 0xb; v 4 0xc ]) ~hi:7 ~lo:4)

let test_resize () =
  check_bv "uresize grow" (v 16 0xff) (Bitvec.uresize (v 8 0xff) 16);
  check_bv "sresize grow" (v 16 0xffff) (Bitvec.sresize (v 8 0xff) 16);
  check_bv "sresize pos" (v 16 0x7f) (Bitvec.sresize (v 8 0x7f) 16);
  check_bv "shrink" (v 4 0xf) (Bitvec.uresize (v 8 0xff) 4);
  check_bv "sresize shrink" (v 4 0xf) (Bitvec.sresize (v 8 0xff) 4);
  (* Growth across a limb boundary with the sign in the old top limb. *)
  check_int "sresize 32->100" (-5)
    (Bitvec.to_signed_int (Bitvec.sresize (v 32 (-5)) 100))

(* --- comparisons ---------------------------------------------------- *)

let test_compare () =
  check_bool "ult" true (Bitvec.ult (v 8 1) (v 8 2));
  check_bool "ult wrap" true (Bitvec.ult (v 8 1) (v 8 (-1)));
  check_bool "slt" true (Bitvec.slt (v 8 (-1)) (v 8 1));
  check_bool "sge" true (Bitvec.sge (v 8 1) (v 8 (-128)));
  check_bool "ule eq" true (Bitvec.ule (v 8 7) (v 8 7));
  check_bool "sgt" true (Bitvec.sgt (v 8 0) (v 8 (-1)));
  check_bool "uge" true (Bitvec.uge (v 8 255) (v 8 0));
  check_bool "equal widths differ" false (Bitvec.equal (v 8 1) (v 9 1))

(* --- qcheck properties ---------------------------------------------- *)

let gen_width = QCheck.Gen.int_range 1 128

let gen_pair_same_width =
  QCheck.Gen.(
    gen_width >>= fun w ->
    let st_vec st = Bitvec.random st ~width:w in
    pair st_vec st_vec)

let arb_pair =
  QCheck.make gen_pair_same_width
    ~print:(fun (a, b) -> Bitvec.to_string a ^ ", " ^ Bitvec.to_string b)

let arb_vec =
  QCheck.make
    QCheck.Gen.(gen_width >>= fun w -> fun st -> Bitvec.random st ~width:w)
    ~print:Bitvec.to_string

let prop_add_commutes =
  QCheck.Test.make ~name:"add commutes" ~count:500 arb_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.add a b) (Bitvec.add b a))

let prop_add_sub_inverse =
  QCheck.Test.make ~name:"sub inverts add" ~count:500 arb_pair (fun (a, b) ->
      Bitvec.equal (Bitvec.sub (Bitvec.add a b) b) a)

let prop_neg_involution =
  QCheck.Test.make ~name:"neg involutive" ~count:500 arb_vec (fun a ->
      Bitvec.equal (Bitvec.neg (Bitvec.neg a)) a)

let prop_lognot_involution =
  QCheck.Test.make ~name:"lognot involutive" ~count:500 arb_vec (fun a ->
      Bitvec.equal (Bitvec.lognot (Bitvec.lognot a)) a)

let prop_mul_matches_int =
  (* Cross-check against OCaml ints at widths where they are exact. *)
  QCheck.Test.make ~name:"mul matches int reference" ~count:1000
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (x, y) ->
      let a = Bitvec.create ~width:30 x and b = Bitvec.create ~width:30 y in
      Bitvec.to_int (Bitvec.mul_full a b) = x * y)

let prop_divrem_identity =
  QCheck.Test.make ~name:"q*b + r = a, r < b" ~count:500 arb_pair
    (fun (a, b) ->
      QCheck.assume (not (Bitvec.is_zero b));
      let q = Bitvec.udiv a b and r = Bitvec.urem a b in
      let w = Bitvec.width a in
      let back =
        Bitvec.add (Bitvec.uresize (Bitvec.mul_full q b) w) (Bitvec.uresize r w)
      in
      Bitvec.equal back a && Bitvec.ult r b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"of_string . to_string" ~count:500 arb_vec (fun a ->
      Bitvec.equal a (Bitvec.of_string (Bitvec.to_string a)))

let prop_concat_select =
  QCheck.Test.make ~name:"select splits concat" ~count:500 arb_pair
    (fun (a, b) ->
      let c = Bitvec.concat [ a; b ] in
      let wb = Bitvec.width b and wc = Bitvec.width c in
      Bitvec.equal (Bitvec.select c ~hi:(wb - 1) ~lo:0) b
      && Bitvec.equal (Bitvec.select c ~hi:(wc - 1) ~lo:wb) a)

let prop_shift_mul =
  QCheck.Test.make ~name:"shl k = mul by 2^k" ~count:500
    QCheck.(pair (int_bound 20) (int_bound 0xFFFFF))
    (fun (k, x) ->
      let a = Bitvec.create ~width:64 x in
      Bitvec.equal (Bitvec.shift_left a k)
        (Bitvec.mul a (Bitvec.create ~width:64 (1 lsl k))))

let prop_resize_preserves_unsigned =
  QCheck.Test.make ~name:"uresize grow preserves value" ~count:500 arb_vec
    (fun a ->
      let g = Bitvec.uresize a (Bitvec.width a + 17) in
      Bitvec.equal (Bitvec.uresize g (Bitvec.width a)) a
      && Bitvec.popcount g = Bitvec.popcount a)

let prop_sresize_preserves_signed =
  QCheck.Test.make ~name:"sresize grow preserves signed order" ~count:500
    arb_pair (fun (a, b) ->
      let w = Bitvec.width a + 9 in
      Bitvec.scompare a b
      = Bitvec.scompare (Bitvec.sresize a w) (Bitvec.sresize b w))

let prop_add_assoc_when_wide_enough =
  (* The Fig. 1 pathology disappears when the intermediate is wide enough:
     lifted to width+2 bits, both association orders agree. *)
  QCheck.Test.make ~name:"association orders agree with wide tmp" ~count:500
    QCheck.(triple small_signed_int small_signed_int small_signed_int)
    (fun (x, y, z) ->
      let w = 34 in
      let a = Bitvec.create ~width:w x
      and b = Bitvec.create ~width:w y
      and c = Bitvec.create ~width:w z in
      Bitvec.equal
        (Bitvec.add (Bitvec.add a b) c)
        (Bitvec.add (Bitvec.add b c) a))

(* [create] against its definition: bit [i] of [create ~width v] is bit
   [min i 62] of [v], the sign filling every bit above the int's 63.  The
   widths straddle the one-limb path (<= 32 bits) and each limb
   boundary; the values include both extremes. *)
let prop_create_bits =
  let gen =
    QCheck.Gen.(
      pair
        (frequency
           [ (3, int_range 1 100); (2, oneofl [ 31; 32; 33; 62; 63; 64 ]) ])
        (frequency
           [ (3, int); (2, int_range (-300) 300);
             (1, oneofl [ min_int; max_int; -1; 0 ]) ]))
  in
  QCheck.Test.make ~name:"create holds the bits of its int" ~count:1000
    (QCheck.make gen ~print:QCheck.Print.(pair int int))
    (fun (w, x) ->
      let a = Bitvec.create ~width:w x in
      let bits = Array.init w (fun i -> (x asr min i 62) land 1 = 1) in
      let fits_unsigned = x >= 0 && (w >= 62 || x < 1 lsl w) in
      let fits_signed =
        w >= 63 || (x >= -(1 lsl (w - 1)) && x < 1 lsl (w - 1))
      in
      Bitvec.width a = w
      && Bitvec.to_bits a = bits
      && Bitvec.equal a (Bitvec.of_bits bits)
      && ((not fits_unsigned) || Bitvec.to_int a = x)
      && ((not fits_signed) || Bitvec.to_signed_int a = x))

let qcheck_props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_commutes; prop_add_sub_inverse; prop_neg_involution;
      prop_lognot_involution; prop_mul_matches_int; prop_divrem_identity;
      prop_string_roundtrip; prop_concat_select; prop_shift_mul;
      prop_resize_preserves_unsigned; prop_sresize_preserves_signed;
      prop_add_assoc_when_wide_enough; prop_create_bits ]

let suite =
  [ Alcotest.test_case "create basic" `Quick test_create_basic;
    Alcotest.test_case "create wide" `Quick test_create_wide;
    Alcotest.test_case "invalid width" `Quick test_invalid_width;
    Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "get out of range" `Quick test_get_out_of_range;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
    Alcotest.test_case "add wraps" `Quick test_add_wraps;
    Alcotest.test_case "add_carry" `Quick test_add_carry;
    Alcotest.test_case "sub / neg" `Quick test_sub_neg;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "mul wide" `Quick test_mul_wide;
    Alcotest.test_case "div / rem" `Quick test_div_rem;
    Alcotest.test_case "Fig.1 non-associativity" `Quick
      test_fig1_nonassociativity;
    Alcotest.test_case "logic ops" `Quick test_logic;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "reductions" `Quick test_reduce;
    Alcotest.test_case "select / concat / repeat" `Quick test_select_concat;
    Alcotest.test_case "resize" `Quick test_resize;
    Alcotest.test_case "comparisons" `Quick test_compare ]
  @ qcheck_props
