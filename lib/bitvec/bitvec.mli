(** Arbitrary-width two-state bit-vectors with Verilog-2001 semantics.

    This module is the datatype substrate the paper's Section 3.1 calls for:
    a bit-vector library whose sign-extension, truncation and arithmetic
    rules faithfully match those of standard HDLs, so that system-level
    models built on it are bit-accurate with respect to RTL.

    Values are immutable.  Every value carries its width (in bits, >= 1).
    Binary operations require equal operand widths and raise
    {!Width_mismatch} otherwise; use {!uresize} / {!sresize} to adjust
    widths explicitly.  All arithmetic wraps modulo [2^width], exactly as a
    Verilog assignment to a [width]-bit net does. *)

type t

exception Width_mismatch of string
(** Raised when a binary operation is applied to operands of unequal
    width.  The payload names the offending operation. *)

exception Invalid_width of int
(** Raised when a width [< 1] is requested. *)

(** {1 Construction} *)

val create : width:int -> int -> t
(** [create ~width v] is the two's-complement encoding of [v] truncated to
    [width] bits.  Negative [v] sign-extends before truncation, so
    [create ~width:8 (-1)] is [8'hff]. *)

val zero : int -> t
(** [zero w] is the [w]-bit all-zeros vector. *)

val one : int -> t
(** [one w] is the [w]-bit vector with value 1. *)

val ones : int -> t
(** [ones w] is the [w]-bit all-ones vector. *)

val of_bool : bool -> t
(** [of_bool b] is the 1-bit vector encoding [b]. *)

val of_bits : bool array -> t
(** [of_bits a] builds a vector from bits listed LSB-first.  Its width is
    [Array.length a]; the array must be non-empty. *)

val of_string : string -> t
(** [of_string s] parses a Verilog-style sized literal: ["8'hff"],
    ["4'b1010"], ["16'd1234"], ["12'o777"].  Underscores in the digit part
    are ignored.  Raises [Invalid_argument] on malformed input or if the
    value does not fit the declared width. *)

val random : Random.State.t -> width:int -> t
(** [random st ~width] draws a uniformly random [width]-bit vector. *)

(** {1 Observation} *)

val width : t -> int
(** [width t] is the number of bits in [t]. *)

val get : t -> int -> bool
(** [get t i] is bit [i] of [t] (bit 0 is the LSB).  Raises
    [Invalid_argument] when [i] is out of range. *)

val to_bits : t -> bool array
(** [to_bits t] lists the bits of [t] LSB-first. *)

val to_int : t -> int
(** [to_int t] is the unsigned value of [t].  Raises [Failure] if the
    value does not fit in an OCaml [int] (i.e. needs more than 62 bits). *)

val to_signed_int : t -> int
(** [to_signed_int t] is the two's-complement value of [t].  Raises
    [Failure] if it does not fit in an OCaml [int]. *)

val is_zero : t -> bool
(** [is_zero t] is [true] iff every bit of [t] is 0. *)

val msb : t -> bool
(** [msb t] is the most significant (sign) bit of [t]. *)

val popcount : t -> int
(** [popcount t] is the number of set bits in [t]. *)

val to_string : t -> string
(** [to_string t] prints [t] as a sized hexadecimal literal, e.g.
    ["8'h3a"]. *)

val to_binary_string : t -> string
(** [to_binary_string t] prints [t] as a sized binary literal, e.g.
    ["4'b0101"]. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer; same rendering as {!to_string}. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality; vectors of different widths are never equal. *)

val compare : t -> t -> int
(** Total order: first by width, then by unsigned value.  Suitable for
    [Map]/[Set] functors. *)

val ucompare : t -> t -> int
(** Unsigned value comparison of equal-width vectors. *)

val scompare : t -> t -> int
(** Two's-complement value comparison of equal-width vectors. *)

val ult : t -> t -> bool
val ule : t -> t -> bool
val uge : t -> t -> bool
val slt : t -> t -> bool
val sle : t -> t -> bool
val sgt : t -> t -> bool
val sge : t -> t -> bool

(** {1 Width adjustment} *)

val uresize : t -> int -> t
(** [uresize t w] zero-extends or truncates [t] to [w] bits — the Verilog
    rule for unsigned expressions. *)

val sresize : t -> int -> t
(** [sresize t w] sign-extends or truncates [t] to [w] bits — the Verilog
    rule for signed expressions. *)

(** {1 Bitwise operations} *)

val lognot : t -> t
val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val shift_left : t -> int -> t
(** [shift_left t n] shifts in zeros at the LSB; width is preserved. *)

val shift_right_logical : t -> int -> t
(** [shift_right_logical t n] shifts in zeros at the MSB. *)

val shift_right_arith : t -> int -> t
(** [shift_right_arith t n] shifts in copies of the sign bit. *)

val reduce_and : t -> bool
val reduce_or : t -> bool
val reduce_xor : t -> bool

(** {1 Structural operations} *)

val select : t -> hi:int -> lo:int -> t
(** [select t ~hi ~lo] is bits [hi:lo] of [t], a vector of width
    [hi - lo + 1].  Requires [0 <= lo <= hi < width t]. *)

val concat : t list -> t
(** [concat parts] concatenates [parts] with the head as the most
    significant part, like Verilog [{a, b, c}].  The list must be
    non-empty. *)

val repeat : t -> int -> t
(** [repeat t n] is the Verilog replication [{n{t}}]; requires [n >= 1]. *)

val set_bit : t -> int -> bool -> t
(** [set_bit t i b] is [t] with bit [i] replaced by [b]. *)

(** {1 Arithmetic}

    All operations below require equal operand widths and produce a result
    of that same width, wrapping on overflow — the behaviour of a sized
    Verilog assignment, and the root cause of the paper's Fig. 1
    non-associativity example. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val mul : t -> t -> t
(** Low [width] bits of the product. *)

val mul_full : t -> t -> t
(** [mul_full a b] is the exact product, of width
    [width a + width b]. *)

val add_carry : t -> t -> t
(** [add_carry a b] is the exact sum, one bit wider than the operands. *)

val udiv : t -> t -> t
(** Unsigned division.  Raises [Division_by_zero] when the divisor is 0
    (Verilog would produce X; we are a two-state library). *)

val urem : t -> t -> t
(** Unsigned remainder.  Raises [Division_by_zero] on a zero divisor. *)

val sdiv : t -> t -> t
(** Signed division truncating toward zero (Verilog [/] on signed
    operands).  Raises [Division_by_zero] on a zero divisor. *)

val srem : t -> t -> t
(** Signed remainder with the sign of the dividend (Verilog [%]).
    Raises [Division_by_zero] on a zero divisor. *)

(** {1 Unboxed fast path}

    Native-int mirrors of the operations above for widths up to
    {!Unboxed.max_width} (62) bits, used by the compiled RTL simulation
    engine so that narrow signals never touch limb arrays on the hot
    path.  A value is a plain non-negative [int] holding the unsigned
    (masked) encoding of the vector; every operation assumes its
    operands respect that invariant and re-establishes it for its
    result.  Semantics are bit-identical to the boxed operations —
    property-tested against them in the test suite. *)
module Unboxed : sig
  val max_width : int
  (** 62: the widest vector an OCaml [int] can carry unsigned. *)

  val fits : int -> bool
  (** [fits w] is [1 <= w <= max_width]. *)

  val mask : int -> int
  (** [mask w] is [2^w - 1] (valid for [w <= max_width]). *)

  val signed : int -> int -> int
  (** [signed w v] reads [v] as a [w]-bit two's-complement value. *)

  val of_bitvec : t -> int
  (** Unsigned value; raises [Failure] beyond 62 bits (= {!to_int}). *)

  val to_bitvec : width:int -> int -> t
  (** [to_bitvec ~width v] boxes a masked value back into a vector. *)

  val add : int -> int -> int -> int
  (** [add w a b]; likewise [sub]/[neg]/[mul] below — all wrap mod
      [2^w]. *)

  val sub : int -> int -> int -> int
  val neg : int -> int -> int
  val mul : int -> int -> int -> int

  val udiv : int -> int -> int
  (** Unsigned division; raises [Division_by_zero] like {!Bitvec.udiv}.
      Likewise [urem]/[sdiv]/[srem]. *)

  val urem : int -> int -> int
  val sdiv : int -> int -> int -> int
  val srem : int -> int -> int -> int
  val logand : int -> int -> int
  val logor : int -> int -> int
  val logxor : int -> int -> int
  val lognot : int -> int -> int

  val shift_left : int -> int -> int -> int
  (** [shift_left w a n] with [n] pre-clamped to [0, w] by the caller;
      same for the right shifts. *)

  val shift_right_logical : int -> int -> int
  val shift_right_arith : int -> int -> int -> int
  val reduce_and : int -> int -> bool
  val reduce_or : int -> bool
  val reduce_xor : int -> bool
  val ult : int -> int -> bool
  val ule : int -> int -> bool
  val slt : int -> int -> int -> bool
  val sle : int -> int -> int -> bool

  val select : hi:int -> lo:int -> int -> int
  (** Bits [hi:lo], like {!Bitvec.select}. *)

  val sext : from:int -> width:int -> int -> int
  (** Sign-extend a [from]-bit value to [width] bits. *)
end
