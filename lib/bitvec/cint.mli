(** C/C++ integer semantics, for modeling int-based system-level models.

    The paper's Section 3.1.1 identifies the dominant source of SLM/RTL
    computational divergence: C/C++ SLMs compute in the language's fixed
    native types ([int], [short], [long long], ...) with the usual
    arithmetic conversions, while RTL computes in custom-width bit-vectors.
    This module implements the C evaluation rules precisely (an LP64 data
    model), so that an SLM written against it reproduces exactly the
    behaviour — including the masked overflows of Fig. 1 — that a C model
    would exhibit.

    Arithmetic on signed types wraps two's-complement (the de-facto
    behaviour SLM authors rely on); each wrapping signed operation is also
    reported through {!overflow_occurred} so experiments can count the
    overflows that C silently masks. *)

(** The integer types of an LP64 C implementation. *)
type ctype =
  | I8   (** [signed char] *)
  | U8   (** [unsigned char] *)
  | I16  (** [short] *)
  | U16  (** [unsigned short] *)
  | I32  (** [int] *)
  | U32  (** [unsigned int] *)
  | I64  (** [long long] *)
  | U64  (** [unsigned long long] *)

type t
(** A typed C integer value. *)

val ctype_width : ctype -> int
(** Bit width of a C type: 8, 16, 32 or 64. *)

val ctype_signed : ctype -> bool
(** Whether a C type is signed. *)

val make : ctype -> int -> t
(** [make ty v] converts [v] to type [ty] using C conversion rules
    (truncation to the type's width, then reinterpretation per the type's
    signedness). *)

val ctype : t -> ctype
(** The static type of a value. *)

val value : t -> int
(** The mathematical value, as an OCaml int.  Raises [Failure] for [U64]
    values above [max_int] (they do not fit OCaml's 63-bit int). *)

val value_i64 : t -> int64
(** The raw two's-complement bits, for [U64]-safe observation. *)

val equal : t -> t -> bool
(** Value-and-type equality. *)

val pp : Format.formatter -> t -> unit

val usual_conversions : t -> t -> t * t
(** [usual_conversions a b] applies C's integer promotions followed by the
    usual arithmetic conversions, returning both operands converted to the
    common type. *)

val promote : t -> t
(** C integer promotion: ranks below [int] promote to [int]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** C division (truncating).  Raises [Division_by_zero]. *)

val rem : t -> t -> t
(** C remainder.  Raises [Division_by_zero]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> int -> t
(** [shift_left a n]: the result type is the promoted type of [a], as in
    C.  Bits shifted past the width are lost. *)

val shift_right : t -> int -> t
(** [shift_right a n]: arithmetic for signed operands, logical for
    unsigned — the behaviour of every mainstream C compiler. *)

val neg : t -> t

val lt : t -> t -> bool
(** Comparison after the usual arithmetic conversions — including the
    notorious signed/unsigned comparison pitfall ([-1 < 1u] is false
    in C). *)

val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val eq : t -> t -> bool

val cast : ctype -> t -> t
(** Explicit C cast. *)

val to_bitvec : t -> Bitvec.t
(** The value as a bit-vector of the type's width. *)

val of_bitvec : ctype -> Bitvec.t -> t
(** [of_bitvec ty bv] reinterprets the low bits of [bv] as a [ty];
    [bv] is resized to the type's width (zero-extended) first. *)

val reset_overflow_count : unit -> unit
(** Reset the global counter of silently-wrapping signed operations. *)

val overflow_occurred : unit -> bool
(** Whether a signed operation wrapped since the last reset.  This is
    the instrumentation behind experiment C4: C models mask exactly
    these events. *)
