(** Escape-correct JSON emission, and a strict reader for it.

    Every machine-readable artifact this repository produces — fault
    campaign reports, traces, metrics, coverage, triage bundles, worker
    pool result lines — goes through this one printer, so escaping is
    right exactly once.  {!parse} is the inverse, added for the two
    places the repository reads its {e own} JSON back: the fork pool
    ({!Dfv_par.Pool}) aggregating per-job results over pipes, and
    [dfv validate] checking uploaded CI artifacts for the common
    [{"schema","version"}] envelope. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values are emitted as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape_to_buffer : Buffer.t -> string -> unit
(** Append the JSON string literal (including the quotes) for [s]. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val envelope : schema:string -> version:int -> (string * t) list -> t
(** The common envelope every dfv JSON artifact agrees on:
    [{"schema": schema, "version": version, ...fields}]. *)

val write_file : string -> t -> unit
(** Write the value (newline-terminated) to [path]. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed).
    Strict: trailing garbage, unterminated strings, bad escapes and
    malformed numbers are errors, not best-effort recoveries —
    [parse (to_string v)] reconstructs [v] exactly for every [v] whose
    floats are finite (non-finite floats print as [null]). *)

val field : string -> t -> t option
(** [field name v] is the value of field [name] when [v] is an [Obj]
    carrying it, [None] otherwise. *)

val string_field : string -> t -> string option
val int_field : string -> t -> int option
(** Typed {!field} readers: [None] when the field is absent or has
    another type. *)

val float_field : string -> t -> float option
(** A numeric field as a float: an [Int] reads as its value. *)

val envelope_of : t -> (string * int) option
(** [(schema, version)] when the value is an object carrying the common
    envelope — a [String] ["schema"] and an [Int] ["version"] field. *)
