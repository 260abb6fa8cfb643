(** Live campaign progress on stderr.

    A single self-overwriting line — completion, rate, ETA, time to the
    degradation deadline, and per-category tallies (Detected / Survived
    / shed / ...) — driven from the {!Dpool}'s [on_result] hook (or
    any per-item completion callback).  Rendering is throttled to ~10
    redraws/s, so stepping on every result is cheap.

    Deliberately dumb about its output: one carriage-return line on
    stderr, no cursor addressing, and {!create} returns [None] unless
    stderr is a TTY (or [force] is set, for tests) — redirected runs and
    CI logs never see control characters. *)

type t

val create :
  ?force:bool ->
  ?deadline_at:float ->
  label:string ->
  total:int ->
  unit ->
  t option
(** [None] when [total <= 0] or stderr is not a TTY (unless [force]).
    [deadline_at] is the campaign's absolute degradation deadline
    (compare {!Dfv_fault.Campaign}) — when given, the remaining wall
    clock to it is shown alongside the ETA.  Before any item completes
    (or within clock resolution of the start) the ETA renders as
    ["--"], never [inf]/[nan]. *)

val step : t -> string -> unit
(** Count one completed item under a category tag and redraw. *)

val finish : t -> unit
(** Final redraw, then a newline so subsequent output starts clean. *)
