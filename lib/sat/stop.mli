(** Cooperative cancellation: stop tokens and the process stop flag.

    A job running on a domain cannot be killed, so it stops itself.
    Every domain has a current {e stop token}; the pool installs a
    fresh one around each job and restores the previous one when the
    job ends.  The long loops poll the current token at points where
    stopping is cheap and safe: the CDCL search every 64 conflicts
    (where it already reads its wall-clock budget), the SAT sweep
    before each candidate pair it proves, and the simulation flow
    before each transaction.  A poll raises {!Stopped} once the token
    is cancelled, its deadline has passed, or the process stop flag is
    set; the pool turns that into the job's outcome.

    Outside a pooled job the domain's token is inert: it never stops,
    whatever the flags say, so a sequential flow runs exactly as it
    would without this module.  A job stuck outside the poll points
    (a blocking system call, C code) cannot be stopped. *)

exception Stopped
(** Raised by {!poll}.  It is not an error of the job:
    {!Dfv_core.Dfv_error.guard} lets it through, like [Sys.Break], up
    to the pool that installed the token. *)

type t

val token : ?deadline:float -> bool Atomic.t -> t
(** A token that stops once [cancelled] is set, once
    [Unix.gettimeofday ()] passes [deadline] (absolute; default: none),
    or once {!request} has been called.  Tokens that share [cancelled]
    are cancelled together. *)

val expired : t -> bool
(** Whether the token's deadline has passed. *)

val with_token : t -> (unit -> 'a) -> 'a
(** [with_token t f] runs [f] with [t] as the calling domain's token
    and restores the previous token when [f] returns or raises. *)

val stopped : unit -> bool
(** Whether the calling domain's token says stop.  Callers that must
    tidy up before unwinding (the solver backtracks to level 0) test
    this and then raise {!Stopped} themselves; everyone else calls
    {!poll}. *)

val poll : unit -> unit
(** Raise {!Stopped} if {!stopped}. *)

(** {2 The process stop flag} *)

val request : unit -> unit
(** Set the process-wide stop flag (safe in a signal handler): every
    token in force stops at its next poll. *)

val requested : unit -> bool
val reset : unit -> unit
