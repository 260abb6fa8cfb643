(** Bounded blocking FIFO channels ([sc_fifo]).

    The standard SLM communication primitive: producers block when the
    FIFO is full, consumers when it is empty, with delta-cycle
    notification.  This is what makes the "serial RTL interface vs
    parallel SLM interface" refinement of the paper's Section 3.2
    expressible: the stream side of a transactor is a FIFO. *)

type 'a t

val create : Kernel.t -> string -> capacity:int -> 'a t
(** [capacity >= 1]. *)

val write : 'a t -> 'a -> unit
(** Blocking write (thread context only). *)

val read : 'a t -> 'a
(** Blocking read (thread context only). *)

val try_write : 'a t -> 'a -> bool
(** Non-blocking write; [false] when full. *)

val try_read : 'a t -> 'a option
(** Non-blocking read; [None] when empty. *)

val length : 'a t -> int
val capacity : 'a t -> int
val name : 'a t -> string
