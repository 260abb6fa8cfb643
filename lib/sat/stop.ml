exception Stopped

type t = { cancelled : bool Atomic.t; deadline : float }

let process = Atomic.make false
let request () = Atomic.set process true
let requested () = Atomic.get process
let reset () = Atomic.set process false

let token ?(deadline = infinity) cancelled = { cancelled; deadline }
let expired t = t.deadline < infinity && Unix.gettimeofday () > t.deadline

(* The token of a domain outside any pooled job, recognised by identity:
   it never stops. *)
let inert = token (Atomic.make false)
let current = Domain.DLS.new_key (fun () -> inert)

let with_token t f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f

let stopped () =
  let t = Domain.DLS.get current in
  t != inert && (Atomic.get process || Atomic.get t.cancelled || expired t)

let poll () = if stopped () then raise Stopped
