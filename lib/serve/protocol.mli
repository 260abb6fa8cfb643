(** The [dfv serve] wire protocol: line-framed JSON requests and
    responses over a Unix-domain socket.

    Framing is one complete JSON object per newline-terminated line,
    and every frame carries the common artifact envelope
    [{"schema":"dfv-serve","version":1,"kind":...}].  Two frame kinds:

    {v
    frame    ::= request | response
    request  ::= {envelope, "kind":"request", "id":INT, "op":OP, ...op fields}
    OP       ::= "sec" | "sim" | "faultsim" | "ping" | "stats" | "shutdown"
    response ::= {envelope, "kind":"response", "id":INT, "key":STR,
                  "cached":BOOL, "seconds":FLOAT,
                  "result":PAYLOAD | "error":DFV_ERROR}
    v}

    [id] is a client-chosen correlation number echoed in the response;
    a client may pipeline many requests on one connection and match
    answers by [id].  Errors travel as the structured
    {!Dfv_core.Dfv_error} taxonomy ([to_json]/[of_json]), never as
    flattened strings, so a client exits with the same code the cold
    CLI would have. *)

val schema : string
(** ["dfv-serve"]. *)

val version : int

(** {2 Operations} *)

type op =
  | Sec of {
      design : string;
      bug : string;  (** ["none"] for the reference model *)
      budget : Dfv_sat.Solver.budget option;
    }
  | Sim of { design : string; bug : string; vectors : int; seed : int }
  | Faultsim of {
      designs : string list;
      seed : int;
      max_rtl_faults : int;
      max_slm_faults : int;
      sim_vectors : int;
      budget : Dfv_sat.Solver.budget option;
    }
  | Ping  (** liveness probe; never cached *)
  | Stats  (** server/cache counters as a [dfv-serve] stats document *)
  | Shutdown  (** acknowledged, then the daemon exits cleanly *)

val op_name : op -> string

type request = { id : int; op : op }

(** {2 Result payloads} *)

type sim_wire =
  | Sim_clean of int  (** vectors run, no mismatch *)
  | Sim_mismatch of int  (** first mismatching vector index *)

type faultsim_wire = {
  f_pass : bool;
  f_rate : float;
  f_false_eq : int;
  f_report : Dfv_obs.Json.t;  (** the full dfv-faultsim report document *)
}

type payload =
  | R_sec of Dfv_par.Portfolio.slm_wire
  | R_sim of sim_wire
  | R_faultsim of faultsim_wire
  | R_pong
  | R_stats of Dfv_obs.Json.t
  | R_shutdown

val payload_status : payload -> string
(** One-word outcome ("equivalent", "mismatch", "pass", ...) used in
    request logs and for the client's exit-code mapping. *)

type response = {
  rsp_id : int;
  key : string;  (** cache key; [""] for control operations *)
  cached : bool;
  seconds : float;  (** server-side handling time *)
  outcome : (payload, Dfv_core.Dfv_error.t) result;
}

(** {2 JSON codecs}

    [X_of_json (X_to_json v)] reconstructs [v] for every protocol
    value (timings aside: floats round-trip via the strict printer). *)

val budget_to_json : Dfv_sat.Solver.budget option -> Dfv_obs.Json.t
val budget_of_json :
  Dfv_obs.Json.t -> (Dfv_sat.Solver.budget option, string) result

val request_to_json : request -> Dfv_obs.Json.t
val request_of_json : Dfv_obs.Json.t -> (request, string) result

val payload_to_json : payload -> Dfv_obs.Json.t
val payload_of_json : Dfv_obs.Json.t -> (payload, string) result

val payload_valid : Dfv_obs.Json.t -> bool
(** Shape validation for cache entries read back from a disk store: a
    record whose payload does not decode is poisoned and must be
    rejected, not served. *)

val response_to_json : response -> Dfv_obs.Json.t
val response_of_json : Dfv_obs.Json.t -> (response, string) result

(** {2 Framing} *)

val frame : Dfv_obs.Json.t -> string
(** One newline-terminated line. *)

val parse_frame : string -> (Dfv_obs.Json.t, string) result
