(** Span tracer: nestable, monotonic-clock-timed spans with typed
    attributes, collected into a bounded ring buffer and emitted as
    Chrome [trace_event] JSON (load the file in [chrome://tracing] or
    Perfetto).

    The tracer is a process-wide sink.  When no sink is installed —
    the default — every entry point is a cheap no-op: [begin_span]
    returns a shared null span after one reference comparison, so
    instrumented hot paths cost a branch.  Timestamps come from a
    monotonized wall clock (never decreasing within a sink's life), so
    span durations are always non-negative and nesting is reconstructible
    from [ts]/[dur] alone, which is exactly how Chrome renders it. *)

type span

val null_span : span

val enable : ?capacity:int -> unit -> unit
(** Install a fresh sink with room for [capacity] (default 65536)
    events; older events are overwritten ring-buffer style and counted
    as dropped. *)

val disable : unit -> unit
(** Remove the sink (recorded events are discarded). *)

val enabled : unit -> bool

val begin_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> span

val end_span : span -> unit
(** Close the span and record it as one complete ("ph":"X") event.
    Closing [null_span] (or any span begun while disabled) is a no-op. *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is closed even on exceptions. *)

val instant : ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Record a zero-duration ("ph":"i") event. *)

val depth : unit -> int
(** Current span nesting depth (0 when disabled or outside any span). *)

val max_depth : unit -> int
(** Deepest nesting observed since the sink was installed. *)

val events : unit -> (string * float * float * int) list
(** Recorded events, oldest first, as [(name, ts_us, dur_us, depth)] —
    the typed view the tests inspect. *)

val recent_json : ?limit:int -> unit -> Json.t
(** The last [limit] (default 32) events as a JSON list — the span
    snapshot embedded in triage bundles. *)

val to_json : unit -> Json.t
(** The whole buffer under the common envelope:
    [{"schema":"dfv-trace","version":1,"traceEvents":[...],...}].
    Chrome's JSON object format ignores the extra keys.  Events carry
    the pid of the process that recorded them (absorbed worker events
    keep their worker's pid), preceded by ["process_name"] metadata
    events labelling each lane; ["dropped"] counts ring overwrites here
    {e plus} drops reported by absorbed exports. *)

val raw_json : unit -> Json.t
(** The bare Chrome "JSON array format" — just the event list, no
    envelope keys — for consumers that reject the object form.  A
    nonzero drop count is carried as a ["trace.dropped"] instant. *)

val export : unit -> Json.t
(** Worker side of cross-process shipping: the sink's whole buffer as a
    [{"schema":"dfv-trace-export","version":1,...}] payload carrying
    this process's pid, the sink's absolute epoch (so the parent can
    re-base timestamps), the drop count, and every event with its
    sink-relative timestamps.  [Json.Null] when disabled. *)

val absorb : ?label:string -> ?job:int -> Json.t -> (unit, string) result
(** Parent side: merge an {!export}ed buffer into the current sink.
    Timestamps are re-based from the worker's epoch onto this sink's,
    events keep the worker's pid (rendering as a separate process lane,
    named [label] when given — e.g. ["dfv domain 3"] — else
    ["dfv worker <pid>"]) and are tagged with [args.job] when [job] is
    given; the export's drop count accumulates into this sink's
    reported [dropped].  A no-op [Ok ()] when tracing is disabled
    here. *)

(** {2 Domain-local isolation}

    The in-process analogue of {!export}/{!absorb} for
    {!Dfv_par.Dpool} worker domains: {!isolate_domain} installs a
    private shadow sink on the calling domain (only when process-wide
    tracing is enabled — otherwise spans stay no-ops), after which the
    domain's spans record into its own ring, tagged with the domain id
    in place of a worker pid.  {!domain_export} renders the shadow in
    the same [dfv-trace-export] wire form, ready for {!absorb} on the
    coordinating domain, and {!release_domain} uninstalls it. *)

val isolate_domain : unit -> unit
(** Install a fresh shadow sink on the calling domain (no-op when
    tracing is disabled).  The sink starts empty but reuses the ring of
    the domain's last released shadow while the process ring's capacity
    is unchanged, so a domain running many jobs allocates one ring, not
    one per job.  Raises [Invalid_argument] if the domain is already
    isolated. *)

val domain_export : unit -> Json.t
(** The calling domain's shadow sink as a [dfv-trace-export] payload;
    [Json.Null] when the domain is not isolated. *)

val release_domain : unit -> unit
(** Uninstall the calling domain's shadow sink (a no-op when none is
    installed). *)

val write_file : ?raw:bool -> string -> unit
(** Write {!to_json} (or {!raw_json} when [raw]) to [path]. *)
