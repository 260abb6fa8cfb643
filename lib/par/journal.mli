(** Append-only, crash-safe write-ahead journal for campaign results.

    A long fault campaign or SEC portfolio is a bag of independent jobs
    whose verdicts are pure functions of the run configuration (the
    {!Pool.job_seed} determinism guarantee).  The journal makes that bag
    durable: every completed job result is appended as one line-framed
    {!Dfv_obs.Json} record — fsync'd before the append returns — keyed
    by a structural {e fingerprint} of the job, so a run killed at any
    instant can be resumed by replaying the completed records and
    re-running only the missing jobs.  Because verdicts are
    deterministic, the resumed report is byte-identical (timings aside)
    to an uninterrupted run.

    {2 File format}

    One JSON object per line, every line carrying the common artifact
    envelope [{"schema":"dfv-journal","version":1,...}]:

    - the first line is the header,
      [{..., "kind":"header", "campaign":FP}], where [FP] fingerprints
      the full run configuration — resuming under a different
      configuration is refused rather than silently mixed;
    - every further line is a result,
      [{..., "kind":"result", "fp":FP, "payload":V}], where [FP]
      fingerprints one job and [V] is its wire-form result.

    {2 Corruption policy} (deterministic, and tested)

    - A {e torn tail} — a final line segment that does not parse as a
      complete record (a write cut short by the crash the journal
      exists to survive) — is {e tolerated}: the segment is dropped,
      {!torn} reports it, and {!open_} truncates it away so new appends
      start on a clean boundary.  A single torn write can produce at
      most one such segment.
    - {e Duplicate fingerprints} (a crash between fsync and the
      caller's bookkeeping can re-append a record on resume) are
      {e tolerated}: the first record wins, later ones are counted in
      {!dropped}.
    - Everything else is {e rejected} with an error: a missing or
      malformed header, a schema/version mismatch on any line, an
      unparseable line in the interior (more than one bad trailing
      segment cannot come from a single torn write — that is external
      corruption), or a campaign fingerprint that does not match the
      resuming run. *)

type t
(** An open journal: an append fd plus the in-memory index of every
    result it already holds. *)

val fingerprint : string -> string
(** A stable fingerprint of a canonical key string (an FNV-1a 64-bit
    hash, rendered as 16 hex digits).  Used for both the campaign
    header and per-job keys; collisions across the handful of jobs in
    one campaign are not a realistic concern. *)

val open_ : path:string -> campaign:string -> (t, string) result
(** Create the journal at [path] (writing and fsyncing the header), or
    — when the file already exists — load and index it for resumption.
    Errors on the corruption cases above and when the existing header's
    campaign fingerprint differs from [campaign] (the caller passes the
    {e key string}; it is fingerprinted internally). *)

val campaign : t -> string
(** The campaign fingerprint in the header. *)

val find : t -> string -> Dfv_obs.Json.t option
(** [find t fp] is the payload recorded for job fingerprint [fp], if
    any — either replayed at {!open_} or appended this run. *)

val replayed : t -> int
(** Result records loaded from disk at {!open_} (0 for a fresh file). *)

val replayed_entries : t -> (string * Dfv_obs.Json.t) list
(** The records {!replayed} counts, as [(fp, payload)] in append order —
    what a consumer that replays {e state} rather than single lookups
    (the {!Dfv_serve} cache warming its LRU) iterates over. *)

val torn : t -> bool
(** Whether {!open_} dropped a torn final segment. *)

val dropped : t -> int
(** Duplicate-fingerprint records dropped at {!open_} (first wins). *)

val append : t -> fp:string -> Dfv_obs.Json.t -> unit
(** Durably record one job result: the line is written and fsync'd
    before returning, and indexed for {!find}.  A fingerprint already
    present is ignored (the disk record stands).  I/O failures raise
    [Sys_error] — a journal that cannot persist must not pretend to. *)

val close : t -> unit

type info = {
  info_campaign : string;  (** header campaign fingerprint *)
  info_records : (string * Dfv_obs.Json.t) list;
      (** the result records {!open_} would replay, as [(fp, payload)]
          in append order: first occurrence of each fingerprint, torn
          tail dropped *)
  info_dropped : int;  (** duplicates dropped *)
  info_torn : bool;  (** a torn final segment was dropped *)
}

val inspect : string -> (info, string) result
(** Read-only reading of a journal file (what [dfv validate] and
    [dfv report] run): the same parse and corruption policy as
    {!open_}, without touching the file. *)
