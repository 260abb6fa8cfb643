type ev = {
  ev_name : string;
  ev_cat : string;
  ev_ph : char; (* 'X' complete span, 'i' instant *)
  ev_ts : float; (* microseconds since sink install *)
  ev_dur : float; (* microseconds; 0 for instants *)
  ev_depth : int;
  ev_pid : int; (* recording process; differs for absorbed worker events *)
  ev_args : (string * Json.t) list;
}

let dummy_ev =
  { ev_name = ""; ev_cat = ""; ev_ph = 'X'; ev_ts = 0.0; ev_dur = 0.0;
    ev_depth = 0; ev_pid = 0; ev_args = [] }

type sink = {
  ring : ev array;
  mutable pushed : int; (* total events ever pushed *)
  mutable depth : int;
  mutable max_depth : int;
  t0 : float; (* gettimeofday at install *)
  mutable last : float; (* monotonization high-water mark, us *)
  pid : int; (* process that installed the sink *)
  mutable foreign_dropped : int; (* drops reported by absorbed exports *)
  mutable procs : (int * string) list; (* pid -> display label, rev *)
}

let current : sink option ref = ref None

(* Domain-local shadow sinks, mirroring {!Metrics}: a worker domain
   records spans into its own private ring (installed per job via
   {!isolate_domain}) so the main sink's ring and depth counters are
   never touched cross-domain.  The shadow is exported in the same
   [dfv-trace-export] wire form the fork executor ships, with the
   domain id standing in for the worker pid. *)
let shadows_active = Atomic.make 0

let shadow_key : sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shadow () =
  if Atomic.get shadows_active = 0 then None else Domain.DLS.get shadow_key

(* The sink recording ops target: the domain's shadow when isolated,
   the process-wide sink otherwise. *)
let active () = match shadow () with Some _ as s -> s | None -> !current

(* Registered eagerly so a truncated trace is detectable from the
   metrics artifact alone, even when the count is zero. *)
let dropped_counter = Metrics.counter "trace.dropped"

(* Wall clock, monotonized: the reported time never decreases within a
   sink's lifetime even if the system clock steps backwards, so
   [dur >= 0] and parent spans always enclose their children. *)
let now_us s =
  let t = (Unix.gettimeofday () -. s.t0) *. 1e6 in
  let t = if t > s.last then t else s.last in
  s.last <- t;
  t

let sink_of_ring ring ~pid =
  {
    ring;
    pushed = 0;
    depth = 0;
    max_depth = 0;
    t0 = Unix.gettimeofday ();
    last = 0.0;
    pid;
    foreign_dropped = 0;
    procs = [ (pid, "dfv") ];
  }

let enable ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be >= 1";
  current :=
    Some (sink_of_ring (Array.make capacity dummy_ev) ~pid:(Unix.getpid ()))

let disable () = current := None
let enabled () = active () <> None

let push s e =
  if s.pushed >= Array.length s.ring then Metrics.incr dropped_counter;
  s.ring.(s.pushed mod Array.length s.ring) <- e;
  s.pushed <- s.pushed + 1

type span =
  | Null_span
  | Span of {
      sp_sink : sink;
      sp_name : string;
      sp_cat : string;
      sp_args : (string * Json.t) list;
      sp_t0 : float;
      sp_depth : int;
      mutable sp_closed : bool;
    }

let null_span = Null_span

let begin_span ?(cat = "dfv") ?(args = []) name =
  match active () with
  | None -> Null_span
  | Some s ->
    let d = s.depth in
    s.depth <- d + 1;
    if s.depth > s.max_depth then s.max_depth <- s.depth;
    Span
      {
        sp_sink = s;
        sp_name = name;
        sp_cat = cat;
        sp_args = args;
        sp_t0 = now_us s;
        sp_depth = d;
        sp_closed = false;
      }

let end_span span =
  match span with
  | Null_span -> ()
  | Span sp ->
    if not sp.sp_closed then begin
      sp.sp_closed <- true;
      let s = sp.sp_sink in
      (* Only record into the sink the span was begun under: a span that
         straddles a disable/enable would otherwise write nonsense
         timestamps into the new sink. *)
      if (match active () with Some c -> c == s | None -> false) then begin
        s.depth <- max 0 (s.depth - 1);
        push s
          {
            ev_name = sp.sp_name;
            ev_cat = sp.sp_cat;
            ev_ph = 'X';
            ev_ts = sp.sp_t0;
            ev_dur = now_us s -. sp.sp_t0;
            ev_depth = sp.sp_depth;
            ev_pid = s.pid;
            ev_args = sp.sp_args;
          }
      end
    end

let with_span ?cat ?args name f =
  match active () with
  | None -> f ()
  | Some _ ->
    let sp = begin_span ?cat ?args name in
    Fun.protect ~finally:(fun () -> end_span sp) f

let instant ?(cat = "dfv") ?(args = []) name =
  match active () with
  | None -> ()
  | Some s ->
    push s
      {
        ev_name = name;
        ev_cat = cat;
        ev_ph = 'i';
        ev_ts = now_us s;
        ev_dur = 0.0;
        ev_depth = s.depth;
        ev_pid = s.pid;
        ev_args = args;
      }

let depth () = match active () with Some s -> s.depth | None -> 0
let max_depth () = match active () with Some s -> s.max_depth | None -> 0

let stored s = min s.pushed (Array.length s.ring)

(* Oldest-first chronological order.  Complete events are pushed when the
   span *ends*, so the raw ring is end-ordered; sort by start time the
   way trace viewers expect. *)
let ordered s =
  let n = stored s in
  let cap = Array.length s.ring in
  let start = s.pushed - n in
  let evs = Array.init n (fun i -> s.ring.((start + i) mod cap)) in
  let a = Array.mapi (fun i e -> (e.ev_ts, i, e)) evs in
  Array.sort compare a;
  Array.to_list (Array.map (fun (_, _, e) -> e) a)

let events () =
  match !current with
  | None -> []
  | Some s ->
    List.map (fun e -> (e.ev_name, e.ev_ts, e.ev_dur, e.ev_depth)) (ordered s)

let json_of_ev e =
  let base =
    [ ("name", Json.String e.ev_name);
      ("cat", Json.String e.ev_cat);
      ("ph", Json.String (String.make 1 e.ev_ph));
      ("ts", Json.Float e.ev_ts);
      ("pid", Json.Int e.ev_pid);
      ("tid", Json.Int 1) ]
  in
  let dur = if e.ev_ph = 'X' then [ ("dur", Json.Float e.ev_dur) ] else [] in
  let scope = if e.ev_ph = 'i' then [ ("s", Json.String "t") ] else [] in
  let args =
    match e.ev_args with
    | [] -> []
    | args -> [ ("args", Json.Obj args) ]
  in
  Json.Obj (base @ dur @ scope @ args)

(* Chrome "M" metadata events naming each process lane, so a merged
   multi-pid timeline labels the parent and every worker. *)
let metadata_events s =
  List.rev_map
    (fun (pid, label) ->
      Json.Obj
        [ ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int pid);
          ("tid", Json.Int 1);
          ("args", Json.Obj [ ("name", Json.String label) ]) ])
    s.procs

let local_dropped s = s.pushed - stored s

let recent_json ?(limit = 32) () =
  match !current with
  | None -> Json.List []
  | Some s ->
    let evs = ordered s in
    let n = List.length evs in
    let evs = List.filteri (fun i _ -> i >= n - limit) evs in
    Json.List (List.map json_of_ev evs)

let to_json () =
  match !current with
  | None ->
    Json.envelope ~schema:"dfv-trace" ~version:1
      [ ("traceEvents", Json.List []); ("dropped", Json.Int 0) ]
  | Some s ->
    Json.envelope ~schema:"dfv-trace" ~version:1
      [ ("displayTimeUnit", Json.String "ms");
        ( "traceEvents",
          Json.List (metadata_events s @ List.map json_of_ev (ordered s)) );
        ("dropped", Json.Int (local_dropped s + s.foreign_dropped));
        ("maxDepth", Json.Int s.max_depth) ]

(* The bare Chrome "JSON array format": no envelope keys at all, for
   tools that choke on the object form.  The drop count still travels,
   as an instant in the stream rather than a top-level field. *)
let raw_json () =
  match !current with
  | None -> Json.List []
  | Some s ->
    let dropped = local_dropped s + s.foreign_dropped in
    let drop_ev =
      if dropped = 0 then []
      else
        [ Json.Obj
            [ ("name", Json.String "trace.dropped");
              ("ph", Json.String "i");
              ("ts", Json.Float 0.0);
              ("pid", Json.Int s.pid);
              ("tid", Json.Int 1);
              ("s", Json.String "g");
              ("args", Json.Obj [ ("dropped", Json.Int dropped) ]) ] ]
    in
    Json.List (metadata_events s @ drop_ev @ List.map json_of_ev (ordered s))

(* -- cross-process shipping ------------------------------------------- *)

let wire_of_ev e =
  let base =
    [ ("name", Json.String e.ev_name);
      ("cat", Json.String e.ev_cat);
      ("ph", Json.String (String.make 1 e.ev_ph));
      ("ts", Json.Float e.ev_ts);
      ("dur", Json.Float e.ev_dur);
      ("depth", Json.Int e.ev_depth) ]
  in
  match e.ev_args with
  | [] -> Json.Obj base
  | args -> Json.Obj (base @ [ ("args", Json.Obj args) ])

let export_of s =
  Json.envelope ~schema:"dfv-trace-export" ~version:1
    [ ("pid", Json.Int s.pid);
      ("t0_us", Json.Float (s.t0 *. 1e6));
      ("dropped", Json.Int (local_dropped s + s.foreign_dropped));
      ("max_depth", Json.Int s.max_depth);
      ("events", Json.List (List.map wire_of_ev (ordered s))) ]

let export () =
  match !current with None -> Json.Null | Some s -> export_of s

(* --- domain-local isolation -------------------------------------------- *)

(* The ring of the domain's last released shadow.  A pooled job reuses
   it when the main ring's capacity still matches, instead of allocating
   a ring as large as the main one per job; the new sink starts at
   [pushed = 0], so the stale slots are never read. *)
let spare_key : ev array option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* A shadow is installed only when the process sink is live: with
   tracing off there is nothing to merge into, and the worker's spans
   stay the usual one-branch no-ops.  The shadow's [pid] field carries
   the worker's domain id — {!absorb} turns it into a per-domain lane
   exactly as it gives forked workers per-pid lanes. *)
let isolate_domain () =
  (match Domain.DLS.get shadow_key with
  | Some _ -> invalid_arg "Trace.isolate_domain: already isolated"
  | None -> ());
  match !current with
  | None -> ()
  | Some main ->
    let capacity = Array.length main.ring in
    let ring =
      match Domain.DLS.get spare_key with
      | Some r when Array.length r = capacity -> r
      | _ -> Array.make capacity dummy_ev
    in
    Domain.DLS.set shadow_key
      (Some (sink_of_ring ring ~pid:(Domain.self () :> int)));
    Atomic.incr shadows_active

let domain_export () =
  match Domain.DLS.get shadow_key with
  | None -> Json.Null
  | Some s -> export_of s

let release_domain () =
  match Domain.DLS.get shadow_key with
  | Some s ->
    Domain.DLS.set spare_key (Some s.ring);
    Domain.DLS.set shadow_key None;
    Atomic.decr shadows_active
  | None -> ()

let ev_of_wire ~pid ~job ~offset_us j =
  let str name = match Json.field name j with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let num name = match Json.field name j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match (str "name", str "ph", num "ts", num "dur") with
  | Some name, Some ph, Some ts, Some dur when String.length ph = 1 ->
    let args =
      match Json.field "args" j with Some (Json.Obj a) -> a | _ -> []
    in
    let args =
      match job with
      | Some i -> args @ [ ("job", Json.Int i) ]
      | None -> args
    in
    Some
      {
        ev_name = name;
        ev_cat = (match str "cat" with Some c -> c | None -> "dfv");
        ev_ph = ph.[0];
        ev_ts = ts +. offset_us;
        ev_dur = dur;
        ev_depth =
          (match Json.field "depth" j with Some (Json.Int d) -> d | _ -> 0);
        ev_pid = pid;
        ev_args = args;
      }
  | _ -> None

let absorb ?label ?job j =
  match !current with
  | None -> Ok () (* parent is not tracing; nothing to merge into *)
  | Some s -> (
    match Json.envelope_of j with
    | Some ("dfv-trace-export", 1) -> (
      match
        (Json.field "pid" j, Json.field "t0_us" j, Json.field "events" j)
      with
      | Some (Json.Int pid), Some t0, Some (Json.List evs) ->
        let t0_us =
          match t0 with
          | Json.Float f -> f
          | Json.Int i -> float_of_int i
          | _ -> s.t0 *. 1e6
        in
        (* Re-base onto this sink's epoch: both epochs come from the
           same wall clock, so worker spans land where they actually
           ran relative to the parent's own spans. *)
        let offset_us = t0_us -. (s.t0 *. 1e6) in
        (match Json.field "dropped" j with
        | Some (Json.Int d) -> s.foreign_dropped <- s.foreign_dropped + d
        | _ -> ());
        (match Json.field "max_depth" j with
        | Some (Json.Int d) -> if d > s.max_depth then s.max_depth <- d
        | _ -> ());
        if not (List.mem_assoc pid s.procs) then begin
          let lane =
            match label with
            | Some l -> l
            | None -> Printf.sprintf "dfv worker %d" pid
          in
          s.procs <- (pid, lane) :: s.procs
        end;
        let bad = ref 0 in
        List.iter
          (fun w ->
            match ev_of_wire ~pid ~job ~offset_us w with
            | Some e -> push s e
            | None -> Stdlib.incr bad)
          evs;
        if !bad = 0 then Ok ()
        else Error (Printf.sprintf "Trace.absorb: %d malformed events" !bad)
      | _ -> Error "Trace.absorb: missing pid/t0_us/events"
      )
    | _ -> Error "Trace.absorb: not a dfv-trace-export v1 payload")

let write_file ?(raw = false) path =
  Json.write_file path (if raw then raw_json () else to_json ())
