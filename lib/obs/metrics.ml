(* A handle's [id] is its slot in the global registry's id space
   (assigned under the lock at creation); shadow-born handles carry -1
   and are already domain-local.  The id turns the shadow hot path into
   an array access instead of a per-operation string hash. *)
type counter = { c_name : string; c_id : int; mutable c : int }

type gauge = {
  g_name : string;
  g_id : int;
  mutable g : int;
  mutable g_max : int;
}

let nbuckets = 63

type histogram = {
  h_name : string;
  h_id : int;
  buckets : int array; (* length nbuckets *)
  mutable h_count : int;
  mutable h_sum : int;
}

(* Registries keep insertion order so snapshots are stable.  The
   [*_slots] arrays are the id-indexed fast lanes a shadow registry uses
   to find (or lazily create) its domain-local counterpart of a global
   handle; the global registry leaves them empty. *)
type registry = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  mutable order : [ `C of counter | `G of gauge | `H of histogram ] list;
  mutable c_slots : counter option array;
  mutable g_slots : gauge option array;
  mutable h_slots : histogram option array;
}

let fresh_registry () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    order = [];
    c_slots = [||];
    g_slots = [||];
    h_slots = [||];
  }

let global = fresh_registry ()

(* Registration is a cold path but may race when worker domains create
   handles by name while the main domain snapshots; a mutex keeps the
   global tables consistent.  Hot-path operations never take it. *)
let registry_lock = Mutex.create ()

(* Global id allocators, bumped under [registry_lock]. *)
let c_ids = ref 0
let g_ids = ref 0
let h_ids = ref 0

(* Domain-local shadow registries: while a {!Dpool} worker domain runs
   a job it records into its own private registry (installed via
   {!isolate_domain}), so the hot paths stay free of cross-domain data
   races and each job's telemetry is a clean delta.  The
   [shadows_active] fast path keeps the cost on runs with no domain
   workers to one atomic load and a branch. *)
let shadows_active = Atomic.make 0

let shadow_key : registry option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shadow () =
  if Atomic.get shadows_active = 0 then None else Domain.DLS.get shadow_key

(* [id] is consumed only on actual creation (a thunk, so global id
   allocation happens exactly once per name). *)
let no_id () = -1

let take ids () =
  let i = !ids in
  ids := i + 1;
  i

let counter_in ~id r name =
  match Hashtbl.find_opt r.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_id = id (); c = 0 } in
    Hashtbl.add r.counters name c;
    r.order <- `C c :: r.order;
    c

let gauge_in ~id r name =
  match Hashtbl.find_opt r.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_id = id (); g = 0; g_max = 0 } in
    Hashtbl.add r.gauges name g;
    r.order <- `G g :: r.order;
    g

let histogram_in ~id r name =
  match Hashtbl.find_opt r.histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_id = id ();
        buckets = Array.make nbuckets 0;
        h_count = 0;
        h_sum = 0;
      }
    in
    Hashtbl.add r.histograms name h;
    r.order <- `H h :: r.order;
    h

(* Slot lookup: the shadow's counterpart of a global handle, created on
   first touch (and entered into tbl/order so snapshots see it).  A
   shadow-born handle (id -1) is already this domain's record. *)
let grow slots i =
  let n = max 16 (max (i + 1) (2 * Array.length slots)) in
  let a = Array.make n None in
  Array.blit slots 0 a 0 (Array.length slots);
  a

let slot_counter r (c : counter) =
  let i = c.c_id in
  if i < 0 then c
  else begin
    if i >= Array.length r.c_slots then r.c_slots <- grow r.c_slots i;
    match r.c_slots.(i) with
    | Some c' -> c'
    | None ->
      let c' = counter_in ~id:(fun () -> i) r c.c_name in
      r.c_slots.(i) <- Some c';
      c'
  end

let slot_gauge r (g : gauge) =
  let i = g.g_id in
  if i < 0 then g
  else begin
    if i >= Array.length r.g_slots then r.g_slots <- grow r.g_slots i;
    match r.g_slots.(i) with
    | Some g' -> g'
    | None ->
      let g' = gauge_in ~id:(fun () -> i) r g.g_name in
      r.g_slots.(i) <- Some g';
      g'
  end

let slot_histogram r (h : histogram) =
  let i = h.h_id in
  if i < 0 then h
  else begin
    if i >= Array.length r.h_slots then r.h_slots <- grow r.h_slots i;
    match r.h_slots.(i) with
    | Some h' -> h'
    | None ->
      let h' = histogram_in ~id:(fun () -> i) r h.h_name in
      r.h_slots.(i) <- Some h';
      h'
  end

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter name =
  match shadow () with
  | Some r -> counter_in ~id:no_id r name
  | None -> with_lock (fun () -> counter_in ~id:(take c_ids) global name)

let incr c =
  match shadow () with
  | Some r ->
    let c = slot_counter r c in
    c.c <- c.c + 1
  | None -> c.c <- c.c + 1

let add c n =
  match shadow () with
  | Some r ->
    let c = slot_counter r c in
    c.c <- c.c + n
  | None -> c.c <- c.c + n

let counter_value c = c.c

let gauge name =
  match shadow () with
  | Some r -> gauge_in ~id:no_id r name
  | None -> with_lock (fun () -> gauge_in ~id:(take g_ids) global name)

let set_gauge g v =
  let g = match shadow () with Some r -> slot_gauge r g | None -> g in
  g.g <- v;
  if v > g.g_max then g.g_max <- v

let gauge_value g = g.g
let gauge_max g = g.g_max

let histogram name =
  match shadow () with
  | Some r -> histogram_in ~id:no_id r name
  | None -> with_lock (fun () -> histogram_in ~id:(take h_ids) global name)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 1 and x = ref v in
    while !x > 1 do
      x := !x lsr 1;
      b := !b + 1
    done;
    min !b (nbuckets - 1)
  end

let bucket_bounds i =
  if i < 0 || i >= nbuckets then invalid_arg "Metrics.bucket_bounds";
  if i = 0 then (min_int, 0)
  else if i = nbuckets - 1 then (1 lsl (i - 1), max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let observe h v =
  let h = match shadow () with Some r -> slot_histogram r h | None -> h in
  let b = h.buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v

let bucket_counts h = Array.copy h.buckets
let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

let reset () =
  Hashtbl.iter (fun _ c -> c.c <- 0) global.counters;
  Hashtbl.iter
    (fun _ g ->
      g.g <- 0;
      g.g_max <- 0)
    global.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 nbuckets 0;
      h.h_count <- 0;
      h.h_sum <- 0)
    global.histograms

(* Duration-valued metrics (wall-clock microseconds and friends) are
   non-deterministic across runs; everything else in a snapshot is a
   pure function of the workload.  The suffix convention is load-bearing:
   name a histogram [foo_us] and parity comparisons will ignore it. *)
let timing_metric name =
  let suffixed s =
    let n = String.length name and k = String.length s in
    n > k && String.sub name (n - k) k = s
  in
  suffixed "_us" || suffixed "_ns" || suffixed "_ms"

let merge j =
  let err what = Error ("Metrics.merge: " ^ what) in
  match Json.envelope_of j with
  | Some ("dfv-metrics", 1) ->
    let bad = ref None in
    let fail what = if !bad = None then bad := Some what in
    (match Json.field "counters" j with
    | Some (Json.Obj fields) ->
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Int n -> add (counter name) n
          | _ -> fail ("counter " ^ name))
        fields
    | _ -> fail "counters");
    (match Json.field "gauges" j with
    | Some (Json.Obj fields) ->
      List.iter
        (fun (name, v) ->
          match (Json.field "value" v, Json.field "max" v) with
          | Some (Json.Int value), Some (Json.Int max_v) ->
            let g = gauge name in
            (* Max-of-high-water: a merged gauge reports the peak any
               process saw; the instantaneous value has no cross-process
               meaning, so it too takes the max. *)
            if value > g.g then g.g <- value;
            if max_v > g.g_max then g.g_max <- max_v
          | _ -> fail ("gauge " ^ name))
        fields
    | _ -> fail "gauges");
    (match Json.field "histograms" j with
    | Some (Json.Obj fields) ->
      List.iter
        (fun (name, v) ->
          match
            (Json.field "count" v, Json.field "sum" v, Json.field "buckets" v)
          with
          | Some (Json.Int count), Some (Json.Int sum), Some (Json.List bs) ->
            let h = histogram name in
            h.h_count <- h.h_count + count;
            h.h_sum <- h.h_sum + sum;
            List.iter
              (fun b ->
                match (Json.field "lo" b, Json.field "count" b) with
                | Some (Json.Int lo), Some (Json.Int n) ->
                  (* [bucket_of lo] inverts [bucket_bounds]: lo <= 0 is
                     bucket 0, lo = 2^(i-1) is bucket i. *)
                  let i = bucket_of lo in
                  h.buckets.(i) <- h.buckets.(i) + n
                | _ -> fail ("histogram bucket in " ^ name))
              bs
          | _ -> fail ("histogram " ^ name))
        fields
    | _ -> fail "histograms");
    (match !bad with None -> Ok () | Some what -> err ("malformed " ^ what))
  | _ -> err "not a dfv-metrics v1 snapshot"

(* Reduce a snapshot to its run-deterministic core: drop duration-valued
   metrics wholesale and keep only the high-water mark of each gauge, so
   a sharded run's merged snapshot compares equal to the sequential
   run's byte for byte. *)
let strip_timing j =
  let keep (name, _) = not (timing_metric name) in
  match j with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | ("counters", Json.Obj fs) | ("histograms", Json.Obj fs) ->
             (k, Json.Obj (List.filter keep fs))
           | ("gauges", Json.Obj fs) ->
             ( k,
               Json.Obj
                 (List.filter_map
                    (fun (name, v) ->
                      if timing_metric name then None
                      else
                        match Json.field "max" v with
                        | Some m -> Some (name, Json.Obj [ ("max", m) ])
                        | None -> Some (name, v))
                    fs) )
           | _ -> (k, v))
         fields)
  | _ -> j

let snapshot_of r =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  List.iter
    (function
      | `C c -> cs := (c.c_name, Json.Int c.c) :: !cs
      | `G g ->
        gs :=
          ( g.g_name,
            Json.Obj [ ("value", Json.Int g.g); ("max", Json.Int g.g_max) ] )
          :: !gs
      | `H h ->
        let buckets = ref [] in
        for i = nbuckets - 1 downto 0 do
          if h.buckets.(i) > 0 then begin
            let lo, hi = bucket_bounds i in
            buckets :=
              Json.Obj
                [ ("lo", Json.Int lo);
                  ("hi", Json.Int hi);
                  ("count", Json.Int h.buckets.(i)) ]
              :: !buckets
          end
        done;
        hs :=
          ( h.h_name,
            Json.Obj
              [ ("count", Json.Int h.h_count);
                ("sum", Json.Int h.h_sum);
                ("buckets", Json.List !buckets) ] )
          :: !hs)
    r.order;
  Json.envelope ~schema:"dfv-metrics" ~version:1
    [ ("counters", Json.Obj !cs);
      ("gauges", Json.Obj !gs);
      ("histograms", Json.Obj !hs) ]

let snapshot () = snapshot_of global

(* --- domain-local isolation (the in-process worker protocol) ----------- *)

let isolate_domain () =
  (match Domain.DLS.get shadow_key with
  | Some _ -> invalid_arg "Metrics.isolate_domain: already isolated"
  | None -> ());
  Domain.DLS.set shadow_key (Some (fresh_registry ()));
  Atomic.incr shadows_active

let domain_snapshot () =
  match Domain.DLS.get shadow_key with
  | Some r -> snapshot_of r
  | None -> invalid_arg "Metrics.domain_snapshot: not isolated"

let release_domain () =
  match Domain.DLS.get shadow_key with
  | Some _ ->
    Domain.DLS.set shadow_key None;
    Atomic.decr shadows_active
  | None -> ()
