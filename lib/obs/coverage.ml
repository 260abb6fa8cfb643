type kind = Count | Ignore_bin | Illegal

type bin = { b_name : string; b_lo : int; b_hi : int; b_kind : kind }

type point = {
  pt_name : string;
  pt_bins : bin array;
  pt_hits : int array;
  pt_at_least : int;
  mutable pt_illegal : int;
  mutable pt_misses : int;
  mutable pt_samples : int;
}

type group = { grp_name : string; mutable grp_points : point list (* rev *) }

(* Registries keep insertion order so snapshots are stable. *)
type registry_t = {
  tbl : (string, group) Hashtbl.t;
  mutable order : group list; (* rev *)
}

let fresh_registry () = { tbl = Hashtbl.create 8; order = [] }
let registry = fresh_registry ()

(* Cold-path guard: worker domains may find-or-create groups by name
   while the main domain snapshots.  Points and samples only touch the
   group/point records the caller already holds — under domain
   isolation those live in the domain's own shadow, so the hot sampling
   path needs no lock. *)
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* Domain-local shadow registries, mirroring {!Metrics}: a {!Dfv_par.Dpool}
   worker domain resolves covergroups into its own private registry so
   each job's coverage is a clean delta, merged back on the coordinating
   domain through {!merge}. *)
let shadows_active = Atomic.make 0

let shadow_key : registry_t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shadow () =
  if Atomic.get shadows_active = 0 then None else Domain.DLS.get shadow_key

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let bin ?(kind = Count) name ~lo ~hi =
  if hi < lo then invalid_arg "Coverage.bin: hi < lo";
  { b_name = name; b_lo = lo; b_hi = hi; b_kind = kind }

let group_in r name =
  match Hashtbl.find_opt r.tbl name with
  | Some g -> g
  | None ->
    let g = { grp_name = name; grp_points = [] } in
    Hashtbl.add r.tbl name g;
    r.order <- g :: r.order;
    g

let group name =
  match shadow () with
  | Some r -> group_in r name
  | None -> with_lock (fun () -> group_in registry name)

let point g name ?(at_least = 1) bins =
  match List.find_opt (fun p -> p.pt_name = name) g.grp_points with
  | Some p -> p
  | None ->
    if at_least < 1 then invalid_arg "Coverage.point: at_least must be >= 1";
    let p =
      {
        pt_name = name;
        pt_bins = Array.of_list bins;
        pt_hits = Array.make (List.length bins) 0;
        pt_at_least = at_least;
        pt_illegal = 0;
        pt_misses = 0;
        pt_samples = 0;
      }
    in
    g.grp_points <- p :: g.grp_points;
    p

let sample p v =
  p.pt_samples <- p.pt_samples + 1;
  let n = Array.length p.pt_bins in
  let rec find i =
    if i >= n then p.pt_misses <- p.pt_misses + 1
    else begin
      let b = p.pt_bins.(i) in
      if v >= b.b_lo && v <= b.b_hi then begin
        p.pt_hits.(i) <- p.pt_hits.(i) + 1;
        match b.b_kind with
        | Count | Ignore_bin -> ()
        | Illegal ->
          p.pt_illegal <- p.pt_illegal + 1;
          Trace.instant ~cat:"coverage"
            ~args:
              [ ("point", Json.String p.pt_name);
                ("bin", Json.String b.b_name);
                ("value", Json.Int v) ]
            "coverage.illegal"
      end
      else find (i + 1)
    end
  in
  find 0

let bin_hits p =
  Array.to_list
    (Array.mapi
       (fun i b -> (b.b_name, b.b_kind, p.pt_hits.(i)))
       p.pt_bins)

let illegal_count p = p.pt_illegal
let miss_count p = p.pt_misses
let samples p = p.pt_samples

let point_coverage p =
  let total = ref 0 and covered = ref 0 in
  Array.iteri
    (fun i b ->
      if b.b_kind = Count then begin
        Stdlib.incr total;
        if p.pt_hits.(i) >= p.pt_at_least then Stdlib.incr covered
      end)
    p.pt_bins;
  if !total = 0 then 1.0 else float_of_int !covered /. float_of_int !total

let group_coverage g =
  match g.grp_points with
  | [] -> 1.0
  | ps ->
    List.fold_left (fun acc p -> acc +. point_coverage p) 0.0 ps
    /. float_of_int (List.length ps)

let points g = List.rev g.grp_points
let point_name p = p.pt_name
let groups () = List.rev registry.order

let reset () =
  Hashtbl.iter
    (fun _ g ->
      List.iter
        (fun p ->
          Array.fill p.pt_hits 0 (Array.length p.pt_hits) 0;
          p.pt_illegal <- 0;
          p.pt_misses <- 0;
          p.pt_samples <- 0)
        g.grp_points)
    registry.tbl

let clear () =
  Hashtbl.reset registry.tbl;
  registry.order <- []

let kind_string = function
  | Count -> "count"
  | Ignore_bin -> "ignore"
  | Illegal -> "illegal"

let kind_of_string = function
  | "count" -> Some Count
  | "ignore" -> Some Ignore_bin
  | "illegal" -> Some Illegal
  | _ -> None

let point_json p =
  Json.Obj
    [ ("name", Json.String p.pt_name);
      ("samples", Json.Int p.pt_samples);
      ("at_least", Json.Int p.pt_at_least);
      ("coverage", Json.Float (point_coverage p));
      ("illegal_hits", Json.Int p.pt_illegal);
      ("misses", Json.Int p.pt_misses);
      ( "bins",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i b ->
                  Json.Obj
                    [ ("name", Json.String b.b_name);
                      ("kind", Json.String (kind_string b.b_kind));
                      ("lo", Json.Int b.b_lo);
                      ("hi", Json.Int b.b_hi);
                      ("hits", Json.Int p.pt_hits.(i)) ])
                p.pt_bins)) ) ]

let group_json g =
  Json.Obj
    [ ("name", Json.String g.grp_name);
      ("coverage", Json.Float (group_coverage g));
      ("points", Json.List (List.map point_json (points g))) ]

let snapshot_of r =
  Json.envelope ~schema:"dfv-coverage" ~version:1
    [ ("groups", Json.List (List.map group_json (List.rev r.order))) ]

let snapshot () = snapshot_of registry

(* --- domain-local isolation (the in-process worker protocol) ----------- *)

let isolate_domain () =
  (match Domain.DLS.get shadow_key with
  | Some _ -> invalid_arg "Coverage.isolate_domain: already isolated"
  | None -> ());
  Domain.DLS.set shadow_key (Some (fresh_registry ()));
  Atomic.incr shadows_active

let domain_snapshot () =
  match Domain.DLS.get shadow_key with
  | Some r -> snapshot_of r
  | None -> invalid_arg "Coverage.domain_snapshot: not isolated"

let release_domain () =
  match Domain.DLS.get shadow_key with
  | Some _ ->
    Domain.DLS.set shadow_key None;
    Atomic.decr shadows_active
  | None -> ()

(* -- cross-process merge ---------------------------------------------- *)

(* Rebuild a worker's bins from their wire descriptors so the parent
   needs no prior registration: groups and points are found-or-created
   with the shipped shape, then hit counts are summed by bin position.
   Merging never re-emits illegal-hit trace instants — the worker
   already recorded those when it sampled. *)
let merge_point g pj =
  match (Json.string_field "name" pj, Json.field "bins" pj) with
  | Some name, Some (Json.List bins_j) ->
    let descr =
      List.map
        (fun bj ->
          match
            ( Json.string_field "name" bj,
              Json.string_field "kind" bj,
              Json.int_field "lo" bj,
              Json.int_field "hi" bj,
              Json.int_field "hits" bj )
          with
          | Some bname, Some k, Some lo, Some hi, Some hits -> (
            match kind_of_string k with
            | Some kind when hi >= lo -> Some (bin ~kind bname ~lo ~hi, hits)
            | _ -> None)
          | _ -> None)
        bins_j
    in
    if List.exists (fun d -> d = None) descr then
      Error ("Coverage.merge: malformed bin in point " ^ name)
    else begin
      let descr = List.filter_map Fun.id descr in
      let at_least =
        match Json.int_field "at_least" pj with
        | Some a when a >= 1 -> a
        | _ -> 1
      in
      let p = point g name ~at_least (List.map fst descr) in
      if Array.length p.pt_bins <> List.length descr then
        Error ("Coverage.merge: bin shape mismatch in point " ^ name)
      else begin
        List.iteri (fun i (_, hits) -> p.pt_hits.(i) <- p.pt_hits.(i) + hits)
          descr;
        (match Json.int_field "illegal_hits" pj with
        | Some n -> p.pt_illegal <- p.pt_illegal + n
        | None -> ());
        (match Json.int_field "misses" pj with
        | Some n -> p.pt_misses <- p.pt_misses + n
        | None -> ());
        (match Json.int_field "samples" pj with
        | Some n -> p.pt_samples <- p.pt_samples + n
        | None -> ());
        Ok ()
      end
    end
  | _ -> Error "Coverage.merge: malformed point"

let merge j =
  match Json.envelope_of j with
  | Some ("dfv-coverage", 1) -> (
    match Json.field "groups" j with
    | Some (Json.List gs) ->
      List.fold_left
        (fun acc gj ->
          match (Json.string_field "name" gj, Json.field "points" gj) with
          | Some gname, Some (Json.List ps) ->
            let g = group gname in
            List.fold_left
              (fun acc pj ->
                match merge_point g pj with
                | Ok () -> acc
                | Error _ as e -> if acc = Ok () then e else acc)
              acc ps
          | _ ->
            if acc = Ok () then Error "Coverage.merge: malformed group"
            else acc)
        (Ok ()) gs
    | _ -> Error "Coverage.merge: missing groups")
  | _ -> Error "Coverage.merge: not a dfv-coverage v1 snapshot"
