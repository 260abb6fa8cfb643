module Bitvec = Dfv_bitvec.Bitvec
module Solver = Dfv_sat.Solver
module Interp = Dfv_hwir.Interp
module Checker = Dfv_sec.Checker
module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json

(* --- wire forms --------------------------------------------------------

   What a journal record, a serve cache entry and a client response
   carry. *)

let reason_to_json = function
  | Solver.Conflict_limit -> Json.String "conflict_limit"
  | Solver.Time_limit -> Json.String "time_limit"

let reason_of_json = function
  | Json.String "conflict_limit" -> Ok Solver.Conflict_limit
  | Json.String "time_limit" -> Ok Solver.Time_limit
  | _ -> Error "bad solver reason"

let stats_to_json (s : Checker.stats) =
  Json.Obj
    [ ("aig_ands", Json.Int s.aig_ands);
      ("sat_conflicts", Json.Int s.sat_conflicts);
      ("sat_decisions", Json.Int s.sat_decisions);
      ("sat_propagations", Json.Int s.sat_propagations);
      ("sat_clauses", Json.Int s.sat_clauses);
      ("learnts_removed", Json.Int s.learnts_removed);
      ("nodes_encoded", Json.Int s.nodes_encoded);
      ("nodes_reused", Json.Int s.nodes_reused);
      ("unroll_hits", Json.Int s.unroll_hits);
      ("queries", Json.Int s.queries);
      ("unknowns", Json.Int s.unknowns);
      ( "frame_seconds",
        Json.List (List.map (fun f -> Json.Float f) s.frame_seconds) );
      ("wall_seconds", Json.Float s.wall_seconds) ]

let ( let* ) = Result.bind

let int_field = Json.required "int" Json.int_field
let float_field = Json.required "float" Json.float_field
let string_field = Json.required "string" Json.string_field

let stats_of_json v : (Checker.stats, string) result =
  let* aig_ands = int_field v "aig_ands" in
  let* sat_conflicts = int_field v "sat_conflicts" in
  let* sat_decisions = int_field v "sat_decisions" in
  let* sat_propagations = int_field v "sat_propagations" in
  let* sat_clauses = int_field v "sat_clauses" in
  let* learnts_removed = int_field v "learnts_removed" in
  let* nodes_encoded = int_field v "nodes_encoded" in
  let* nodes_reused = int_field v "nodes_reused" in
  let* unroll_hits = int_field v "unroll_hits" in
  let* queries = int_field v "queries" in
  let* unknowns = int_field v "unknowns" in
  let* frame_seconds =
    match Json.field "frame_seconds" v with
    | Some (Json.List fs) ->
      List.fold_right
        (fun f acc ->
          let* acc = acc in
          match f with
          | Json.Float f -> Ok (f :: acc)
          | Json.Int i -> Ok (float_of_int i :: acc)
          | _ -> Error "non-number frame time")
        fs (Ok [])
    | _ -> Error "missing list field \"frame_seconds\""
  in
  let* wall_seconds = float_field v "wall_seconds" in
  Ok
    {
      Checker.aig_ands;
      sat_conflicts;
      sat_decisions;
      sat_propagations;
      sat_clauses;
      learnts_removed;
      nodes_encoded;
      nodes_reused;
      unroll_hits;
      queries;
      unknowns;
      frame_seconds;
      wall_seconds;
    }

(* SLM argument values as Verilog literals — the whole counterexample is
   a function of these (see [Checker.cex_of_params]). *)
let value_to_json = function
  | Interp.Vint bv -> Json.Obj [ ("int", Json.String (Bitvec.to_string bv)) ]
  | Interp.Varr a ->
    Json.Obj
      [ ( "arr",
          Json.List
            (Array.to_list a
            |> List.map (fun bv -> Json.String (Bitvec.to_string bv))) ) ]

let value_of_json v =
  let bv s =
    match Bitvec.of_string s with
    | bv -> Ok bv
    | exception Invalid_argument m -> Error ("bad bitvector literal: " ^ m)
  in
  match (Json.field "int" v, Json.field "arr" v) with
  | Some (Json.String s), _ ->
    let* b = bv s in
    Ok (Interp.Vint b)
  | _, Some (Json.List elems) ->
    let* bvs =
      List.fold_right
        (fun e acc ->
          let* acc = acc in
          match e with
          | Json.String s ->
            let* b = bv s in
            Ok (b :: acc)
          | _ -> Error "non-string array element")
        elems (Ok [])
    in
    Ok (Interp.Varr (Array.of_list bvs))
  | _ -> Error "bad SLM value"

let params_to_json params =
  Json.List
    (List.map
       (fun (name, v) ->
         Json.Obj [ ("name", Json.String name); ("value", value_to_json v) ])
       params)

let params_of_json = function
  | Json.List entries ->
    List.fold_right
      (fun e acc ->
        let* acc = acc in
        let* name = string_field e "name" in
        match Json.field "value" e with
        | Some v ->
          let* v = value_of_json v in
          Ok ((name, v) :: acc)
        | None -> Error "parameter without value")
      entries (Ok [])
  | _ -> Error "bad parameter list"

(* --- strategy race: SLM vs RTL ----------------------------------------- *)

(* A verdict with its counterexample reduced to the parameter
   assignment. *)
type slm_wire =
  | W_equivalent of Checker.stats
  | W_not_equivalent of (string * Interp.value) list * Checker.stats
  | W_unknown of Solver.reason * Checker.stats

let slm_wire_to_json = function
  | W_equivalent stats ->
    Json.Obj
      [ ("verdict", Json.String "equivalent"); ("stats", stats_to_json stats) ]
  | W_not_equivalent (params, stats) ->
    Json.Obj
      [ ("verdict", Json.String "not_equivalent");
        ("params", params_to_json params);
        ("stats", stats_to_json stats) ]
  | W_unknown (r, stats) ->
    Json.Obj
      [ ("verdict", Json.String "unknown");
        ("reason", reason_to_json r);
        ("stats", stats_to_json stats) ]

let slm_wire_of_json v =
  let* verdict = string_field v "verdict" in
  let* stats =
    match Json.field "stats" v with
    | Some s -> stats_of_json s
    | None -> Error "missing stats"
  in
  match verdict with
  | "equivalent" -> Ok (W_equivalent stats)
  | "not_equivalent" -> (
    match Json.field "params" v with
    | Some p ->
      let* params = params_of_json p in
      Ok (W_not_equivalent (params, stats))
    | None -> Error "not_equivalent without params")
  | "unknown" -> (
    match Json.field "reason" v with
    | Some r ->
      let* r = reason_of_json r in
      Ok (W_unknown (r, stats))
    | None -> Error "unknown without reason")
  | v -> Error (Printf.sprintf "unknown verdict %S" v)

let slm_conclusive = function
  | W_equivalent _ | W_not_equivalent _ -> true
  | W_unknown _ -> false

let slm_wire_of_verdict = function
  | Checker.Equivalent stats -> W_equivalent stats
  | Checker.Not_equivalent (cex, stats) ->
    W_not_equivalent (cex.Checker.params, stats)
  | Checker.Unknown (r, stats) -> W_unknown (r, stats)

let verdict_of_slm_wire ~slm ~rtl ~spec = function
  | W_equivalent stats -> Checker.Equivalent stats
  | W_not_equivalent (params, stats) ->
    Checker.Not_equivalent (Checker.cex_of_params ~slm ~rtl ~spec params, stats)
  | W_unknown (r, stats) -> Checker.Unknown (r, stats)

let slm_wire_category = function
  | Ok (W_equivalent _) -> "equivalent"
  | Ok (W_not_equivalent _) -> "cex"
  | Ok (W_unknown _) -> "unknown"
  | Error _ -> "failed"

let check_slm_rtl ?jobs ?budget ?journal ?(progress = false) ~slm ~rtl ~spec
    () =
  Dfv_obs.Trace.with_span ~cat:"par" "par.check_slm_rtl" @@ fun () ->
  (* The sweeping strategy is the sequential checker's path, and it goes
     first: on one core, or at [jobs = 1], the strategies run one after
     another in this order. *)
  let strategies = [ ("sweep", true); ("direct", false) ] in
  let run (_, sweep) =
    slm_wire_of_verdict
      (Checker.check_slm_rtl ~sweep ?budget ~slm ~rtl ~spec ())
  in
  let reconstruct w = Ok (verdict_of_slm_wire ~slm ~rtl ~spec w) in
  (* The journal is bound to the structural content of the query — the
     program, the elaborated netlist, the spec (its drives tabulated)
     and the solver budget — so a replayed verdict is trusted exactly
     when it answers the same question. *)
  let jnl =
    match journal with
    | None -> Ok None
    | Some path -> (
      let key =
        "sec-portfolio|" ^ Dfv_sec.Fingerprint.pair ~slm ~rtl ~spec
        ^ "|budget=" ^ Solver.budget_key budget
      in
      match Journal.open_ ~path ~campaign:key with
      | Ok j -> Ok (Some j)
      | Error m -> Error (Dfv_error.Internal ("journal: " ^ m)))
  in
  match jnl with
  | Error e -> Error e
  | Ok jnl -> (
    let fp name = Journal.fingerprint ("strategy|" ^ name) in
    let replay name =
      Option.bind jnl (fun j ->
          Option.bind (Journal.find j (fp name)) (fun p ->
              Result.to_option (slm_wire_of_json p)))
    in
    let replayed =
      List.filter_map
        (fun (name, _) -> Option.map (fun w -> (name, w)) (replay name))
        strategies
    in
    let finish result =
      (match jnl with Some j -> Journal.close j | None -> ());
      result
    in
    match List.find_opt (fun (_, w) -> slm_conclusive w) replayed with
    | Some (_, w) ->
      (* A conclusive verdict already on disk: no worker runs at all. *)
      finish (reconstruct w)
    | None -> (
      let missing =
        List.filter
          (fun (name, _) -> not (List.mem_assoc name replayed))
          strategies
      in
      match missing with
      | [] -> (
        (* Every strategy replayed as a (deterministic, same-budget)
           Unknown: report the first. *)
        match replayed with
        | (_, w) :: _ -> finish (reconstruct w)
        | [] ->
          finish
            (Error
               (Dfv_error.Internal "portfolio produced no outcome (empty race?)")))
      | _ :: _ -> (
        let missing_arr = Array.of_list missing in
        let reporter =
          if progress then
            Progress.create ~label:"sec portfolio"
              ~total:(List.length missing) ()
          else None
        in
        let on_result k outcome =
          (match reporter with
          | Some p -> Progress.step p (slm_wire_category outcome)
          | None -> ());
          match (jnl, outcome) with
          | Some j, Ok w ->
            Journal.append j ~fp:(fp (fst missing_arr.(k))) (slm_wire_to_json w)
          | _ -> ()
        in
        let r =
          Dpool.race ?jobs
            ~label:(fun i -> "sec:" ^ fst missing_arr.(i))
            ~on_result ~conclusive:slm_conclusive run missing
        in
        (match reporter with Some p -> Progress.finish p | None -> ());
        match r.Dpool.winner with
        | Some (_, w) -> finish (reconstruct w)
        | None ->
          finish
            (if Pool.stop_requested () then
               Error (Dfv_error.Interrupted { job = "sec-portfolio" })
             else begin
               (* No strategy concluded: prefer a solver Unknown (an
                  honest "ran out of budget") — replayed or fresh — over
                  a worker failure. *)
               let outcomes = Array.to_list r.Dpool.outcomes in
               let unknown =
                 match
                   List.find_map
                     (function (_, W_unknown (r, s)) -> Some (r, s) | _ -> None)
                     replayed
                 with
                 | Some u -> Some u
                 | None ->
                   List.find_map
                     (function
                       | Some (Ok (W_unknown (r, s))) -> Some (r, s)
                       | _ -> None)
                     outcomes
               in
               match unknown with
               | Some (r, stats) -> Ok (Checker.Unknown (r, stats))
               | None -> (
                 match
                   List.find_map
                     (function Some (Error e) -> Some e | _ -> None)
                     outcomes
                 with
                 | Some e -> Error e
                 | None ->
                   Error
                     (Dfv_error.Internal
                        "portfolio produced no outcome (empty race?)"))
             end))))
