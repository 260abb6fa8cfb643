module Bitvec = Dfv_bitvec.Bitvec
module Solver = Dfv_sat.Solver
module Interp = Dfv_hwir.Interp
module Checker = Dfv_sec.Checker
module Session = Dfv_sec.Session
module Dfv_error = Dfv_core.Dfv_error
module Json = Dfv_obs.Json

let now () = Unix.gettimeofday ()

(* --- wire forms -------------------------------------------------------- *)

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

let required kind read v name =
  match read name v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing %s field %S" kind name)

let int_field = required "int" Json.int_field
let float_field = required "float" Json.float_field
let string_field = required "string" Json.string_field

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

(* What a strategy worker sends back: the verdict with its
   counterexample reduced to the parameter assignment. *)
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

let budget_key = function
  | None -> "-"
  | Some b ->
    Printf.sprintf "c=%s,s=%s"
      (match b.Solver.max_conflicts with
      | Some c -> string_of_int c
      | None -> "-")
      (match b.Solver.max_seconds with
      | Some s -> Printf.sprintf "%g" s
      | None -> "-")

let slm_wire_category = function
  | Ok (W_equivalent _) -> "equivalent"
  | Ok (W_not_equivalent _) -> "cex"
  | Ok (W_unknown _) -> "unknown"
  | Error _ -> "failed"

let check_slm_rtl ?jobs ?budget ?journal ?(progress = false)
    ?(exec = (`Fork : Pool.exec_mode)) ~slm ~rtl ~spec () =
  Dfv_obs.Trace.with_span ~cat:"par" "par.check_slm_rtl" @@ fun () ->
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
        ^ "|budget=" ^ budget_key budget
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
          Dpool.race_auto ~exec ?jobs
            ~label:(fun i -> "sec:" ^ fst missing_arr.(i))
            ~on_result ~encode:slm_wire_to_json ~decode:slm_wire_of_json
            ~conclusive:slm_conclusive run missing
        in
        (match reporter with Some p -> Progress.finish p | None -> ());
        match r.Pool.winner with
        | Some (_, w) -> finish (reconstruct w)
        | None ->
          finish
            (if Pool.stop_requested () then
               Error (Dfv_error.Interrupted { job = "sec-portfolio" })
             else begin
               (* No strategy concluded: prefer a solver Unknown (an
                  honest "ran out of budget") — replayed or fresh — over
                  a worker failure. *)
               let outcomes = Array.to_list r.Pool.outcomes in
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

(* --- frame shards: RTL vs RTL ------------------------------------------ *)

type frame_wire =
  | F_unsat of Checker.stats
  | F_sat of Checker.rtl_cex * Checker.stats
  | F_unknown of Solver.reason * Checker.stats

let inputs_to_json inputs_per_cycle =
  Json.List
    (Array.to_list inputs_per_cycle
    |> List.map (fun ins ->
           Json.List
             (List.map
                (fun (port, bv) ->
                  Json.Obj
                    [ ("port", Json.String port);
                      ("value", Json.String (Bitvec.to_string bv)) ])
                ins)))

let inputs_of_json = function
  | Json.List cycles ->
    let* per_cycle =
      List.fold_right
        (fun cyc acc ->
          let* acc = acc in
          match cyc with
          | Json.List ins ->
            let* ins =
              List.fold_right
                (fun i acc ->
                  let* acc = acc in
                  let* port = string_field i "port" in
                  let* s = string_field i "value" in
                  match Bitvec.of_string s with
                  | bv -> Ok ((port, bv) :: acc)
                  | exception Invalid_argument m ->
                    Error ("bad bitvector literal: " ^ m))
                ins (Ok [])
            in
            Ok (ins :: acc)
          | _ -> Error "bad cycle inputs")
        cycles (Ok [])
    in
    Ok (Array.of_list per_cycle)
  | _ -> Error "bad inputs_per_cycle"

let frame_wire_to_json = function
  | F_unsat stats ->
    Json.Obj [ ("frame", Json.String "unsat"); ("stats", stats_to_json stats) ]
  | F_sat (cex, stats) ->
    Json.Obj
      [ ("frame", Json.String "sat");
        ("inputs", inputs_to_json cex.Checker.inputs_per_cycle);
        ("cycle", Json.Int cex.Checker.diverging_cycle);
        ("port", Json.String cex.Checker.diverging_port);
        ("a", Json.String (Bitvec.to_string cex.Checker.value_a));
        ("b", Json.String (Bitvec.to_string cex.Checker.value_b));
        ("stats", stats_to_json stats) ]
  | F_unknown (r, stats) ->
    Json.Obj
      [ ("frame", Json.String "unknown");
        ("reason", reason_to_json r);
        ("stats", stats_to_json stats) ]

let frame_wire_of_json v =
  let* kind = string_field v "frame" in
  let* stats =
    match Json.field "stats" v with
    | Some s -> stats_of_json s
    | None -> Error "missing stats"
  in
  match kind with
  | "unsat" -> Ok (F_unsat stats)
  | "unknown" -> (
    match Json.field "reason" v with
    | Some r ->
      let* r = reason_of_json r in
      Ok (F_unknown (r, stats))
    | None -> Error "unknown without reason")
  | "sat" ->
    let* inputs_per_cycle =
      match Json.field "inputs" v with
      | Some i -> inputs_of_json i
      | None -> Error "sat frame without inputs"
    in
    let* diverging_cycle = int_field v "cycle" in
    let* diverging_port = string_field v "port" in
    let* a = string_field v "a" in
    let* b = string_field v "b" in
    let bv s =
      match Bitvec.of_string s with
      | bv -> Ok bv
      | exception Invalid_argument m -> Error ("bad bitvector literal: " ^ m)
    in
    let* value_a = bv a in
    let* value_b = bv b in
    Ok
      (F_sat
         ( {
             Checker.inputs_per_cycle;
             diverging_cycle;
             diverging_port;
             value_a;
             value_b;
           },
           stats ))
  | k -> Error (Printf.sprintf "unknown frame verdict %S" k)

(* Decide one frame of the product machine in a private session.  Frame
   miters are independent — the sequential checker's blocking clauses
   are an optimization, not a soundness requirement — so [Sat] here is a
   real reset-reachable divergence regardless of what other frames say. *)
let check_frame ~budget ~a ~b t =
  let session = Session.create ?budget () in
  let budget = Session.budget session in
  let t0 = now () in
  let product =
    Session.product session ~a ~b
      ~initial_a:(Session.reset_state a)
      ~initial_b:(Session.reset_state b)
  in
  let lit = Session.frame_miter product t in
  match Session.check ~budget session lit with
  | Solver.Unsat ->
    F_unsat { (Session.stats session) with wall_seconds = now () -. t0 }
  | Solver.Unknown r ->
    F_unknown (r, { (Session.stats session) with wall_seconds = now () -. t0 })
  | Solver.Sat ->
    let cex = Checker.rtl_cex_of_model session product ~a ~b ~cycles:(t + 1) in
    F_sat (cex, { (Session.stats session) with wall_seconds = now () -. t0 })

let check_rtl_rtl ?jobs ?timeout ?budget ~a ~b ~bound () =
  Dfv_obs.Trace.with_span ~cat:"par" "par.check_rtl_rtl" @@ fun () ->
  if bound < 1 then
    Error (Dfv_error.Spec_violation "bound must be >= 1")
  else begin
    let t0 = now () in
    let frames = List.init bound (fun t -> t) in
    let r =
      Pool.race ?jobs ?timeout
        ~label:(Printf.sprintf "bmc:frame%d")
        ~encode:frame_wire_to_json ~decode:frame_wire_of_json
        ~conclusive:(function F_sat _ -> true | _ -> false)
        (check_frame ~budget ~a ~b) frames
    in
    let stats_of_outcomes () =
      Array.fold_left
        (fun acc o ->
          match o with
          | Some (Ok (F_unsat s | F_sat (_, s) | F_unknown (_, s))) ->
            Checker.add_stats acc s
          | _ -> acc)
        Checker.zero_stats r.Pool.outcomes
    in
    let finish stats = { stats with Checker.wall_seconds = now () -. t0 } in
    match r.Pool.winner with
    | Some (_, F_sat (cex, _)) ->
      Ok (Checker.Rtl_not_equivalent (cex, finish (stats_of_outcomes ())))
    | Some _ -> assert false (* only F_sat is conclusive *)
    | None -> (
      let outcomes = Array.to_list r.Pool.outcomes in
      (* A worker timeout is the wall-clock twin of a solver budget
         running out; a crash is not — it must not weaken the claim. *)
      match
        List.find_map
          (function Some (Error (Dfv_error.Worker_crashed _ as e)) -> Some e | _ -> None)
          outcomes
      with
      | Some e -> Error e
      | None -> (
        let unknown =
          List.find_map
            (function
              | Some (Ok (F_unknown (r, _))) -> Some r
              | Some (Error (Dfv_error.Worker_timeout _)) ->
                Some Solver.Time_limit
              | _ -> None)
            outcomes
        in
        match unknown with
        | Some reason ->
          Ok (Checker.Rtl_unknown (reason, finish (stats_of_outcomes ())))
        | None -> (
          match
            List.find_map
              (function Some (Error e) -> Some e | _ -> None)
              outcomes
          with
          | Some e -> Error e
          | None ->
            Ok
              (Checker.Rtl_equivalent_to_bound
                 (bound, finish (stats_of_outcomes ()))))))
  end
