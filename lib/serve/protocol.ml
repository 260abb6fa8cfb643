module Json = Dfv_obs.Json
module Dfv_error = Dfv_core.Dfv_error
module Solver = Dfv_sat.Solver
module Portfolio = Dfv_par.Portfolio

let schema = "dfv-serve"
let version = 1

(* --- operations --------------------------------------------------------- *)

type op =
  | Sec of { design : string; bug : string; budget : Solver.budget option }
  | Sim of { design : string; bug : string; vectors : int; seed : int }
  | Faultsim of {
      designs : string list;
      seed : int;
      max_rtl_faults : int;
      max_slm_faults : int;
      sim_vectors : int;
      budget : Solver.budget option;
    }
  | Ping
  | Stats
  | Shutdown

let op_name = function
  | Sec _ -> "sec"
  | Sim _ -> "sim"
  | Faultsim _ -> "faultsim"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

type request = { id : int; op : op }

(* --- result payloads ---------------------------------------------------- *)

type sim_wire = Sim_clean of int | Sim_mismatch of int

type faultsim_wire = {
  f_pass : bool;
  f_rate : float;
  f_false_eq : int;
  f_report : Json.t;  (** the full dfv-faultsim report document *)
}

type payload =
  | R_sec of Portfolio.slm_wire
  | R_sim of sim_wire
  | R_faultsim of faultsim_wire
  | R_pong
  | R_stats of Json.t
  | R_shutdown

(* One-word outcome classification, used for request-log lines and the
   CLI exit code (the same 0/1/2 mapping as the cold commands). *)
let payload_status = function
  | R_sec (Portfolio.W_equivalent _) -> "equivalent"
  | R_sec (Portfolio.W_not_equivalent _) -> "not_equivalent"
  | R_sec (Portfolio.W_unknown _) -> "unknown"
  | R_sim (Sim_clean _) -> "clean"
  | R_sim (Sim_mismatch _) -> "mismatch"
  | R_faultsim { f_pass = true; _ } -> "pass"
  | R_faultsim { f_pass = false; _ } -> "fail"
  | R_pong -> "pong"
  | R_stats _ -> "stats"
  | R_shutdown -> "shutdown"

type response = {
  rsp_id : int;
  key : string;  (** cache key; [""] for control operations *)
  cached : bool;
  seconds : float;  (** server-side handling time *)
  outcome : (payload, Dfv_error.t) result;
}

(* --- JSON forms --------------------------------------------------------- *)

let budget_to_json = function
  | None -> Json.Null
  | Some b ->
    Json.Obj
      [ ( "conflicts",
          match b.Solver.max_conflicts with
          | Some c -> Json.Int c
          | None -> Json.Null );
        ( "seconds",
          match b.Solver.max_seconds with
          | Some s -> Json.Float s
          | None -> Json.Null ) ]

let budget_of_json = function
  | Json.Null -> Ok None
  | Json.Obj _ as v ->
    let conflicts = Json.int_field "conflicts" v in
    let seconds = Json.float_field "seconds" v in
    if conflicts = None && seconds = None then Ok None
    else Ok (Some { Solver.max_conflicts = conflicts; max_seconds = seconds })
  | _ -> Error "bad budget"

let envelope kind fields =
  Json.envelope ~schema ~version (("kind", Json.String kind) :: fields)

let request_to_json { id; op } =
  let fields =
    match op with
    | Sec { design; bug; budget } ->
      [ ("design", Json.String design);
        ("bug", Json.String bug);
        ("budget", budget_to_json budget) ]
    | Sim { design; bug; vectors; seed } ->
      [ ("design", Json.String design);
        ("bug", Json.String bug);
        ("vectors", Json.Int vectors);
        ("seed", Json.Int seed) ]
    | Faultsim { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors; budget }
      ->
      [ ("designs", Json.List (List.map (fun d -> Json.String d) designs));
        ("seed", Json.Int seed);
        ("max_rtl_faults", Json.Int max_rtl_faults);
        ("max_slm_faults", Json.Int max_slm_faults);
        ("sim_vectors", Json.Int sim_vectors);
        ("budget", budget_to_json budget) ]
    | Ping | Stats | Shutdown -> []
  in
  envelope "request" (("id", Json.Int id) :: ("op", Json.String (op_name op)) :: fields)

let ( let* ) = Result.bind

let str_field = Json.required "string" Json.string_field
let int_field = Json.required "int" Json.int_field

let int_field_default v name d =
  match Json.field name v with
  | Some (Json.Int i) -> Ok i
  | None -> Ok d
  | Some _ -> Error (Printf.sprintf "bad int field %S" name)

let budget_field v =
  match Json.field "budget" v with
  | Some b -> budget_of_json b
  | None -> Ok None

let check_envelope v =
  match Json.envelope_of v with
  | Some (s, ver) when s = schema && ver = version -> Ok ()
  | Some (s, ver) ->
    Error (Printf.sprintf "not a %s v%d frame (%s v%d)" schema version s ver)
  | None -> Error "missing {schema, version} envelope"

let request_of_json v =
  let* () = check_envelope v in
  let* kind = str_field v "kind" in
  if kind <> "request" then Error (Printf.sprintf "not a request frame (%s)" kind)
  else
    let* id = int_field v "id" in
    let* op_s = str_field v "op" in
    let* op =
      match op_s with
      | "sec" ->
        let* design = str_field v "design" in
        let* bug =
          match Json.field "bug" v with
          | Some (Json.String b) -> Ok b
          | None -> Ok "none"
          | Some _ -> Error "bad bug field"
        in
        let* budget = budget_field v in
        Ok (Sec { design; bug; budget })
      | "sim" ->
        let* design = str_field v "design" in
        let* bug =
          match Json.field "bug" v with
          | Some (Json.String b) -> Ok b
          | None -> Ok "none"
          | Some _ -> Error "bad bug field"
        in
        let* vectors = int_field_default v "vectors" 1000 in
        let* seed = int_field_default v "seed" 0 in
        Ok (Sim { design; bug; vectors; seed })
      | "faultsim" ->
        let* designs =
          match Json.field "designs" v with
          | Some (Json.List ds) ->
            List.fold_right
              (fun d acc ->
                let* acc = acc in
                match d with
                | Json.String s -> Ok (s :: acc)
                | _ -> Error "non-string design")
              ds (Ok [])
          | _ -> Error "faultsim without designs"
        in
        let* seed = int_field_default v "seed" 0 in
        let* max_rtl_faults = int_field_default v "max_rtl_faults" 16 in
        let* max_slm_faults = int_field_default v "max_slm_faults" 8 in
        let* sim_vectors = int_field_default v "sim_vectors" 400 in
        let* budget = budget_field v in
        Ok
          (Faultsim
             { designs; seed; max_rtl_faults; max_slm_faults; sim_vectors; budget })
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | op -> Error (Printf.sprintf "unknown op %S" op)
    in
    Ok { id; op }

let payload_to_json = function
  | R_sec w ->
    Json.Obj [ ("sec", Portfolio.slm_wire_to_json w) ]
  | R_sim (Sim_clean vectors) ->
    Json.Obj [ ("sim", Json.Obj [ ("clean", Json.Int vectors) ]) ]
  | R_sim (Sim_mismatch at) ->
    Json.Obj [ ("sim", Json.Obj [ ("mismatch_at", Json.Int at) ]) ]
  | R_faultsim { f_pass; f_rate; f_false_eq; f_report } ->
    Json.Obj
      [ ( "faultsim",
          Json.Obj
            [ ("pass", Json.Bool f_pass);
              ("rate", Json.Float f_rate);
              ("false_equivalents", Json.Int f_false_eq);
              ("report", f_report) ] ) ]
  | R_pong -> Json.Obj [ ("pong", Json.Bool true) ]
  | R_stats s -> Json.Obj [ ("stats", s) ]
  | R_shutdown -> Json.Obj [ ("shutdown", Json.Bool true) ]

let payload_of_json v =
  match
    ( Json.field "sec" v,
      Json.field "sim" v,
      Json.field "faultsim" v,
      Json.field "pong" v,
      Json.field "stats" v,
      Json.field "shutdown" v )
  with
  | Some w, _, _, _, _, _ ->
    let* w = Portfolio.slm_wire_of_json w in
    Ok (R_sec w)
  | _, Some s, _, _, _, _ -> (
    match (Json.field "clean" s, Json.field "mismatch_at" s) with
    | Some (Json.Int n), _ -> Ok (R_sim (Sim_clean n))
    | _, Some (Json.Int at) -> Ok (R_sim (Sim_mismatch at))
    | _ -> Error "bad sim payload")
  | _, _, Some f, _, _, _ ->
    let* f_rate =
      Option.to_result (Json.float_field "rate" f)
        ~none:"faultsim payload without rate"
    in
    let* f_false_eq = int_field f "false_equivalents" in
    let* f_pass =
      match Json.field "pass" f with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "faultsim payload without pass"
    in
    let* f_report =
      match Json.field "report" f with
      | Some r -> Ok r
      | None -> Error "faultsim payload without report"
    in
    Ok (R_faultsim { f_pass; f_rate; f_false_eq; f_report })
  | _, _, _, Some (Json.Bool true), _, _ -> Ok R_pong
  | _, _, _, _, Some s, _ -> Ok (R_stats s)
  | _, _, _, _, _, Some (Json.Bool true) -> Ok R_shutdown
  | _ -> Error "unrecognized result payload"

(* A cached entry is exactly a payload document; reload-time validation
   ("poisoned-entry rejection") is decodability. *)
let payload_valid v = Result.is_ok (payload_of_json v)

let response_to_json r =
  let fields =
    [ ("id", Json.Int r.rsp_id);
      ("key", Json.String r.key);
      ("cached", Json.Bool r.cached);
      ("seconds", Json.Float r.seconds) ]
  in
  match r.outcome with
  | Ok p -> envelope "response" (fields @ [ ("result", payload_to_json p) ])
  | Error e -> envelope "response" (fields @ [ ("error", Dfv_error.to_json e) ])

let response_of_json v =
  let* () = check_envelope v in
  let* kind = str_field v "kind" in
  if kind <> "response" then
    Error (Printf.sprintf "not a response frame (%s)" kind)
  else
    let* rsp_id = int_field v "id" in
    let* key = str_field v "key" in
    let* cached =
      match Json.field "cached" v with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "missing cached flag"
    in
    let* seconds =
      Option.to_result (Json.float_field "seconds" v) ~none:"missing seconds"
    in
    let* outcome =
      match (Json.field "result" v, Json.field "error" v) with
      | Some p, _ ->
        let* p = payload_of_json p in
        Ok (Ok p)
      | _, Some e -> (
        match Dfv_error.of_json e with
        | Ok e -> Ok (Error e)
        | Error m -> Error ("undecodable error: " ^ m))
      | None, None -> Error "response without result or error"
    in
    Ok { rsp_id; key; cached; seconds; outcome }

(* --- framing ------------------------------------------------------------ *)

let frame v = Json.to_string v ^ "\n"

let parse_frame line =
  match Json.parse line with
  | Ok v -> Ok v
  | Error m -> Error ("bad frame: " ^ m)
