type watchdog_kind = Delta_limit | Activation_limit | Starvation

type t =
  | Stimulus_exhausted of { attempts : int; rounds : int; detail : string }
  | Protocol_violation of { channel : string; detail : string }
  | Watchdog of {
      kind : watchdog_kind;
      at_time : int;
      deltas : int;
      activations : int;
      processes : string list;
    }
  | Transaction_incomplete of string
  | Elaboration_failure of string
  | Spec_violation of string
  | Model_runtime_fault of string
  | Worker_timeout of { job : string; seconds : float }
  | Interrupted of { job : string }
  | Internal of string

let watchdog_kind_string = function
  | Delta_limit -> "delta limit"
  | Activation_limit -> "activation limit"
  | Starvation -> "starvation"

let to_string = function
  | Stimulus_exhausted { attempts; rounds; detail } ->
    Printf.sprintf
      "stimulus exhausted: no satisfying vector after %d attempts over %d \
       widening rounds (%s)"
      attempts rounds detail
  | Protocol_violation { channel; detail } ->
    Printf.sprintf "protocol violation on %s: %s" channel detail
  | Watchdog { kind; at_time; deltas; activations; processes } ->
    Printf.sprintf
      "kernel watchdog (%s) at time %d: %d deltas, %d activations; processes: \
       %s"
      (watchdog_kind_string kind)
      at_time deltas activations
      (match processes with [] -> "<none>" | ps -> String.concat ", " ps)
  | Transaction_incomplete m -> "transactions incomplete: " ^ m
  | Elaboration_failure m -> "elaboration failure: " ^ m
  | Spec_violation m -> "spec violation: " ^ m
  | Model_runtime_fault m -> "model runtime fault: " ^ m
  | Worker_timeout { job; seconds } ->
    Printf.sprintf "worker timed out on %s after %.1fs" job seconds
  | Interrupted { job } ->
    Printf.sprintf "interrupted before %s completed (resumable)" job
  | Internal m -> "internal error: " ^ m

let pp fmt e = Format.pp_print_string fmt (to_string e)

let exit_code = function
  | Stimulus_exhausted _ | Watchdog _ | Transaction_incomplete _
  | Worker_timeout _ ->
    2
  | Protocol_violation _ | Elaboration_failure _ | Spec_violation _
  | Model_runtime_fault _ | Internal _ ->
    3
  | Interrupted _ -> 4

let of_exn = function
  | Dfv_slm.Kernel.Watchdog_trip trip ->
    let kind =
      match trip.Dfv_slm.Kernel.trip_kind with
      | Dfv_slm.Kernel.Delta_limit -> Delta_limit
      | Dfv_slm.Kernel.Activation_limit -> Activation_limit
      | Dfv_slm.Kernel.Starvation -> Starvation
    in
    Watchdog
      {
        kind;
        at_time = trip.Dfv_slm.Kernel.trip_time;
        deltas = trip.Dfv_slm.Kernel.trip_deltas;
        activations = trip.Dfv_slm.Kernel.trip_activations;
        processes = trip.Dfv_slm.Kernel.trip_processes;
      }
  | Dfv_slm.Tlm.Protocol_violation { channel; detail } ->
    Protocol_violation { channel; detail }
  | Dfv_slm.Kernel.Not_in_thread ->
    Protocol_violation
      { channel = "kernel"; detail = "wait called outside a thread process" }
  | Dfv_cosim.Txn_engine.Engine_error m -> Transaction_incomplete m
  | Dfv_cosim.Stream.Stage_error m ->
    Protocol_violation { channel = "stream.stage"; detail = m }
  | Dfv_rtl.Netlist.Elaboration_error m -> Elaboration_failure m
  | Dfv_rtl.Expr.Width_error m -> Elaboration_failure ("width error: " ^ m)
  | Dfv_hwir.Elab.Not_synthesizable m ->
    Elaboration_failure ("not synthesizable: " ^ m)
  | Dfv_hwir.Typecheck.Type_error m -> Elaboration_failure ("type error: " ^ m)
  | Dfv_sec.Checker.Spec_error m -> Spec_violation m
  | Dfv_sec.Session.Error m -> Spec_violation ("session: " ^ m)
  | Dfv_hwir.Interp.Runtime_error m -> Model_runtime_fault m
  | Division_by_zero -> Model_runtime_fault "division by zero"
  | Dfv_bitvec.Bitvec.Width_mismatch m -> Internal ("width mismatch: " ^ m)
  | Dfv_bitvec.Bitvec.Invalid_width w ->
    Internal (Printf.sprintf "invalid width %d" w)
  | Failure m -> Internal m
  | Invalid_argument m -> Internal ("invalid argument: " ^ m)
  | e -> Internal (Printexc.to_string e)

let guard f =
  match f () with
  | v -> Ok v
  | exception
      ((Out_of_memory | Stack_overflow | Sys.Break | Dfv_sat.Stop.Stopped) as e)
    ->
    raise e
  | exception e -> Error (of_exn e)

(* --- JSON round-trip --------------------------------------------------- *)

module Json = Dfv_obs.Json

let to_json e =
  let str s = Json.String s in
  let obj kind fields = Json.Obj (("kind", str kind) :: fields) in
  match e with
  | Stimulus_exhausted { attempts; rounds; detail } ->
    obj "stimulus_exhausted"
      [ ("attempts", Json.Int attempts);
        ("rounds", Json.Int rounds);
        ("detail", str detail) ]
  | Protocol_violation { channel; detail } ->
    obj "protocol_violation" [ ("channel", str channel); ("detail", str detail) ]
  | Watchdog { kind; at_time; deltas; activations; processes } ->
    obj "watchdog"
      [ ( "watchdog_kind",
          str
            (match kind with
            | Delta_limit -> "delta_limit"
            | Activation_limit -> "activation_limit"
            | Starvation -> "starvation") );
        ("at_time", Json.Int at_time);
        ("deltas", Json.Int deltas);
        ("activations", Json.Int activations);
        ("processes", Json.List (List.map str processes)) ]
  | Transaction_incomplete m -> obj "transaction_incomplete" [ ("detail", str m) ]
  | Elaboration_failure m -> obj "elaboration_failure" [ ("detail", str m) ]
  | Spec_violation m -> obj "spec_violation" [ ("detail", str m) ]
  | Model_runtime_fault m -> obj "model_runtime_fault" [ ("detail", str m) ]
  | Worker_timeout { job; seconds } ->
    obj "worker_timeout" [ ("job", str job); ("seconds", Json.Float seconds) ]
  | Interrupted { job } -> obj "interrupted" [ ("job", str job) ]
  | Internal m -> obj "internal" [ ("detail", str m) ]

let of_json v =
  let str = Json.required "string" Json.string_field v in
  let int = Json.required "int" Json.int_field v in
  let num = Json.required "number" Json.float_field v in
  let ( let* ) = Result.bind in
  let* kind = str "kind" in
  match kind with
  | "stimulus_exhausted" ->
    let* attempts = int "attempts" in
    let* rounds = int "rounds" in
    let* detail = str "detail" in
    Ok (Stimulus_exhausted { attempts; rounds; detail })
  | "protocol_violation" ->
    let* channel = str "channel" in
    let* detail = str "detail" in
    Ok (Protocol_violation { channel; detail })
  | "watchdog" ->
    let* k = str "watchdog_kind" in
    let* kind =
      match k with
      | "delta_limit" -> Ok Delta_limit
      | "activation_limit" -> Ok Activation_limit
      | "starvation" -> Ok Starvation
      | k -> Error (Printf.sprintf "unknown watchdog kind %S" k)
    in
    let* at_time = int "at_time" in
    let* deltas = int "deltas" in
    let* activations = int "activations" in
    let* processes =
      match Json.field "processes" v with
      | Some (Json.List ps) ->
        List.fold_right
          (fun p acc ->
            let* acc = acc in
            match p with
            | Json.String s -> Ok (s :: acc)
            | _ -> Error "non-string process name")
          ps (Ok [])
      | _ -> Error "missing list field \"processes\""
    in
    Ok (Watchdog { kind; at_time; deltas; activations; processes })
  | "transaction_incomplete" ->
    let* m = str "detail" in
    Ok (Transaction_incomplete m)
  | "elaboration_failure" ->
    let* m = str "detail" in
    Ok (Elaboration_failure m)
  | "spec_violation" ->
    let* m = str "detail" in
    Ok (Spec_violation m)
  | "model_runtime_fault" ->
    let* m = str "detail" in
    Ok (Model_runtime_fault m)
  | "worker_timeout" ->
    let* job = str "job" in
    let* seconds = num "seconds" in
    Ok (Worker_timeout { job; seconds })
  | "interrupted" ->
    let* job = str "job" in
    Ok (Interrupted { job })
  | "internal" ->
    let* m = str "detail" in
    Ok (Internal m)
  | kind -> Error (Printf.sprintf "unknown error kind %S" kind)
