module Pair = Dfv_core.Pair
module Flow = Dfv_core.Flow
module Dfv_error = Dfv_core.Dfv_error
module Checker = Dfv_sec.Checker
module Spec = Dfv_sec.Spec
module Solver = Dfv_sat.Solver
module Pool = Dfv_par.Pool

type subject =
  | Sec_pair of Pair.t
  | Cosim of {
      co_name : string;
      co_rtl : Dfv_rtl.Netlist.elaborated;
      co_check : Dfv_rtl.Netlist.elaborated -> bool;
    }

type mutant =
  | Rtl_mutant of Fault.rtl_fault
  | Slm_mutant of Fault.slm_fault
  | Custom_mutant of { cm_name : string; cm_run : unit -> bool }

type verdict =
  | Detected of { engine : string; seconds : float; localized : bool option }
  | Survived of { seconds : float }
  | False_equivalent of { seconds : float }
  | Unknown of { reason : string; seconds : float }
  | Crashed of Dfv_error.t

type mutant_result = {
  m_name : string;
  m_class : string;
  m_site : string;
  verdict : verdict;
}

type report = {
  r_subject : string;
  r_total : int;
  r_detected : int;
  r_survived : int;
  r_unknown : int;
  r_crashed : int;
  r_false_eq : int;
  r_mislocalized : int;
  r_shed : int;
  r_wall : float;
  r_results : mutant_result list;
}

let mutant_name = function
  | Rtl_mutant f -> f.Fault.rf_name
  | Slm_mutant f -> f.Fault.sf_name
  | Custom_mutant c -> c.cm_name

let mutant_class = function
  | Rtl_mutant f -> f.Fault.rf_class
  | Slm_mutant f -> "slm:" ^ f.Fault.sf_class
  | Custom_mutant _ -> "custom"

let mutant_site = function
  | Rtl_mutant f -> f.Fault.rf_site
  | Slm_mutant f -> f.Fault.sf_site
  | Custom_mutant c -> c.cm_name

(* --- wire form ---------------------------------------------------------

   The per-mutant result as a journal records it.  Distinct from the
   report JSON below: this one round-trips exactly, keeping [Crashed] as
   a structured taxonomy value rather than a flattened string. *)

module Json = Dfv_obs.Json

let verdict_to_json = function
  | Detected { engine; seconds; localized } ->
    Json.Obj
      ([ ("kind", Json.String "detected");
         ("engine", Json.String engine);
         ("seconds", Json.Float seconds) ]
      @ match localized with
        | Some l -> [ ("localized", Json.Bool l) ]
        | None -> [])
  | Survived { seconds } ->
    Json.Obj [ ("kind", Json.String "survived"); ("seconds", Json.Float seconds) ]
  | False_equivalent { seconds } ->
    Json.Obj
      [ ("kind", Json.String "false_equivalent"); ("seconds", Json.Float seconds) ]
  | Unknown { reason; seconds } ->
    Json.Obj
      [ ("kind", Json.String "unknown");
        ("reason", Json.String reason);
        ("seconds", Json.Float seconds) ]
  | Crashed e ->
    Json.Obj [ ("kind", Json.String "crashed"); ("error", Dfv_error.to_json e) ]

let str_field = Json.required "string" Json.string_field

let verdict_of_json v =
  let ( let* ) = Result.bind in
  let str = str_field v in
  let seconds () = Json.required "number" Json.float_field v "seconds" in
  let* kind = str "kind" in
  match kind with
  | "detected" ->
    let* engine = str "engine" in
    let* seconds = seconds () in
    let localized =
      match Json.field "localized" v with
      | Some (Json.Bool b) -> Some b
      | _ -> None
    in
    Ok (Detected { engine; seconds; localized })
  | "survived" ->
    let* seconds = seconds () in
    Ok (Survived { seconds })
  | "false_equivalent" ->
    let* seconds = seconds () in
    Ok (False_equivalent { seconds })
  | "unknown" ->
    let* reason = str "reason" in
    let* seconds = seconds () in
    Ok (Unknown { reason; seconds })
  | "crashed" -> (
    match Json.field "error" v with
    | Some e ->
      let* e = Dfv_error.of_json e in
      Ok (Crashed e)
    | None -> Error "crashed verdict without error")
  | k -> Error (Printf.sprintf "unknown verdict kind %S" k)

let result_to_json r =
  Json.Obj
    [ ("name", Json.String r.m_name);
      ("class", Json.String r.m_class);
      ("site", Json.String r.m_site);
      ("verdict", verdict_to_json r.verdict) ]

let result_of_json v =
  let ( let* ) = Result.bind in
  let str = str_field v in
  let* m_name = str "name" in
  let* m_class = str "class" in
  let* m_site = str "site" in
  match Json.field "verdict" v with
  | Some verdict ->
    let* verdict = verdict_of_json verdict in
    Ok { m_name; m_class; m_site; verdict }
  | None -> Error "result without verdict"

let shed_prefix = "shed: "
let is_shed reason = String.starts_with ~prefix:shed_prefix reason

let verdict_label = function
  | Detected _ -> "detected"
  | Survived _ -> "survived"
  | False_equivalent _ -> "false-equivalent"
  | Unknown _ -> "unknown"
  | Crashed _ -> "crashed"

(* The tally tag a result files under on the live progress line: shed
   mutants are their own category — they are the deadline's doing, not
   an ordinary unknown. *)
let progress_category r =
  match r.verdict with
  | Unknown { reason; _ } when is_shed reason -> "shed"
  | v -> verdict_label v

let run ?budget ?(sim_vectors = 400) ?(seed = 0) ?engine ?(jobs = 1)
    ?timeout ?deadline_at ?journal ?pool ?(max_rtl_faults = 16)
    ?(max_slm_faults = 8) ?(extra_mutants = []) ?(progress = false) subject =
  let t_start = Unix.gettimeofday () in
  let subject_name =
    match subject with
    | Sec_pair p -> p.Pair.name
    | Cosim { co_name; _ } -> co_name
  in
  let mutants =
    (match subject with
    | Sec_pair pair ->
      List.map
        (fun f -> Rtl_mutant f)
        (Fault.enumerate_rtl ~seed ~max_faults:max_rtl_faults pair.Pair.rtl)
      @ List.map
          (fun f -> Slm_mutant f)
          (Fault.enumerate_slm ~seed ~max_faults:max_slm_faults pair.Pair.slm)
    | Cosim { co_rtl; _ } ->
      List.map
        (fun f -> Rtl_mutant f)
        (Fault.enumerate_rtl ~seed ~max_faults:max_rtl_faults co_rtl))
    @ extra_mutants
  in
  (* Graceful degradation under a wall-clock deadline: a job starting
     in the first half of the window runs with the configured budget; a
     job starting in the second half runs with the budget scaled down
     linearly (and its wall clock capped at the time remaining); a job
     starting past the deadline is shed to a reported [Unknown] instead
     of running at all.  [None] means shed. *)
  let degraded_budget () =
    match deadline_at with
    | None -> Some budget
    | Some dl ->
      let t = Unix.gettimeofday () in
      if t >= dl then None
      else begin
        let total = Float.max (dl -. t_start) 1e-9 in
        let remaining = dl -. t in
        let frac = remaining /. total in
        if frac >= 0.5 then Some budget
        else begin
          let scale = frac /. 0.5 in
          let b =
            match budget with
            | Some b -> b
            | None -> { Solver.max_conflicts = None; max_seconds = None }
          in
          let max_conflicts =
            Option.map
              (fun c -> max 1 (int_of_float (float_of_int c *. scale)))
              b.Solver.max_conflicts
          in
          let max_seconds =
            Some
              (match b.Solver.max_seconds with
              | Some s -> Float.min (s *. scale) remaining
              | None -> remaining)
          in
          Some (Some { Solver.max_conflicts; max_seconds })
        end
      end
  in
  let shed_result m =
    {
      m_name = mutant_name m;
      m_class = mutant_class m;
      m_site = mutant_site m;
      verdict =
        Unknown { reason = shed_prefix ^ "campaign deadline exceeded"; seconds = 0.0 };
    }
  in
  (* Many mutants pose the same SEC query as an earlier one (a site
     outside every checked cone, an init the transaction loads over).
     One memo per campaign, shared by its workers, decides each distinct
     query once; the rest of the flow still runs on the mutant itself. *)
  let memo = Checker.memo () in
  let run_one (i, m) =
    Dfv_obs.Trace.with_span ~cat:"fault"
      ~args:[ ("mutant", Dfv_obs.Json.String (mutant_name m)) ]
      "fault.mutant"
    @@ fun () ->
    match degraded_budget () with
    | None -> shed_result m
    | Some budget ->
    (* The simulation cross-check seed is a pure function of (campaign
       seed, mutant index): verdicts cannot depend on how mutants are
       partitioned across workers. *)
    let sim_seed = Pool.job_seed ~seed i in
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    let outcome =
      Dfv_error.guard (fun () ->
          match (m, subject) with
          | Custom_mutant { cm_run; _ }, _ ->
            if cm_run () then
              Detected
                { engine = "custom"; seconds = elapsed (); localized = None }
            else Survived { seconds = elapsed () }
          | Rtl_mutant f, Cosim { co_check; co_rtl; _ } ->
            if co_check (f.Fault.rf_apply co_rtl) then
              Detected
                { engine = "cosim"; seconds = elapsed (); localized = None }
            else Survived { seconds = elapsed () }
          | Slm_mutant _, Cosim _ ->
            Unknown
              {
                reason = "cosim subjects carry no HWIR model to mutate";
                seconds = elapsed ();
              }
          | (Rtl_mutant _ | Slm_mutant _), Sec_pair pair -> (
            let pair' =
              match m with
              | Rtl_mutant f ->
                { pair with Pair.rtl = f.Fault.rf_apply pair.Pair.rtl }
              | Slm_mutant f ->
                { pair with Pair.slm = f.Fault.sf_apply pair.Pair.slm }
              | Custom_mutant _ -> assert false
            in
            match Flow.sec ?budget ~memo pair' with
            | Checker.Not_equivalent (cex, _) ->
              let localized =
                match m with
                | Rtl_mutant f -> (
                  match cex.Checker.failed_checks with
                  | ((c : Spec.check), _) :: _ ->
                    Some
                      (Fault.cone pair'.Pair.rtl ~output:c.Spec.rtl_port
                         f.Fault.rf_site)
                  | [] -> None)
                | _ -> None
              in
              Detected { engine = "sec"; seconds = elapsed (); localized }
            | Checker.Unknown (reason, _) ->
              Unknown
                { reason = Solver.reason_string reason; seconds = elapsed () }
            | Checker.Equivalent _ -> (
              (* SEC accepted the mutant: cross-examine by simulation.
                 A mismatch here means the prover signed off on a
                 detectable fault — the campaign's fatal finding. *)
              match
                Flow.simulate ~seed:sim_seed ?engine ~vectors:sim_vectors
                  pair'
              with
              | Ok (Flow.Sim_mismatch _) ->
                False_equivalent { seconds = elapsed () }
              | Ok (Flow.Sim_clean _) -> Survived { seconds = elapsed () }
              | Error e ->
                Unknown
                  {
                    reason = "cross-check: " ^ Dfv_error.to_string e;
                    seconds = elapsed ();
                  })))
    in
    let verdict =
      match outcome with
      | Ok v -> v
      | Error ((Dfv_error.Elaboration_failure _ | Dfv_error.Spec_violation _) as e)
        ->
        (* A mutant the flow statically rejects cannot be silently
           proven equivalent; record it as a justified unknown. *)
        Unknown
          {
            reason = "mutant rejected: " ^ Dfv_error.to_string e;
            seconds = elapsed ();
          }
      | Error (Dfv_error.Model_runtime_fault _) ->
        (* The mutated model faults at runtime where the original did
           not (e.g. a mutated guard exposes a division by zero): an
           observable divergence, i.e. the mutant is killed. *)
        Detected
          { engine = "runtime-fault"; seconds = elapsed (); localized = None }
      | Error e -> Crashed e
    in
    {
      m_name = mutant_name m;
      m_class = mutant_class m;
      m_site = mutant_site m;
      verdict;
    }
  in
  let indexed = List.mapi (fun i m -> (i, m)) mutants in
  (* [pool:false] keeps every mutant on the calling domain. *)
  let jobs = if pool = Some false then 1 else max 1 jobs in
  let reporter =
    if progress then
      Dfv_par.Progress.create ?deadline_at
        ~label:("faultsim " ^ subject_name)
        ~total:(List.length mutants) ()
    else None
  in
  let prog_step r =
    match reporter with
    | Some p -> Dfv_par.Progress.step p (progress_category r)
    | None -> ()
  in
  let skeleton m verdict =
    {
      m_name = mutant_name m;
      m_class = mutant_class m;
      m_site = mutant_site m;
      verdict;
    }
  in
  (* --- durability: journal replay and incremental append ---------------
     A mutant's journal key is structural — subject, index and mutant
     identity — so a resumed run (same configuration, any [jobs]) maps
     each mutant to the same record.  Only flow-level verdicts are
     journaled: pool-level failures (timeout/interruption) and shed
     placeholders re-run on resume instead of being replayed. *)
  let mutant_fp i m =
    Dfv_par.Journal.fingerprint
      (String.concat "|"
         [ "mutant"; subject_name; string_of_int i; mutant_name m;
           mutant_class m; mutant_site m ])
  in
  let durable r =
    match r.verdict with
    | Unknown { reason; _ } when is_shed reason -> false
    | _ -> true
  in
  let journal_result i m r =
    match journal with
    | Some j when durable r ->
      Dfv_par.Journal.append j ~fp:(mutant_fp i m) (result_to_json r)
    | _ -> ()
  in
  let replay i m =
    match journal with
    | None -> None
    | Some j -> (
      match Dfv_par.Journal.find j (mutant_fp i m) with
      | None -> None
      | Some payload -> (
        (* An undecodable payload is treated as missing: the mutant
           simply re-runs (deterministically), it does not poison the
           campaign. *)
        match result_of_json payload with Ok r -> Some r | Error _ -> None))
  in
  (* Pool failures fold into the campaign taxonomy: a timed-out mutant
     is undecided (budget-like), an interrupted one is undecided and
     re-runs on resume, and anything else — a job that escaped the
     flow's guard (a stack overflow) — is the crash verdict. *)
  let fold m = function
    | Ok r -> r
    | Error e ->
      skeleton m
        (match e with
        | Dfv_error.Worker_timeout { seconds; _ } ->
          Unknown { reason = Dfv_error.to_string e; seconds }
        | Dfv_error.Interrupted _ ->
          Unknown { reason = Dfv_error.to_string e; seconds = 0.0 }
        | e -> Crashed e)
  in
  let run_all () =
    let replayed, missing =
      List.partition_map
        (fun (i, m) ->
          match replay i m with
          | Some r -> Left (i, r)
          | None -> Right (i, m))
        indexed
    in
    List.iter (fun (_, r) -> prog_step r) replayed;
    let missing_arr = Array.of_list missing in
    let on_result k outcome =
      (* Runs on the caller as each job's outcome becomes final: the
         journal grows with the campaign, so a kill at any instant
         loses at most the jobs still in flight.  The calling domain is
         also a worker, and it collects the others' results between its
         own jobs, so a kill can also lose what they finished during its
         current job: at most that one job's duration of their work.
         All of it re-runs on resume. *)
      let i, m = missing_arr.(k) in
      match outcome with
      | Ok r ->
        journal_result i m r;
        prog_step r
      | Error _ -> prog_step (fold m outcome)
    in
    let label k = mutant_name (snd missing_arr.(k)) in
    let outcomes =
      Dfv_par.Dpool.map ~jobs ?timeout ~label ~on_result run_one missing
    in
    let by_index = Hashtbl.create 64 in
    List.iter (fun (i, r) -> Hashtbl.replace by_index i r) replayed;
    List.iter2
      (fun (i, m) o -> Hashtbl.replace by_index i (fold m o))
      missing outcomes;
    List.map (fun (i, _) -> Hashtbl.find by_index i) indexed
  in
  let results =
    Dfv_obs.Trace.with_span ~cat:"fault"
      ~args:[ ("subject", Dfv_obs.Json.String subject_name) ]
      "fault.campaign" run_all
  in
  (match reporter with Some p -> Dfv_par.Progress.finish p | None -> ());
  let count p = List.length (List.filter p results) in
  {
    r_subject = subject_name;
    r_total = List.length results;
    r_detected = count (fun r -> match r.verdict with Detected _ -> true | _ -> false);
    r_survived = count (fun r -> match r.verdict with Survived _ -> true | _ -> false);
    r_unknown = count (fun r -> match r.verdict with Unknown _ -> true | _ -> false);
    r_crashed = count (fun r -> match r.verdict with Crashed _ -> true | _ -> false);
    r_false_eq =
      count (fun r -> match r.verdict with False_equivalent _ -> true | _ -> false);
    r_mislocalized =
      count (fun r ->
          match r.verdict with
          | Detected { localized = Some false; _ } -> true
          | _ -> false);
    r_shed =
      count (fun r ->
          match r.verdict with
          | Unknown { reason; _ } -> is_shed reason
          | _ -> false);
    r_wall = Unix.gettimeofday () -. t_start;
    r_results = results;
  }

let detection_rate reports =
  let det = List.fold_left (fun a r -> a + r.r_detected) 0 reports in
  let bad =
    List.fold_left (fun a r -> a + r.r_false_eq + r.r_crashed) 0 reports
  in
  if det + bad = 0 then 1.0 else float_of_int det /. float_of_int (det + bad)

let false_equivalents reports =
  List.fold_left (fun a r -> a + r.r_false_eq) 0 reports

let pp_report fmt r =
  Format.fprintf fmt
    "%-18s %3d mutants: %d detected, %d survived, %d unknown, %d crashed, %d \
     false-eq, %d mislocalized%s (%.2fs)@."
    r.r_subject r.r_total r.r_detected r.r_survived r.r_unknown r.r_crashed
    r.r_false_eq r.r_mislocalized
    (* Shedding is never silent: a deadline that dropped work is part of
       the headline. *)
    (if r.r_shed > 0 then Printf.sprintf ", %d SHED (deadline)" r.r_shed else "")
    r.r_wall;
  List.iter
    (fun m ->
      Format.fprintf fmt "    %-16s %-50s %s" (verdict_label m.verdict)
        m.m_name
        (match m.verdict with
        | Detected { engine; localized; _ } ->
          Printf.sprintf "via %s%s" engine
            (match localized with
            | Some true -> ", localized"
            | Some false -> ", NOT localized"
            | None -> "")
        | Unknown { reason; _ } -> reason
        | Crashed e -> Dfv_error.to_string e
        | Survived _ | False_equivalent _ -> "");
      Format.fprintf fmt "@.")
    r.r_results

(* --- JSON -------------------------------------------------------------- *)

let json_of_reports ~min_rate reports =
  let str s = Json.String s in
  let mutant_json m =
    let base =
      [ ("name", str m.m_name);
        ("class", str m.m_class);
        ("site", str m.m_site);
        ("verdict", str (verdict_label m.verdict)) ]
    in
    let extra =
      match m.verdict with
      | Detected { engine; seconds; localized } ->
        [ ("engine", str engine); ("seconds", Json.Float seconds) ]
        @ (match localized with
          | Some l -> [ ("localized", Json.Bool l) ]
          | None -> [])
      | Survived { seconds } | False_equivalent { seconds } ->
        [ ("seconds", Json.Float seconds) ]
      | Unknown { reason; seconds } ->
        [ ("reason", str reason); ("seconds", Json.Float seconds) ]
      | Crashed e -> [ ("error", str (Dfv_error.to_string e)) ]
    in
    Json.Obj (base @ extra)
  in
  let report_json r =
    Json.Obj
      [ ("name", str r.r_subject);
        ("total", Json.Int r.r_total);
        ("detected", Json.Int r.r_detected);
        ("survived", Json.Int r.r_survived);
        ("unknown", Json.Int r.r_unknown);
        ("crashed", Json.Int r.r_crashed);
        ("false_equivalent", Json.Int r.r_false_eq);
        ("mislocalized", Json.Int r.r_mislocalized);
        ("shed", Json.Int r.r_shed);
        ("wall_seconds", Json.Float r.r_wall);
        ("faults", Json.List (List.map mutant_json r.r_results)) ]
  in
  let rate = detection_rate reports in
  let false_eq = false_equivalents reports in
  Json.envelope ~schema:"dfv-faultsim" ~version:1
    [ ("min_rate", Json.Float min_rate);
      ("detection_rate", Json.Float rate);
      ("false_equivalents", Json.Int false_eq);
      ("pass", Json.Bool (rate >= min_rate && false_eq = 0));
      ("subjects", Json.List (List.map report_json reports)) ]
