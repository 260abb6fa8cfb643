(* faultsim-journaled: each op is one fault campaign over a cheap subject,
   journaled to a fresh file and pooled the way [dfv faultsim] runs by
   default on the host (jobs = cores, adaptive executor).  With mutants
   of a few ms, the per-mutant framework cost (fault enumeration, pool
   dispatch, telemetry merge, the fsync'd journal append) is a large
   share of the time; this is where journal group commit and executor
   changes act. *)

module Suite = Dfv_fault.Suite
module Campaign = Dfv_fault.Campaign
module Journal = Dfv_par.Journal
module Pool = Dfv_par.Pool
module Dpool = Dfv_par.Dpool
module H = Harness

let name = "faultsim-journaled"

(* Cheap subjects only: fir and chain.convolution take 0.4-0.9 s per
   mutant.  Five subjects of equal weight put p50 in the middle of the
   third-slowest subject's band and p90 in the middle of the slowest. *)
let subjects = [ "alu"; "gcd"; "chain.brightness"; "chain.threshold"; "memsys" ]
let round_len = List.length subjects

let budget =
  Some { Dfv_sat.Solver.max_conflicts = Some 20_000; max_seconds = None }

let sim_vectors = 400
let max_rtl_faults = 16
let max_slm_faults = 8

type acc = {
  mutable mutants : int;
  mutable detected : int;
  mutable survived : int;
  mutable unknown : int;
  mutable crashed : int;
  mutable reports : Campaign.report list;
  mutable short : int;
  mutable timed : int;  (** mutants whose verdict carries a duration *)
  mutable journaled_s : float;
  mutable plain_s : float;
}

type t = {
  ctx : H.ctx;
  jobs : int;
  pool : bool option;
  mutable paired : bool;
  ops : string H.rounds;
  mutable acc : acc;
}

let fresh_acc () =
  {
    mutants = 0;
    detected = 0;
    survived = 0;
    unknown = 0;
    crashed = 0;
    reports = [];
    short = 0;
    timed = 0;
    journaled_s = 0.0;
    plain_s = 0.0;
  }

let make_round ~seed r =
  H.shuffle (Random.State.make [| seed; r; 0xfa |]) subjects

(* Successive campaign seeds, one per op. *)
let campaign_seed t i = (t.ctx.H.seed * 1_000_003) + i

let max_faults t =
  if t.ctx.H.smoke then (2, 1) else (max_rtl_faults, max_slm_faults)

let campaign t ~op ?journal design seed =
  let max_rtl_faults, max_slm_faults = max_faults t in
  H.span ~cat:"fault" ~op "pb.fault.campaign" (fun () ->
      Suite.run ?budget ~seed ~sim_vectors ~jobs:t.jobs ?pool:t.pool ~exec:`Auto
        ?journal ~max_rtl_faults ~max_slm_faults ~designs:[ design ] ())

let journaled t ~op design seed =
  let max_rtl_faults, max_slm_faults = max_faults t in
  let path = Filename.concat t.ctx.H.rundir (Printf.sprintf "j-%d.jsonl" op) in
  (try Sys.remove path with Sys_error _ -> ());
  let key =
    Suite.campaign_key ~budget ~seed ~sim_vectors ~engine:None ~max_rtl_faults
      ~max_slm_faults ~designs:[ design ]
  in
  let j =
    match
      H.span ~cat:"par" ~op "pb.journal.open" (fun () ->
          Journal.open_ ~path ~campaign:key)
    with
    | Ok j -> j
    | Error m -> failwith ("journal " ^ path ^ ": " ^ m)
  in
  Fun.protect
    ~finally:(fun () -> Journal.close j)
    (fun () -> campaign t ~op ~journal:j design seed)

let letter = function
  | Campaign.Detected _ -> 'D'
  | Campaign.Survived _ -> 'S'
  | Campaign.False_equivalent _ -> 'F'
  | Campaign.Unknown _ -> 'U'
  | Campaign.Crashed _ -> 'C'

let seconds_of = function
  | Campaign.Detected { seconds; _ }
  | Campaign.Survived { seconds }
  | Campaign.False_equivalent { seconds }
  | Campaign.Unknown { seconds; _ } ->
    Some seconds
  | Campaign.Crashed _ -> None

let note t (r : Campaign.report) =
  let a = t.acc in
  a.mutants <- a.mutants + r.Campaign.r_total;
  a.detected <- a.detected + r.Campaign.r_detected;
  a.survived <- a.survived + r.Campaign.r_survived;
  a.unknown <- a.unknown + r.Campaign.r_unknown;
  a.crashed <- a.crashed + r.Campaign.r_crashed;
  a.reports <- r :: a.reports;
  List.iter
    (fun (m : Campaign.mutant_result) ->
      match seconds_of m.Campaign.verdict with
      | Some s ->
        a.timed <- a.timed + 1;
        if s < Dpool.short_job_threshold then a.short <- a.short + 1
      | None -> ())
    r.Campaign.r_results

(* The verdict label of every mutant, in enumeration order. *)
let transcript (r : Campaign.report) =
  String.init (List.length r.Campaign.r_results) (fun k ->
      letter (List.nth r.Campaign.r_results k).Campaign.verdict)

let run_op t i =
  let design = H.op_at t.ops i in
  let seed = campaign_seed t i in
  (* In the paired phase of a traced run, the same campaign also runs
     unjournaled, alternating which goes first, for journal.overhead_frac. *)
  let plain () =
    let _, s = H.timed (fun () -> campaign t ~op:i design seed) in
    t.acc.plain_s <- t.acc.plain_s +. s
  in
  if t.paired && i mod 2 = 0 then plain ();
  let reports, lat = H.timed (fun () -> journaled t ~op:i design seed) in
  if t.paired then begin
    t.acc.journaled_s <- t.acc.journaled_s +. lat;
    if i mod 2 = 1 then plain ()
  end;
  let r =
    match reports with [ r ] -> r | _ -> failwith "one report per campaign"
  in
  note t r;
  H.record ~idx:i ~lat
    ~label:(Printf.sprintf "campaign %s seed=%d" design seed)
    (fun () ->
      let letters = transcript r in
      ( letters,
        r.Campaign.r_false_eq = 0
        && r.Campaign.r_crashed = 0
        && r.Campaign.r_total > 0
        && r.Campaign.r_total = String.length letters
        && r.Campaign.r_detected + r.Campaign.r_survived + r.Campaign.r_unknown
           = r.Campaign.r_total ))

let setup ctx =
  (* The pool the way [dfv faultsim] sets it up with no --jobs: one job
     per core, in-process on a 1-core host. *)
  let cores = Pool.cores () in
  let t =
    {
      ctx;
      jobs = cores;
      pool = (if cores = 1 then Some false else None);
      paired = false;
      ops = H.rounds ~len:round_len (make_round ~seed:ctx.H.seed);
      acc = fresh_acc ();
    }
  in
  (* One warm-up campaign of each subject, outside the op sequence. *)
  List.iteri
    (fun k design -> ignore (journaled t ~op:(-1 - k) design (-1 - k)))
    (if ctx.H.smoke then [ "alu" ] else subjects);
  t

let reset_layer t = t.acc <- fresh_acc ()

let layer t ~campaign_s =
  let a = t.acc in
  [ ("fault.mutants", float_of_int a.mutants);
    ("fault.detected", float_of_int a.detected);
    ("fault.survived", float_of_int a.survived);
    ("fault.unknown", float_of_int a.unknown);
    ("fault.crashed", float_of_int a.crashed);
    ( "fault.detect_frac",
      if a.reports = [] then 0.0 else Campaign.detection_rate a.reports );
    ("fault.mutants_per_s", H.ratio (float_of_int a.mutants) campaign_s);
    ( "fault.short_job_frac",
      H.ratio (float_of_int a.short) (float_of_int a.timed) );
    ( "journal.overhead_frac",
      if a.plain_s = 0.0 then 0.0 else (a.journaled_s /. a.plain_s) -. 1.0 ) ]

(* Ops per phase of a traced run: whole rounds; the traced phase takes
   about [seconds / 2] on a 2-core x86 host, tracing the pool included. *)
let trace_ops ~seconds =
  round_len * max 1 (int_of_float (Float.round (seconds *. 0.5)))

let golden_ops = 60 * round_len
