(* Tests for the observability layer: JSON emission, span tracer,
   metrics histograms, functional coverage, and triage bundles. *)

open Dfv_obs

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Json ------------------------------------------------------------- *)

let test_json_escaping () =
  check_string "quotes/backslash/control chars escaped"
    "\"a\\\"b\\\\c\\nd\\te\\u0001f\""
    (Json.to_string (Json.String "a\"b\\c\nd\te\x01f"));
  check_string "non-finite floats are null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]));
  check_string "scalars" "{\"a\":1,\"b\":true,\"c\":null}"
    (Json.to_string
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.Bool true); ("c", Json.Null) ]))

let test_json_envelope () =
  check_string "envelope leads with schema and version"
    "{\"schema\":\"dfv-test\",\"version\":3,\"x\":7}"
    (Json.to_string
       (Json.envelope ~schema:"dfv-test" ~version:3 [ ("x", Json.Int 7) ]))

let test_json_parse_roundtrip () =
  let v =
    Json.Obj
      [ ("schema", Json.String "dfv-par");
        ("version", Json.Int 1);
        ("neg", Json.Int (-42));
        ("pi", Json.Float 3.5);
        ("esc", Json.String "a\"b\\c\nd\te\x01f");
        ("null", Json.Null);
        ("flags", Json.List [ Json.Bool true; Json.Bool false ]);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Int 0; Json.Int 7 ]) ]) ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' ->
    check_string "parse inverts to_string" (Json.to_string v)
      (Json.to_string v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e);
  check_bool "surrounding whitespace ok" true
    (Json.parse "  [1, 2]\n" = Ok (Json.List [ Json.Int 1; Json.Int 2 ]))

let test_json_parse_rejects_malformed () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse accepted malformed input %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{\"a\":1";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "[1,]";
  bad "01";
  bad "{\"a\":1} trailing";
  bad "nul"

let test_json_envelope_of () =
  let enveloped = Json.envelope ~schema:"dfv-bench" ~version:2 [] in
  check_bool "envelope recognized" true
    (Json.envelope_of enveloped = Some ("dfv-bench", 2));
  check_bool "field access" true
    (Json.field "schema" enveloped = Some (Json.String "dfv-bench"));
  check_bool "plain object is not an envelope" true
    (Json.envelope_of (Json.Obj [ ("x", Json.Int 1) ]) = None);
  check_bool "non-object is not an envelope" true
    (Json.envelope_of (Json.Int 3) = None)

(* --- Trace ------------------------------------------------------------ *)

let test_span_nesting () =
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.enable ~capacity:64 ();
  check_int "depth outside any span" 0 (Trace.depth ());
  Trace.with_span "outer" (fun () ->
      check_int "depth inside outer" 1 (Trace.depth ());
      Trace.with_span "inner" (fun () ->
          check_int "depth inside inner" 2 (Trace.depth ()));
      Trace.instant "mark");
  check_int "depth unwound" 0 (Trace.depth ());
  check_int "max depth observed" 2 (Trace.max_depth ());
  match Trace.events () with
  | [ ("outer", o_ts, o_dur, 0); ("inner", i_ts, i_dur, 1);
      ("mark", m_ts, m_dur, 1) ] ->
    check_bool "durations non-negative" true (o_dur >= 0.0 && i_dur >= 0.0);
    check_bool "instant has no duration" true (m_dur = 0.0);
    (* The monotonized clock makes nesting reconstructible from ts/dur:
       the parent's interval encloses the child's. *)
    check_bool "child starts after parent" true (i_ts >= o_ts);
    check_bool "child ends before parent" true
      (i_ts +. i_dur <= o_ts +. o_dur);
    check_bool "instant inside parent" true
      (m_ts >= o_ts && m_ts <= o_ts +. o_dur)
  | evs -> Alcotest.failf "unexpected event list (%d events)" (List.length evs)

let test_span_disabled_is_noop () =
  Trace.disable ();
  (* No sink: spans are null, thunks still run, nothing is recorded. *)
  let ran = ref false in
  Trace.with_span "ghost" (fun () -> ran := true);
  Trace.instant "ghost-instant";
  check_bool "thunk ran" true !ran;
  check_int "nothing recorded" 0 (List.length (Trace.events ()));
  check_bool "begin_span yields the shared null span" true
    (Trace.begin_span "x" == Trace.null_span)

let test_span_ring_overflow () =
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.enable ~capacity:2 ();
  Trace.instant "a";
  Trace.instant "b";
  Trace.instant "c";
  (match Trace.events () with
  | [ ("b", _, _, _); ("c", _, _, _) ] -> ()
  | evs -> Alcotest.failf "ring kept %d events" (List.length evs));
  check_bool "dropped count reported" true
    (contains ~needle:"\"dropped\":1" (Json.to_string (Trace.to_json ())))

let test_trace_json_envelope () =
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.enable ();
  Trace.with_span ~cat:"test" "span" (fun () -> ());
  let s = Json.to_string (Trace.to_json ()) in
  check_bool "schema" true (contains ~needle:"\"schema\":\"dfv-trace\"" s);
  check_bool "version" true (contains ~needle:"\"version\":1" s);
  check_bool "complete event" true (contains ~needle:"\"ph\":\"X\"" s);
  check_bool "maxDepth" true (contains ~needle:"\"maxDepth\":1" s)

(* --- Metrics ---------------------------------------------------------- *)

let test_histogram_buckets () =
  (* Bucket 0 catches <= 0; v >= 1 lands in floor(log2 v) + 1, so bucket
     i >= 1 spans [2^(i-1), 2^i - 1].  Probe every boundary. *)
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Metrics.bucket_of v))
    [ (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3);
      (8, 4); (1023, 10); (1024, 11); (max_int, 62) ];
  check_bool "bucket 0 bounds" true (Metrics.bucket_bounds 0 = (min_int, 0));
  check_bool "bucket 1 bounds" true (Metrics.bucket_bounds 1 = (1, 1));
  check_bool "bucket 4 bounds" true (Metrics.bucket_bounds 4 = (8, 15));
  (* Round-trip: every probed value lies inside its bucket's bounds. *)
  List.iter
    (fun v ->
      let lo, hi = Metrics.bucket_bounds (Metrics.bucket_of v) in
      check_bool (Printf.sprintf "%d within bounds" v) true (lo <= v && v <= hi))
    [ -3; 0; 1; 2; 5; 16; 100; 65535; max_int ]

let test_histogram_observe () =
  let h = Metrics.histogram "test.obs.histogram" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 3; 1000 ];
  check_int "count" 5 (Metrics.histogram_count h);
  check_int "sum" 1005 (Metrics.histogram_sum h);
  let counts = Metrics.bucket_counts h in
  check_int "bucket 0 (v<=0)" 1 counts.(0);
  check_int "bucket 1 (v=1)" 2 counts.(1);
  check_int "bucket 2 (v in 2..3)" 1 counts.(2);
  check_int "bucket 10 (v in 512..1023)" 1 counts.(10)

let test_counters_and_gauges () =
  let c = Metrics.counter "test.obs.counter" in
  let v0 = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter accumulates" (v0 + 5) (Metrics.counter_value c);
  check_bool "same name, same handle" true
    (Metrics.counter "test.obs.counter" == c);
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_gauge g 7;
  Metrics.set_gauge g 3;
  check_int "gauge holds last value" 3 (Metrics.gauge_value g);
  check_bool "gauge tracks high-water" true (Metrics.gauge_max g >= 7);
  let s = Json.to_string (Metrics.snapshot ()) in
  check_bool "snapshot schema" true
    (contains ~needle:"\"schema\":\"dfv-metrics\"" s);
  check_bool "snapshot lists the counter" true
    (contains ~needle:"test.obs.counter" s)

(* --- Coverage --------------------------------------------------------- *)

let test_coverage_classification () =
  Fun.protect ~finally:(fun () -> Coverage.disable ()) @@ fun () ->
  Coverage.enable ();
  let g = Coverage.group "test.obs.cov" in
  let p =
    Coverage.point g "op"
      [ Coverage.bin "low" ~lo:0 ~hi:3;
        Coverage.bin ~kind:Coverage.Ignore_bin "mid" ~lo:4 ~hi:7;
        Coverage.bin ~kind:Coverage.Illegal "bad" ~lo:8 ~hi:15;
        Coverage.bin "high" ~lo:16 ~hi:31 ]
  in
  List.iter (Coverage.sample p) [ 1; 2; 5; 9; 100; 20 ];
  check_int "samples" 6 (Coverage.samples p);
  check_int "illegal hits" 1 (Coverage.illegal_count p);
  check_int "misses (no bin)" 1 (Coverage.miss_count p);
  (match Coverage.bin_hits p with
  | [ ("low", Coverage.Count, 2); ("mid", Coverage.Ignore_bin, 1);
      ("bad", Coverage.Illegal, 1); ("high", Coverage.Count, 1) ] -> ()
  | hits -> Alcotest.failf "unexpected bin hits (%d bins)" (List.length hits));
  (* Both Count bins hit at least once: full coverage — ignore and
     illegal bins never contribute to the percentage. *)
  check_bool "point coverage 1.0" true (Coverage.point_coverage p = 1.0);
  check_bool "group coverage 1.0" true (Coverage.group_coverage g = 1.0);
  let s = Json.to_string (Coverage.snapshot ()) in
  check_bool "snapshot schema" true
    (contains ~needle:"\"schema\":\"dfv-coverage\"" s);
  check_bool "snapshot lists the group" true (contains ~needle:"test.obs.cov" s)

let test_coverage_first_matching_bin () =
  Fun.protect ~finally:(fun () -> Coverage.disable ()) @@ fun () ->
  Coverage.enable ();
  let g = Coverage.group "test.obs.cov-overlap" in
  let p =
    Coverage.point g "v"
      [ Coverage.bin "first" ~lo:0 ~hi:10; Coverage.bin "second" ~lo:5 ~hi:10 ]
  in
  Coverage.sample p 7;
  (match Coverage.bin_hits p with
  | [ ("first", _, 1); ("second", _, 0) ] -> ()
  | _ -> Alcotest.fail "overlap not resolved to the first bin");
  check_bool "half covered" true (Coverage.point_coverage p = 0.5)

let test_coverage_at_least () =
  Fun.protect ~finally:(fun () -> Coverage.disable ()) @@ fun () ->
  Coverage.enable ();
  let g = Coverage.group "test.obs.cov-atleast" in
  let p =
    Coverage.point g "v" ~at_least:2 [ Coverage.bin "only" ~lo:0 ~hi:9 ]
  in
  Coverage.sample p 1;
  check_bool "one hit below at_least" true (Coverage.point_coverage p = 0.0);
  Coverage.sample p 2;
  check_bool "threshold reached" true (Coverage.point_coverage p = 1.0)

(* --- Triage ----------------------------------------------------------- *)

let test_triage_bundle_json () =
  let t =
    Triage.make ~design:"unit" ~kind:"sec-counterexample" ~txn_index:3
      ~stimulus:[ ("a", "0xff") ]
      ~failures:
        [ { Triage.f_port = "out"; f_cycle = 2; f_expected = Some "0x01";
            f_got = "0x00" } ]
      ~vcd:"$enddefinitions $end\n#0\n" ~vcd_window:(0, 4)
      ~notes:[ "seeded" ] ()
  in
  check_string "design" "unit" (Triage.design t);
  check_string "kind" "sec-counterexample" (Triage.kind t);
  check_bool "txn index" true (Triage.txn_index t = Some 3);
  let s = Json.to_string (Triage.to_json t) in
  List.iter
    (fun needle ->
      check_bool needle true (contains ~needle s))
    [ "\"schema\":\"dfv-triage\""; "\"version\":1"; "\"txn_index\":3";
      "\"port\":\"out\""; "\"expected\":\"0x01\""; "\"got\":\"0x00\"";
      "\"vcd_window\":[0,4]"; "\"metrics\"" ]

let test_memsys_triage () =
  (* Seed a fault into the memsys RTL and demand a complete bundle: the
     failing transaction, the full stimulus, the mismatch evidence and a
     VCD slice around the failure cycle. *)
  match Dfv_fault.Suite.memsys_triage () with
  | None -> Alcotest.fail "no enumerated fault produced a miscompare"
  | Some t ->
    check_string "design" "memsys" (Triage.design t);
    check_string "kind" "scoreboard-miscompare" (Triage.kind t);
    check_bool "failing transaction identified" true
      (Triage.txn_index t <> None);
    check_bool "mismatches recorded" true (Triage.failures t <> []);
    List.iter
      (fun (f : Triage.failure) ->
        check_bool "failure names a port" true (f.Triage.f_port <> "");
        check_bool "failure cycle sane" true (f.Triage.f_cycle >= 0))
      (Triage.failures t);
    (match Triage.vcd t with
    | None -> Alcotest.fail "no VCD slice captured"
    | Some vcd ->
      check_bool "VCD has definitions" true
        (contains ~needle:"$enddefinitions" vcd);
      check_bool "VCD has samples" true (contains ~needle:"#" vcd));
    let s = Json.to_string (Triage.to_json t) in
    check_bool "bundle names the injected fault" true
      (contains ~needle:"injected fault" s)

(* --- cross-process merge ---------------------------------------------- *)

(* Merging a worker snapshot: counters sum, gauges take the max of both
   value and high-water mark, histogram count/sum/buckets sum (the
   bucket index recovered from each bucket's lo bound — including
   bucket 0 and a large bucket), unknown names register on the fly. *)
let test_metrics_merge () =
  let c = Metrics.counter "t.merge.count" in
  Metrics.add c 5;
  let g = Metrics.gauge "t.merge.gauge" in
  Metrics.set_gauge g 9;
  Metrics.set_gauge g 3;
  let h = Metrics.histogram "t.merge.hist" in
  Metrics.observe h 0;
  Metrics.observe h 5;
  Metrics.observe h 1_000_000;
  let worker =
    Json.envelope ~schema:"dfv-metrics" ~version:1
      [ ( "counters",
          Json.Obj
            [ ("t.merge.count", Json.Int 7); ("t.merge.fresh", Json.Int 2) ] );
        ( "gauges",
          Json.Obj
            [ ( "t.merge.gauge",
                Json.Obj [ ("value", Json.Int 4); ("max", Json.Int 11) ] ) ] );
        ( "histograms",
          Json.Obj
            [ ( "t.merge.hist",
                Json.Obj
                  [ ("count", Json.Int 3);
                    ("sum", Json.Int 1_000_006);
                    ( "buckets",
                      Json.List
                        [ Json.Obj
                            [ ("lo", Json.Int min_int);
                              ("hi", Json.Int 0);
                              ("count", Json.Int 1) ];
                          Json.Obj
                            [ ("lo", Json.Int 4);
                              ("hi", Json.Int 7);
                              ("count", Json.Int 1) ];
                          Json.Obj
                            [ ("lo", Json.Int 524_288);
                              ("hi", Json.Int 1_048_575);
                              ("count", Json.Int 1) ] ] ) ] ) ] ) ]
  in
  (match Metrics.merge worker with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merge failed: %s" e);
  check_int "counters sum" 12 (Metrics.counter_value c);
  check_int "unknown counter registers" 2
    (Metrics.counter_value (Metrics.counter "t.merge.fresh"));
  check_int "gauge value maxes" 4 (Metrics.gauge_value g);
  check_int "gauge high-water maxes" 11 (Metrics.gauge_max g);
  check_int "histogram count sums" 6 (Metrics.histogram_count h);
  check_int "histogram sum sums" 2_000_011 (Metrics.histogram_sum h);
  let buckets = Metrics.bucket_counts h in
  check_int "bucket 0 (v <= 0) sums" 2 buckets.(0);
  check_int "bucket of 5 sums" 2 buckets.(Metrics.bucket_of 5);
  check_int "large bucket sums" 2 buckets.(Metrics.bucket_of 1_000_000)

let test_metrics_merge_malformed () =
  (match Metrics.merge (Json.Obj [ ("schema", Json.String "dfv-trace") ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "merge accepted a non-metrics envelope");
  (* A malformed field is reported, but valid fields still merge. *)
  let c = Metrics.counter "t.merge.partial" in
  let before = Metrics.counter_value c in
  let worker =
    Json.envelope ~schema:"dfv-metrics" ~version:1
      [ ( "counters",
          Json.Obj
            [ ("t.merge.bad", Json.String "nope");
              ("t.merge.partial", Json.Int 3) ] ) ]
  in
  (match Metrics.merge worker with
  | Error e ->
    check_bool "error names the offender" true (contains ~needle:"bad" e)
  | Ok () -> Alcotest.fail "merge accepted a string-valued counter");
  check_int "valid sibling still merged" (before + 3) (Metrics.counter_value c)

let test_metrics_strip_timing () =
  check_bool "suffix _us is timing" true (Metrics.timing_metric "sat.solve_us");
  check_bool "suffix _ns is timing" true (Metrics.timing_metric "x_ns");
  check_bool "suffix _ms is timing" true (Metrics.timing_metric "x_ms");
  check_bool "plain name is not" false (Metrics.timing_metric "sat.solves");
  let snap =
    Json.envelope ~schema:"dfv-metrics" ~version:1
      [ ( "counters",
          Json.Obj [ ("a.total", Json.Int 4); ("a.wait_us", Json.Int 9) ] );
        ( "gauges",
          Json.Obj
            [ ( "a.depth",
                Json.Obj [ ("value", Json.Int 1); ("max", Json.Int 6) ] ) ] );
        ( "histograms",
          Json.Obj
            [ ("a.solve_us", Json.Obj [ ("count", Json.Int 2) ]);
              ("a.size", Json.Obj [ ("count", Json.Int 2) ]) ] ) ]
  in
  check_string "timing dropped, gauges reduced to max"
    "{\"schema\":\"dfv-metrics\",\"version\":1,\"counters\":{\"a.total\":4},\"gauges\":{\"a.depth\":{\"max\":6}},\"histograms\":{\"a.size\":{\"count\":2}}}"
    (Json.to_string (Metrics.strip_timing snap))

let test_coverage_merge () =
  Coverage.clear ();
  Coverage.enable ();
  let g = Coverage.group "t.cg" in
  let p =
    Coverage.point g "val" ~at_least:2
      [ Coverage.bin "lo" ~lo:0 ~hi:9; Coverage.bin "hi" ~lo:10 ~hi:19 ]
  in
  List.iter (Coverage.sample p) [ 5; 5; 12; 50 ];
  let snap = Coverage.snapshot () in
  Coverage.disable ();
  (* Merge into an empty registry, twice: groups/points/bins rebuild
     from the shipped descriptors (even while disabled — merging is
     bookkeeping, not sampling) and hits sum. *)
  Coverage.clear ();
  (match Coverage.merge snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first merge failed: %s" e);
  (match Coverage.merge snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "second merge failed: %s" e);
  let g = Coverage.group "t.cg" in
  let p = List.hd (Coverage.points g) in
  check_string "point survives the wire" "val" (Coverage.point_name p);
  (match Coverage.bin_hits p with
  | [ ("lo", Coverage.Count, 4); ("hi", Coverage.Count, 2) ] -> ()
  | _ -> Alcotest.fail "expected summed bin hits [lo=4; hi=2]");
  check_int "misses sum" 2 (Coverage.miss_count p);
  check_int "samples sum" 8 (Coverage.samples p);
  check_bool "at_least travels (4 and 2 hits >= 2)" true
    (Coverage.point_coverage p = 1.0);
  (* A shape mismatch (wrong bin count) is an error. *)
  let bad =
    Json.envelope ~schema:"dfv-coverage" ~version:1
      [ ( "groups",
          Json.List
            [ Json.Obj
                [ ("name", Json.String "t.cg");
                  ( "points",
                    Json.List
                      [ Json.Obj
                          [ ("name", Json.String "val");
                            ("samples", Json.Int 0);
                            ("at_least", Json.Int 2);
                            ("illegal_hits", Json.Int 0);
                            ("misses", Json.Int 0);
                            ( "bins",
                              Json.List
                                [ Json.Obj
                                    [ ("name", Json.String "lo");
                                      ("kind", Json.String "count");
                                      ("lo", Json.Int 0);
                                      ("hi", Json.Int 9);
                                      ("hits", Json.Int 1) ] ] ) ] ] ) ] ] ) ]
  in
  (match Coverage.merge bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "merge accepted a bin-count mismatch");
  Coverage.clear ()

(* Worker spans absorbed into the parent sink keep the worker's pid (a
   separate Chrome process lane, with a process_name label), gain a
   job tag, and the export's drop count accumulates. *)
let test_trace_export_absorb () =
  Trace.disable ();
  check_bool "export while disabled is Null" true (Trace.export () = Json.Null);
  check_bool "absorb while disabled is a no-op" true
    (Trace.absorb (Json.Int 0) = Ok ());
  Trace.enable ();
  Trace.with_span ~cat:"t" "worker.op" (fun () -> ());
  let forge pid dropped =
    match Trace.export () with
    | Json.Obj fs ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "pid" -> (k, Json.Int pid)
             | "dropped" -> (k, Json.Int dropped)
             | _ -> (k, v))
           fs)
    | _ -> Alcotest.fail "export is not an object"
  in
  let ex = forge 4242 3 in
  Trace.enable () (* fresh parent sink *);
  Trace.with_span "parent.op" (fun () -> ());
  (match Trace.absorb ~job:7 ex with
  | Ok () -> ()
  | Error e -> Alcotest.failf "absorb failed: %s" e);
  let j = Trace.to_json () in
  let s = Json.to_string j in
  check_bool "worker events keep their pid" true
    (contains ~needle:"\"pid\":4242" s);
  check_bool "worker lane labelled" true
    (contains ~needle:"dfv worker 4242" s);
  check_bool "events tagged with the job index" true
    (contains ~needle:"\"job\":7" s);
  check_bool "parent span kept" true (contains ~needle:"parent.op" s);
  check_bool "worker span kept" true (contains ~needle:"worker.op" s);
  check_bool "foreign drops accumulate" true
    (Json.field "dropped" j = Some (Json.Int 3));
  (match Trace.absorb (Json.Obj [ ("schema", Json.String "dfv-metrics") ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "absorb accepted a non-export payload");
  (* The raw escape hatch: a bare JSON array, no envelope, drop count
     carried as an instant. *)
  (match Trace.raw_json () with
  | Json.List evs ->
    let raw = Json.to_string (Json.List evs) in
    check_bool "no envelope keys" false (contains ~needle:"\"schema\"" raw);
    check_bool "drop count travels as an instant" true
      (contains ~needle:"trace.dropped" raw)
  | _ -> Alcotest.fail "raw_json is not a bare list");
  Trace.disable ()

(* Ring overwrites surface in metrics, not just in the trace file. *)
let test_trace_dropped_counter () =
  let c = Metrics.counter "trace.dropped" in
  let before = Metrics.counter_value c in
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "ev%d" i)
  done;
  Trace.disable ();
  check_int "overwrites counted" (before + 6) (Metrics.counter_value c)

(* Two pooled jobs in a row on one domain share its shadow ring: the
   second job's export must hold its own events only, none of the
   first job's stale slots. *)
let test_shadow_ring_reuse () =
  Trace.enable ~capacity:8 ();
  let job names =
    Trace.isolate_domain ();
    Fun.protect ~finally:Trace.release_domain (fun () ->
        List.iter (fun n -> Trace.with_span n (fun () -> ())) names;
        Trace.domain_export ())
  in
  let names_of export =
    match Json.field "events" export with
    | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          match Json.field "name" e with
          | Some (Json.String n) -> Some n
          | _ -> None)
        evs
    | _ -> Alcotest.fail "export has no events"
  in
  let first = job [ "a1"; "a2"; "a3" ] in
  let second = job [ "b1" ] in
  Trace.disable ();
  Alcotest.(check (list string))
    "first job's events" [ "a1"; "a2"; "a3" ] (names_of first);
  Alcotest.(check (list string))
    "second job's export holds only its own events" [ "b1" ]
    (names_of second);
  check_bool "nothing dropped" true
    (Json.field "dropped" second = Some (Json.Int 0))

let suite =
  [ Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json envelope" `Quick test_json_envelope;
    Alcotest.test_case "json parse roundtrip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse rejects malformed" `Quick
      test_json_parse_rejects_malformed;
    Alcotest.test_case "json envelope recognition" `Quick
      test_json_envelope_of;
    Alcotest.test_case "span nesting and monotonicity" `Quick test_span_nesting;
    Alcotest.test_case "disabled tracer is a no-op" `Quick
      test_span_disabled_is_noop;
    Alcotest.test_case "span ring overflow" `Quick test_span_ring_overflow;
    Alcotest.test_case "trace json envelope" `Quick test_trace_json_envelope;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "coverage bin classification" `Quick
      test_coverage_classification;
    Alcotest.test_case "coverage first-matching bin" `Quick
      test_coverage_first_matching_bin;
    Alcotest.test_case "coverage at_least threshold" `Quick
      test_coverage_at_least;
    Alcotest.test_case "triage bundle json" `Quick test_triage_bundle_json;
    Alcotest.test_case "memsys triage bundle" `Quick test_memsys_triage;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics merge flags malformed fields" `Quick
      test_metrics_merge_malformed;
    Alcotest.test_case "strip_timing projects the deterministic core" `Quick
      test_metrics_strip_timing;
    Alcotest.test_case "coverage merge" `Quick test_coverage_merge;
    Alcotest.test_case "trace export/absorb" `Quick test_trace_export_absorb;
    Alcotest.test_case "ring overwrites hit trace.dropped" `Quick
      test_trace_dropped_counter;
    Alcotest.test_case "reused shadow ring exports one job's events" `Quick
      test_shadow_ring_reuse ]
