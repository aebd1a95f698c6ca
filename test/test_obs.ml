(** Telemetry layer: trace spans, metrics registry, decision log.

    The load-bearing property is reconciliation: for every registry
    workload and every configuration, folding the decision log's deltas
    over the raw check counts must reproduce [Compiler.check_stats]
    exactly — the log is a complete account of what happened to every
    null check. *)

open Nullelim
module Obs = Nullelim.Obs
module Workloads = Nullelim_workloads.Registry
module H = Helpers

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.Str "hi \"there\"\n\t\xe2\x82\xac");
        ("d", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj []);
        ("neg", Json.Int (-7));
        ("exp", Json.Float 1.25e-9);
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' ->
    Alcotest.(check bool) "round-trips" true (Json.equal j j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* Truncations of a well-formed document must all fail (except the
   prefixes that happen to be complete documents themselves — for this
   input there are none beyond the full string). *)
let test_json_truncated () =
  let doc = "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":null}}" in
  (match Json.of_string doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full document must parse: %s" e);
  for len = 0 to String.length doc - 1 do
    match Json.of_string (String.sub doc 0 len) with
    | Ok _ -> Alcotest.failf "accepted truncation %S" (String.sub doc 0 len)
    | Error _ -> ()
  done

let test_json_bad_escapes () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad escape: %s" s
      | Error _ -> ())
    [
      "\"\\q\"" (* unknown escape letter *);
      "\"\\" (* escape at end of input *);
      "\"\\u12\"" (* short \u *);
      "\"\\uZZZZ\"" (* non-hex \u *);
      "\"\\u123" (* \u cut by end of input *);
    ];
  (* the good escapes still work and mean what they should *)
  match Json.of_string "\"\\u0041\\n\\t\\\\\\\"\\u20ac\"" with
  | Ok (Json.Str s) -> Alcotest.(check string) "escapes" "A\n\t\\\"\xe2\x82\xac" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "good escapes rejected: %s" e

let test_json_duplicate_keys () =
  (match Json.of_string "{\"a\":1,\"a\":2}" with
  | Ok _ -> Alcotest.fail "accepted duplicate key"
  | Error e ->
    Alcotest.(check bool)
      "error names the key" true
      (H.contains e "duplicate key"));
  (* nested duplicates are caught too *)
  (match Json.of_string "{\"outer\":{\"x\":1,\"x\":1}}" with
  | Ok _ -> Alcotest.fail "accepted nested duplicate key"
  | Error _ -> ());
  (* same key at different depths is fine *)
  match Json.of_string "{\"a\":{\"a\":1},\"b\":[{\"a\":2}]}" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected legal reuse across depths: %s" e

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_snapshot () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m ~labels:[ ("pass", "p1") ] "widgets" in
  Obs.Metrics.inc c 3;
  Obs.Metrics.inc (Obs.Metrics.counter m ~labels:[ ("pass", "p1") ] "widgets") 2;
  Alcotest.(check int) "same instrument" 5 (Obs.Metrics.counter_total m ~labels:[ ("pass", "p1") ] "widgets");
  let g = Obs.Metrics.gauge m "temperature" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.add g 0.25;
  let h = Obs.Metrics.histogram m "latency" in
  Obs.Metrics.observe h 0.002;
  Obs.Metrics.observe h 5.0;
  Obs.Metrics.observe h 1e6 (* beyond the last bucket: +Inf overflow *);
  Alcotest.(check int) "hist count" 3 (Obs.Metrics.histogram_total_count m "latency");
  let snap = Obs.Metrics.snapshot m in
  (* validates against the documented schema *)
  (match Obs.Doc.validate Obs.Metrics.doc snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "snapshot does not validate: %s" e);
  (* round-trips through the serializer and still validates *)
  (match Json.of_string (Json.to_string snap) with
  | Ok j ->
    Alcotest.(check bool) "snapshot round-trips" true (Json.equal snap j);
    (match Obs.Doc.validate Obs.Metrics.doc j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "re-parsed snapshot does not validate: %s" e)
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e);
  (* schema_version is present and current *)
  match Json.member "schema_version" snap with
  | Some (Json.Int v) ->
    Alcotest.(check int) "schema_version" (Obs.Doc.version Obs.Metrics.doc) v
  | _ -> Alcotest.fail "missing schema_version"

let test_metrics_kind_conflict () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  Alcotest.check_raises "gauge vs counter"
    (Invalid_argument
       "Metrics: x already registered with a different type (wanted gauge)")
    (fun () -> ignore (Obs.Metrics.gauge m "x"))

(* The first registration fixes a histogram's buckets, sorted; a later
   lookup with other or unsorted buckets gets the same cell back, from
   this domain and from a fresh one, and a lookup under
   another kind still raises once the cell exists. *)
let test_metrics_first_registration_wins () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~buckets:[| 3.; 1.; 2. |] "lat" in
  Alcotest.(check bool) "unsorted spec: same cell" true
    (Obs.Metrics.histogram m ~buckets:[| 9.; 0.5 |] "lat" == h);
  Obs.Metrics.observe h 1.5;
  Domain.join
    (Domain.spawn (fun () ->
         Obs.Metrics.observe (Obs.Metrics.histogram m ~buckets:[| 7. |] "lat") 2.5));
  (match Obs.Metrics.histogram_merged m "lat" with
  | Some (buckets, counts, n, _) ->
    Alcotest.(check (array (float 0.))) "canonical sorted buckets"
      [| 1.; 2.; 3. |] buckets;
    Alcotest.(check (array int)) "samples in the canonical buckets"
      [| 0; 1; 1; 0 |] counts;
    Alcotest.(check int) "both domains counted" 2 n
  | None -> Alcotest.fail "histogram not registered");
  let kind_error want =
    Invalid_argument
      (Printf.sprintf
         "Metrics: lat already registered with a different type (wanted %s)"
         want)
  in
  Alcotest.check_raises "counter vs histogram" (kind_error "counter")
    (fun () -> ignore (Obs.Metrics.counter m "lat"));
  Alcotest.check_raises "gauge vs histogram" (kind_error "gauge")
    (fun () -> ignore (Obs.Metrics.gauge m "lat"));
  ignore (Obs.Metrics.counter m "n");
  Alcotest.check_raises "histogram vs counter"
    (Invalid_argument
       "Metrics: n already registered with a different type (wanted histogram)")
    (fun () -> ignore (Obs.Metrics.histogram m "n"))

let test_metrics_validate_rejects () =
  List.iter
    (fun j ->
      match Obs.Doc.validate Obs.Metrics.doc j with
      | Ok () -> Alcotest.fail "validated a malformed snapshot"
      | Error _ -> ())
    [
      Json.Null;
      Json.Obj [];
      Json.Obj [ ("schema_version", Json.Int 999) ];
      Json.Obj
        [
          ("schema", Json.Str (Obs.Doc.schema Obs.Metrics.doc));
          ("schema_version", Json.Int 999);
        ];
      Obs.Doc.obj Obs.Metrics.doc
        [
          ("counters", Json.List [ Json.Obj [ ("name", Json.Str "a") ] ]);
          ("gauges", Json.List []);
          ("histograms", Json.List []);
        ];
    ]

(* Sum every counter series named [name] (all label variants) in a
   snapshot; likewise for histogram sample counts.  Reading through the
   snapshot rather than an instrument handle is what makes these checks
   representation-independent: they hold whether the registry is one
   shared table or per-domain shards merged at snapshot time. *)
let snapshot_counter snap name =
  match Json.member "counters" snap with
  | Some (Json.List cs) ->
    List.fold_left
      (fun acc c ->
        match (Json.member "name" c, Json.member "value" c) with
        | Some (Json.Str n), Some (Json.Int v) when n = name -> acc + v
        | _ -> acc)
      0 cs
  | _ -> Alcotest.fail "snapshot has no counters list"

let snapshot_histogram_count snap name =
  match Json.member "histograms" snap with
  | Some (Json.List hs) ->
    List.fold_left
      (fun acc h ->
        match (Json.member "name" h, Json.member "count" h) with
        | Some (Json.Str n), Some (Json.Int v) when n = name -> acc + v
        | _ -> acc)
      0 hs
  | _ -> Alcotest.fail "snapshot has no histograms list"

(** Four domains hammer one shared registry — re-requesting instruments
    every iteration (stressing find-or-add), bumping a shared counter, a
    labelled counter family, a histogram and a CAS-add gauge — while a
    fifth domain takes and validates snapshots mid-flight.  Every count
    must come out exact: on the pre-fix registry this fails by count
    mismatch (lost updates on [int ref] increments and histogram cells)
    or crashes in the unsynchronized [Hashtbl].  *)
let test_metrics_hammer () =
  let m = Obs.Metrics.create () in
  let domains = 4 and iters = 20_000 in
  let worker () =
    for i = 1 to iters do
      Obs.Metrics.inc (Obs.Metrics.counter m "hammer_ops") 1;
      Obs.Metrics.inc
        (Obs.Metrics.counter m
           ~labels:[ ("slot", string_of_int (i land 7)) ]
           "hammer_slot")
        1;
      Obs.Metrics.observe
        (Obs.Metrics.histogram m "hammer_lat")
        (float_of_int (i land 1023) /. 1024.);
      if i land 15 = 0 then Obs.Metrics.add (Obs.Metrics.gauge m "hammer_acc") 1.
    done
  in
  let reader () =
    (* concurrent snapshots must stay well-formed while instruments are
       being registered and bumped under them *)
    for _ = 1 to 25 do
      match Obs.Doc.validate Obs.Metrics.doc (Obs.Metrics.snapshot m) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "mid-flight snapshot invalid: %s" e
    done
  in
  let ds =
    Domain.spawn reader :: List.init domains (fun _ -> Domain.spawn worker)
  in
  List.iter Domain.join ds;
  let snap = Obs.Metrics.snapshot m in
  (match Obs.Doc.validate Obs.Metrics.doc snap with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final snapshot invalid: %s" e);
  let expected = domains * iters in
  Alcotest.(check int) "shared counter exact" expected
    (snapshot_counter snap "hammer_ops");
  Alcotest.(check int) "labelled counter family exact" expected
    (snapshot_counter snap "hammer_slot");
  Alcotest.(check int) "histogram count exact" expected
    (snapshot_histogram_count snap "hammer_lat");
  Alcotest.(check (float 1e-9)) "gauge CAS adds exact"
    (float_of_int (domains * (iters / 16)))
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "hammer_acc"))

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_trace_nesting () =
  Obs.Trace.start ();
  (* enough work that the spans are wider than the clock granularity *)
  let work () = ignore (Sys.opaque_identity (List.init 20_000 Fun.id)) in
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner1" (fun () -> work ());
        Obs.span "inner2" (fun () ->
            Alcotest.(check int) "depth inside" 2 (Obs.Trace.depth ());
            work ();
            17))
  in
  Alcotest.(check int) "span returns" 17 r;
  Alcotest.(check int) "balanced" 0 (Obs.Trace.depth ());
  let evs = Obs.Trace.stop () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let by_name n =
    match List.find_opt (fun e -> e.Obs.Trace.ev_name = n) evs with
    | Some e -> e
    | None -> Alcotest.failf "no span named %s" n
  in
  let outer = by_name "outer" in
  Alcotest.(check int) "outer at top level" 0 outer.Obs.Trace.ev_depth;
  List.iter
    (fun n ->
      let e = by_name n in
      Alcotest.(check int) ("depth of " ^ n) 1 e.Obs.Trace.ev_depth;
      (* contained in the outer interval *)
      Alcotest.(check bool) (n ^ " starts inside outer") true
        (e.ev_ts_us >= outer.ev_ts_us);
      Alcotest.(check bool) (n ^ " ends inside outer") true
        (e.ev_ts_us +. e.ev_dur_us <= outer.ev_ts_us +. outer.ev_dur_us))
    [ "inner1"; "inner2" ];
  (* stop returns start order: outer first *)
  match evs with
  | first :: _ ->
    Alcotest.(check string) "outer first" "outer" first.Obs.Trace.ev_name
  | [] -> Alcotest.fail "no events"

let test_trace_exception_safety () =
  Obs.Trace.start ();
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "depth restored" 0 (Obs.Trace.depth ());
  let evs = Obs.Trace.stop () in
  Alcotest.(check int) "event recorded" 1 (List.length evs)

let test_trace_compile_stream () =
  let w = Option.get (Workloads.find "numeric-sort") in
  let prog = w.Nullelim_workloads.Workload.build ~scale:1 in
  Obs.Trace.start ();
  let _c = Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog in
  Alcotest.(check int) "balanced after compile" 0 (Obs.Trace.depth ());
  let evs = Obs.Trace.stop () in
  (* the stream contains the expected layers *)
  let has cat = List.exists (fun e -> e.Obs.Trace.ev_cat = cat) evs in
  Alcotest.(check bool) "compile span" true (has "compile");
  Alcotest.(check bool) "pass spans" true (has "pass");
  Alcotest.(check bool) "function spans" true (has "func");
  Alcotest.(check bool) "solver spans" true (has "solver");
  (* Chrome trace JSON shape *)
  let j = Obs.Trace.to_json evs in
  match Json.member "traceEvents" j with
  | Some (Json.List items) ->
    Alcotest.(check int) "all events emitted" (List.length evs)
      (List.length items);
    List.iter
      (fun item ->
        match (Json.member "ph" item, Json.member "ts" item) with
        | Some (Json.Str "X"), Some (Json.Float _ | Json.Int _) -> ()
        | _ -> Alcotest.fail "event is not a complete event with ts")
      items
  | _ -> Alcotest.fail "no traceEvents array"

(* ------------------------------------------------------------------ *)
(* Decision log                                                        *)
(* ------------------------------------------------------------------ *)

let configs_under_test =
  [
    (Config.new_full, Arch.ia32_windows);
    (Config.new_phase1_only, Arch.ia32_windows);
    (Config.old_null_check, Arch.ia32_windows);
    (Config.no_null_opt_trap, Arch.ia32_windows);
    (Config.no_null_opt_no_trap, Arch.ia32_windows);
    (Config.hotspot_model, Arch.ia32_windows);
    (Config.aix_speculation, Arch.ppc_aix);
    (Config.aix_illegal_implicit, Arch.ppc_aix);
  ]

(** The tentpole invariant: on every workload × config, the decision log
    reconciles with the compiler's check statistics. *)
let test_reconciliation () =
  List.iter
    (fun (w : Nullelim_workloads.Workload.t) ->
      let prog = w.build ~scale:1 in
      List.iter
        (fun ((cfg : Config.t), arch) ->
          let c = Compiler.compile cfg ~arch prog in
          match Compiler.reconcile c with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s under %s: %s" w.name cfg.Config.name e)
        configs_under_test)
    (Workloads.all ())

let test_decision_log_deterministic () =
  let w = Option.get (Workloads.find "javac") in
  let prog = w.Nullelim_workloads.Workload.build ~scale:1 in
  let c1 = Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog in
  let c2 = Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog in
  Alcotest.(check int) "same event count"
    (List.length c1.Compiler.decisions)
    (List.length c2.Compiler.decisions);
  List.iter2
    (fun (a : Obs.Decision.event) (b : Obs.Decision.event) ->
      if a <> b then
        Alcotest.failf "event %d differs: %s vs %s" a.Obs.Decision.id
          (Json.to_string (Obs.Decision.event_to_json a))
          (Json.to_string (Obs.Decision.event_to_json b)))
    c1.Compiler.decisions c2.Compiler.decisions

let test_decision_log_content () =
  let w = Option.get (Workloads.find "lu-decomposition") in
  let prog = w.Nullelim_workloads.Workload.build ~scale:1 in
  let c = Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog in
  let ds = c.Compiler.decisions in
  Alcotest.(check bool) "log is non-empty" true (ds <> []);
  (* events carry pass and function context *)
  List.iter
    (fun (e : Obs.Decision.event) ->
      Alcotest.(check bool) "has pass" true (e.Obs.Decision.pass <> ""))
    ds;
  (* the full pipeline converts at least one check to implicit *)
  Alcotest.(check bool) "some conversions" true
    (List.exists
       (fun (e : Obs.Decision.event) ->
         e.Obs.Decision.action = Obs.Decision.Converted_implicit)
       ds);
  (* ids are sequential in record order *)
  List.iteri
    (fun i (e : Obs.Decision.event) ->
      Alcotest.(check int) "sequential ids" i e.Obs.Decision.id)
    ds;
  (* JSON form parses back *)
  match Json.of_string (Json.to_string (Obs.Decision.to_json ds)) with
  | Ok (Json.List items) ->
    Alcotest.(check int) "all events serialized" (List.length ds)
      (List.length items)
  | Ok _ -> Alcotest.fail "decision log JSON is not a list"
  | Error e -> Alcotest.failf "decision log JSON does not parse: %s" e

let test_no_collector_no_events () =
  (* record outside with_log is a no-op, and compile scopes its collector *)
  Obs.Decision.record ~kind:Obs.Decision.Kexplicit
    ~action:Obs.Decision.Eliminated_redundant
    ~just:Obs.Decision.Nonnull_dominating ();
  Alcotest.(check bool) "inactive outside compile" false
    (Obs.Decision.active ())

(* ------------------------------------------------------------------ *)
(* Compile-level metrics                                               *)
(* ------------------------------------------------------------------ *)

let test_compile_metrics () =
  let w = Option.get (Workloads.find "assignment") in
  let prog = w.Nullelim_workloads.Workload.build ~scale:1 in
  let c = H.compile Config.new_full prog in
  let m = Compiler.metrics c in
  let counter name =
    Obs.Metrics.counter_total m name
  in
  Alcotest.(check int) "raw explicit mirrored"
    c.Compiler.checks.Compiler.raw_checks
    (counter "checks_raw_explicit");
  Alcotest.(check int) "explicit after mirrored"
    c.Compiler.checks.Compiler.explicit_after
    (counter "checks_explicit_after");
  Alcotest.(check int) "implicit after mirrored"
    c.Compiler.checks.Compiler.implicit_after
    (counter "checks_implicit_after");
  Alcotest.(check int) "decision events mirrored"
    (List.length c.Compiler.decisions)
    (counter "decision_events");
  (* per-pass series exist and validate *)
  (match Obs.Doc.validate Obs.Metrics.doc (Obs.Metrics.snapshot m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compile metrics do not validate: %s" e);
  (* the interpreter can dump into the same registry *)
  let r = Interp.run ~metrics:m ~arch:Arch.ia32_windows c.Compiler.program [] in
  (match r.Interp.outcome with
  | Interp.Returned _ -> ()
  | o -> Alcotest.failf "workload failed: %a" Interp.pp_outcome o);
  Alcotest.(check int) "interp counters mirrored"
    r.Interp.counters.Interp.cycles
    (counter "interp_cycles")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "truncated input" `Quick test_json_truncated;
          Alcotest.test_case "bad escapes" `Quick test_json_bad_escapes;
          Alcotest.test_case "duplicate keys" `Quick test_json_duplicate_keys;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot + validate" `Quick test_metrics_snapshot;
          Alcotest.test_case "kind conflict" `Quick test_metrics_kind_conflict;
          Alcotest.test_case "first registration wins" `Quick
            test_metrics_first_registration_wins;
          Alcotest.test_case "validate rejects" `Quick
            test_metrics_validate_rejects;
          Alcotest.test_case "4-domain hammer (exact counts)" `Quick
            test_metrics_hammer;
        ] );
      ( "trace",
        [
          Alcotest.test_case "well-nested + balanced" `Quick test_trace_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_trace_exception_safety;
          Alcotest.test_case "compile stream" `Quick test_trace_compile_stream;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "reconciles on all workloads" `Slow
            test_reconciliation;
          Alcotest.test_case "deterministic" `Quick
            test_decision_log_deterministic;
          Alcotest.test_case "content" `Quick test_decision_log_content;
          Alcotest.test_case "scoped collection" `Quick
            test_no_collector_no_events;
        ] );
      ( "metrics-compile",
        [ Alcotest.test_case "compile + interp registry" `Quick test_compile_metrics ] );
    ]
