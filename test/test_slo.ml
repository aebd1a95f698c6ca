(* SLO burn-rate math and Prometheus exposition, deterministically:
   every tick gets an injected clock, so window-edge behaviour, the
   zero-traffic case and exact threshold crossings are exact assertions,
   not races.  The exposition tests pin down label escaping and the
   per-bucket -> cumulative accumulation that /metrics performs, and
   exercise the lint both on rendered output (must pass) and on
   hand-corrupted documents (must fail). *)

open Nullelim
module Metrics = Obs.Metrics
module Slo = Obs.Slo
module Export = Obs.Export
module Json = Obs.Json

let status = Alcotest.testable (Fmt.of_to_string Slo.status_name) ( = )

(* one evaluator over a private registry with counters we script *)
let make_avail ?(target = 0.9) ?(short_window = 60.) ?(long_window = 600.) ()
    =
  let m = Metrics.create () in
  let good = Metrics.counter m "req_good_total" in
  let bad = Metrics.counter m "req_bad_total" in
  let slo =
    Slo.create ~short_window ~long_window m
      [
        Slo.availability ~name:"avail" ~good:"req_good_total"
          ~bad:"req_bad_total" ~target;
      ]
  in
  (slo, good, bad)

let the_report slo ~now =
  match Slo.evaluate ~now slo with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Burn-rate windows                                                   *)
(* ------------------------------------------------------------------ *)

let test_zero_traffic () =
  let slo, _good, _bad = make_avail () in
  Slo.tick ~now:0. slo;
  Slo.tick ~now:30. slo;
  let r = the_report slo ~now:30. in
  Alcotest.check status "no traffic is healthy" Slo.Healthy r.Slo.r_status;
  Alcotest.(check (float 0.)) "short burn 0" 0. r.Slo.r_short_burn;
  Alcotest.(check (float 0.)) "long burn 0" 0. r.Slo.r_long_burn;
  Alcotest.(check int) "no events" 0 r.Slo.r_short_total

(* A sample lying exactly on the window edge is the baseline: its
   events happened at-or-before the edge, so they are outside the
   window.  One instant later the edge moves past it and the events
   fall back in. *)
let test_window_edge () =
  let slo, _good, bad = make_avail () in
  Slo.tick ~now:0. slo;
  Metrics.inc bad 10;
  Slo.tick ~now:30. slo;
  Slo.tick ~now:90. slo;
  (* short window 60: edge = 30, the t=30 sample is the baseline *)
  let r = the_report slo ~now:90. in
  Alcotest.(check (float 0.))
    "errors on the edge are excluded" 0. r.Slo.r_short_burn;
  Alcotest.(check int) "short window is empty" 0 r.Slo.r_short_total;
  (* evaluate a hair earlier: edge = 29.9, baseline is the t=0 sample,
     the 10 bad events land inside the short window *)
  let r = the_report slo ~now:89.9 in
  Alcotest.(check bool)
    "errors inside the edge burn" true
    (r.Slo.r_short_burn > 9.99);
  Alcotest.(check int) "short window holds them" 10 r.Slo.r_short_total;
  (* the long window (600) always contained them *)
  Alcotest.(check bool) "long window burns" true (r.Slo.r_long_burn > 9.99)

(* burn == threshold must classify as crossed: both windows at exactly
   1.0 burn (error fraction = error budget) is Degraded, not Healthy *)
let test_exact_threshold () =
  let slo, good, bad = make_avail ~target:0.9 () in
  Slo.tick ~now:0. slo;
  (* 10% errors = exactly the 0.1 error budget -> burn exactly 1.0 *)
  Metrics.inc good 9;
  Metrics.inc bad 1;
  Slo.tick ~now:30. slo;
  let r = the_report slo ~now:30. in
  Alcotest.(check (float 1e-9)) "short burn exactly 1" 1. r.Slo.r_short_burn;
  Alcotest.(check (float 1e-9)) "long burn exactly 1" 1. r.Slo.r_long_burn;
  Alcotest.check status "exact budget spend is degraded" Slo.Degraded
    r.Slo.r_status

(* Failing needs BOTH windows >= 14.4: a long-ago outage with a clean
   short window must de-page *)
let test_both_windows_required () =
  (* budget 0.01: a total outage burns at 100x, far past 14.4 *)
  let slo, good, bad = make_avail ~target:0.99 () in
  Slo.tick ~now:0. slo;
  Metrics.inc bad 100;
  Slo.tick ~now:30. slo;
  let r = the_report slo ~now:30. in
  Alcotest.check status "total outage in both windows fails" Slo.Failing
    r.Slo.r_status;
  (* outage stops; lots of good traffic in a fresh short window *)
  Metrics.inc good 1000;
  Slo.tick ~now:500. slo;
  let r = the_report slo ~now:500. in
  Alcotest.(check bool)
    "long window still burning" true
    (r.Slo.r_long_burn >= 0.9);
  Alcotest.(check bool)
    "short window recovered" true
    (r.Slo.r_short_burn < 1.);
  Alcotest.(check bool)
    "recovered short window de-escalates" true
    (r.Slo.r_status <> Slo.Failing)

let test_latency_objective () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~buckets:[| 0.01; 0.1; 1.0 |] "op_seconds"
  in
  let slo =
    Slo.create ~short_window:60. ~long_window:600. m
      [
        (* threshold on an exact bucket bound: observations in the 0.1
           bucket count as good *)
        Slo.latency ~name:"lat" ~metric:"op_seconds" ~threshold:0.1
          ~target:0.9;
      ]
  in
  Slo.tick ~now:0. slo;
  Metrics.observe h 0.05;
  (* lands in the <= 0.1 bucket: good *)
  Metrics.observe h 0.09;
  Metrics.observe h 0.5;
  (* bad *)
  Slo.tick ~now:30. slo;
  let r =
    match Slo.evaluate ~now:30. slo with
    | [ r ] -> r
    | _ -> Alcotest.fail "one report"
  in
  Alcotest.(check int) "three observations" 3 r.Slo.r_short_total;
  (* error fraction 1/3 over budget 0.1 -> burn 10/3 *)
  Alcotest.(check (float 1e-6)) "burn 10/3" (10. /. 3.) r.Slo.r_short_burn

let test_slo_json_schema () =
  let slo, good, bad = make_avail () in
  Slo.tick ~now:0. slo;
  Metrics.inc good 5;
  Metrics.inc bad 5;
  Slo.tick ~now:30. slo;
  let doc = Slo.to_json ~now:30. slo in
  (match Obs.Doc.validate Slo.doc doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-produced doc invalid: %s" e);
  (match Json.of_string (Json.to_string doc) with
  | Ok j -> (
    match Obs.Doc.validate Slo.doc j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "round-tripped doc invalid: %s" e)
  | Error e -> Alcotest.failf "doc does not reparse: %s" e);
  match Json.member "schema" doc with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" (Obs.Doc.schema Slo.doc) s
  | _ -> Alcotest.fail "missing schema member"

(* target = 1 leaves no error budget: any error is an infinite burn,
   which must classify as Failing and serialize as a finite number *)
let test_no_error_budget () =
  let slo, good, bad = make_avail ~target:1.0 () in
  Slo.tick ~now:0. slo;
  Metrics.inc good 99;
  Metrics.inc bad 1;
  Slo.tick ~now:30. slo;
  let r = the_report slo ~now:30. in
  Alcotest.check status "any error with target 1 fails" Slo.Failing
    r.Slo.r_status;
  match Json.of_string (Json.to_string (Slo.to_json ~now:30. slo)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "infinite burn must serialize: %s" e

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_label_escaping () =
  Alcotest.(check string)
    "backslash, quote, newline" "a\\\\b\\\"c\\nd"
    (Export.escape_label_value "a\\b\"c\nd");
  let m = Metrics.create () in
  Metrics.inc
    (Metrics.counter m ~labels:[ ("tenant", "ev\"il\\ten\nant") ] "reqs_total")
    3;
  let text = Export.render m in
  Alcotest.(check bool)
    "escaped label value rendered" true
    (let needle = "tenant=\"ev\\\"il\\\\ten\\nant\"" in
     let n = String.length needle and l = String.length text in
     let rec scan i = i + n <= l && (String.sub text i n = needle || scan (i + 1)) in
     scan 0);
  match Export.lint text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaped exposition must lint: %s" e

let test_sanitize_name () =
  Alcotest.(check string) "dots become underscores" "a_b_c"
    (Export.sanitize_name "a.b-c");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Export.sanitize_name "9lives")

let contains_line text line =
  String.split_on_char '\n' text |> List.exists (fun l -> l = line)

(* per-bucket registry counts must render as cumulative _bucket series
   tying out against _count — the satellite's core assertion *)
let test_bucket_cumulativity () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 0.1; 1.0; 10.0 |] "lat_seconds" in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 5.0; 50.0 ];
  let text = Export.render m in
  List.iter
    (fun l ->
      Alcotest.(check bool) (Printf.sprintf "has %S" l) true
        (contains_line text l))
    [
      "lat_seconds_bucket{le=\"0.1\"} 1";
      "lat_seconds_bucket{le=\"1\"} 2";
      "lat_seconds_bucket{le=\"10\"} 3";
      "lat_seconds_bucket{le=\"+Inf\"} 4";
      "lat_seconds_count 4";
    ];
  match Export.lint text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rendered exposition must lint: %s" e

let test_lint_rejects_corruption () =
  let good =
    "# TYPE lat_seconds histogram\n\
     lat_seconds_bucket{le=\"0.1\"} 1\n\
     lat_seconds_bucket{le=\"1\"} 2\n\
     lat_seconds_bucket{le=\"+Inf\"} 3\n\
     lat_seconds_sum 1.5\n\
     lat_seconds_count 3\n"
  in
  (match Export.lint good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed doc must lint: %s" e);
  let expect_error name doc =
    match Export.lint doc with
    | Ok () -> Alcotest.failf "%s: lint accepted a corrupt doc" name
    | Error _ -> ()
  in
  (* non-monotone buckets *)
  expect_error "non-monotone"
    "# TYPE h histogram\n\
     h_bucket{le=\"0.1\"} 5\n\
     h_bucket{le=\"1\"} 2\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 1\n\
     h_count 5\n";
  (* +Inf bucket disagrees with _count *)
  expect_error "inf/count tie-out"
    "# TYPE h histogram\n\
     h_bucket{le=\"0.1\"} 1\n\
     h_bucket{le=\"+Inf\"} 2\n\
     h_sum 1\n\
     h_count 3\n";
  (* sample with no TYPE header *)
  expect_error "untyped sample" "mystery_total 3\n";
  (* negative counter *)
  expect_error "negative counter"
    "# TYPE n_total counter\nn_total -1\n";
  (* unparseable sample line *)
  expect_error "garbage line" "# TYPE x counter\nx{ 1\n"

(* the full registry surface (counters with labels, gauges, histograms)
   renders and lints after real service traffic-shaped updates *)
let test_render_registry_shape () =
  let m = Metrics.create () in
  Metrics.inc
    (Metrics.counter m ~labels:[ ("tenant", "0") ] "svc_requests_total")
    2;
  Metrics.inc
    (Metrics.counter m ~labels:[ ("tenant", "1") ] "svc_requests_total")
    3;
  Metrics.set (Metrics.gauge m "queue_depth") 4.;
  Metrics.observe
    (Metrics.histogram m ~labels:[ ("tenant", "0") ] "svc_compile_seconds")
    0.01;
  let text = Export.render m in
  Alcotest.(check bool) "has TYPE counter" true
    (contains_line text "# TYPE svc_requests_total counter");
  Alcotest.(check bool) "has TYPE gauge" true
    (contains_line text "# TYPE queue_depth gauge");
  Alcotest.(check bool) "has TYPE histogram" true
    (contains_line text "# TYPE svc_compile_seconds histogram");
  Alcotest.(check bool) "per-tenant series" true
    (contains_line text "svc_requests_total{tenant=\"0\"} 2"
    && contains_line text "svc_requests_total{tenant=\"1\"} 3");
  match Export.lint text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "registry exposition must lint: %s" e

let () =
  Alcotest.run "slo"
    [
      ( "burn rates",
        [
          Alcotest.test_case "zero traffic is healthy" `Quick
            test_zero_traffic;
          Alcotest.test_case "window edge is exclusive" `Quick
            test_window_edge;
          Alcotest.test_case "exact threshold crossing" `Quick
            test_exact_threshold;
          Alcotest.test_case "both windows required" `Quick
            test_both_windows_required;
          Alcotest.test_case "latency objective buckets" `Quick
            test_latency_objective;
          Alcotest.test_case "slo json schema" `Quick test_slo_json_schema;
          Alcotest.test_case "no error budget" `Quick test_no_error_budget;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "name sanitization" `Quick test_sanitize_name;
          Alcotest.test_case "bucket cumulativity" `Quick
            test_bucket_cumulativity;
          Alcotest.test_case "lint rejects corruption" `Quick
            test_lint_rejects_corruption;
          Alcotest.test_case "registry shape renders" `Quick
            test_render_registry_shape;
        ] );
    ]
