(* Telemetry-pipeline tests: exact percentile extraction from the
   sharded metrics histograms (constant, uniform and bimodal samples —
   each answer must land within one log-bucket width of the true
   quantile), the flight recorder's ring wraparound and cross-domain
   merge ordering, both new schemas' round-trips, and a tiny end-to-end
   load-generator smoke on a 2-domain service. *)

open Nullelim
module LG = Nullelim_experiments.Loadgen
module Svc = Nullelim_svc.Svc
module Config = Nullelim_jit.Config
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry
module Recorder = Obs.Recorder
module Metrics = Obs.Metrics
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let buckets = Metrics.log_buckets ~lo:1e-3 ~hi:10. ~per_decade:10

(* one log step at per_decade:10 is a factor of 10^0.1 ≈ 1.259: the
   extraction may overestimate by at most one bucket upper bound *)
let step = 10. ** 0.1

let check_within_bucket name ~got ~exact =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.5f ∈ [%.5f, %.5f]" name got exact
       (exact *. step *. 1.0001))
    true
    (got >= exact *. 0.9999 && got <= exact *. step *. 1.0001)

let test_percentile_constant () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets "lat" in
  for _ = 1 to 1000 do
    Metrics.observe h 0.05
  done;
  List.iter
    (fun q ->
      check_within_bucket
        (Printf.sprintf "constant q=%.3f" q)
        ~got:(Metrics.percentile m "lat" q)
        ~exact:0.05)
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_percentile_uniform () =
  (* 10000 samples uniform over [1e-3, 1): the q-quantile is ~q *)
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets "lat" in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 10_000 do
    Metrics.observe h (1e-3 +. Random.State.float st 0.999)
  done;
  List.iter
    (fun q ->
      let got = Metrics.percentile m "lat" q in
      (* allow one bucket width around the true quantile plus the
         sampling error of 10k draws *)
      Alcotest.(check bool)
        (Printf.sprintf "uniform q=%.2f: %.4f near %.4f" q got q)
        true
        (got >= q /. step /. 1.05 && got <= q *. step *. 1.05))
    [ 0.5; 0.9 ]

let test_percentile_bimodal () =
  (* 95% fast mode at 2ms, 5% slow mode at 800ms: p50/p90 sit in the
     fast mode, p99/p999 in the slow mode — the shape the tail
     percentiles exist to expose *)
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets "lat" in
  for i = 0 to 999 do
    Metrics.observe h (if i mod 20 = 19 then 0.8 else 0.002)
  done;
  check_within_bucket "bimodal p50"
    ~got:(Metrics.percentile m "lat" 0.5)
    ~exact:0.002;
  check_within_bucket "bimodal p90"
    ~got:(Metrics.percentile m "lat" 0.9)
    ~exact:0.002;
  check_within_bucket "bimodal p99"
    ~got:(Metrics.percentile m "lat" 0.99)
    ~exact:0.8;
  check_within_bucket "bimodal p999"
    ~got:(Metrics.percentile m "lat" 0.999)
    ~exact:0.8;
  (* and the two extractions agree with a single merged call *)
  match Metrics.percentiles m "lat" [ 0.5; 0.99 ] with
  | [ p50; p99 ] ->
    check_within_bucket "percentiles[0]" ~got:p50 ~exact:0.002;
    check_within_bucket "percentiles[1]" ~got:p99 ~exact:0.8
  | _ -> Alcotest.fail "percentiles arity"

let test_percentile_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets "lat" in
  Alcotest.(check bool)
    "empty histogram is nan" true
    (Float.is_nan (Metrics.percentile m "lat" 0.5));
  Metrics.observe h 500. (* beyond the last bucket bound *);
  Alcotest.(check bool)
    "overflow bucket is +inf" true
    (Metrics.percentile m "lat" 0.99 = Float.infinity)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound () =
  let r = Recorder.create ~capacity:8 () in
  for i = 1 to 20 do
    Recorder.record ~a:i r Recorder.Mark
  done;
  let evs = Recorder.dump r in
  Alcotest.(check int) "retains capacity" 8 (List.length evs);
  Alcotest.(check int) "dropped the overwritten" 12 (Recorder.dropped r);
  Alcotest.(check (list int))
    "oldest-first, newest retained"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun (e : Recorder.event) -> e.Recorder.ev_a) evs);
  Recorder.clear r;
  Alcotest.(check int) "clear empties" 0 (List.length (Recorder.dump r));
  Alcotest.(check int) "clear resets dropped" 0 (Recorder.dropped r)

let test_disabled_records_nothing () =
  let r = Recorder.create ~capacity:8 () in
  Recorder.set_enabled r false;
  Recorder.record r Recorder.Mark;
  Alcotest.(check int) "disabled drops" 0 (List.length (Recorder.dump r));
  Recorder.set_enabled r true;
  Recorder.record r Recorder.Mark;
  Alcotest.(check int) "re-enabled records" 1 (List.length (Recorder.dump r))

let test_cross_domain_merge () =
  (* 4 domains each record a private tag sequence; the merged dump must
     be globally timestamp-sorted and per-domain order-preserving *)
  let r = Recorder.create ~capacity:4096 () in
  let per = 200 in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Recorder.record ~a:d ~b:i r Recorder.Mark
            done))
  in
  Array.iter Domain.join workers;
  let evs = Recorder.dump r in
  Alcotest.(check int) "all retained" (4 * per) (List.length evs);
  Alcotest.(check int) "nothing dropped" 0 (Recorder.dropped r);
  let rec sorted = function
    | (a : Recorder.event) :: (b :: _ as tl) ->
      a.Recorder.ev_ts <= b.Recorder.ev_ts && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "merged stream is ts-sorted" true (sorted evs);
  (* within each recording domain, the per-domain sequence numbers must
     come back in order: the merge may interleave domains but never
     reorders one domain's ring *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun (e : Recorder.event) ->
      let d = e.Recorder.ev_a in
      let prev = Option.value ~default:0 (Hashtbl.find_opt last d) in
      Alcotest.(check bool) "per-domain order preserved" true
        (e.Recorder.ev_b > prev);
      Hashtbl.replace last d e.Recorder.ev_b)
    evs;
  for d = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "domain %d complete" d)
      per
      (Option.value ~default:0 (Hashtbl.find_opt last d))
  done

let test_flight_schema_roundtrip () =
  let r = Recorder.create ~capacity:16 () in
  Recorder.record ~a:1 ~b:2 r Recorder.Tier_promote;
  Recorder.record ~a:3 r Recorder.Trap_fired;
  Recorder.record ~a:0 r Recorder.Cache_miss;
  Recorder.record ~ctx:(Obs.Ctx.mint ~tenant:2 ~request:5 ()) ~a:5 r
    Recorder.Req_enqueue;
  let j = Recorder.to_json r in
  (match Obs.Doc.validate Recorder.doc j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flight self-validate: %s" e);
  (* decoding gives back the dump *)
  (match Recorder.events_of_json j with
  | Ok (evs, dropped) ->
    Alcotest.(check bool) "decoded events = dump" true (evs = Recorder.dump r);
    Alcotest.(check int) "dropped" (Recorder.dropped r) dropped
  | Error e -> Alcotest.failf "flight decode: %s" e);
  (* survives a print/parse cycle *)
  (match Json.of_string (Json.to_string j) with
  | Ok j2 -> (
    match Obs.Doc.validate Recorder.doc j2 with
    | Ok () -> ()
    | Error e -> Alcotest.failf "flight reparse-validate: %s" e)
  | Error e -> Alcotest.failf "flight reparse: %s" e);
  (* a corrupted kind must be rejected *)
  let corrupt =
    match Json.of_string (Json.to_string j) with
    | Ok (Json.Obj fields) ->
      Json.Obj
        (List.map
           (function
             | "events", Json.List (Json.Obj ev :: rest) ->
               ( "events",
                 Json.List
                   (Json.Obj
                      (List.map
                         (function
                           | "kind", _ -> ("kind", Json.Str "bogus")
                           | f -> f)
                         ev)
                   :: rest) )
             | f -> f)
           fields)
    | _ -> Alcotest.fail "reparse shape"
  in
  match Obs.Doc.validate Recorder.doc corrupt with
  | Ok () -> Alcotest.fail "corrupt kind must not validate"
  | Error _ -> ();
  (* trace conversion: one instant per retained event *)
  Alcotest.(check int) "trace instants" 4
    (List.length (Recorder.to_trace r))

(* Events are stamped on Obs.Clock, and a dump keeps enough digits:
   re-reading it and re-slicing reproduces every request's queue wait
   and service time to within the rounding of its timestamps to 12
   significant digits. *)
let test_flight_timelines_roundtrip () =
  let r = Recorder.create ~capacity:64 () in
  for req = 0 to 4 do
    let ctx = Obs.Ctx.mint ~tenant:0 ~request:req () in
    Recorder.record ~ctx ~a:req r Recorder.Req_enqueue;
    Unix.sleepf 0.001;
    Recorder.record ~ctx ~a:req r Recorder.Req_start;
    Unix.sleepf 0.002;
    Recorder.record ~ctx ~a:req r Recorder.Req_done
  done;
  let now = Obs.Clock.now () in
  List.iter
    (fun e ->
      Alcotest.(check bool) "stamped on Obs.Clock" true
        (now -. e.Recorder.ev_ts >= 0. && now -. e.Recorder.ev_ts < 10.))
    (Recorder.dump r);
  let reread =
    match Json.of_string (Json.to_string (Recorder.to_json r)) with
    | Error e -> Alcotest.failf "flight reparse: %s" e
    | Ok j -> (
      match Recorder.events_of_json j with
      | Ok (evs, _) -> Obs.Timeline.of_events evs
      | Error e -> Alcotest.failf "flight decode: %s" e)
  in
  let live = Obs.Timeline.of_events (Recorder.dump r) in
  Alcotest.(check int) "requests" 5 (List.length reread);
  List.iter2
    (fun (a : Obs.Timeline.t) (b : Obs.Timeline.t) ->
      (* two stamps, each off by at most half a unit in the 12th digit *)
      let tol = 1e-11 *. Float.abs (Option.get a.Obs.Timeline.tl_done) in
      let close what x y =
        match (x, y) with
        | Some x, Some y ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %.9f vs %.9f" what x y)
            true
            (Float.abs (x -. y) <= tol)
        | _ ->
          Alcotest.failf "request %d lost its %s" a.Obs.Timeline.tl_request
            what
      in
      close "queue wait" (Obs.Timeline.queue_wait a)
        (Obs.Timeline.queue_wait b);
      close "service time" (Obs.Timeline.service_time a)
        (Obs.Timeline.service_time b))
    live reread

(* After drops a completed request may lack its enqueue, but the spans
   it has must still be in causal order. *)
let test_gate_after_drops () =
  let ev ts kind req =
    {
      Recorder.ev_ts = ts;
      ev_domain = 0;
      ev_kind = kind;
      ev_a = req;
      ev_b = 0;
      ev_ctx =
        {
          Obs.Ctx.cx_tenant = 0;
          cx_request = req;
          cx_span = req;
          cx_parent = -1;
        };
    }
  in
  let lost_enqueue =
    [ ev 1. Recorder.Req_start 1; ev 2. Recorder.Req_done 1 ]
  in
  let inverted =
    [
      ev 1. Recorder.Req_enqueue 2; ev 3. Recorder.Req_start 2;
      ev 2. Recorder.Req_done 2;
    ]
  in
  let gate ~dropped evs =
    Obs.Timeline.check_complete ~dropped (Obs.Timeline.of_events evs)
  in
  Alcotest.(check bool) "a lost enqueue passes after drops" true
    (Result.is_ok (gate ~dropped:3 lost_enqueue));
  Alcotest.(check bool) "a lost enqueue fails without drops" true
    (Result.is_error (gate ~dropped:0 lost_enqueue));
  Alcotest.(check bool) "an inverted request fails after drops" true
    (Result.is_error (gate ~dropped:3 (lost_enqueue @ inverted)))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

let test_loadgen_smoke () =
  (* tiny sweep: 2 domains, 2 rates, few requests — checks the gates,
     the schema and the baseline round-trip rather than performance *)
  let t =
    LG.sweep ~domains:2 ~queue_capacity:16 ~duration:0.5 ~seed:7
      ~multipliers:[ 0.5; 2.0 ] ~max_requests:24 ()
  in
  Alcotest.(check int) "two rows" 2 (List.length t.LG.lg_rows);
  (match LG.check_rows t.LG.lg_rows with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "gate: %s" (String.concat "; " errs));
  List.iter
    (fun (r : LG.rate_row) ->
      Alcotest.(check int)
        "accounting closes" r.LG.lr_offered
        (r.LG.lr_completed + r.LG.lr_shed);
      Alcotest.(check bool) "throughput positive" true (r.LG.lr_throughput > 0.))
    t.LG.lg_rows;
  Alcotest.(check bool) "saturation positive" true
    (t.LG.lg_saturation_throughput > 0.);
  let doc = LG.to_json t in
  (match Obs.Doc.validate LG.doc doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-validate: %s" e);
  (match Json.of_string (Json.to_string doc) with
  | Ok j -> (
    match Obs.Doc.validate LG.doc j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reparse-validate: %s" e)
  | Error e -> Alcotest.failf "reparse: %s" e);
  (* the fresh document gates cleanly against itself as a baseline *)
  match LG.check_against_baseline ~baseline:doc t with
  | Ok _ -> ()
  | Error errs ->
    Alcotest.failf "self-baseline: %s" (String.concat "; " errs)

let test_loadgen_latency_accounting () =
  (* exact_q semantics via the public surface: a single-rate run's
     percentiles must be monotone and bounded by the max latency *)
  let t =
    LG.sweep ~domains:1 ~queue_capacity:8 ~duration:0.3 ~seed:11
      ~multipliers:[ 1.0 ] ~max_requests:16 ()
  in
  match t.LG.lg_rows with
  | [ r ] ->
    Alcotest.(check bool) "p50 <= p90" true (r.LG.lr_p50_ms <= r.LG.lr_p90_ms);
    Alcotest.(check bool) "p90 <= p99" true (r.LG.lr_p90_ms <= r.LG.lr_p99_ms);
    Alcotest.(check bool) "p99 <= p999" true
      (r.LG.lr_p99_ms <= r.LG.lr_p999_ms);
    Alcotest.(check bool) "mean positive" true (r.LG.lr_mean_ms > 0.);
    (* the histogram cross-check may only overestimate the exact p99,
       and by at most one log bucket (factor 10^0.1) *)
    Alcotest.(check bool)
      (Printf.sprintf "hist p99 %.3f within a bucket of exact %.3f"
         r.LG.lr_hist_p99_ms r.LG.lr_p99_ms)
      true
      (r.LG.lr_hist_p99_ms >= r.LG.lr_p99_ms *. 0.9999
      && r.LG.lr_hist_p99_ms <= r.LG.lr_p99_ms *. (10. ** 0.1) *. 1.05)
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let () =
  Alcotest.run "loadgen"
    [
      ( "percentiles",
        [
          Alcotest.test_case "constant sample" `Quick
            test_percentile_constant;
          Alcotest.test_case "uniform sample" `Quick test_percentile_uniform;
          Alcotest.test_case "bimodal tail" `Quick test_percentile_bimodal;
          Alcotest.test_case "empty + overflow edges" `Quick
            test_percentile_edges;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "enable/disable" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "cross-domain merge ordering" `Quick
            test_cross_domain_merge;
          Alcotest.test_case "flight schema roundtrip" `Quick
            test_flight_schema_roundtrip;
          Alcotest.test_case "dump keeps timelines" `Quick
            test_flight_timelines_roundtrip;
          Alcotest.test_case "gate checks order after drops" `Quick
            test_gate_after_drops;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "2-domain sweep smoke" `Slow test_loadgen_smoke;
          Alcotest.test_case "latency accounting" `Slow
            test_loadgen_latency_accounting;
        ] );
    ]
