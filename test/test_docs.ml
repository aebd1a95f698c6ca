(* Versioned JSON documents: the header every document shares, the
   registry behind `nullelim validate-json' (container members checked
   by their own schema string, unknown schemas refused), the body
   checks of the native-bench and tenants documents, and that every
   member a writer emits is checked by its document. *)

open Nullelim
module Docs = Nullelim_experiments.Docs
module NB = Nullelim_experiments.Native_bench
module Fuzz_report = Nullelim_gen.Report

let accepts what d j =
  match Obs.Doc.validate d j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s rejected: %s" what e

let rejects what d j =
  match Obs.Doc.validate d j with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error _ -> ()

let set name v = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
  | j -> j

let member name j = Option.get (Json.member name j)

let baseline () =
  match Obs.Doc.read "../BENCH_baseline.json" with
  | Ok j -> j
  | Error e -> Alcotest.failf "committed baseline: %s" e

let test_registry_unique () =
  let schemas = List.map Obs.Doc.schema Docs.all in
  Alcotest.(check int) "one entry per schema" (List.length schemas)
    (List.length (List.sort_uniq compare schemas));
  List.iter
    (fun d ->
      let j = Obs.Doc.obj d [] in
      Alcotest.(check bool) "header carries the schema" true
        (Json.member "schema" j = Some (Json.Str (Obs.Doc.schema d)));
      rejects "a wrong version" d (set "schema_version" (Json.Int 0) j))
    Docs.all

let test_container_checks_every_member () =
  let b = baseline () in
  (match Docs.validate b with
  | Ok checked -> Alcotest.(check int) "three members" 3 (List.length checked)
  | Error e -> Alcotest.failf "committed baseline: %s" e);
  let corrupt =
    b
    |> set "tiered" (set "rows" (Json.Str "garbage") (member "tiered" b))
    |> set "loadgen" (set "rows" (Json.Int 7) (member "loadgen" b))
  in
  match Docs.validate corrupt with
  | Ok _ -> Alcotest.fail "corrupted members accepted"
  | Error e ->
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " reported") true
          (Helpers.contains e (name ^ ": ")))
      [ "tiered"; "loadgen" ]

let bench_shaped () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter m "compiles") 1;
  Json.Obj
    [
      ("schema", Json.Str Obs.Doc.container);
      ("scale", Json.Int 1);
      ("dynamic", member "dynamic" (baseline ()));
      ( "fuzz",
        Json.Obj [ ("programs", Json.Int 25); ("seconds", Json.Float 1.5) ] );
      ("native", NB.unavailable_json "no native backend here");
      ( "profiling_overhead",
        Json.Obj
          [ ("off_seconds_per_run", Json.Float 0.01);
            ("on_seconds_per_run", Json.Float 0.012) ] );
      ("metrics", Obs.Metrics.snapshot m);
    ]

let test_bench_container () =
  (match Docs.validate (bench_shaped ()) with
  | Ok checked ->
    Alcotest.(check (list string)) "schema-bearing members"
      [
        "dynamic: nullelim-dynamic/1"; "native: nullelim-native-bench/1";
        "metrics: nullelim-metrics/1";
      ]
      checked
  | Error e -> Alcotest.failf "bench container: %s" e);
  let unknown =
    match bench_shaped () with
    | Json.Obj fields ->
      Json.Obj (fields @ [ ("x", Json.Obj [ ("schema", Json.Str "nullelim-x/1") ]) ])
    | j -> j
  in
  match Docs.validate unknown with
  | Ok _ -> Alcotest.fail "unknown nullelim-* member accepted"
  | Error _ -> ()

let test_unrecognised_file () =
  (match Docs.validate (Json.Obj [ ("a", Json.Int 1) ]) with
  | Ok _ -> Alcotest.fail "schema-less file accepted"
  | Error e ->
    Alcotest.(check bool) "lists what was tried" true
      (Helpers.contains e "nullelim-tiered/1"
      && Helpers.contains e "Chrome trace"));
  (match Docs.validate (Json.Obj [ ("schema", Json.Str "nullelim-x/1") ]) with
  | Ok _ -> Alcotest.fail "unknown schema accepted"
  | Error _ -> ());
  match Docs.validate (Obs.Trace.to_json []) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "trace file: %s" e

let native_sample =
    {
      NB.nb_arch = "ia32-windows";
      nb_checks = 800;
      nb_traps = 10;
      nb_explicit_ns = 1200.;
      nb_implicit_ns = 1100.;
      nb_baseline_ns = 1100.;
      nb_explicit_check_ns = 0.125;
      nb_implicit_check_ns = 0.;
      nb_recovery_ns = 1900.5;
      nb_model_explicit_check_ns = 3.3;
      nb_implicit_check_instrs = 0;
    }

let test_native_bench_doc () =
  let ok = NB.to_json native_sample in
  accepts "available: true" NB.doc ok;
  accepts "available: false" NB.doc (NB.unavailable_json "no cc");
  (* a real measurement, or the real fallback on hosts without one *)
  accepts "this host's document" NB.doc
    (match
       NB.collect ~iters:1000 ~traps:10 ~repeats:1 ~arch:Arch.ia32_windows ()
     with
    | Ok r -> NB.to_json r
    | Error m -> NB.unavailable_json m);
  rejects "a non-numeric timing" NB.doc (set "trap_recovery_ns" (Json.Str "fast") ok);
  rejects "no reason" NB.doc (set "reason" (Json.Int 0) (NB.unavailable_json "x"));
  rejects "no availability" NB.doc (Obs.Doc.obj NB.doc [])

let test_tenants_doc () =
  let d = Status.tenants_doc in
  let tenant shed =
    Json.Obj
      [
        ("tenant", Json.Str "0");
        ("submitted", Json.Int 3);
        ("completed", Json.Int 3);
        ("shed", Json.Int shed);
        ("queue_wait_p99", Json.Null);
        ("compile_p99", Json.Float 0.01);
      ]
  in
  accepts "a tenant" d (Obs.Doc.obj d [ ("tenants", Json.List [ tenant 0 ]) ]);
  rejects "a negative count" d (Obs.Doc.obj d [ ("tenants", Json.List [ tenant (-1) ]) ]);
  rejects "no tenant list" d (Obs.Doc.obj d [])

(* One written document per registered schema: the committed baseline's
   members, and documents built here for the rest. *)
let written () =
  let b = baseline () in
  let module M = Obs.Metrics in
  let m = M.create () in
  let tenant = [ ("tenant", "0") ] in
  M.inc (M.counter m ~labels:tenant "svc_requests_submitted_total") 3;
  M.inc (M.counter m ~labels:tenant "svc_requests_completed_total") 2;
  M.inc
    (M.counter m
       ~labels:(("reason", "queue_full") :: tenant)
       "svc_requests_shed_total")
    1;
  List.iter
    (fun name -> M.observe (M.histogram m ~labels:tenant name) 0.002)
    [ "svc_queue_wait_seconds"; "svc_compile_seconds" ];
  M.set (M.gauge m "depth") 2.;
  (* a small ring that wraps, so the dump carries its warning *)
  let r = Obs.Recorder.create ~capacity:4 () in
  let ctx = Obs.Ctx.mint ~tenant:0 ~request:0 () in
  List.iter
    (fun kind -> Obs.Recorder.record ~ctx ~a:0 r kind)
    Obs.Recorder.[ Mark; Mark; Req_enqueue; Req_start; Req_done ];
  let tls = Obs.Timeline.of_events (Obs.Recorder.dump r) in
  let slo =
    Obs.Slo.create m
      [
        Obs.Slo.latency ~name:"lat" ~metric:"svc_compile_seconds"
          ~threshold:0.01 ~target:0.99;
        Obs.Slo.availability ~name:"avail" ~good:"svc_requests_completed_total"
          ~bad:"svc_requests_shed_total" ~target:0.99;
      ]
  in
  Obs.Slo.tick ~now:0. slo;
  let tenants =
    let route = List.assoc "/tenants" (Status.obs_routes ~metrics:m ()) in
    match Json.of_string (route ()).Status.rs_body with
    | Ok j -> j
    | Error e -> Alcotest.failf "/tenants: %s" e
  in
  let fuzz =
    {
      Fuzz_report.fz_seed = 42;
      fz_count = 1;
      fz_gen_version = 1;
      fz_size = 24;
      fz_arch = "ia32-windows";
      fz_jobs = 0;
      fz_mutate = false;
      fz_passed = 0;
      fz_skipped = 0;
      fz_failed = 1;
      fz_pool_compiles = 0;
      fz_cache_hits = 0;
      fz_seconds = 0.25;
      fz_distribution = Fuzz_report.empty_distribution;
      fz_failures =
        [
          {
            Fuzz_report.fr_seed = 17;
            fr_oracle = "behaviour";
            fr_config = "new-full";
            fr_detail = "trace mismatch";
            fr_shrunk = Some (10, 446, "func main() { ... }");
          };
        ];
    }
  in
  [
    member "dynamic" b;
    member "tiered" b;
    member "loadgen" b;
    Obs.Metrics.snapshot m;
    Obs.Recorder.to_json r;
    Obs.Timeline.to_json ~dropped:(Obs.Recorder.dropped r) tls;
    Obs.Slo.to_json ~now:0. slo;
    tenants;
    NB.to_json native_sample;
    NB.unavailable_json "no cc";
    Fuzz_report.to_json fuzz;
  ]

(* Every member at the top, and down through nested objects and the
   first element of every list, replaced by a value of another type: a
   string by 0, anything else by "corrupt". *)
let corruptions (j : Json.t) : (string * Json.t) list =
  let bad = function Json.Str _ -> Json.Int 0 | _ -> Json.Str "corrupt" in
  let rec go path j =
    let inside path v rebuild =
      (path, rebuild (bad v))
      :: List.map (fun (p, v') -> (p, rebuild v')) (go path v)
    in
    match j with
    | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          inside (if path = "" then k else path ^ "." ^ k) v (fun v' ->
              Json.Obj
                (List.map
                   (fun (k', x) -> if k' = k then (k, v') else (k', x))
                   fields)))
        fields
    | Json.List (x :: rest) ->
      inside (path ^ "[0]") x (fun x' -> Json.List (x' :: rest))
    | _ -> []
  in
  go "" j

let test_every_member_checked () =
  let docs = written () in
  let doc_of j =
    match Json.member "schema" j with
    | Some (Json.Str s) -> List.find (fun d -> Obs.Doc.schema d = s) Docs.all
    | _ -> Alcotest.fail "written document without a schema"
  in
  Alcotest.(check (list string)) "one written document per schema"
    (List.sort compare (List.map Obs.Doc.schema Docs.all))
    (List.sort_uniq compare
       (List.map (fun j -> Obs.Doc.schema (doc_of j)) docs));
  let accepted =
    List.concat_map
      (fun j ->
        let d = doc_of j in
        accepts (Obs.Doc.schema d) d j;
        List.filter_map
          (fun (path, j') ->
            match Obs.Doc.validate d j' with
            | Ok () -> Some (Obs.Doc.schema d ^ " " ^ path)
            | Error _ -> None)
          (corruptions j))
      docs
  in
  Alcotest.(check (list string)) "corrupted members accepted" [] accepted

let () =
  Alcotest.run "docs"
    [
      ( "registry",
        [
          Alcotest.test_case "one entry per schema" `Quick test_registry_unique;
          Alcotest.test_case "container checks every member" `Quick
            test_container_checks_every_member;
          Alcotest.test_case "bench container, schema-less fuzz" `Quick
            test_bench_container;
          Alcotest.test_case "unrecognised file" `Quick test_unrecognised_file;
          Alcotest.test_case "every emitted member is checked" `Quick
            test_every_member_checked;
        ] );
      ( "bodies",
        [
          Alcotest.test_case "native-bench" `Quick test_native_bench_doc;
          Alcotest.test_case "tenants" `Quick test_tenants_doc;
        ] );
    ]
