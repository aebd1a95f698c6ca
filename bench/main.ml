(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 5) from the simulator, then runs one Bechamel
    micro-benchmark per table on the corresponding compile pipeline and
    compares the data-flow solver engines (worklist vs. the reference
    round-robin) on the javac workload.

    Output sections are labelled with the paper artifact they reproduce;
    EXPERIMENTS.md records the shape comparison against the published
    numbers.  Quantities outside the paper's evaluation have their own
    commands and are not re-measured here: service throughput
    ([nullelim batch]), tiered steady state ([nullelim tiered]), fuzz
    cost ([nullelim fuzz]) and native trap costs
    ([nullelim native-bench]).

    Flags:
    - [--scale N] (default 4): workload scale factor;
    - [--repeat N] (default 3): compile-time measurements per workload;
    - [--json \[path\]]: additionally write a machine-readable report —
      per-table values, per-workload compile times, bechamel ns/compile
      estimates and solver work counters — to [path] (default
      [BENCH_results.json]). *)

module E = Nullelim_experiments.Experiments
module Config = Nullelim.Config
module Arch = Nullelim.Arch
module Compiler = Nullelim.Compiler
module Pipeline = Nullelim.Pipeline
module Solver = Nullelim.Solver
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let argv = Array.to_list Sys.argv

let rec value_of flag = function
  | f :: v :: _ when f = flag -> Some v
  | _ :: rest -> value_of flag rest
  | [] -> None

let positive flag ~default =
  match value_of flag argv with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ -> failwith (flag ^ " takes a positive integer, not " ^ v))

let scale = positive "--scale" ~default:4

(** Compile-time measurements repeat this many times and report
    min/median. *)
let repeat = positive "--repeat" ~default:3

(** Where to write the JSON report, if anywhere; a bare [--json] uses
    the default file name. *)
let json_path =
  if not (List.mem "--json" argv) then None
  else
    match value_of "--json" argv with
    | Some p when p <> "" && p.[0] <> '-' -> Some p
    | _ -> Some "BENCH_results.json"

let line = String.make 78 '-'

let section title paper =
  Fmt.pr "@.%s@.%s   [reproduces %s]@.%s@." line title paper line

(* The JSON report emits through the shared telemetry JSON module — the
   emission rules (%.12g floats, non-finite as null) were kept
   bit-compatible with the local emitter this replaced, so the report
   format is unchanged. *)
module Json = Nullelim.Json
module Obs = Nullelim.Obs

(** table → JSON: configs once, then one row of values per workload. *)
let json_of_rows ~unit (rows : E.row list) : Json.t =
  let configs =
    match rows with
    | [] -> []
    | r :: _ -> List.map (fun (c : E.cell) -> c.E.config) r.E.cells
  in
  Json.Obj
    [
      ("unit", Json.Str unit);
      ("configs", Json.List (List.map (fun c -> Json.Str c) configs));
      ( "rows",
        Json.List
          (List.map
             (fun (r : E.row) ->
               Json.Obj
                 [
                   ("workload", Json.Str r.E.workload);
                   ( "values",
                     Json.List
                       (List.map
                          (fun (c : E.cell) -> Json.Float c.E.value)
                          r.E.cells) );
                 ])
             rows) );
    ]

let json_of_solver_stats (s : Solver.stats) : Json.t =
  Json.Obj
    [
      ("solves", Json.Int s.Solver.solves);
      ("visits", Json.Int s.Solver.visits);
      ("transfers", Json.Int s.Solver.transfers);
      ("pushes", Json.Int s.Solver.pushes);
    ]

(* ------------------------------------------------------------------ *)
(* Table formatting                                                     *)
(* ------------------------------------------------------------------ *)

let pp_score_table ~unit (rows : E.row list) =
  match rows with
  | [] -> ()
  | first :: _ ->
    let configs = List.map (fun (c : E.cell) -> c.E.config) first.E.cells in
    Fmt.pr "%-18s" unit;
    List.iter (fun c -> Fmt.pr " %20s" c) configs;
    Fmt.pr "@.";
    List.iter
      (fun (r : E.row) ->
        Fmt.pr "%-18s" r.E.workload;
        List.iter (fun (c : E.cell) -> Fmt.pr " %20.4f" c.E.value) r.E.cells;
        Fmt.pr "@.")
      rows

let pp_improvement_table (rows : E.row list) =
  pp_score_table ~unit:"(improvement %)" rows

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                  *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "jBYTEmark scores on IA32/Windows (index, larger is better)"
    "Table 1";
  let rows = E.table1 ~scale in
  pp_score_table ~unit:"(index)" rows;
  rows

let figure8 rows =
  section "jBYTEmark improvement over No-Null-Opt/No-Trap baseline"
    "Figure 8";
  pp_improvement_table
    (E.improvements ~baseline:"no-null-opt-no-trap" ~higher_better:true rows)

let table2 () =
  section "SPECjvm98 times on IA32/Windows (seconds, smaller is better)"
    "Table 2";
  let rows = E.table2 ~scale in
  pp_score_table ~unit:"(sec)" rows;
  rows

let figure9 rows =
  section "SPECjvm98 improvement over No-Null-Opt/No-Trap baseline"
    "Figure 9";
  pp_improvement_table
    (E.improvements ~baseline:"no-null-opt-no-trap" ~higher_better:false rows)

let figure10 rows =
  section "jBYTEmark: our JIT relative to the HotSpot-model comparator"
    "Figure 10";
  pp_score_table ~unit:"(ratio, >1 = ours)"
    (E.versus_hotspot ~higher_better:true rows)

let figure11 rows =
  section "SPECjvm98: our JIT relative to the HotSpot-model comparator"
    "Figure 11";
  pp_score_table ~unit:"(ratio, >1 = ours)"
    (E.versus_hotspot ~higher_better:false rows)

let table3 () =
  section
    "SPECjvm98 first run / best run / compilation time (ours vs \
     HotSpot-model)"
    "Table 3 / Figure 12";
  Fmt.pr "compile times are min/median over %d repeats@." repeat;
  Fmt.pr "%-12s %42s   %42s@." "" "ours (new-phase1+2)" "hotspot-model";
  Fmt.pr "%-12s %10s %10s %9s %9s   %10s %10s %9s %9s@." "" "first" "best"
    "c.min" "c.med" "first" "best" "c.min" "c.med";
  let ours = E.table3 ~repeat ~cfg:Config.new_full ~scale () in
  let hs = E.table3 ~repeat ~cfg:Config.hotspot_model ~scale () in
  List.iter2
    (fun (o : E.compile_row) (h : E.compile_row) ->
      Fmt.pr "%-12s %10.4f %10.4f %9.4f %9.4f   %10.4f %10.4f %9.4f %9.4f@."
        o.E.cw_name o.E.first_run o.E.best_run o.E.compile_min
        o.E.compile_median h.E.first_run h.E.best_run h.E.compile_min
        h.E.compile_median)
    ours hs;
  (ours, hs)

let table4 () =
  section "Breakdown of JIT compilation time: null-check opt vs. others"
    "Table 4 / Figure 13";
  Fmt.pr "%-24s %4s %14s %14s %8s@." "" "" "nullcheck (s)" "others (s)" "nc %";
  let rows = E.table4 ~scale in
  List.iter
    (fun (r : E.breakdown_row) ->
      let pr tag nc ot =
        Fmt.pr "%-24s %4s %14.5f %14.5f %7.2f%%@." r.E.bw_name tag nc ot
          (100. *. nc /. (nc +. ot))
      in
      pr "NEW" r.E.new_nullcheck r.E.new_other;
      pr "OLD" r.E.old_nullcheck r.E.old_other)
    rows;
  rows

let table5 rows =
  section "Increase in total JIT compilation time (new vs old)" "Table 5";
  Fmt.pr "%-24s %14s %10s@." "" "delta (s)" "delta (%)";
  let deltas = E.table5 rows in
  List.iter
    (fun (name, ds, pct) -> Fmt.pr "%-24s %14.5f %9.2f%%@." name ds pct)
    deltas;
  deltas

let table6 () =
  section "jBYTEmark on AIX/PowerPC (index, larger is better)" "Table 6";
  let rows = E.table6 ~scale in
  pp_score_table ~unit:"(index)" rows;
  rows

let figure14 rows =
  section "jBYTEmark improvement on AIX over No-Null-Check-Optimization"
    "Figure 14";
  pp_improvement_table
    (E.improvements ~baseline:"aix-no-null-opt" ~higher_better:true rows)

let table7 () =
  section "SPECjvm98 on AIX/PowerPC (seconds, smaller is better)" "Table 7";
  let rows = E.table7 ~scale in
  pp_score_table ~unit:"(sec)" rows;
  rows

let figure15 rows =
  section "SPECjvm98 improvement on AIX over No-Null-Check-Optimization"
    "Figure 15";
  pp_improvement_table
    (E.improvements ~baseline:"aix-no-null-opt" ~higher_better:false rows)

let ablation () =
  section
    "Ablation: iteration count (Figure 2's claim), inlining, array opts \
     (cycles, smaller is better)"
    "design choices (DESIGN.md)";
  let rows = E.ablation ~scale in
  pp_score_table ~unit:"(cycles)" rows;
  rows

let check_statistics () =
  section "Static and dynamic null-check counts (full config, IA32)"
    "supplementary";
  Fmt.pr "%-18s %8s %10s %10s %12s %12s@." "" "raw" "expl(st)" "impl(st)"
    "expl(dyn)" "impl(dyn)";
  let rows = E.check_stats ~arch:Arch.ia32_windows Config.new_full ~scale:1 in
  List.iter
    (fun (r : E.check_row) ->
      Fmt.pr "%-18s %8d %10d %10d %12d %12d@." r.E.sw_name r.E.raw
        r.E.explicit_static r.E.implicit_static r.E.explicit_dynamic
        r.E.implicit_dynamic)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Dynamic per-site profile (Figures 7-8) and profiling overhead        *)
(* ------------------------------------------------------------------ *)

module PR = Nullelim_experiments.Profile_report
module Interp = Nullelim.Interp

(** The paper-style dynamic-elimination table, always at scale 1 so the
    counters are the deterministic ones the committed baseline records. *)
let dynamic_profile () =
  section "Dynamic null-check elimination (per-site profile, scale 1)"
    "Figures 7-8";
  let all = PR.collect_all ~scale:1 ~arch:Arch.ia32_windows () in
  Result.iter_error failwith (PR.reconcile_all all);
  Fmt.pr "%a" PR.pp_summary all;
  Fmt.pr "(all %d runs reconcile per-site sums with aggregate counters)@."
    (List.fold_left (fun a rs -> a + List.length rs) 0 all);
  all

(** The profiling hooks are one option match when disabled; show it by
    timing the same compiled program with the collector off and on. *)
let profiling_overhead () =
  section "Interpreter profiling overhead (guarded hooks)" "methodology";
  let w = Option.get (Registry.find "javac") in
  let prog = w.W.build ~scale:1 in
  let c = Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog in
  let time_runs ~profile n =
    let t0 = Obs.Clock.now () in
    for _ = 1 to n do
      let p = if profile then Some (Obs.Profile.create ()) else None in
      ignore
        (Interp.run ?profile:p ~fuel:1_000_000_000 ~arch:Arch.ia32_windows
           c.Compiler.program [])
    done;
    (Obs.Clock.now () -. t0) /. float_of_int n
  in
  ignore (time_runs ~profile:false 3);
  let n = 20 in
  let off = time_runs ~profile:false n in
  let on = time_runs ~profile:true n in
  Fmt.pr
    "interp seconds/run over %d runs: profile off %.6f, profile on %.6f \
     (on/off %.2fx)@."
    n off on
    (on /. Float.max 1e-9 off);
  (off, on)

(* ------------------------------------------------------------------ *)
(* Solver engine comparison: worklist vs reference round-robin          *)
(* ------------------------------------------------------------------ *)

(** Compile the javac workload once per solver engine and report the
    counters.  The worklist engine must do strictly fewer transfers than
    the round-robin sweep — this is the perf claim of the sparse engine,
    checked here on every bench run. *)
let solver_comparison () =
  section "Data-flow solver work on javac (worklist vs round-robin)"
    "perf harness";
  let prog = (Option.get (Registry.find "javac")).W.build ~scale:1 in
  let compile_with ~reference =
    Solver.with_reference reference (fun () ->
        Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog)
  in
  let wl = compile_with ~reference:false in
  let rr = compile_with ~reference:true in
  let pr name (s : Solver.stats) =
    Fmt.pr "%-12s %10d %12d %12d %12d@." name s.Solver.solves s.Solver.visits
      s.Solver.transfers s.Solver.pushes
  in
  Fmt.pr "%-12s %10s %12s %12s %12s@." "engine" "solves" "visits" "transfers"
    "pushes";
  pr "worklist" wl.Compiler.solver;
  pr "round-robin" rr.Compiler.solver;
  let t_wl = wl.Compiler.solver.Solver.transfers
  and t_rr = rr.Compiler.solver.Solver.transfers in
  Fmt.pr "transfers: %d vs %d (%.1f%% of round-robin)%s@." t_wl t_rr
    (100. *. float_of_int t_wl /. float_of_int (max 1 t_rr))
    (if t_wl < t_rr then "" else "  ** WORKLIST NOT SPARSER **");
  (* per-pass worklist counters, sorted by key for stable output *)
  let per_pass = Pipeline.counters wl.Compiler.records in
  Fmt.pr "@.per-pass worklist counters (pass#counter = value):@.";
  List.iter (fun (k, v) -> Fmt.pr "  %-42s %10d@." k v) per_pass;
  (wl, rr, per_pass)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table, measuring the   *)
(* compile pipeline that the table exercises.                           *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Bechamel: compile-pipeline timings (one test per table)"
    "methodology";
  let open Bechamel in
  let compile_test name (cfg : Config.t) ~arch (wname : string) =
    let w = Option.get (Registry.find wname) in
    let prog = w.W.build ~scale:1 in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Compiler.compile cfg ~arch prog)))
  in
  let tests =
    [
      compile_test "table1:jbytemark-full-ia32" Config.new_full
        ~arch:Arch.ia32_windows "assignment";
      compile_test "table2:specjvm-full-ia32" Config.new_full
        ~arch:Arch.ia32_windows "mtrt";
      compile_test "table3:javac-full" Config.new_full ~arch:Arch.ia32_windows
        "javac";
      compile_test "table4:javac-old" Config.old_null_check
        ~arch:Arch.ia32_windows "javac";
      compile_test "table5:jbytemark-old" Config.old_null_check
        ~arch:Arch.ia32_windows "assignment";
      compile_test "table6:jbytemark-speculation-aix" Config.aix_speculation
        ~arch:Arch.ppc_aix "neural-net";
      compile_test "table7:specjvm-speculation-aix" Config.aix_speculation
        ~arch:Arch.ppc_aix "jess";
    ]
  in
  let test = Test.make_grouped ~name:"compile" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.filter_map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] ->
        Fmt.pr "%-44s %14.1f ns/compile@." name est;
        Some (name, est)
      | _ ->
        Fmt.pr "%-44s (no estimate)@." name;
        None)
    (List.sort compare names)

(* ------------------------------------------------------------------ *)
(* JSON report                                                          *)
(* ------------------------------------------------------------------ *)

let write_json path ~tables ~compile_rows ~breakdown ~deltas ~checks
    ~solver:(wl, rr, per_pass) ~bechamel ~dynamic ~overhead:(ov_off, ov_on) =
  let open Json in
  let compile_row_json (r : E.compile_row) =
    Obj
      [
        ("workload", Str r.E.cw_name);
        ("first_run", Float r.E.first_run);
        ("best_run", Float r.E.best_run);
        ("compile_seconds", Float r.E.compile_time);
        ("compile_seconds_min", Float r.E.compile_min);
        ("compile_seconds_median", Float r.E.compile_median);
      ]
  in
  let ours, hotspot = compile_rows in
  let j =
    Obj
      [
        ("schema", Str Obs.Doc.container);
        ("scale", Int scale);
        ("repeat", Int repeat);
        ( "tables",
          Obj
            (List.map (fun (name, unit, rows) -> (name, json_of_rows ~unit rows))
               tables) );
        ( "compile_times",
          Obj
            [
              ("ours", List (List.map compile_row_json ours));
              ("hotspot_model", List (List.map compile_row_json hotspot));
            ] );
        ( "nullcheck_breakdown",
          List
            (List.map
               (fun (r : E.breakdown_row) ->
                 Obj
                   [
                     ("workload", Str r.E.bw_name);
                     ("new_nullcheck_seconds", Float r.E.new_nullcheck);
                     ("new_other_seconds", Float r.E.new_other);
                     ("old_nullcheck_seconds", Float r.E.old_nullcheck);
                     ("old_other_seconds", Float r.E.old_other);
                   ])
               breakdown) );
        ( "compile_time_increase",
          List
            (List.map
               (fun (name, ds, pct) ->
                 Obj
                   [
                     ("workload", Str name);
                     ("delta_seconds", Float ds);
                     ("delta_percent", Float pct);
                   ])
               deltas) );
        ( "check_stats",
          List
            (List.map
               (fun (r : E.check_row) ->
                 Obj
                   [
                     ("workload", Str r.E.sw_name);
                     ("raw", Int r.E.raw);
                     ("explicit_static", Int r.E.explicit_static);
                     ("implicit_static", Int r.E.implicit_static);
                     ("explicit_dynamic", Int r.E.explicit_dynamic);
                     ("implicit_dynamic", Int r.E.implicit_dynamic);
                   ])
               checks) );
        ( "solver",
          Obj
            [
              ("workload", Str "javac");
              ("config", Str "new-full");
              ("worklist", json_of_solver_stats wl.Compiler.solver);
              ("round_robin", json_of_solver_stats rr.Compiler.solver);
              ( "transfer_ratio",
                Float
                  (float_of_int wl.Compiler.solver.Solver.transfers
                  /. float_of_int (max 1 rr.Compiler.solver.Solver.transfers))
              );
              ( "worklist_per_pass",
                Obj (List.map (fun (k, v) -> (k, Int v)) per_pass) );
            ] );
        ( "bechamel_ns_per_compile",
          Obj (List.map (fun (name, est) -> (name, Float est)) bechamel) );
        (* scale-1 deterministic dynamic counters + elimination
           percentages (versioned nullelim-dynamic schema, the document
           BENCH_baseline.json regresses against) *)
        ("dynamic", PR.dynamic_json ~scale:1 dynamic);
        ( "profiling_overhead",
          Obj
            [
              ("off_seconds_per_run", Float ov_off);
              ("on_seconds_per_run", Float ov_on);
              ("on_over_off", Float (ov_on /. Float.max 1e-9 ov_off));
            ] );
        (* per-pass timing/solver metrics of the reference javac compile,
           in the versioned metrics-snapshot schema (validated in CI via
           `nullelim validate-json`) *)
        ("metrics", Obs.Metrics.snapshot (Compiler.metrics wl));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.JSON report written to %s@." path

let () =
  Fmt.pr "nullelim benchmark harness — scale %d@." scale;
  Fmt.pr "reproducing: Kawahito, Komatsu, Nakatani — ASPLOS 2000@.";
  let t1 = table1 () in
  figure8 t1;
  let t2 = table2 () in
  figure9 t2;
  figure10 t1;
  figure11 t2;
  let compile_rows = table3 () in
  let t4 = table4 () in
  let deltas = table5 t4 in
  let t6 = table6 () in
  figure14 t6;
  let t7 = table7 () in
  figure15 t7;
  let abl = ablation () in
  let checks = check_statistics () in
  let dynamic = dynamic_profile () in
  let overhead = profiling_overhead () in
  let solver = solver_comparison () in
  let bech = bechamel_suite () in
  (match json_path with
  | None -> ()
  | Some path ->
    write_json path
      ~tables:
        [
          ("table1", "index", t1);
          ("table2", "sec", t2);
          ("table6", "index", t6);
          ("table7", "sec", t7);
          ("ablation", "cycles", abl);
        ]
      ~compile_rows ~breakdown:t4 ~deltas ~checks ~solver ~bechamel:bech
      ~dynamic ~overhead);
  Fmt.pr "@.done.@."
