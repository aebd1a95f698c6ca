(** nullelim CLI: list/run workloads, dump IR before/after optimization,
    verify compiled programs. *)

open Nullelim
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry
module PR = Nullelim_experiments.Profile_report
module SS = Nullelim_experiments.Steady_state
module LG = Nullelim_experiments.Loadgen
module NB = Nullelim_experiments.Native_bench

let arch_conv =
  let parse s =
    match Arch.by_name s with
    | Some a -> Ok a
    | None -> Error (`Msg ("unknown architecture: " ^ s))
  in
  Cmdliner.Arg.conv (parse, fun ppf a -> Fmt.string ppf a.Arch.name)

let config_conv =
  let parse s =
    match Config.by_name s with
    | Some c -> Ok c
    | None -> Error (`Msg ("unknown config: " ^ s))
  in
  Cmdliner.Arg.conv (parse, fun ppf c -> Fmt.string ppf c.Config.name)

let arch_arg =
  Cmdliner.Arg.(
    value
    & opt arch_conv Arch.ia32_windows
    & info [ "a"; "arch" ] ~docv:"ARCH"
        ~doc:"Target architecture: ia32-windows, ppc-aix, sparc, no-trap.")

let config_arg =
  Cmdliner.Arg.(
    value
    & opt config_conv Config.new_full
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "JIT configuration (see `nullelim list-configs'); default \
           new-phase1+2.")

let scale_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let workload_arg =
  Cmdliner.Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `nullelim list').")

let trace_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file (chrome://tracing, \
           ui.perfetto.dev) covering compilation and execution.  \
           Equivalent to setting \\$(b,NULLELIM_TRACE).")

let stats_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the per-pass timing and data-flow solver work table and \
           the decision-log summary after running.")

let find_workload name =
  match Registry.find name with
  | Some w -> w
  | None ->
    Fmt.epr "unknown workload %s; try `nullelim list'@." name;
    exit 2

(** Per-pass table: wall time, minor-heap words and solver work summed
    under each pass name, from the compile's pass records. *)
let print_stats (compiled : Compiler.compiled) =
  Fmt.pr "@.%-24s %5s %10s %11s %8s %8s %10s %8s@." "pass" "runs" "seconds"
    "minor_words" "solves" "visits" "transfers" "pushes";
  let row name runs secs words (s : Solver.stats) =
    Fmt.pr "%-24s %5s %10.4f %11d %8d %8d %10d %8d@." name runs secs words
      s.Solver.solves s.Solver.visits s.Solver.transfers s.Solver.pushes
  in
  let recs = compiled.Compiler.records in
  List.iter
    (fun (p : Pipeline.pass_total) ->
      row p.p_pass (string_of_int p.p_runs) p.p_seconds p.p_minor_words
        p.p_solver)
    (Pipeline.by_pass recs);
  row "total" "" (Pipeline.total recs)
    (List.fold_left (fun acc r -> acc + r.Pipeline.r_minor_words) 0 recs)
    compiled.Compiler.solver;
  let summary = Obs.Decision.summary compiled.Compiler.decisions in
  Fmt.pr "@.decisions (%d events):@."
    (List.length compiled.Compiler.decisions);
  List.iter (fun (action, n) -> Fmt.pr "  %-24s %6d@." action n) summary;
  match Compiler.reconcile compiled with
  | Ok () -> Fmt.pr "  log reconciles with check stats@."
  | Error e -> Fmt.pr "  WARNING: %s@." e

(* --- documents -------------------------------------------------------- *)

let or_die = function
  | Ok x -> x
  | Error e ->
    Fmt.epr "%s@." e;
    exit 1

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Where a command's versioned document goes: the four flags every
   document-emitting command shares. *)
type emit = {
  e_json : string option;
  e_merge : string option;
  e_baseline : string option;
  e_write_baseline : string option;
}

let emit_term ?(json = [ "json" ]) ~gate doc =
  let what = Printf.sprintf "the %s document" (Obs.Doc.schema doc) in
  let path names ~doc =
    Cmdliner.Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)
  in
  Cmdliner.Term.(
    const (fun e_json e_merge e_baseline e_write_baseline ->
        { e_json; e_merge; e_baseline; e_write_baseline })
    $ path json ~doc:("Also write " ^ what ^ " to $(docv).")
    $ path [ "merge" ]
        ~doc:
          (Printf.sprintf
             "Merge %s into an existing bench report (e.g. \
              BENCH_results.json) under the `%s' key, creating the file if \
              absent."
             what (Obs.Doc.name doc))
    $ Cmdliner.Arg.(
        value
        & opt (some file) None
        & info [ "baseline" ] ~docv:"FILE"
            ~doc:
              (Printf.sprintf
                 "Check the fresh run against a committed baseline (its \
                  `%s' member if present): %s"
                 (Obs.Doc.name doc) gate))
    $ path [ "write-baseline" ]
        ~doc:("Record " ^ what ^ " as the new baseline."))

(* Write, merge and record [j], then gate the run against the baseline
   with [check]; every output is validated against [doc] first. *)
let emit e doc j ~check =
  let name = Obs.Doc.name doc in
  Option.iter
    (fun path ->
      or_die (Obs.Doc.write doc path j);
      Fmt.pr "%s document written to %s@." name path)
    e.e_json;
  Option.iter
    (fun path ->
      or_die (Obs.Doc.merge doc path j);
      Fmt.pr "%s section merged into %s@." name path)
    e.e_merge;
  Option.iter
    (fun path ->
      or_die (Obs.Doc.write doc path j);
      Fmt.pr "baseline written to %s@." path)
    e.e_write_baseline;
  Option.iter
    (fun path ->
      let b = Obs.Doc.find doc (or_die (Obs.Doc.read path)) in
      or_die
        (Result.map_error (Printf.sprintf "%s: %s" path)
           (Obs.Doc.validate doc b));
      match check b with
      | Ok [] -> Fmt.pr "@.baseline check: OK (no regressions, no drift)@."
      | Ok drift ->
        Fmt.pr "@.baseline check: OK, with drift:@.";
        List.iter (fun d -> Fmt.pr "  %s@." d) drift
      | Error regs ->
        Fmt.epr "@.baseline check FAILED:@.";
        List.iter (fun r -> Fmt.epr "  %s@." r) regs;
        exit 1)
    e.e_baseline

let gate_or_die what = function
  | Ok () -> ()
  | Error errs ->
    Fmt.epr "%s gate FAILED:@." what;
    List.iter (fun e -> Fmt.epr "  %s@." e) errs;
    exit 1

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let doc = "List available workloads." in
  let run () =
    List.iter
      (fun (w : W.t) ->
        Fmt.pr "%-18s %-10s %s@." w.W.name
          (match w.W.suite with W.Jbytemark -> "jBYTEmark" | W.Specjvm -> "SPECjvm98")
          w.W.description)
      (Registry.all ())
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "list" ~doc)
    Cmdliner.Term.(const run $ const ())

let list_configs_cmd =
  let doc = "List JIT configurations." in
  let run () =
    List.iter
      (fun (c : Config.t) -> Fmt.pr "%s@." c.Config.name)
      (Config.windows_suite @ Config.aix_suite)
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "list-configs" ~doc)
    Cmdliner.Term.(const run $ const ())

(* --- run ----------------------------------------------------------- *)

let profile_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Collect the per-site dynamic profile during the run and print \
           the per-site check table, loop hotness and reconciliation \
           status.")

let backend_conv =
  let parse = function
    | "interp" -> Ok Config.Interp
    | "native" -> Ok Config.Native
    | s -> Error (`Msg ("unknown backend: " ^ s))
  in
  Cmdliner.Arg.conv (parse, fun ppf b -> Fmt.string ppf (Config.backend_name b))

let backend_arg =
  Cmdliner.Arg.(
    value
    & opt backend_conv Config.Interp
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution engine: interp (simulating interpreter, default) or \
           native (emitted C, real hardware traps; falls back to interp \
           with a warning where unsupported).")

(* Native execution with the interp fallback contract: any reason the
   native path cannot run this program on this host demotes to the
   interpreter, loudly. *)
let run_native_or_fallback ~arch (compiled : Compiler.compiled) =
  match Native.run_program ~arch compiled.Compiler.program with
  | Ok r ->
    Fmt.pr "backend        : native (real hardware traps)@.";
    Fmt.pr "hardware traps : %d@." r.Native.r_traps;
    Fmt.pr "native wall    : %.3f ms@."
      (Int64.to_float r.Native.r_wall_ns /. 1e6);
    r.Native.r_result
  | Error msg ->
    Fmt.epr "warning: native backend unavailable (%s); falling back to interp@."
      msg;
    Interp.run ~arch compiled.Compiler.program []

let run_cmd =
  let doc = "Compile and run a workload, printing counters and checksum." in
  let run arch cfg scale trace stats profile backend name =
    let w = find_workload name in
    if profile then Ir.reset_sites ();
    let prog = w.W.build ~scale in
    let orig_sites = Hashtbl.create 64 in
    if profile then
      Hashtbl.iter
        (fun _ f ->
          List.iter
            (fun s -> Hashtbl.replace orig_sites s ())
            (Ir.sites_of_func f))
        prog.Ir.funcs;
    (match trace with
    | Some path -> Obs.Trace.start_to_file path
    | None -> ());
    let prof = if profile then Some (Obs.Profile.create ()) else None in
    let cfg = { cfg with Config.backend } in
    let compiled = Compiler.compile cfg ~arch prog in
    let r =
      match backend with
      | Config.Native -> run_native_or_fallback ~arch compiled
      | Config.Interp ->
        Interp.run ?profile:prof ~arch compiled.Compiler.program []
    in
    (match trace with
    | Some path ->
      ignore (Obs.Trace.stop ());
      Fmt.pr "trace written to %s@." path
    | None -> ());
    let c = r.Interp.counters in
    Fmt.pr "workload       : %s (scale %d)@." w.W.name scale;
    Fmt.pr "config / arch  : %s / %s@." cfg.Config.name arch.Arch.name;
    Fmt.pr "outcome        : %a@." Interp.pp_outcome r.Interp.outcome;
    Fmt.pr "expected       : %d@." (w.W.expected ~scale);
    Fmt.pr "cycles         : %d@." c.Interp.cycles;
    Fmt.pr "instructions   : %d@." c.Interp.instrs;
    Fmt.pr "explicit checks: %d@." c.Interp.explicit_checks;
    Fmt.pr "implicit checks: %d@." c.Interp.implicit_checks;
    Fmt.pr "bound checks   : %d@." c.Interp.bound_checks;
    Fmt.pr "loads / stores : %d / %d@." c.Interp.loads c.Interp.stores;
    Fmt.pr "calls / allocs : %d / %d@." c.Interp.calls c.Interp.allocs;
    Fmt.pr "static explicit: %d (of %d raw)@."
      compiled.Compiler.checks.Compiler.explicit_after
      compiled.Compiler.checks.Compiler.raw_checks;
    Fmt.pr "static implicit: %d@." compiled.Compiler.checks.Compiler.implicit_after;
    Fmt.pr "compile time   : %.4f s@." compiled.Compiler.compile_seconds;
    (match prof with
    | None -> ()
    | Some p ->
      let pr =
        {
          PR.pr_workload = w.W.name;
          pr_config = cfg.Config.name;
          pr_profile = p;
          pr_counters = r.Interp.counters;
          pr_decisions = compiled.Compiler.decisions;
          pr_program = compiled.Compiler.program;
          pr_orig_sites = orig_sites;
        }
      in
      let buf = Buffer.create 4096 in
      PR.md_site_table buf pr;
      PR.md_hotness buf pr ~loops_top:5;
      Fmt.pr "@.%s" (Buffer.contents buf);
      (match PR.reconcile pr with
      | Ok () -> Fmt.pr "profile reconciles with interpreter counters@."
      | Error e ->
        Fmt.epr "profile reconciliation FAILED: %s@." e;
        exit 1));
    if stats then print_stats compiled
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "run" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ config_arg $ scale_arg $ trace_arg $ stats_arg
      $ profile_flag $ backend_arg $ workload_arg)

(* --- native-bench -------------------------------------------------- *)

let native_bench_cmd =
  let doc =
    "Measure real trap costs through the native backend: explicit-check, \
     implicit-check and trap-recovery nanoseconds (EXPERIMENTS.md \
     \"Measured trap costs\")."
  in
  let run arch iters traps repeats json =
    let member =
      match NB.collect ~iters ~traps ~repeats ~arch () with
      | Ok r ->
        Fmt.pr "%a@." NB.pp r;
        NB.to_json r
      | Error msg ->
        Fmt.epr
          "warning: native backend unavailable (%s); reporting fallback@." msg;
        NB.unavailable_json msg
    in
    Option.iter
      (fun path ->
        or_die (Obs.Doc.write NB.doc path member);
        Fmt.pr "JSON written to %s@." path)
      json
  in
  let iters_arg =
    Cmdliner.Arg.(
      value & opt int 500_000
      & info [ "iters" ] ~docv:"N"
          ~doc:"Chase-loop iterations per kernel (8 checks each).")
  in
  let traps_arg =
    Cmdliner.Arg.(
      value & opt int 2_000
      & info [ "traps" ] ~docv:"N"
          ~doc:"SIGSEGV recoveries driven by the recovery kernel.")
  in
  let repeats_arg =
    Cmdliner.Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"N" ~doc:"Take the best of N runs.")
  in
  let json_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the nullelim-native-bench/1 document to $(docv).")
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "native-bench" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ iters_arg $ traps_arg $ repeats_arg $ json_arg)

(* --- dump ---------------------------------------------------------- *)

let dump_cmd =
  let doc = "Dump a workload's IR, raw or after a configuration." in
  let raw_arg =
    Cmdliner.Arg.(value & flag & info [ "raw" ] ~doc:"Dump unoptimized IR.")
  in
  let run arch cfg scale raw name =
    let w = find_workload name in
    let prog = w.W.build ~scale in
    let prog =
      if raw then prog else (Compiler.compile cfg ~arch prog).Compiler.program
    in
    Fmt.pr "%a@." Ir_pp.pp_program prog
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "dump" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ config_arg $ scale_arg $ raw_arg $ workload_arg)

(* --- verify -------------------------------------------------------- *)

let verify_cmd =
  let doc =
    "Compile a workload and verify the implicit-check soundness contract."
  in
  let run arch cfg scale name =
    let w = find_workload name in
    let prog = w.W.build ~scale in
    let compiled = Compiler.compile cfg ~arch prog in
    match Verify.verify_program ~arch compiled.Compiler.program with
    | [] ->
      Fmt.pr "OK: no violations@.";
      exit 0
    | vs ->
      List.iter (fun vi -> Fmt.pr "%a@." Verify.pp_violation vi) vs;
      exit 1
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "verify" ~doc)
    Cmdliner.Term.(const run $ arch_arg $ config_arg $ scale_arg $ workload_arg)

(* --- profile ------------------------------------------------------- *)

let profile_cmd =
  let doc =
    "Profile every registry workload under the \
     baseline/whaley/phase1/full configurations: per-site dynamic check \
     tables, loop hotness, and the paper-style dynamic-elimination \
     percentages (Figures 7-8).  Every run is reconciled against the \
     aggregate interpreter counters before anything is emitted."
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt string "PROFILE_report.md"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Markdown report output path.")
  in
  let run arch scale out e =
    let all = PR.collect_all ~scale ~arch () in
    or_die
      (Result.map_error (( ^ ) "reconciliation failed: ")
         (PR.reconcile_all all));
    write_file out (PR.report_md ~scale all);
    Fmt.pr "markdown report written to %s@." out;
    Fmt.pr "@.%a" PR.pp_summary all;
    emit e PR.dynamic_doc (PR.dynamic_json ~scale all) ~check:(fun baseline ->
        PR.check_against_baseline ~baseline all)
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "profile" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ scale_arg $ out_arg
      $ emit_term PR.dynamic_doc
          ~gate:
            "exit 1 if any workload x config executes more dynamic null \
             checks than recorded.")

(* --- batch --------------------------------------------------------- *)

let batch_cmd =
  let doc =
    "Compile the whole workload registry across all of the \
     architecture's configurations in parallel on a pool of OCaml \
     domains, optionally through the content-addressed code cache, and \
     print throughput plus cache statistics.  Every result's decision \
     log is reconciled against its check statistics, and with the \
     cache on and no evictions every distinct job key must have been \
     compiled exactly once (misses = distinct keys)."
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains; 0 picks a machine-appropriate default \
             (recommended domain count - 1, clamped to 1..8).")
  in
  let repeat_arg =
    Cmdliner.Arg.(
      value
      & opt int 1
      & info [ "r"; "repeat" ] ~docv:"K"
          ~doc:
            "Submit the whole job matrix $(docv) times; with the cache \
             on, repeats after the first are served from it.")
  in
  let cache_arg =
    Cmdliner.Arg.(
      value
      & vflag true
          [
            (true, info [ "cache" ] ~doc:"Use the compiled-code cache (default).");
            (false, info [ "no-cache" ] ~doc:"Compile every job from scratch.");
          ])
  in
  let run arch scale jobs repeat use_cache =
    let repeat = max 1 repeat in
    let configs =
      if arch.Arch.name = Arch.ppc_aix.Arch.name then Config.aix_suite
      else Config.windows_suite
    in
    let workloads = Registry.all () in
    let programs = List.map (fun (w : W.t) -> w.W.build ~scale) workloads in
    let matrix =
      List.concat_map
        (fun p ->
          List.map
            (fun cfg -> Svc.job ~config:cfg ~arch p)
            configs)
        programs
    in
    let all_jobs = List.concat (List.init repeat (fun _ -> matrix)) in
    let cache = if use_cache then Some (Svc.create_cache ()) else None in
    let domains = if jobs > 0 then jobs else Svc.default_domains () in
    let t0 = Obs.Clock.now () in
    let outcomes =
      Svc.with_service ~domains ?cache (fun t -> Svc.compile_all t all_jobs)
    in
    let wall = Obs.Clock.now () -. t0 in
    let n = List.length outcomes in
    let hits = List.length (List.filter (fun o -> o.Svc.oc_cache_hit) outcomes) in
    let compile_time =
      List.fold_left
        (fun acc (o : Svc.outcome) ->
          acc +. o.Svc.oc_compiled.Compiler.compile_seconds)
        0. outcomes
    in
    Fmt.pr "batch          : %d jobs (%d workloads x %d configs x repeat %d)@."
      n (List.length workloads) (List.length configs) repeat;
    Fmt.pr "domains        : %d (queue capacity 64)@." domains;
    Fmt.pr "arch / scale   : %s / %d@." arch.Arch.name scale;
    Fmt.pr "wall time      : %.4f s (%.1f jobs/sec)@." wall
      (float_of_int n /. Float.max 1e-9 wall);
    Fmt.pr "compile time   : %.4f s summed over fresh compiles@." compile_time;
    let single_flight_error =
      match cache with
      | None ->
        Fmt.pr "cache          : off@.";
        None
      | Some c ->
        let s = Codecache.stats c in
        Fmt.pr
          "cache          : %d hits / %d misses / %d evictions, %d entries, \
           %.2f MiB of %.0f MiB@."
          s.Codecache.hits s.Codecache.misses s.Codecache.evictions
          s.Codecache.entries
          (float_of_int s.Codecache.bytes /. 1048576.)
          (float_of_int s.Codecache.budget_bytes /. 1048576.);
        Fmt.pr "               : %d of %d jobs served from cache@." hits n;
        let keys =
          List.length
            (List.sort_uniq String.compare
               (List.map (fun (o : Svc.outcome) -> o.Svc.oc_key) outcomes))
        in
        Fmt.pr "               : %d misses for %d distinct keys@."
          s.Codecache.misses keys;
        (* With nothing evicted, a key that missed twice was compiled
           twice: the batch's single flight let a repeat through. *)
        if s.Codecache.evictions = 0 && s.Codecache.misses <> keys then
          Some
            (Printf.sprintf "%d misses for %d distinct keys"
               s.Codecache.misses keys)
        else None
    in
    let bad =
      List.filter_map
        (fun (o : Svc.outcome) ->
          match Compiler.reconcile o.Svc.oc_compiled with
          | Ok () -> None
          | Error e -> Some e)
        outcomes
    in
    (match bad with
    | [] -> Fmt.pr "reconciliation : all %d decision logs reconcile@." n
    | e :: _ ->
      Fmt.epr "reconciliation FAILED (%d of %d): %s@." (List.length bad) n e;
      exit 1);
    match single_flight_error with
    | None -> ()
    | Some e ->
      Fmt.epr "single flight FAILED: %s@." e;
      exit 1
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "batch" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ scale_arg $ jobs_arg $ repeat_arg $ cache_arg)

(* --- tiered -------------------------------------------------------- *)

let tiered_cmd =
  let doc =
    "Steady-state benchmark of the tiered execution manager over every \
     registry workload: each program starts at tier 0 (instant compile, \
     every null check explicit), hit counters promote hot functions to \
     the full phase1+2 pipeline, and the report records time-to-peak, \
     executed explicit checks per call at tier 0 versus steady state, \
     and recompile latency.  A forced-trap scenario additionally proves \
     that deoptimization re-materializes exactly the offending site.  \
     Every tier's decision log is reconciled before anything is emitted."
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Recompile asynchronously on $(docv) worker domains while \
             execution continues (mode `async').  0 compiles at the \
             submission point on the serving thread (mode `sync', \
             deterministic counters -- what the committed baseline \
             records).")
  in
  let runs_arg =
    Cmdliner.Arg.(
      value
      & opt int SS.default_runs
      & info [ "runs" ] ~docv:"N"
          ~doc:
            "Tiered runs per workload.  Promotion fires once a \
             function's call count crosses the threshold, so $(docv) \
             must exceed it for the steady state to be reached.")
  in
  let promote_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "promote-calls" ] ~docv:"N"
          ~doc:
            "Override the promotion threshold (calls before tier-2 \
             recompilation).  0 keeps the configuration default; CI \
             smoke runs lower it together with --runs.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt string "TIERED_report.md"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Markdown report output path.")
  in
  let run arch jobs runs promote_calls out e =
    let config =
      if promote_calls <= 0 then Config.new_full
      else { Config.new_full with Config.promote_calls }
    in
    let mode = if jobs > 0 then "async" else "sync" in
    let rows, fd =
      let collect svc =
        let rows = SS.collect_all ?svc ~config ~runs ~arch () in
        let fd = SS.forced_deopt ~config ~arch () in
        (rows, fd)
      in
      try
        if jobs > 0 then
          Svc.with_service ~domains:jobs (fun svc -> collect (Some svc))
        else collect None
      with Failure e ->
        Fmt.epr "tiered benchmark failed: %s@." e;
        exit 1
    in
    gate_or_die "steady-state" (SS.gate rows fd);
    write_file out (SS.report_md rows fd);
    Fmt.pr "markdown report written to %s@." out;
    Fmt.pr "@.%a" SS.pp_summary (rows, fd);
    emit e SS.doc (SS.tiered_json ~mode rows fd) ~check:(fun baseline ->
        SS.check_against_baseline ~baseline rows)
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "tiered" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ jobs_arg $ runs_arg $ promote_arg $ out_arg
      $ emit_term SS.doc
          ~gate:
            "exit 1 on any steady-state check regression or any \
             promotion/deopt counter drift.")

(* --- fuzz ---------------------------------------------------------- *)

let fuzz_cmd =
  let doc =
    "Generate a corpus of seeded random IR programs and run the full \
     differential oracle set over each one: strict input validation, \
     per-configuration compile + verify + decision-log reconciliation, \
     observable behaviour against the raw program, worklist-versus-\
     reference solver identity, baseline profile-count consistency and \
     (with a worker pool) serial-versus-parallel artifact identity.  \
     Failures are shrunk to minimal reproducers and the run is written \
     as a nullelim-fuzz/1 JSON report."
  in
  let seed_arg =
    Cmdliner.Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master corpus seed; each program gets its own derived seed, \
             recorded in failure rows so one program can be regenerated \
             in isolation.")
  in
  let count_arg =
    Cmdliner.Arg.(
      value & opt int 200
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of programs.")
  in
  let size_arg =
    Cmdliner.Arg.(
      value
      & opt int Gen.default_params.Gen.p_size
      & info [ "size" ] ~docv:"N"
          ~doc:"Generator size parameter (statement budget of main).")
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel-compile differential; 0 \
             (default) runs the serial oracles only.")
  in
  let flight_arg =
    Cmdliner.Arg.(
      value & opt int 8
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "Programs per pool flight; bounds resident artifacts \
             (ignored without --jobs).")
  in
  let shrink_arg =
    Cmdliner.Arg.(
      value
      & vflag true
          [
            (true, info [ "shrink" ] ~doc:"Shrink failures (default).");
            (false, info [ "no-shrink" ] ~doc:"Report failures unshrunk.");
          ])
  in
  let mutate_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Self-test: weaken the phase-2 kill rule (Print stops acting \
             as a barrier) for the whole run and $(b,expect) the oracles \
             to catch it — the exit status is inverted, failing only if \
             every program still passes.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the nullelim-fuzz/1 JSON report to $(docv).")
  in
  let run arch master count size jobs flight do_shrink mutate out =
    let count = max 0 count and flight = max 1 flight in
    let params = { Gen.default_params with Gen.p_size = max 1 size } in
    let seeds =
      let r = Gen_rng.make master in
      Array.init count (fun _ -> Gen_rng.fresh_seed r)
    in
    (* produce and fold both run on this domain, in index order *)
    let gens : (int, Gen.t) Hashtbl.t = Hashtbl.create 16 in
    let gen_for i =
      match Hashtbl.find_opt gens i with
      | Some g -> g
      | None ->
        let g = Gen.generate ~params ~seed:seeds.(i) () in
        Hashtbl.replace gens i g;
        g
    in
    let dist = ref Fuzz_report.empty_distribution in
    let passed = ref 0
    and skipped = ref 0
    and failed = ref 0
    and pool_compiles = ref 0
    and cache_hits = ref 0
    and failures = ref [] in
    let record_failure i (f : Diff.failure) =
      incr failed;
      let g = gen_for i in
      let shrunk =
        if not do_shrink then None
        else
          let pred q = Diff.still_fails ~arch f q in
          if not (pred g.Gen.g_program) then
            (* e.g. a pool-only serial/parallel divergence — the serial
               shrinker predicate cannot reproduce it *)
            None
          else
            let q, st = Shrink.shrink ~still_fails:pred g.Gen.g_program in
            Some
              ( st.Shrink.sh_instrs_after,
                st.Shrink.sh_steps,
                Fuzz_report.program_to_string q )
      in
      failures :=
        {
          Fuzz_report.fr_seed = seeds.(i);
          fr_oracle = f.Diff.fl_oracle;
          fr_config = f.Diff.fl_config;
          fr_detail = f.Diff.fl_detail;
          fr_shrunk = shrunk;
        }
        :: !failures
    in
    let settle i (pool_outcomes : Svc.outcome list option) =
      let g = gen_for i in
      dist := Fuzz_report.add_features !dist g.Gen.g_features;
      let artifact_failure () =
        match pool_outcomes with
        | None -> None
        | Some parallel ->
          let serial = Svc.compile_serial (Diff.jobs ~arch g.Gen.g_program) in
          Diff.compare_artifacts ~serial ~parallel
      in
      (match Diff.check ~arch g.Gen.g_program with
      | Diff.Fail f -> record_failure i f
      | Diff.Skip _ -> (
        (* no behavioural signal, but artifacts still compile *)
        match artifact_failure () with
        | Some f -> record_failure i f
        | None -> incr skipped)
      | Diff.Pass -> (
        match artifact_failure () with
        | Some f -> record_failure i f
        | None -> incr passed));
      Hashtbl.remove gens i
    in
    let t0 = Obs.Clock.now () in
    let with_mutation body =
      if not mutate then body ()
      else begin
        Atomic.set Phase2.mutate_kill_barrier true;
        Fun.protect
          ~finally:(fun () -> Atomic.set Phase2.mutate_kill_barrier false)
          body
      end
    in
    (* the pool compiles one flight of programs at a time, so only a
       flight's artifacts are ever resident *)
    let rec flights t lo =
      if lo < count then begin
        let idx = List.init (min flight (count - lo)) (( + ) lo) in
        let groups =
          List.map (fun i -> Diff.jobs ~arch (gen_for i).Gen.g_program) idx
        in
        let outcomes = Svc.compile_all t (List.concat groups) in
        pool_compiles := !pool_compiles + List.length outcomes;
        cache_hits :=
          !cache_hits
          + List.length (List.filter (fun o -> o.Svc.oc_cache_hit) outcomes);
        ignore
          (List.fold_left2
             (fun outs i group ->
               let n = List.length group in
               settle i (Some (List.filteri (fun k _ -> k < n) outs));
               List.filteri (fun k _ -> k >= n) outs)
             outcomes idx groups);
        flights t (lo + flight)
      end
    in
    with_mutation (fun () ->
        if jobs > 0 then
          Svc.with_service ~domains:jobs ~cache:(Svc.create_cache ()) (fun t ->
              flights t 0)
        else
          for i = 0 to count - 1 do
            settle i None
          done);
    let wall = Obs.Clock.now () -. t0 in
    let report =
      {
        Fuzz_report.fz_seed = master;
        fz_count = count;
        fz_gen_version = Gen.gen_version;
        fz_size = size;
        fz_arch = arch.Arch.name;
        fz_jobs = max jobs 0;
        fz_mutate = mutate;
        fz_passed = !passed;
        fz_skipped = !skipped;
        fz_failed = !failed;
        fz_pool_compiles = !pool_compiles;
        fz_cache_hits = !cache_hits;
        fz_seconds = wall;
        fz_distribution = !dist;
        fz_failures = List.rev !failures;
      }
    in
    Option.iter
      (fun path ->
        or_die
          (Obs.Doc.write Fuzz_report.doc path (Fuzz_report.to_json report)))
      out;
    let d = !dist in
    Fmt.pr "fuzz         : %d programs (master seed %d, gen v%d, size %d)@."
      count master Gen.gen_version size;
    Fmt.pr "verdicts     : %d pass / %d skip / %d fail%s@." !passed !skipped
      !failed
      (if mutate then " [phase-2 kill-rule mutation active]" else "");
    Fmt.pr
      "distribution : try %d, alias %d, null %d, loop %d, recursive %d, %d \
       instrs@."
      d.Fuzz_report.ds_with_try d.Fuzz_report.ds_with_alias
      d.Fuzz_report.ds_with_null d.Fuzz_report.ds_with_loop
      d.Fuzz_report.ds_recursive d.Fuzz_report.ds_instrs_total;
    if jobs > 0 then
      Fmt.pr "pool         : %d domains, %d compiles, %d cache hits@." jobs
        !pool_compiles !cache_hits;
    Fmt.pr "wall time    : %.2f s (%.1f programs/sec)@." wall
      (float_of_int count /. Float.max 1e-9 wall);
    (match out with
    | Some path -> Fmt.pr "report       : %s@." path
    | None -> ());
    List.iter
      (fun (r : Fuzz_report.failure_row) ->
        Fmt.epr "FAIL seed %d: [%s] %s%s@." r.Fuzz_report.fr_seed
          r.Fuzz_report.fr_oracle
          (if r.Fuzz_report.fr_config = "" then ""
           else r.Fuzz_report.fr_config ^ ": ")
          r.Fuzz_report.fr_detail;
        match r.Fuzz_report.fr_shrunk with
        | Some (instrs, steps, printed) ->
          Fmt.epr "  shrunk to %d instrs in %d steps:@.%s@." instrs steps
            printed
        | None -> ())
      report.Fuzz_report.fz_failures;
    if mutate then
      if !failed > 0 then
        Fmt.pr "mutation     : caught by the oracles (%d failures), as \
                expected@."
          !failed
      else begin
        Fmt.epr "mutation went UNDETECTED across %d programs@." count;
        exit 1
      end
    else if !failed > 0 then exit 1
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "fuzz" ~doc)
    Cmdliner.Term.(
      const run $ arch_arg $ seed_arg $ count_arg $ size_arg $ jobs_arg
      $ flight_arg $ shrink_arg $ mutate_arg $ out_arg)

(* --- loadgen ------------------------------------------------------- *)

let multipliers_of ~sweep ~rate =
  match rate with
  | Some m -> [ m ]
  | None ->
    let ms =
      try
        String.split_on_char ',' sweep
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map float_of_string
      with Failure _ ->
        Fmt.epr "--rate-sweep: cannot parse %S@." sweep;
        exit 1
    in
    if ms = [] || List.exists (fun m -> m <= 0.) ms then begin
      Fmt.epr "rate multipliers must be positive@.";
      exit 1
    end;
    ms

(* per-tenant offered/completed/shed totals summed over the rate rows *)
let print_tenant_totals (rows : LG.rate_row list) =
  let tbl : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : LG.rate_row) ->
      List.iter
        (fun (tn : LG.tenant_row) ->
          let o, c, s =
            Option.value ~default:(0, 0, 0)
              (Hashtbl.find_opt tbl tn.LG.tn_tenant)
          in
          Hashtbl.replace tbl tn.LG.tn_tenant
            (o + tn.LG.tn_offered, c + tn.LG.tn_completed, s + tn.LG.tn_shed))
        r.LG.lr_tenants)
    rows;
  let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  Fmt.pr "@.%7s %8s %10s %6s@." "tenant" "offered" "completed" "shed";
  List.iter
    (fun id ->
      let o, c, s = Hashtbl.find tbl id in
      Fmt.pr "%7d %8d %10d %6d@." id o c s)
    ids

let write_timelines ~dropped tls =
  Option.iter (fun path ->
      or_die
        (Obs.Doc.write Obs.Timeline.doc path
           (Obs.Timeline.to_json ~dropped tls));
      Fmt.pr "timeline document written to %s@." path)

(* reconstruct per-request timelines from a recorder and optionally
   persist them; shared by the loadgen and serve commands *)
let emit_timelines ?out recorder =
  let dropped = Obs.Recorder.dropped recorder in
  let tls = Obs.Timeline.of_events (Obs.Recorder.dump recorder) in
  (match Obs.Timeline.check_complete ~dropped tls with
  | Ok () ->
    let completed =
      List.length
        (List.filter
           (fun tl -> Obs.Timeline.phase tl = Obs.Timeline.Completed)
           tls)
    in
    Fmt.pr "timelines: %d requests (%d completed), causal gate OK%s@."
      (List.length tls) completed
      (if dropped > 0 then
         Printf.sprintf " (vacuous: %d events dropped)" dropped
       else "")
  | Error e ->
    Fmt.epr "timeline causal gate FAILED: %s@." e;
    exit 1);
  write_timelines ~dropped tls out

let loadgen_cmd =
  let doc =
    "Open-loop Poisson load generator for the parallel compile \
     service: calibrate the workload corpus (serial compiles give the \
     mean cost per request), then offer compile requests at a sweep of \
     rates relative to that capacity with seeded exponential \
     inter-arrivals.  Arrivals never wait for completions; a full \
     queue sheds the request.  Reports throughput and \
     p50/p90/p99/p999 end-to-end latency per rate (exact, \
     cross-checked against the merged metrics histogram), the \
     saturation throughput, and optionally the flight-recorder \
     overhead.  Latency is measured from the scheduled arrival, so \
     coordinated omission is impossible by construction."
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the compile service (0 = the default \
             pool size).")
  in
  let queue_arg =
    Cmdliner.Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Compile queue capacity.")
  in
  let duration_arg =
    Cmdliner.Arg.(
      value
      & opt float 2.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Target duration of each rate step.")
  in
  let seed_arg =
    Cmdliner.Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the exponential arrival schedule.")
  in
  let sweep_arg =
    Cmdliner.Arg.(
      value
      & opt string "0.25,0.5,1,2,4"
      & info [ "rate-sweep" ] ~docv:"MULTS"
          ~doc:
            "Comma-separated offered-rate multipliers of the calibrated \
             single-domain capacity, swept in increasing order.")
  in
  let rate_arg =
    Cmdliner.Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"MULT"
          ~doc:
            "Run a single rate step at $(docv) times the calibrated \
             capacity instead of the sweep.")
  in
  let max_requests_arg =
    Cmdliner.Arg.(
      value
      & opt int 400
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Cap on the requests scheduled per rate step.")
  in
  let overhead_arg =
    Cmdliner.Arg.(
      value
      & flag
      & info [ "overhead" ]
          ~doc:
            "Also measure the flight recorder's overhead: ns per \
             recorded event and the enabled-vs-disabled delta on a \
             steady-state tiered loop.")
  in
  let factor_arg =
    Cmdliner.Arg.(
      value
      & opt float 3.0
      & info [ "gate-factor" ] ~docv:"X"
          ~doc:"Allowed normalized-p99 ratio over the baseline.")
  in
  let flight_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Dump the global flight recorder (nullelim-flight schema) \
             after the sweep — queue movement, request lifecycle and \
             cache traffic of the final rate steps.")
  in
  let trace_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "flight-trace" ] ~docv:"FILE"
          ~doc:
            "Convert the retained flight events to a Chrome trace-event \
             file (chrome://tracing, ui.perfetto.dev).")
  in
  let tenants_arg =
    Cmdliner.Arg.(
      value
      & opt int 1
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Submit requests round-robin as $(docv) distinct tenants; \
             per-tenant metrics, flight-event contexts and closed \
             accounting are reported per rate step.")
  in
  let tenant_cap_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "tenant-cap" ] ~docv:"N"
          ~doc:
            "Per-tenant in-queue admission cap; a tenant already holding \
             $(docv) queued requests has further arrivals shed with \
             reason `tenant_cap'.  0 = unlimited.")
  in
  let timelines_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "timelines" ] ~docv:"FILE"
          ~doc:
            "Slice the flight dump into per-request causal timelines \
             (nullelim-timeline schema), gate their completeness, and \
             write them to $(docv).")
  in
  let run jobs queue duration seed sweep rate max_requests overhead factor
      flight trace tenants tenant_cap timelines e =
    let multipliers = multipliers_of ~sweep ~rate in
    let t =
      LG.sweep
        ?domains:(if jobs > 0 then Some jobs else None)
        ~queue_capacity:queue ~duration ~seed ~multipliers ~max_requests
        ~overhead ~tenants ~tenant_cap ()
    in
    let cal = t.LG.lg_calibration in
    Fmt.pr
      "calibration: %d jobs, %.4f s mean compile, base rate %.2f req/s, %d \
       domains@."
      cal.LG.cal_jobs cal.LG.cal_mean_seconds cal.LG.cal_base_rate
      t.LG.lg_domains;
    Fmt.pr "@.%6s %9s %7s %9s %5s %9s %9s %9s %9s@." "rate" "offered/s"
      "offered" "completed" "shed" "thru/s" "p50ms" "p99ms" "p999ms";
    List.iter
      (fun (r : LG.rate_row) ->
        Fmt.pr "%5.2fx %9.2f %7d %9d %5d %9.2f %9.2f %9.2f %9.2f@."
          r.LG.lr_multiplier r.LG.lr_offered_rate r.LG.lr_offered
          r.LG.lr_completed r.LG.lr_shed r.LG.lr_throughput r.LG.lr_p50_ms
          r.LG.lr_p99_ms r.LG.lr_p999_ms)
      t.LG.lg_rows;
    Fmt.pr "saturation throughput: %.2f req/s; normalized p99: %.3f \
            mean-compiles@."
      t.LG.lg_saturation_throughput (LG.normalized_p99 t);
    if tenants > 1 then print_tenant_totals t.LG.lg_rows;
    (match t.LG.lg_overhead with
    | Some o ->
      Fmt.pr
        "recorder overhead: %.0f ns/event; tiered loop %.4f s on vs %.4f s \
         off (%+.2f%%)@."
        o.LG.ov_ns_per_event o.LG.ov_enabled_seconds o.LG.ov_disabled_seconds
        (100. *. o.LG.ov_fraction)
    | None -> ());
    gate_or_die "loadgen" (LG.check_rows t.LG.lg_rows);
    Option.iter
      (fun path ->
        or_die
          (Obs.Doc.write Obs.Recorder.doc path
             (Obs.Recorder.to_json Obs.Recorder.global));
        Fmt.pr "flight dump written to %s@." path)
      flight;
    Option.iter
      (fun path ->
        Obs.Trace.write path (Obs.Recorder.to_trace Obs.Recorder.global);
        Fmt.pr "flight trace written to %s@." path)
      trace;
    Option.iter
      (fun path -> emit_timelines ~out:path Obs.Recorder.global)
      timelines;
    emit e LG.doc (LG.to_json t) ~check:(fun baseline ->
        LG.check_against_baseline ~factor ~baseline t)
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "loadgen" ~doc)
    Cmdliner.Term.(
      const run $ jobs_arg $ queue_arg $ duration_arg $ seed_arg $ sweep_arg
      $ rate_arg $ max_requests_arg $ overhead_arg $ factor_arg $ flight_arg
      $ trace_arg $ tenants_arg $ tenant_cap_arg $ timelines_arg
      $ emit_term LG.doc ~json:[ "o"; "out" ]
          ~gate:
            "exit 1 when the normalized p99 (lowest-rate p99 / mean compile \
             time) exceeds the gate factor times the recorded one.")

(* --- serve --------------------------------------------------------- *)

let serve_cmd =
  let doc =
    "Start the live status server (stdlib HTTP/1.0: /metrics Prometheus \
     exposition, /healthz SLO verdict, /flight, /timelines, /tenants) \
     over a fresh metrics registry and flight recorder, then drive the \
     open-loop load generator through it as the first client.  After \
     the sweep the server probes its own endpoints, lints the \
     exposition, gates the per-request causal timelines, and keeps \
     serving for --linger seconds so external probes (the CI smoke) can \
     scrape a live process."
  in
  let addr_arg =
    Cmdliner.Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "addr" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let port_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 (default) lets the kernel pick.")
  in
  let port_file_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the actual bound port to $(docv) once listening — \
             how a --port 0 caller (the CI smoke) finds the server \
             without a port race.")
  in
  let unix_socket_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "unix-socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a unix-domain socket at $(docv) instead of TCP.")
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value
      & opt int 4
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the compile service.")
  in
  let queue_arg =
    Cmdliner.Arg.(
      value
      & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Compile queue capacity.")
  in
  let duration_arg =
    Cmdliner.Arg.(
      value
      & opt float 1.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Target duration of each loadgen rate step.")
  in
  let seed_arg =
    Cmdliner.Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Arrival-schedule seed.")
  in
  let sweep_arg =
    Cmdliner.Arg.(
      value
      & opt string "0.5,1"
      & info [ "rate-sweep" ] ~docv:"MULTS"
          ~doc:
            "Offered-rate multipliers for the driving sweep (gentle by \
             default so a healthy service reports a healthy SLO).")
  in
  let max_requests_arg =
    Cmdliner.Arg.(
      value
      & opt int 200
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Cap on the requests scheduled per rate step.")
  in
  let tenants_arg =
    Cmdliner.Arg.(
      value
      & opt int 4
      & info [ "tenants" ] ~docv:"N"
          ~doc:"Distinct tenants the loadgen submits as (round-robin).")
  in
  let tenant_cap_arg =
    Cmdliner.Arg.(
      value
      & opt int 0
      & info [ "tenant-cap" ] ~docv:"N"
          ~doc:"Per-tenant in-queue admission cap (0 = unlimited).")
  in
  let slo_threshold_arg =
    Cmdliner.Arg.(
      value
      & opt float 1.0
      & info [ "slo-latency" ] ~docv:"SECONDS"
          ~doc:
            "Latency objective threshold: 99% of compiles must finish \
             within $(docv) seconds.")
  in
  let timelines_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "timelines" ] ~docv:"FILE"
          ~doc:
            "Write the per-request causal timelines reconstructed from \
             the flight recorder (nullelim-timeline schema) to $(docv) \
             after the sweep.")
  in
  let linger_arg =
    Cmdliner.Arg.(
      value
      & opt float 0.
      & info [ "linger" ] ~docv:"SECONDS"
          ~doc:
            "Keep serving for $(docv) seconds after the sweep (negative \
             = until killed) so external clients can probe a live \
             process.")
  in
  let run addr port port_file unix_socket jobs queue duration seed sweep
      max_requests tenants tenant_cap slo_threshold timelines linger =
    let multipliers = multipliers_of ~sweep ~rate:None in
    let metrics = Obs.Metrics.create () in
    let recorder = Obs.Recorder.create ~capacity:65536 () in
    let slo =
      Obs.Slo.create metrics
        [
          Obs.Slo.latency ~name:"compile-latency"
            ~metric:"svc_compile_seconds" ~threshold:slo_threshold
            ~target:0.99;
          Obs.Slo.availability ~name:"availability"
            ~good:"svc_requests_completed_total"
            ~bad:"svc_requests_shed_total" ~target:0.99;
        ]
    in
    let routes = Status.obs_routes ~metrics ~recorder ~slo () in
    let srv =
      Status.serve ~addr ~port ?unix_path:unix_socket
        ~tick:(fun () -> Obs.Slo.tick slo)
        routes
    in
    let address = Status.address srv in
    Fmt.pr "serving on %s@." (Status.address_to_string address);
    (match (address, port_file) with
    | Status.Tcp (_, p), Some pf ->
      write_file pf (string_of_int p ^ "\n");
      Fmt.pr "port written to %s@." pf
    | Status.Unix_sock _, Some pf ->
      Fmt.epr "--port-file %s ignored (unix socket)@." pf
    | _, None -> ());
    let t =
      LG.sweep
        ~domains:(max 1 jobs)
        ~queue_capacity:queue ~duration ~seed ~multipliers ~max_requests
        ~tenants ~tenant_cap ~metrics ~recorder ()
    in
    Fmt.pr "@.%6s %7s %9s %5s %9s %9s@." "rate" "offered" "completed" "shed"
      "thru/s" "p99ms";
    List.iter
      (fun (r : LG.rate_row) ->
        Fmt.pr "%5.2fx %7d %9d %5d %9.2f %9.2f@." r.LG.lr_multiplier
          r.LG.lr_offered r.LG.lr_completed r.LG.lr_shed r.LG.lr_throughput
          r.LG.lr_p99_ms)
      t.LG.lg_rows;
    gate_or_die "loadgen" (LG.check_rows t.LG.lg_rows);
    if tenants > 1 then print_tenant_totals t.LG.lg_rows;
    (* the server's own endpoints, probed through a real socket *)
    (match Status.get address "/metrics" with
    | Ok (200, body) -> (
      match Obs.Export.lint body with
      | Ok () -> Fmt.pr "@.self-probe /metrics : 200, exposition lints clean@."
      | Error e ->
        Fmt.epr "/metrics exposition lint FAILED: %s@." e;
        exit 1)
    | Ok (s, _) ->
      Fmt.epr "/metrics returned %d@." s;
      exit 1
    | Error e ->
      Fmt.epr "/metrics probe failed: %s@." e;
      exit 1);
    (match Status.get address "/healthz" with
    | Ok (s, body) ->
      or_die
        (Result.map_error (( ^ ) "/healthz document invalid: ")
           (Result.bind (Json.of_string body) (Obs.Doc.validate Obs.Slo.doc)));
      Fmt.pr "self-probe /healthz : %d (%s valid)@." s
        (Obs.Doc.schema Obs.Slo.doc)
    | Error e ->
      Fmt.epr "/healthz probe failed: %s@." e;
      exit 1);
    (match Status.get address "/tenants" with
    | Ok (200, _) -> Fmt.pr "self-probe /tenants : 200@."
    | Ok (s, _) ->
      Fmt.epr "/tenants returned %d@." s;
      exit 1
    | Error e ->
      Fmt.epr "/tenants probe failed: %s@." e;
      exit 1);
    emit_timelines ?out:timelines recorder;
    if linger > 0. then begin
      Fmt.pr "lingering %.1f s for external probes@." linger;
      Unix.sleepf linger
    end
    else if linger < 0. then begin
      Fmt.pr "serving until killed@.";
      while true do
        Unix.sleepf 3600.
      done
    end;
    Status.stop srv
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "serve" ~doc)
    Cmdliner.Term.(
      const run $ addr_arg $ port_arg $ port_file_arg $ unix_socket_arg
      $ jobs_arg $ queue_arg $ duration_arg $ seed_arg $ sweep_arg
      $ max_requests_arg $ tenants_arg $ tenant_cap_arg $ slo_threshold_arg
      $ timelines_arg $ linger_arg)

(* --- timelines ----------------------------------------------------- *)

let timelines_cmd =
  let doc =
    "Slice a flight-recorder dump (nullelim-flight JSON, or a document \
     embedding one under a `flight' key) into per-request causal \
     timelines: enqueue -> dequeue -> done span sequences with queue \
     wait and service time attributed to each request's tenant."
  in
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Flight dump to slice.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the timeline document (nullelim-timeline schema).")
  in
  let check_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit 1 unless every completed request's timeline is \
             causally complete (vacuous if the dump reports dropped \
             events).")
  in
  let run path out check =
    let j = Obs.Doc.find Obs.Recorder.doc (or_die (Obs.Doc.read path)) in
    let events, dropped =
      or_die
        (Result.map_error
           (Printf.sprintf "%s: not a flight document: %s" path)
           (Obs.Recorder.events_of_json j))
    in
    let tls = Obs.Timeline.of_events events in
    let count p =
      List.length (List.filter (fun tl -> Obs.Timeline.phase tl = p) tls)
    in
    Fmt.pr
      "%d events -> %d requests: %d completed, %d shed, %d in flight \
       (%d events dropped)@."
      (List.length events) (List.length tls)
      (count Obs.Timeline.Completed)
      (count Obs.Timeline.Shed)
      (count Obs.Timeline.Inflight)
      dropped;
    Fmt.pr "@.%8s %7s %10s %10s %10s %10s@." "request" "tenant" "phase"
      "wait_ms" "svc_ms" "total_ms";
    List.iter
      (fun (tl : Obs.Timeline.t) ->
        let ms = function
          | Some s -> Printf.sprintf "%.2f" (1000. *. s)
          | None -> "-"
        in
        Fmt.pr "%8d %7d %10s %10s %10s %10s@." tl.Obs.Timeline.tl_request
          tl.Obs.Timeline.tl_tenant
          (Obs.Timeline.phase_name (Obs.Timeline.phase tl))
          (ms (Obs.Timeline.queue_wait tl))
          (ms (Obs.Timeline.service_time tl))
          (ms (Obs.Timeline.total_latency tl)))
      tls;
    (if check then
       match Obs.Timeline.check_complete ~dropped tls with
       | Ok () -> Fmt.pr "@.causal completeness: OK@."
       | Error e ->
         Fmt.epr "@.causal completeness FAILED: %s@." e;
         exit 1);
    write_timelines ~dropped tls out
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "timelines" ~doc)
    Cmdliner.Term.(const run $ file_arg $ out_arg $ check_arg)

(* --- lint-exposition ----------------------------------------------- *)

let lint_exposition_cmd =
  let doc =
    "Lint a Prometheus text-exposition file (as served by /metrics): \
     every sample needs a # TYPE, histogram buckets must be cumulative \
     with the le=\"+Inf\" bucket equal to _count, counters must be \
     non-negative."
  in
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Exposition text to lint.")
  in
  let run path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    match Obs.Export.lint text with
    | Ok () -> Fmt.pr "%s: OK@." path
    | Error e ->
      Fmt.epr "%s: %s@." path e;
      exit 1
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "lint-exposition" ~doc)
    Cmdliner.Term.(const run $ file_arg)

(* --- validate-json ------------------------------------------------- *)

let validate_json_cmd =
  let doc =
    "Validate a telemetry JSON file by its own `schema' string: any \
     registered nullelim-* document, a nullelim-bench/1 container (every \
     member that carries a schema is checked), or a Chrome trace-event \
     file."
  in
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSON file to validate.")
  in
  let run path =
    match Nullelim_experiments.Docs.validate (or_die (Obs.Doc.read path)) with
    | Ok checked -> Fmt.pr "%s: OK (%s)@." path (String.concat ", " checked)
    | Error e ->
      Fmt.epr "%s: invalid: %s@." path e;
      exit 1
  in
  Cmdliner.Cmd.v (Cmdliner.Cmd.info "validate-json" ~doc)
    Cmdliner.Term.(const run $ file_arg)

let () =
  let doc = "null-check elimination reproduction (ASPLOS 2000)" in
  let info = Cmdliner.Cmd.info "nullelim" ~doc in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [
            list_cmd; list_configs_cmd; run_cmd; dump_cmd; verify_cmd; profile_cmd;
            batch_cmd; tiered_cmd; fuzz_cmd; native_bench_cmd; loadgen_cmd;
            serve_cmd; timelines_cmd; lint_exposition_cmd; validate_json_cmd;
          ]))
