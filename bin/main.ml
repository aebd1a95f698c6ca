(** nullelim CLI: one Cmdliner term per command.  Each command parses
    its flags, calls one library entry point, prints what it returns
    and maps the result to an exit code. *)

open Nullelim
open Cmdliner
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry
module X = Nullelim_experiments
module PR = X.Profile_report
module SS = X.Steady_state
module LG = X.Loadgen
module NB = X.Native_bench

(* --- flag helpers ----------------------------------------------------- *)

let opt c default names ~docv ~doc =
  Arg.(value & opt c default & info names ~docv ~doc)

let opt_file names ~doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let flag names ~doc = Arg.(value & flag & info names ~doc)

let by_name what find name_of =
  let parse s =
    match find s with
    | Some x -> Ok x
    | None -> Error (`Msg (Printf.sprintf "unknown %s: %s" what s))
  in
  Arg.conv (parse, fun ppf x -> Fmt.string ppf (name_of x))

let arch_arg =
  opt
    (by_name "architecture" Arch.by_name (fun a -> a.Arch.name))
    Arch.ia32_windows [ "a"; "arch" ] ~docv:"ARCH"
    ~doc:"Target architecture: ia32-windows, ppc-aix, sparc, no-trap."

let config_arg =
  opt
    (by_name "config" Config.by_name (fun c -> c.Config.name))
    Config.new_full [ "c"; "config" ] ~docv:"CONFIG"
    ~doc:
      "JIT configuration (see `nullelim list-configs'); default \
       new-phase1+2."

let scale_arg =
  opt Arg.int 1 [ "s"; "scale" ] ~docv:"N" ~doc:"Workload scale factor."

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `nullelim list').")

let file_pos ~doc =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let find_workload name =
  match Registry.find name with
  | Some w -> w
  | None ->
    Fmt.epr "unknown workload %s; try `nullelim list'@." name;
    exit 2

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
  Term.(
    const (fun e_json e_merge e_baseline e_write_baseline ->
        { e_json; e_merge; e_baseline; e_write_baseline })
    $ opt_file json ~doc:("Also write " ^ what ^ " to $(docv).")
    $ opt_file [ "merge" ]
        ~doc:
          (Printf.sprintf
             "Merge %s into an existing bench report (e.g. \
              BENCH_results.json) under the `%s' key, creating the file if \
              absent."
             what (Obs.Doc.name doc))
    $ opt
        Arg.(some file)
        None [ "baseline" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Check the fresh run against a committed baseline (its `%s' \
              member if present): %s"
             (Obs.Doc.name doc) gate)
    $ opt_file [ "write-baseline" ]
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

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc) term

(* --- list / list-configs ---------------------------------------------- *)

let list_cmd =
  cmd "list" ~doc:"List available workloads."
    Term.(
      const (fun () ->
          List.iter
            (fun (w : W.t) ->
              Fmt.pr "%-18s %-10s %s@." w.W.name
                (match w.W.suite with
                | W.Jbytemark -> "jBYTEmark"
                | W.Specjvm -> "SPECjvm98")
                w.W.description)
            (Registry.all ()))
      $ const ())

let list_configs_cmd =
  cmd "list-configs" ~doc:"List JIT configurations."
    Term.(
      const (fun () ->
          List.iter
            (fun (c : Config.t) -> Fmt.pr "%s@." c.Config.name)
            (Config.windows_suite @ Config.aix_suite))
      $ const ())

(* --- run -------------------------------------------------------------- *)

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
    let prof = if profile then Some (Obs.Profile.create ()) else None in
    let compiled = Compiler.compile cfg ~arch prog in
    let t0 = Obs.Clock.now () in
    let r =
      match backend with
      | `Native -> run_native_or_fallback ~arch compiled
      | `Interp -> Interp.run ?profile:prof ~arch compiled.Compiler.program []
    in
    let t1 = Obs.Clock.now () in
    Option.iter
      (fun path ->
        let run_span =
          {
            Obs.Trace.ev_name = "run";
            ev_cat = "run";
            ev_ts_us = (t0 -. compiled.Compiler.compile_start) *. 1e6;
            ev_dur_us = (t1 -. t0) *. 1e6;
            ev_args = [ ("main", Obs.Json.Str prog.Ir.prog_main) ];
          }
        in
        Obs.Trace.write path (Compiler.trace compiled @ [ run_span ]);
        Fmt.pr "trace written to %s@." path)
      trace;
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
    Option.iter
      (fun p ->
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
        or_die
          (Result.map_error (( ^ ) "profile reconciliation FAILED: ")
             (PR.reconcile pr));
        Fmt.pr "profile reconciles with interpreter counters@.")
      prof;
    if stats then Fmt.pr "%a" X.Experiments.pp_pass_stats compiled
  in
  cmd "run" ~doc:"Compile and run a workload, printing counters and checksum."
    Term.(
      const run $ arch_arg $ config_arg $ scale_arg
      $ opt_file [ "trace" ]
          ~doc:
            "Write a Chrome trace-event file (chrome://tracing, \
             ui.perfetto.dev): a compile span holding one span per \
             optimizer pass, then a span for the execution."
      $ flag [ "stats" ]
          ~doc:
            "Print the per-pass timing and data-flow solver work table and \
             the decision-log summary after running."
      $ flag [ "profile" ]
          ~doc:
            "Collect the per-site dynamic profile during the run and print \
             the per-site check table, loop hotness and reconciliation \
             status."
      $ opt
          Arg.(enum [ ("interp", `Interp); ("native", `Native) ])
          `Interp [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Execution engine: interp (simulating interpreter, default) or \
             native (emitted C, real hardware traps; falls back to interp \
             with a warning where unsupported)."
      $ workload_arg)

(* --- native-bench ----------------------------------------------------- *)

let native_bench_cmd =
  let run arch iters traps json =
    let member =
      match NB.collect ~iters ~traps ~arch () with
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
  cmd "native-bench"
    ~doc:
      "Measure real trap costs through the native backend (best of three \
       runs): explicit-check, implicit-check and trap-recovery nanoseconds \
       (EXPERIMENTS.md \"Measured trap costs\")."
    Term.(
      const run $ arch_arg
      $ opt Arg.int 500_000 [ "iters" ] ~docv:"N"
          ~doc:"Chase-loop iterations per kernel (8 checks each)."
      $ opt Arg.int 2_000 [ "traps" ] ~docv:"N"
          ~doc:"SIGSEGV recoveries driven by the recovery kernel."
      $ opt_file [ "json" ]
          ~doc:"Write the nullelim-native-bench/1 document to $(docv).")

(* --- dump / verify ---------------------------------------------------- *)

let dump_cmd =
  let run arch cfg scale raw name =
    let prog = (find_workload name).W.build ~scale in
    let prog =
      if raw then prog else (Compiler.compile cfg ~arch prog).Compiler.program
    in
    Fmt.pr "%a@." Ir_pp.pp_program prog
  in
  cmd "dump" ~doc:"Dump a workload's IR, raw or after a configuration."
    Term.(
      const run $ arch_arg $ config_arg $ scale_arg
      $ flag [ "raw" ] ~doc:"Dump unoptimized IR."
      $ workload_arg)

let verify_cmd =
  let run arch cfg scale name =
    let prog = (find_workload name).W.build ~scale in
    let compiled = Compiler.compile cfg ~arch prog in
    match Verify.verify_program ~arch compiled.Compiler.program with
    | [] -> Fmt.pr "OK: no violations@."
    | vs ->
      List.iter (fun vi -> Fmt.pr "%a@." Verify.pp_violation vi) vs;
      exit 1
  in
  cmd "verify"
    ~doc:"Compile a workload and verify the implicit-check soundness contract."
    Term.(const run $ arch_arg $ config_arg $ scale_arg $ workload_arg)

(* --- profile ---------------------------------------------------------- *)

let out_arg default =
  opt Arg.string default [ "o"; "out" ] ~docv:"FILE"
    ~doc:"Markdown report output path."

let profile_cmd =
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
  cmd "profile"
    ~doc:
      "Profile every registry workload under the \
       baseline/whaley/phase1/full configurations: per-site dynamic check \
       tables, loop hotness, and the paper-style dynamic-elimination \
       percentages (Figures 7-8).  Every run is reconciled against the \
       aggregate interpreter counters before anything is emitted."
    Term.(
      const run $ arch_arg $ scale_arg $ out_arg "PROFILE_report.md"
      $ emit_term PR.dynamic_doc
          ~gate:
            "exit 1 if any workload x config executes more dynamic null \
             checks than recorded.")

(* --- batch ------------------------------------------------------------ *)

let batch_cmd =
  let run arch scale jobs repeat cache =
    let b = X.Batch.run ~jobs ~repeat ~cache ~scale ~arch () in
    Fmt.pr "%a" X.Batch.pp b;
    or_die (X.Batch.check b)
  in
  cmd "batch"
    ~doc:
      "Compile the whole workload registry across all of the \
       architecture's configurations in parallel on a pool of OCaml \
       domains, optionally through the content-addressed code cache, and \
       print throughput plus cache statistics.  Every result's decision \
       log is reconciled against its check statistics, and with the \
       cache on and no evictions every distinct job key must have been \
       compiled exactly once (misses = distinct keys)."
    Term.(
      const run $ arch_arg $ scale_arg
      $ opt Arg.int 0 [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains; 0 picks a machine-appropriate default \
             (recommended domain count - 1, clamped to 1..8)."
      $ opt Arg.int 1 [ "r"; "repeat" ] ~docv:"K"
          ~doc:
            "Submit the whole job matrix $(docv) times; with the cache \
             on, repeats after the first are served from it."
      $ Arg.(
          value
          & vflag true
              [
                (true, info [ "cache" ] ~doc:"Use the compiled-code cache (default).");
                (false, info [ "no-cache" ] ~doc:"Compile every job from scratch.");
              ]))

(* --- tiered ----------------------------------------------------------- *)

let tiered_cmd =
  let run arch jobs runs promote_calls out e =
    let rows, fd = or_die (SS.run ~jobs ~promote_calls ~runs ~arch ()) in
    write_file out (SS.report_md rows fd);
    Fmt.pr "markdown report written to %s@." out;
    Fmt.pr "@.%a" SS.pp_summary (rows, fd);
    let mode = if jobs > 0 then "async" else "sync" in
    emit e SS.doc (SS.tiered_json ~mode rows fd) ~check:(fun baseline ->
        SS.check_against_baseline ~baseline rows)
  in
  cmd "tiered"
    ~doc:
      "Steady-state benchmark of the tiered execution manager over every \
       registry workload: each program starts at tier 0 (instant compile, \
       every null check explicit), hit counters promote hot functions to \
       the full phase1+2 pipeline, and the report records time-to-peak, \
       executed explicit checks per call at tier 0 versus steady state, \
       and recompile latency.  A forced-trap scenario additionally proves \
       that deoptimization re-materializes exactly the offending site.  \
       Every tier's decision log is reconciled before anything is emitted."
    Term.(
      const run $ arch_arg
      $ opt Arg.int 0 [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Recompile asynchronously on $(docv) worker domains while \
             execution continues (mode `async').  0 compiles at the \
             submission point on the serving thread (mode `sync', \
             deterministic counters -- what the committed baseline \
             records)."
      $ opt Arg.int SS.default_runs [ "runs" ] ~docv:"N"
          ~doc:
            "Tiered runs per workload.  Promotion fires once a \
             function's call count crosses the threshold, so $(docv) \
             must exceed it for the steady state to be reached."
      $ opt Arg.int 0 [ "promote-calls" ] ~docv:"N"
          ~doc:
            "Override the promotion threshold (calls before tier-2 \
             recompilation).  0 keeps the configuration default; CI \
             smoke runs lower it together with --runs."
      $ out_arg "TIERED_report.md"
      $ emit_term SS.doc
          ~gate:
            "exit 1 on any steady-state check regression or any \
             promotion/deopt counter drift.")

(* --- fuzz ------------------------------------------------------------- *)

let fuzz_cmd =
  let run arch seed count jobs mutate out =
    let r = Fuzz.run ~arch ~jobs ~mutate ~seed ~count () in
    Option.iter
      (fun path ->
        or_die (Obs.Doc.write Fuzz_report.doc path (Fuzz_report.to_json r)))
      out;
    Fmt.pr "%a" Fuzz.pp r;
    Option.iter (Fmt.pr "report       : %s@.") out;
    Fmt.epr "%a" Fuzz.pp_failures r;
    Option.iter (Fmt.pr "%s@.") (or_die (Fuzz.verdict r))
  in
  cmd "fuzz"
    ~doc:
      "Generate a corpus of seeded random IR programs and run the full \
       differential oracle set over each one: strict input validation, \
       per-configuration compile + verify + decision-log reconciliation, \
       observable behaviour against the raw program, worklist-versus-\
       reference solver identity, baseline profile-count consistency and \
       (with a worker pool) serial-versus-parallel artifact identity.  \
       Failures are shrunk to minimal reproducers and the run is written \
       as a nullelim-fuzz/1 JSON report."
    Term.(
      const run $ arch_arg
      $ opt Arg.int 42 [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master corpus seed; each program gets its own derived seed, \
             recorded in failure rows so one program can be regenerated \
             in isolation."
      $ opt Arg.int 200 [ "n"; "count" ] ~docv:"N" ~doc:"Number of programs."
      $ opt Arg.int 0 [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel-compile differential; 0 \
             (default) runs the serial oracles only."
      $ flag [ "mutate" ]
          ~doc:
            "Self-test: weaken the phase-2 kill rule (Print stops acting \
             as a barrier) for the whole run and $(b,expect) the oracles \
             to catch it — the exit status is inverted, failing only if \
             every program still passes."
      $ opt_file [ "o"; "out" ]
          ~doc:"Write the nullelim-fuzz/1 JSON report to $(docv).")

(* --- loadgen / serve -------------------------------------------------- *)

(* the sweep flags loadgen and serve share *)
let load_term =
  let multipliers =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (LG.parse_multipliers s)),
        Fmt.(list ~sep:(any ",") float) )
  in
  Term.(
    const
      (fun
        ld_jobs
        ld_duration
        ld_seed
        ld_multipliers
        ld_max_requests
        ld_tenants
        ld_tenant_cap
      ->
        {
          LG.ld_jobs;
          ld_duration;
          ld_seed;
          ld_multipliers;
          ld_max_requests;
          ld_tenants;
          ld_tenant_cap;
        })
    $ opt Arg.int 0 [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the compile service (0 = the default pool \
           size)."
    $ opt Arg.float 2.0 [ "duration" ] ~docv:"SECONDS"
        ~doc:"Target duration of each rate step."
    $ opt Arg.int 42 [ "seed" ] ~docv:"N"
        ~doc:"Seed for the exponential arrival schedule."
    $ opt multipliers [ 0.25; 0.5; 1.; 2.; 4. ] [ "rate-sweep" ] ~docv:"MULTS"
        ~doc:
          "Comma-separated offered-rate multipliers of the calibrated \
           single-domain capacity, swept in increasing order."
    $ opt Arg.int 400 [ "max-requests" ] ~docv:"N"
        ~doc:"Cap on the requests scheduled per rate step."
    $ opt Arg.int 1 [ "tenants" ] ~docv:"N"
        ~doc:
          "Submit requests round-robin as $(docv) distinct tenants; \
           per-tenant metrics, flight-event contexts and closed \
           accounting are reported per rate step."
    $ opt Arg.int 0 [ "tenant-cap" ] ~docv:"N"
        ~doc:
          "Per-tenant in-queue admission cap; a tenant already holding \
           $(docv) queued requests has further arrivals shed with reason \
           `tenant_cap'.  0 = unlimited.")

let timelines_arg =
  opt_file [ "timelines" ]
    ~doc:
      "Write the per-request causal timelines sliced from the flight \
       recorder after the sweep (nullelim-timeline schema) to $(docv).  \
       Their causal completeness is gated with or without this flag."

let loadgen_cmd =
  let run load overhead flight flight_trace timelines e =
    let t =
      or_die
        (LG.run Fmt.stdout ~overhead ?flight ?flight_trace ?timelines load)
    in
    emit e LG.doc (LG.to_json t) ~check:(fun baseline ->
        LG.check_against_baseline ~baseline t)
  in
  cmd "loadgen"
    ~doc:
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
    Term.(
      const run $ load_term
      $ flag [ "overhead" ]
          ~doc:
            "Also measure the flight recorder's overhead: ns per \
             recorded event and the enabled-vs-disabled delta on a \
             steady-state tiered loop."
      $ opt_file [ "flight" ]
          ~doc:
            "Dump the global flight recorder (nullelim-flight schema) \
             after the sweep — request lifecycle (each enqueue with \
             the queue depth) and cache traffic of the final rate steps."
      $ opt_file [ "flight-trace" ]
          ~doc:
            "Convert the retained flight events to a Chrome trace-event \
             file (chrome://tracing, ui.perfetto.dev)."
      $ timelines_arg
      $ emit_term LG.doc ~json:[ "o"; "out" ]
          ~gate:
            "exit 1 when the normalized p99 (lowest-rate p99 / mean compile \
             time) exceeds 3 times the recorded one.")

let serve_cmd =
  let run addr port port_file unix_socket linger load timelines =
    or_die
      (X.Serve.run Fmt.stdout ~addr ~port ?port_file ?unix_socket ?timelines
         ~linger load)
  in
  cmd "serve"
    ~doc:
      "Start the live status server (stdlib HTTP/1.0: /metrics Prometheus \
       exposition, /healthz SLO verdict, /flight, /timelines, /tenants) \
       over a fresh metrics registry and flight recorder, then drive the \
       open-loop load generator through it as the first client (the \
       loadgen sweep flags apply).  After the sweep the server probes its \
       own endpoints, lints the exposition, gates the per-request causal \
       timelines, and keeps serving for --linger seconds so external \
       probes (the CI smoke) can scrape a live process."
    Term.(
      const run
      $ opt Arg.string "127.0.0.1" [ "addr" ] ~docv:"HOST"
          ~doc:"Address to bind."
      $ opt Arg.int 0 [ "port" ] ~docv:"PORT"
          ~doc:"TCP port; 0 (default) lets the kernel pick."
      $ opt_file [ "port-file" ]
          ~doc:
            "Write the actual bound port to $(docv) once listening — \
             how a --port 0 caller (the CI smoke) finds the server \
             without a port race."
      $ opt Arg.(some string) None [ "unix-socket" ] ~docv:"PATH"
          ~doc:"Listen on a unix-domain socket at $(docv) instead of TCP."
      $ opt Arg.float 0. [ "linger" ] ~docv:"SECONDS"
          ~doc:
            "Keep serving for $(docv) seconds after the sweep (negative \
             = until killed) so external clients can probe a live \
             process."
      $ load_term $ timelines_arg)

(* --- timelines -------------------------------------------------------- *)

let timelines_cmd =
  let run path out check =
    or_die (X.Timelines.run Fmt.stdout ~check ?out path)
  in
  cmd "timelines"
    ~doc:
      "Slice a flight-recorder dump (nullelim-flight JSON, or a document \
       embedding one under a `flight' key) into per-request causal \
       timelines: enqueue -> dequeue -> done span sequences with queue \
       wait and service time attributed to each request's tenant."
    Term.(
      const run
      $ file_pos ~doc:"Flight dump to slice."
      $ opt_file [ "o"; "out" ]
          ~doc:"Write the timeline document (nullelim-timeline schema)."
      $ flag [ "check" ]
          ~doc:
            "Exit 1 unless every completed request's timeline is \
             causally complete (after dropped events, the spans that \
             remain must still be in causal order).")

(* --- lint-exposition / validate-json ---------------------------------- *)

let lint_exposition_cmd =
  let run path =
    let text = In_channel.with_open_bin path In_channel.input_all in
    or_die (Result.map_error (Printf.sprintf "%s: %s" path) (Obs.Export.lint text));
    Fmt.pr "%s: OK@." path
  in
  cmd "lint-exposition"
    ~doc:
      "Lint a Prometheus text-exposition file (as served by /metrics): \
       every sample needs a # TYPE, histogram buckets must be cumulative \
       with the le=\"+Inf\" bucket equal to _count, counters must be \
       non-negative."
    Term.(const run $ file_pos ~doc:"Exposition text to lint.")

let validate_json_cmd =
  let run path =
    let checked =
      or_die
        (Result.map_error (Printf.sprintf "%s: invalid: %s" path)
           (X.Docs.validate (or_die (Obs.Doc.read path))))
    in
    Fmt.pr "%s: OK (%s)@." path (String.concat ", " checked)
  in
  cmd "validate-json"
    ~doc:
      "Validate a telemetry JSON file by its own `schema' string: any \
       registered nullelim-* document, a nullelim-bench/1 container (every \
       member that carries a schema is checked), or a Chrome trace-event \
       file."
    Term.(const run $ file_pos ~doc:"JSON file to validate.")

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "nullelim"
             ~doc:"null-check elimination reproduction (ASPLOS 2000)")
          [
            list_cmd; list_configs_cmd; run_cmd; dump_cmd; verify_cmd;
            profile_cmd; batch_cmd; tiered_cmd; fuzz_cmd; native_bench_cmd;
            loadgen_cmd; serve_cmd; timelines_cmd; lint_exposition_cmd;
            validate_json_cmd;
          ]))
