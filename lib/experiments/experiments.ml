(** The experiment engine: regenerates every table and figure of the
    paper's evaluation (Section 5).  The benchmark executable formats the
    data this module produces; the test suite checks its shape
    properties.

    Units:
    - jBYTEmark scores are reported as an index = 1e9 / simulated cycles
      (larger is better, like the paper's per-kernel indices);
    - SPECjvm98 scores are seconds = simulated cycles / the architecture's
      clock (smaller is better);
    - compilation times are host wall-clock seconds of our optimizer,
      measured over repeated compilations for stability. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Interp = Nullelim_vm.Interp
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

type cell = { config : string; value : float }
type row = { workload : string; cells : cell list }

let cell_value row config =
  match List.find_opt (fun c -> c.config = config) row.cells with
  | Some c -> c.value
  | None -> invalid_arg ("no cell for config " ^ config)

(* ------------------------------------------------------------------ *)
(* Execution measurements                                              *)
(* ------------------------------------------------------------------ *)

let run_cycles ~(arch : Arch.t) (cfg : Config.t) (w : W.t) ~scale : int =
  let prog = w.W.build ~scale in
  let compiled = Compiler.compile cfg ~arch prog in
  let r = Interp.run ~fuel:1_000_000_000 ~arch compiled.Compiler.program [] in
  (match r.Interp.outcome with
  | Interp.Returned (Some _) -> ()
  | o ->
    failwith
      (Fmt.str "%s/%s/%s: %a" w.W.name cfg.Config.name arch.Arch.name
         Interp.pp_outcome o));
  r.Interp.counters.Interp.cycles

let jbyte_index cycles = 1e9 /. float_of_int cycles
let spec_seconds ~(arch : Arch.t) cycles =
  float_of_int cycles /. (arch.Arch.clock_mhz *. 1e6)

let score_table ~(arch : Arch.t) ~(configs : Config.t list)
    ~(metric : int -> float) ~(workloads : W.t list) ~scale : row list =
  List.map
    (fun w ->
      let cells =
        List.map
          (fun cfg ->
            { config = cfg.Config.name;
              value = metric (run_cycles ~arch cfg w ~scale) })
          configs
      in
      { workload = w.W.name; cells })
    workloads

(** Table 1: jBYTEmark on IA32/Windows, all six configurations. *)
let table1 ~scale : row list =
  score_table ~arch:Arch.ia32_windows ~configs:Config.windows_suite
    ~metric:jbyte_index
    ~workloads:(Registry.jbytemark ())
    ~scale

(** Table 2: SPECjvm98 on IA32/Windows (seconds). *)
let table2 ~scale : row list =
  score_table ~arch:Arch.ia32_windows ~configs:Config.windows_suite
    ~metric:(spec_seconds ~arch:Arch.ia32_windows)
    ~workloads:(Registry.specjvm ())
    ~scale

(** Table 6: jBYTEmark on AIX/PowerPC, the four Section-5.4 configs. *)
let table6 ~scale : row list =
  score_table ~arch:Arch.ppc_aix ~configs:Config.aix_suite
    ~metric:jbyte_index
    ~workloads:(Registry.jbytemark ())
    ~scale

(** Table 7: SPECjvm98 on AIX/PowerPC. *)
let table7 ~scale : row list =
  score_table ~arch:Arch.ppc_aix ~configs:Config.aix_suite
    ~metric:(spec_seconds ~arch:Arch.ppc_aix)
    ~workloads:(Registry.specjvm ())
    ~scale

(** Figures 8/9/14/15: percentage improvement of each configuration over
    a baseline configuration.  [higher_better] selects the direction
    (index vs. seconds). *)
let improvements ~(baseline : string) ~(higher_better : bool) (rows : row list)
    : row list =
  List.map
    (fun r ->
      let base = cell_value r baseline in
      let cells =
        List.filter_map
          (fun c ->
            if c.config = baseline then None
            else
              let pct =
                if higher_better then (c.value /. base -. 1.) *. 100.
                else (base /. c.value -. 1.) *. 100.
              in
              Some { c with value = pct })
          r.cells
      in
      { r with cells })
    rows

(** Figures 10/11: relative performance of our full JIT vs the
    HotSpot-model comparator (>1 means ours is faster). *)
let versus_hotspot ~(higher_better : bool) (rows : row list) : row list =
  List.map
    (fun r ->
      let ours = cell_value r "new-phase1+2" in
      let hs = cell_value r "hotspot-model" in
      let ratio = if higher_better then ours /. hs else hs /. ours in
      { workload = r.workload; cells = [ { config = "ours/hotspot"; value = ratio } ] })
    rows

(* ------------------------------------------------------------------ *)
(* Compilation-time measurements (Tables 3, 4, 5; Figures 12, 13)      *)
(* ------------------------------------------------------------------ *)

(** Compile repeatedly until at least [min_seconds] of accumulated work,
    and return per-compile averages: (total, nullcheck_time, other_time). *)
let measure_compile ?(min_seconds = 0.05) (cfg : Config.t) ~arch (w : W.t)
    ~scale : float * float * float =
  let prog = w.W.build ~scale in
  let total = ref 0. and nc = ref 0. and other = ref 0. in
  let reps = ref 0 in
  while !total < min_seconds || !reps < 3 do
    let c = Compiler.compile cfg ~arch prog in
    total := !total +. Compiler.nullcheck_time c +. Compiler.other_time c;
    nc := !nc +. Compiler.nullcheck_time c;
    other := !other +. Compiler.other_time c;
    incr reps
  done;
  let n = float_of_int !reps in
  (!total /. n, !nc /. n, !other /. n)

(** [repeat] independent compile-time samples (each itself a
    [measure_compile]-stabilized average), for min/median reporting —
    single-shot compile times are too noisy to gate anything on. *)
let compile_samples ?(repeat = 3) (cfg : Config.t) ~arch (w : W.t) ~scale :
    float list =
  List.init (max 1 repeat) (fun _ ->
      let t, _, _ = measure_compile cfg ~arch w ~scale in
      t)

let fmin = function [] -> nan | x :: xs -> List.fold_left min x xs

let fmedian l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.

type compile_row = {
  cw_name : string;
  first_run : float; (** compile (median) + best run, seconds *)
  best_run : float;
  compile_time : float;   (** median over the repeat samples *)
  compile_min : float;
  compile_median : float;
}

(** Table 3 / Figure 12: first run, best run, compilation time for one
    configuration on the SPECjvm98 programs. *)
let table3 ?(repeat = 3) ~(cfg : Config.t) ~scale () : compile_row list =
  let arch = Arch.ia32_windows in
  List.map
    (fun w ->
      let samples = compile_samples ~repeat cfg ~arch w ~scale in
      let compile_time = fmedian samples in
      let cycles = run_cycles ~arch cfg w ~scale in
      let best = spec_seconds ~arch cycles in
      {
        cw_name = w.W.name;
        first_run = best +. compile_time;
        best_run = best;
        compile_time;
        compile_min = fmin samples;
        compile_median = compile_time;
      })
    (Registry.specjvm ())

type breakdown_row = {
  bw_name : string;
  new_nullcheck : float;
  new_other : float;
  old_nullcheck : float;
  old_other : float;
}

(** Table 4 / Figure 13: breakdown of compilation time, new vs old
    null-check algorithm.  The paper merges db+compress+mpegaudio and
    reports jBYTEmark as one row; we do the same. *)
let table4 ~scale : breakdown_row list =
  let arch = Arch.ia32_windows in
  let groups =
    [
      ("mtrt", [ "mtrt" ]);
      ("jess", [ "jess" ]);
      ("db+compress+mpegaudio", [ "db"; "compress"; "mpegaudio" ]);
      ("jack", [ "jack" ]);
      ("javac", [ "javac" ]);
      ("jBYTEmark", List.map (fun w -> w.W.name) (Registry.jbytemark ()));
    ]
  in
  List.map
    (fun (label, names) ->
      let sum cfg =
        List.fold_left
          (fun (nc0, ot0) name ->
            let w = Option.get (Registry.find name) in
            let _, nc, ot = measure_compile cfg ~arch w ~scale in
            (nc0 +. nc, ot0 +. ot))
          (0., 0.) names
      in
      let new_nc, new_ot = sum Config.new_full in
      let old_nc, old_ot = sum Config.old_null_check in
      {
        bw_name = label;
        new_nullcheck = new_nc;
        new_other = new_ot;
        old_nullcheck = old_nc;
        old_other = old_ot;
      })
    groups

(** Table 5: increase in total compilation time, new vs old. *)
let table5 (rows : breakdown_row list) :
    (string * float * float) list (* name, delta seconds, delta % *) =
  List.map
    (fun r ->
      let new_total = r.new_nullcheck +. r.new_other in
      let old_total = r.old_nullcheck +. r.old_other in
      ( r.bw_name,
        new_total -. old_total,
        (new_total /. old_total -. 1.) *. 100. ))
    rows

(* ------------------------------------------------------------------ *)
(* Static check statistics (supplementary)                             *)
(* ------------------------------------------------------------------ *)

type check_row = {
  sw_name : string;
  raw : int;
  explicit_static : int;
  implicit_static : int;
  explicit_dynamic : int;
  implicit_dynamic : int;
}

(** How many checks remain (statically and dynamically) under a config. *)
let check_stats ~(arch : Arch.t) (cfg : Config.t) ~scale : check_row list =
  List.map
    (fun w ->
      let prog = w.W.build ~scale in
      let c = Compiler.compile cfg ~arch prog in
      let r = Interp.run ~fuel:1_000_000_000 ~arch c.Compiler.program [] in
      {
        sw_name = w.W.name;
        raw = c.Compiler.checks.Compiler.raw_checks;
        explicit_static = c.Compiler.checks.Compiler.explicit_after;
        implicit_static = c.Compiler.checks.Compiler.implicit_after;
        explicit_dynamic = r.Interp.counters.Interp.explicit_checks;
        implicit_dynamic = r.Interp.counters.Interp.implicit_checks;
      })
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

(** The paper's Figure 2 claims the power of phase 1 comes from being
    {e iterated} with bound-check optimization and scalar replacement
    ("In previous approaches, scalar replacement is iterated in itself.
    In our approach, however, phase 1 is iterated with other
    optimizations, providing a powerful optimization effect").  This
    ablation varies the iteration count of the full configuration, plus
    switches inlining off (the enabler of the mtrt result).  Cycles,
    smaller is better. *)
let ablation ~scale : row list =
  let arch = Arch.ia32_windows in
  let variants =
    [
      ("full (4 iters)", Config.new_full);
      ("2 iterations", { Config.new_full with name = "iters2"; iterations = 2 });
      ("1 iteration", { Config.new_full with name = "iters1"; iterations = 1 });
      ("no inlining", { Config.new_full with name = "noinline"; inline = false });
      ( "no simplify/arrays",
        { Config.new_full with name = "weakarr"; weak_arrays = true } );
    ]
  in
  let interesting = [ "assignment"; "lu-decomposition"; "neural-net"; "mtrt" ] in
  List.map
    (fun name ->
      let w = Option.get (Registry.find name) in
      let cells =
        List.map
          (fun (label, cfg) ->
            { config = label;
              value = float_of_int (run_cycles ~arch cfg w ~scale) })
          variants
      in
      { workload = name; cells })
    interesting

(* ------------------------------------------------------------------ *)
(* One compile's pass table ([nullelim run --stats])                   *)
(* ------------------------------------------------------------------ *)

(** Per-pass table: wall time, minor-heap words and solver work summed
    under each pass name, from the compile's pass records; then the
    decision-log summary and whether it reconciles. *)
let pp_pass_stats ppf (compiled : Compiler.compiled) =
  let module Pipeline = Nullelim_opt.Pipeline in
  let module Solver = Nullelim_dataflow.Solver in
  Fmt.pf ppf "@.%-24s %5s %10s %11s %8s %8s %10s %8s@." "pass" "runs"
    "seconds" "minor_words" "solves" "visits" "transfers" "pushes";
  let row name runs secs words (s : Solver.stats) =
    Fmt.pf ppf "%-24s %5s %10.4f %11d %8d %8d %10d %8d@." name runs secs words
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
  Fmt.pf ppf "@.decisions (%d events):@."
    (List.length compiled.Compiler.decisions);
  List.iter
    (fun (action, n) -> Fmt.pf ppf "  %-24s %6d@." action n)
    (Nullelim_obs.Decision.summary compiled.Compiler.decisions);
  match Compiler.reconcile compiled with
  | Ok () -> Fmt.pf ppf "  log reconciles with check stats@."
  | Error e -> Fmt.pf ppf "  WARNING: %s@." e
