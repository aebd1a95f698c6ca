(** Public façade of the null-check-elimination library.

    {b nullelim} reproduces "Effective Null Pointer Check Elimination
    Utilizing Hardware Trap" (Kawahito, Komatsu, Nakatani — ASPLOS 2000).
    The modules below are aliases for the underlying libraries; see
    DESIGN.md for the system inventory and EXPERIMENTS.md for the
    reproduction results.

    Typical use:

    {[
      let prog = (* build with Nullelim.Builder *) ... in
      let arch = Nullelim.Arch.ia32_windows in
      let compiled =
        Nullelim.Compiler.compile Nullelim.Config.new_full ~arch prog
      in
      let result = Nullelim.Interp.run ~arch compiled.program [] in
      Fmt.pr "%a, %d cycles@." Nullelim.Interp.pp_outcome result.outcome
        result.counters.cycles
    ]} *)

(** {1 Intermediate representation} *)

module Ir = Nullelim_ir.Ir
module Builder = Nullelim_ir.Ir_builder
module Ir_pp = Nullelim_ir.Ir_pp
module Ir_validate = Nullelim_ir.Ir_validate

(** {1 Control-flow graph} *)

module Cfg = Nullelim_cfg.Cfg
module Dominance = Nullelim_cfg.Dominance
module Loops = Nullelim_cfg.Loops
module Context = Nullelim_cfg.Context

(** {1 Data-flow framework} *)

module Bitset = Nullelim_dataflow.Bitset
module Solver = Nullelim_dataflow.Solver

(** {1 Analyses} *)

module Nullness = Nullelim_analysis.Nullness
module Liveness = Nullelim_analysis.Liveness

(** {1 Architecture models} *)

module Arch = Nullelim_arch.Arch

(** {1 Optimizations} *)

module Phase1 = Nullelim_opt.Phase1
module Phase2 = Nullelim_opt.Phase2
module Whaley = Nullelim_opt.Whaley
module Naive_trap = Nullelim_opt.Naive_trap
module Boundcheck = Nullelim_opt.Boundcheck
module Scalar_repl = Nullelim_opt.Scalar_repl
module Inline = Nullelim_opt.Inline
module Copyprop = Nullelim_opt.Copyprop
module Simplify_cfg = Nullelim_opt.Simplify_cfg
module Dce = Nullelim_opt.Dce
module Verify = Nullelim_opt.Verify
module Pipeline = Nullelim_opt.Pipeline
module Opt_util = Nullelim_opt.Opt_util

(** {1 Back end} *)

module Regalloc = Nullelim_backend.Regalloc
module Codegen = Nullelim_backend.Codegen
module Emit_c = Nullelim_backend.Emit_c
module Native = Nullelim_backend.Native

(** {1 Virtual machine (simulator)} *)

module Value = Nullelim_vm.Value
module Interp = Nullelim_vm.Interp

(** {1 JIT driver} *)

module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler

(** {1 Compile service}

    Parallel batch compilation on a pool of OCaml domains
    ([Svc.compile_all]), a bounded work queue ([Chan]) and a
    content-addressed compiled-code cache with an LRU byte budget
    ([Codecache], keyed by [Svc.job_key]). *)

module Svc = Nullelim_svc.Svc
module Chan = Nullelim_svc.Chan
module Codecache = Nullelim_svc.Codecache
module Status = Nullelim_svc.Status

(** {1 Tiered execution}

    The adaptive recompilation manager: tier-0 instant compiles,
    profile-triggered promotion to the full pipeline on the compile
    pool, and trap-triggered per-site deoptimization ([Tier]). *)

module Tier = Nullelim_tier.Tier

(** {1 Random program generation and differential fuzzing}

    A seeded, deterministic IR program generator ([Gen]), a structural
    shrinker ([Shrink]), the differential oracle set ([Diff]), the
    [nullelim-fuzz/1] report / [nullelim-corpus/1] corpus-entry formats
    ([Fuzz_report]) and the fuzz run that ties them together ([Fuzz],
    the body of the [fuzz] CLI command). *)

module Gen = Nullelim_gen.Gen
module Gen_rng = Nullelim_gen.Rng
module Shrink = Nullelim_gen.Shrink
module Diff = Nullelim_gen.Diff
module Fuzz_report = Nullelim_gen.Report
module Fuzz = Nullelim_gen.Fuzz

(** {1 Telemetry}

    Chrome trace-event output rendered from a compile's pass records
    ([Compiler.trace], [run --trace]), leveled logging ([NULLELIM_LOG=debug]),
    a typed metrics registry with a versioned JSON snapshot, and the
    per-check optimization decision log. *)

module Obs = Nullelim_obs.Obs
module Json = Nullelim_obs.Obs_json
