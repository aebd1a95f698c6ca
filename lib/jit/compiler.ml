(** The JIT compile driver: applies a {!Config.t} to a program for a
    target architecture, recording one record per executed pass and
    static null-check statistics. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Opt = Nullelim_opt
module Pipeline = Nullelim_opt.Pipeline
module Context = Nullelim_cfg.Context
module Solver = Nullelim_dataflow.Solver
module Codegen = Nullelim_backend.Codegen
module Trace = Nullelim_obs.Trace
module Clock = Nullelim_obs.Clock
module Metrics = Nullelim_obs.Metrics
module Decision = Nullelim_obs.Decision
module Json = Nullelim_obs.Obs_json

type check_stats = {
  raw_checks : int;        (** explicit checks in the input program *)
  raw_implicit : int;      (** implicit checks in the input program *)
  explicit_after : int;
  implicit_after : int;
}

type compiled = {
  program : Ir.program;
  config : Config.t;
  arch : Arch.t;
  records : Pipeline.record list;  (** one per executed pass, in order *)
  solver : Solver.stats;         (** solver work of this compilation *)
  checks : check_stats;
  compile_start : float;
  compile_seconds : float;
  decisions : Decision.event list;  (** per-check decision log *)
}

let count_all_checks p =
  let e = ref 0 and i = ref 0 in
  Ir.iter_funcs
    (fun f ->
      e := !e + Ir.count_checks ~kind:Ir.Explicit f;
      i := !i + Ir.count_checks ~kind:Ir.Implicit f)
    p;
  (!e, !i)

(* Deoptimization: re-materialize the explicit check at every implicit
   site in [sites].  The tiered manager requests this after a site's
   hardware trap actually fired — the implicit check was free only
   until then (recovery through the OS trap handler costs orders of
   magnitude more than the 2-instruction explicit sequence), so the
   losing bets are individually taken back.  Implicit→explicit is
   always sound: the explicit check raises exactly where the trap
   would have.  Sites are program-unique, so a flat site set
   addresses the offending checks and nothing else. *)
let deopt_pass (sites : Ir.site list) : Pipeline.pass =
  let set = Hashtbl.create (List.length sites) in
  List.iter (fun s -> Hashtbl.replace set s ()) sites;
  Pipeline.per_func "nullcheck:deopt" (fun (f : Ir.func) ->
      Array.iteri
        (fun l (b : Ir.block) ->
          Array.iteri
            (fun k instr ->
              match instr with
              | Ir.Null_check (Ir.Implicit, v, s) when Hashtbl.mem set s ->
                b.instrs.(k) <- Ir.Null_check (Ir.Explicit, v, s);
                Decision.record ~d_explicit:1 ~d_implicit:(-1) ~block:l
                  ~var:v ~site:s ~kind:Decision.Kexplicit
                  ~action:Decision.Deoptimized ~just:Decision.Trap_fired ()
              | _ -> ())
            b.instrs)
        f.fn_blocks)

(** One round of phase 1 and its helpers (Figure 2). *)
let round (cfg : Config.t) ~(arch : Arch.t) : Pipeline.pass list =
  let null_pass =
    match cfg.null_opt with
    | Config.No_null_opt -> []
    | Config.Old_whaley ->
      [ Pipeline.per_func "nullcheck:whaley" (fun f -> ignore (Opt.Whaley.run f)) ]
    | Config.New_phase1 | Config.New_full ->
      [ Pipeline.per_func "nullcheck:phase1" (fun f -> ignore (Opt.Phase1.run f)) ]
  in
  let helpers =
    if cfg.weak_arrays then
      [
        Pipeline.per_func "other:boundcheck" (fun f ->
            ignore (Opt.Boundcheck.eliminate_redundant f));
        Pipeline.per_func "other:scalar-repl" (fun f ->
            let stats = { Opt.Scalar_repl.hoisted = 0; replaced = 0 } in
            Opt.Scalar_repl.eliminate_redundant_loads f stats);
      ]
    else
      [
        Pipeline.per_func "other:boundcheck" (fun f -> ignore (Opt.Boundcheck.run f));
        Pipeline.per_func "other:scalar-repl" (fun f ->
            ignore (Opt.Scalar_repl.run ~speculate:cfg.speculate ~arch f));
      ]
  in
  let cleanup =
    [
      Pipeline.per_func "other:simplify-cfg" (fun f ->
          ignore (Opt.Simplify_cfg.run f));
      Pipeline.per_func "other:copyprop" (fun f -> ignore (Opt.Copyprop.run f));
      Pipeline.per_func "other:dce" (fun f -> ignore (Opt.Dce.run f));
    ]
  in
  null_pass @ helpers @ cleanup

(* log:true — dropped code here is original, not a duplicate, so its
   checks must leave the decision log balanced *)
let normalize =
  Pipeline.per_func "other:normalize" (Opt.Opt_util.remove_unreachable ~log:true)

(** Build the pass list for a configuration.  Tier 0 is the instant
    compile: the input with unreachable code removed, every raw check
    left as it is, whatever [cfg] asks for. *)
let passes ?(tier = -1) ?(deopt_sites = []) (cfg : Config.t) ~(arch : Arch.t)
    : Pipeline.pass list =
  if tier = 0 then [ normalize ] else
  let inline_passes =
    if cfg.inline then
      [
        Pipeline.program_pass "other:devirtualize" (fun p ->
            ignore (Opt.Inline.devirtualize p));
        Pipeline.program_pass "other:inline" (fun p -> ignore (Opt.Inline.run p));
        Pipeline.program_pass "other:intrinsify" (fun p ->
            ignore (Opt.Inline.intrinsify ~arch p));
      ]
    else []
  in
  (* phase 1 and its helpers iterate (Figure 2) until a round changes
     nothing *)
  let iterated = Pipeline.rounds ~max:cfg.iterations (round cfg ~arch) in
  let arch_dep =
    match cfg.null_opt with
    | Config.New_full ->
      let phase2_arch =
        Option.value ~default:arch cfg.phase2_arch_override
      in
      [
        Pipeline.per_func "nullcheck:phase2" (fun f ->
            ignore (Opt.Phase2.run ~arch:phase2_arch f));
      ]
    | Config.No_null_opt | Config.Old_whaley | Config.New_phase1 ->
      if cfg.use_trap then
        [
          Pipeline.per_func "other:trap-conversion" (fun f ->
              ignore (Opt.Naive_trap.run ~arch f));
        ]
      else []
  in
  (* the HotSpot stand-in repeats its (cheaper per-round) pipeline many
     times to model a compiler that spends much more time compiling;
     these rounds run unconditionally, since their cost is what is
     modelled *)
  let heavy =
    if cfg.heavy_factor <= 1 then []
    else
      List.concat
        (List.init (cfg.heavy_factor - 1) (fun _ -> round cfg ~arch))
  in
  (* Deopt runs after the arch-dependent phase so it undoes whatever
     implicit form the offending site ended up in, and before the final
     DCE/codegen so the re-materialized check is register-allocated like
     any other. *)
  let deopt = if deopt_sites = [] then [] else [ deopt_pass deopt_sites ] in
  (normalize :: inline_passes) @ iterated @ heavy @ arch_dep @ deopt
  @ [
      Pipeline.per_func "other:dce-final" (fun f ->
          ignore (Opt.Dce.run ~keep_derefs:true f));
      (* back end: linear-scan register allocation + emission statistics.
         In a real JIT this is where most compilation time goes, which is
         what keeps the paper's null-check share at ~2% (Table 4). *)
      Pipeline.per_func "other:codegen" (fun f ->
          ignore (Codegen.run ~arch f));
    ]

(** Compile a copy of [p]; the input program is left untouched. *)
let compile ?(tier = -1) ?(deopt_sites = []) (cfg : Config.t)
    ~(arch : Arch.t) (p : Ir.program) : compiled =
  let p' = Ir.copy_program p in
  (* provenance determinism: sites minted during optimization depend only
     on the input program, not on what was compiled before.  Re-seeding
     may rewind the calling domain's counter below sites it has already
     handed out, so it is moved back past them once the compile is
     done: programs built later on this domain still get fresh sites. *)
  let counter = Domain.DLS.get Ir.site_counter in
  let saved = !counter in
  Ir.seed_sites p';
  let raw_e, raw_i = count_all_checks p' in
  let sink = Pipeline.sink () in
  let t0 = Clock.now () in
  let (), decisions =
    Fun.protect
      ~finally:(fun () -> counter := max saved !counter)
      (fun () ->
        Decision.with_log (fun () ->
            Decision.set_tier tier;
            (* one analysis context per function for every pass *)
            Context.with_store (fun () ->
                Pipeline.run ~sink (passes ~tier ~deopt_sites cfg ~arch) p')))
  in
  let compile_seconds = Clock.now () -. t0 in
  let records = Pipeline.records sink in
  let e, i = count_all_checks p' in
  {
    program = p';
    config = cfg;
    arch;
    records;
    solver = Pipeline.solver_total records;
    checks =
      {
        raw_checks = raw_e;
        raw_implicit = raw_i;
        explicit_after = e;
        implicit_after = i;
      };
    compile_start = t0;
    compile_seconds;
    decisions;
  }

(** Check that the decision log accounts exactly for the difference
    between the raw and final static check counts — i.e. that
    [check_stats] is derivable from the log. *)
let reconcile (c : compiled) : (unit, string) result =
  let de, di = Decision.derived_deltas c.decisions in
  let want_e = c.checks.raw_checks + de
  and want_i = c.checks.raw_implicit + di in
  if want_e = c.checks.explicit_after && want_i = c.checks.implicit_after then
    Ok ()
  else
    Error
      (Printf.sprintf
         "decision log does not reconcile: explicit %d+%d=%d vs %d, implicit \
          %d+%d=%d vs %d"
         c.checks.raw_checks de want_e c.checks.explicit_after
         c.checks.raw_implicit di want_i c.checks.implicit_after)

(** Time spent in null-check optimization vs. the rest (Table 4). *)
let nullcheck_time c =
  Pipeline.total_matching c.records (String.starts_with ~prefix:"nullcheck")

let other_time c =
  Pipeline.total_matching c.records (fun n ->
      not (String.starts_with ~prefix:"nullcheck" n))

let metrics c =
  let m = Metrics.create () in
  Pipeline.record_metrics m c.records;
  Metrics.set (Metrics.gauge m "compile_seconds") c.compile_seconds;
  Metrics.inc (Metrics.counter m "checks_raw_explicit") c.checks.raw_checks;
  Metrics.inc (Metrics.counter m "checks_raw_implicit") c.checks.raw_implicit;
  Metrics.inc (Metrics.counter m "checks_explicit_after") c.checks.explicit_after;
  Metrics.inc (Metrics.counter m "checks_implicit_after") c.checks.implicit_after;
  Metrics.inc (Metrics.counter m "decision_events") (List.length c.decisions);
  m

(* The compile span starts the trace (ts 0); the pass spans sit inside
   it on the same clock. *)
let trace c =
  let span cat name ts dur args =
    {
      Trace.ev_name = name;
      ev_cat = cat;
      ev_ts_us = ts *. 1e6;
      ev_dur_us = dur *. 1e6;
      ev_args = args;
    }
  in
  span "compile" "compile" 0. c.compile_seconds
    [ ("config", Json.Str c.config.Config.name); ("arch", Json.Str c.arch.Arch.name) ]
  :: List.map
       (fun (r : Pipeline.record) ->
         span "pass" r.r_pass (r.r_start -. c.compile_start) r.r_seconds
           (("minor_words", Json.Int r.r_minor_words)
           :: List.map
                (fun (kind, get) -> (kind, Json.Int (get r.r_solver)))
                Pipeline.counter_kinds))
       c.records
