(** Differential oracles over generated programs.

    One generated program is judged by running every oracle the repo
    already trusts, against every legal configuration:

    - {b validate-input}: the raw program must pass strict validation —
      a generator bug, not a compiler bug, but it must never reach the
      solver;
    - {b compile-crash}: [Compiler.compile] must not raise;
    - {b validate-output}/{b verify}: the optimized program must still
      validate, and every implicit check must be trap-covered on the
      target architecture;
    - {b reconcile}: folding the decision log's deltas over the raw
      check counts must reproduce the compiled check statistics;
    - {b behaviour}: the optimized program must be observationally
      equivalent (print/caught-exception trace, outcome by exception
      kind) to the raw program;
    - {b solver}: the worklist and reference data-flow engines must
      yield byte-identical code, check statistics and decision logs;
    - {b profile}: on the baseline configuration, per-site profile
      counts must sum exactly to the aggregate interpreter counters and
      every executed site must have a provenance story;
    - {b tier}: the tier-0 entry compile, a forced mid-run promotion
      under the synchronous tiered manager (promote on the first call,
      traps deoptimizing as they fire) and its steady-state second run
      must all be observationally equivalent to the raw program, and
      every artifact the manager compiled must reconcile its decision
      log;
    - {b serial-parallel} (batched, see {!compare_artifacts}): the
      compile service's pool must produce byte-identical artifacts to
      the serial reference path.

    A raw program whose own execution hits a simulator error (fuel,
    call-depth) is {e skipped}, not failed: the generator aims to avoid
    such programs, and they carry no differential signal. *)

module Ir = Nullelim_ir.Ir
module Ir_validate = Nullelim_ir.Ir_validate
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Solver = Nullelim_dataflow.Solver
module Verify = Nullelim_opt.Verify
module Interp = Nullelim_vm.Interp
module Profile = Nullelim_obs.Profile
module Decision = Nullelim_obs.Decision
module Svc = Nullelim_svc.Svc
module Tier = Nullelim_tier.Tier
module Native = Nullelim_backend.Native

type failure = {
  fl_oracle : string;  (** which oracle tripped (names above) *)
  fl_config : string;  (** configuration name, or [""] *)
  fl_detail : string;
}

type verdict = Pass | Skip of string | Fail of failure

exception Found of failure

let pp_failure ppf f =
  Fmt.pf ppf "[%s%s] %s" f.fl_oracle
    (if f.fl_config = "" then "" else "/" ^ f.fl_config)
    f.fl_detail

(** The legal configurations: every Windows-suite row (none overrides
    the phase-2 trap model, so the soundness verifier applies to all). *)
let default_configs : Config.t list =
  List.filter
    (fun c -> c.Config.phase2_arch_override = None)
    Config.windows_suite

let default_fuel = 2_000_000

(** Content digest of a compiled artifact's code (see the interface). *)
let code_digest (c : Compiler.compiled) : string =
  Svc.job_key
    (Svc.job ~config:c.Compiler.config ~arch:c.Compiler.arch
       c.Compiler.program)

(* ------------------------------------------------------------------ *)
(* Serial oracles                                                      *)
(* ------------------------------------------------------------------ *)

let compile_or_fail ?tier ~oracle_config cfg ~arch p =
  try Compiler.compile ?tier cfg ~arch p
  with e ->
    raise
      (Found
         {
           fl_oracle = "compile-crash";
           fl_config = oracle_config;
           fl_detail = Printexc.to_string e;
         })

(** All per-configuration serial oracles for one config. *)
let check_config ~arch ~fuel ~reference (p : Ir.program) (cfg : Config.t) =
  let name = cfg.Config.name in
  let fail oracle detail =
    raise (Found { fl_oracle = oracle; fl_config = name; fl_detail = detail })
  in
  let c = compile_or_fail ~oracle_config:name cfg ~arch p in
  (match Ir_validate.validate_program c.Compiler.program with
  | [] -> ()
  | errs -> fail "validate-output" (String.concat "; " errs));
  (if cfg.Config.phase2_arch_override = None then
     match Verify.verify_program ~arch c.Compiler.program with
     | [] -> ()
     | vs ->
       fail "verify"
         (Fmt.str "%a" Fmt.(list ~sep:comma Verify.pp_violation) vs));
  (match Compiler.reconcile c with Ok () -> () | Error m -> fail "reconcile" m);
  let r = Interp.run ~fuel ~arch c.Compiler.program [] in
  if not (Interp.equivalent reference r) then
    fail "behaviour"
      (Fmt.str "raw=%a optimized=%a" Interp.pp_outcome
         reference.Interp.outcome Interp.pp_outcome r.Interp.outcome);
  (* solver differential: the reference engine must compile identically *)
  let c_ref =
    Solver.with_reference true (fun () ->
        compile_or_fail ~oracle_config:name cfg ~arch p)
  in
  if code_digest c <> code_digest c_ref then
    fail "solver" "worklist vs reference engine: different optimized code";
  if c.Compiler.checks <> c_ref.Compiler.checks then
    fail "solver" "worklist vs reference engine: different check statistics";
  if c.Compiler.decisions <> c_ref.Compiler.decisions then
    fail "solver" "worklist vs reference engine: different decision logs"

(** Profile-count consistency on the baseline configuration — the same
    equations [Profile_report.reconcile] enforces for the workloads. *)
let check_profile ~arch ~fuel (p : Ir.program) =
  let cfg = Config.no_null_opt_no_trap in
  let fail detail =
    raise
      (Found
         {
           fl_oracle = "profile";
           fl_config = cfg.Config.name;
           fl_detail = detail;
         })
  in
  let c = compile_or_fail ~oracle_config:cfg.Config.name cfg ~arch p in
  let profile = Profile.create () in
  let r = Interp.run ~fuel ~profile ~arch c.Compiler.program [] in
  (match r.Interp.outcome with
  | Interp.Sim_error m -> fail ("baseline run: " ^ m)
  | _ -> ());
  let cnt = r.Interp.counters in
  let sites = Profile.sites profile in
  let sum f = List.fold_left (fun a row -> a + f row) 0 sites in
  let eq name got want =
    if got <> want then
      fail (Printf.sprintf "%s: profile %d <> counters %d" name got want)
  in
  eq "explicit hits"
    (Profile.total_hits profile Profile.Cexplicit)
    cnt.Interp.explicit_checks;
  eq "implicit hits"
    (Profile.total_hits profile Profile.Cimplicit)
    cnt.Interp.implicit_checks;
  eq "bound hits" (Profile.total_hits profile Profile.Cbound)
    cnt.Interp.bound_checks;
  eq "npe" (sum (fun s -> s.Profile.sr_npe)) cnt.Interp.npe_explicit;
  eq "misses" (sum (fun s -> s.Profile.sr_misses)) cnt.Interp.implicit_miss;
  eq "traps"
    (sum (fun s -> s.Profile.sr_traps) + Profile.other_traps profile)
    cnt.Interp.npe_trap;
  eq "spec reads"
    (List.fold_left
       (fun a (b : Profile.block_row) -> a + b.Profile.br_spec_reads)
       0 (Profile.blocks profile))
    cnt.Interp.spec_null_reads;
  (* provenance: every executed site is an original id or was minted by
     a recorded decision *)
  let known = Hashtbl.create 64 in
  Ir.iter_funcs
    (fun f -> List.iter (fun s -> Hashtbl.replace known s ()) (Ir.sites_of_func f))
    p;
  List.iter
    (fun (e : Decision.event) ->
      if e.Decision.site >= 0 then Hashtbl.replace known e.Decision.site ())
    c.Compiler.decisions;
  List.iter
    (fun (s : Profile.site_row) ->
      if s.Profile.sr_site < 0 then
        fail
          (Printf.sprintf "executed %s check with no provenance id"
             (Profile.kind_to_string s.Profile.sr_kind))
      else if not (Hashtbl.mem known s.Profile.sr_site) then
        fail
          (Printf.sprintf "site %d (%s) has no provenance story"
             s.Profile.sr_site s.Profile.sr_func))
    sites

(** Tier-equivalence oracle.  Tier 0 (the instant entry compile), a
    tiered run that promotes every function on its first call — so the
    mid-run installation path is exercised, and any hardware trap
    triggers a deoptimization — and the steady-state run after it must
    all behave as the raw program.  Runs the synchronous manager: no
    domains, deterministic. *)
let check_tier ~arch ~fuel ~reference (p : Ir.program) =
  let fail config detail =
    raise (Found { fl_oracle = "tier"; fl_config = config; fl_detail = detail })
  in
  let behave config (r : Interp.result) =
    if not (Interp.equivalent reference r) then
      fail config
        (Fmt.str "raw=%a tiered=%a" Interp.pp_outcome reference.Interp.outcome
           Interp.pp_outcome r.Interp.outcome)
  in
  let cfg = { Config.new_full with Config.promote_calls = 1 } in
  let c0 = compile_or_fail ~tier:0 ~oracle_config:"tier0" cfg ~arch p in
  behave "tier0" (Interp.run ~fuel ~arch c0.Compiler.program []);
  let t = Tier.create ~config:cfg ~arch p in
  behave "promotion" (Tier.run ~fuel t []);
  behave "steady-state" (Tier.run ~fuel t []);
  Tier.drain t;
  List.iter
    (fun (tier, (c : Compiler.compiled)) ->
      match Compiler.reconcile c with
      | Ok () -> ()
      | Error m -> fail (Printf.sprintf "tier%d" tier) ("reconcile: " ^ m))
    (Tier.artifacts t)

let check ?(arch = Arch.ia32_windows) ?(configs = default_configs)
    ?(fuel = default_fuel) (p : Ir.program) : verdict =
  match Ir_validate.validate_program ~strict:true p with
  | _ :: _ as errs ->
    Fail
      {
        fl_oracle = "validate-input";
        fl_config = "";
        fl_detail = String.concat "; " errs;
      }
  | [] -> (
    let reference = Interp.run ~fuel ~arch p [] in
    match reference.Interp.outcome with
    | Interp.Sim_error m -> Skip ("reference run: " ^ m)
    | _ -> (
      try
        List.iter (check_config ~arch ~fuel ~reference p) configs;
        check_profile ~arch ~fuel p;
        check_tier ~arch ~fuel ~reference p;
        Pass
      with Found f -> Fail f))

(** Native ≍ interp: the optimized program must behave identically
    through the C-emitting native backend (real guard-page SIGSEGV
    traps) and the simulating interpreter.  Skips — never fails — when
    the backend is unavailable on this host, the program leaves the
    native subset, or either engine reports a simulator-level error
    (fuel, depth, untypeable operation): those carry no differential
    signal.  A C compiler failure on an emitted program IS a failure —
    the emitter produced something the toolchain rejects. *)
let check_native ?(arch = Arch.ia32_windows) ?(config = Config.new_full)
    ?(fuel = default_fuel) (p : Ir.program) : verdict =
  let name = config.Config.name ^ "+native" in
  if not (Native.available ()) then Skip "native backend unavailable"
  else
    match Ir_validate.validate_program ~strict:true p with
    | _ :: _ as errs -> Skip ("invalid input: " ^ String.concat "; " errs)
    | [] -> (
      match compile_or_fail ~oracle_config:name config ~arch p with
      | exception Found f -> Fail f
      | c -> (
      let reference = Interp.run ~fuel ~arch c.Compiler.program [] in
      match reference.Interp.outcome with
      | Interp.Sim_error m -> Skip ("interp run: " ^ m)
      | _ -> (
        match Native.run_program ~fuel ~arch c.Compiler.program with
        | Error msg ->
          let unsupported =
            String.length msg >= 8 && String.sub msg 0 8 = "emission"
          in
          if unsupported then Skip msg
          else
            Fail
              { fl_oracle = "native"; fl_config = name; fl_detail = msg }
        | Ok r -> (
          match r.Native.r_result.Interp.outcome with
          | Interp.Sim_error m -> Skip ("native run: " ^ m)
          | _ ->
            if Interp.equivalent reference r.Native.r_result then Pass
            else
              Fail
                {
                  fl_oracle = "native";
                  fl_config = name;
                  fl_detail =
                    Fmt.str "interp=%a native=%a" Interp.pp_outcome
                      reference.Interp.outcome Interp.pp_outcome
                      r.Native.r_result.Interp.outcome;
                }))))

(** Shrinker predicate: the program still fails, with the same oracle
    (shrinking must not wander to an unrelated bug). *)
let still_fails ?arch ?configs ?fuel (f0 : failure) (p : Ir.program) : bool =
  match check ?arch ?configs ?fuel p with
  | Fail f -> f.fl_oracle = f0.fl_oracle
  | Pass | Skip _ -> false

(* ------------------------------------------------------------------ *)
(* Serial/parallel artifact comparison                                 *)
(* ------------------------------------------------------------------ *)

let jobs ?(arch = Arch.ia32_windows) ?(configs = default_configs)
    (p : Ir.program) : Svc.job list =
  List.map
    (fun cfg -> Svc.job ~config:cfg ~arch p)
    configs

let compare_artifacts ~(serial : Svc.outcome list)
    ~(parallel : Svc.outcome list) : failure option =
  let mk config detail =
    Some { fl_oracle = "serial-parallel"; fl_config = config; fl_detail = detail }
  in
  if List.length serial <> List.length parallel then
    mk "" "outcome counts differ"
  else
    List.fold_left2
      (fun acc s q ->
        match acc with
        | Some _ -> acc
        | None ->
          let cs = s.Svc.oc_compiled and cq = q.Svc.oc_compiled in
          let config = cs.Compiler.config.Config.name in
          if code_digest cs <> code_digest cq then
            mk config "serial and pool artifacts differ in code"
          else if cs.Compiler.checks <> cq.Compiler.checks then
            mk config "serial and pool artifacts differ in check statistics"
          else if cs.Compiler.decisions <> cq.Compiler.decisions then
            mk config "serial and pool artifacts differ in decision logs"
          else None)
      None serial parallel
