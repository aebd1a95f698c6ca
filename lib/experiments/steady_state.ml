(** Steady-state tiered-execution benchmark (the tentpole experiment).

    Every workload is driven repeatedly through one {!Tier.t} manager:
    the first run executes the tier-0 entry code (every raw check an
    explicit instruction), promotions install the full phase-1+2
    pipeline function by function at call boundaries, and by the final
    run the process is at its steady state.  Three deterministic
    counters frame the curve per workload:

    - {b tier0}: dynamic explicit checks of a pure tier-0 run — what
      the process pays before any recompilation lands;
    - {b steady}: dynamic explicit checks of the final tiered run;
    - {b full}: dynamic explicit checks running the untiered full
      compile — the floor the tiered manager converges to.

    {e time-to-peak} is the 1-based index of the first run whose
    explicit-check count already equals the steady value.  The headline
    gate: on every workload where the full pipeline eliminates checks
    ([full < tier0]), the steady state must execute strictly fewer
    explicit checks than tier 0 ([steady < tier0]).

    Collection is synchronous (no domains) by default — bit-for-bit
    deterministic, which is what the committed baseline diffs against.
    {!collect} also accepts a running {!Svc.t}; then recompilations
    overlap execution on the pool (the serving path only polls, see
    {!Tier.dispatch}).  Before the final run the collector waits
    for the recompiles still in flight ({!Tier.settle}) but leaves
    installing them to the serving path, so [steady] counts tiered code
    in both modes and an async row still proves that installs land
    through the serving path ([ss_served_installs]).

    The companion {!forced_deopt} scenario injects a null into a
    promoted function mid-run and records that the hardware trap
    deoptimized {e only} the offending site — the acceptance evidence
    serialized next to the rows in the ["tiered"] document. *)

module Ir = Nullelim_ir.Ir
module B = Nullelim_ir.Ir_builder
module Ir_validate = Nullelim_ir.Ir_validate
module Arch = Nullelim_arch.Arch
module Interp = Nullelim_vm.Interp
module Value = Nullelim_vm.Value
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Svc = Nullelim_svc.Svc
module Tier = Nullelim_tier.Tier
module Decision = Nullelim_obs.Decision
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let default_runs = 12
let fuel = 1_000_000_000

type row = {
  ss_workload : string;
  ss_runs : int;            (** tiered runs driven *)
  ss_time_to_peak : int;    (** first run already at the steady count *)
  ss_tier0 : int;           (** dynamic explicit checks, pure tier 0 *)
  ss_steady : int;          (** dynamic explicit checks, final tiered run *)
  ss_full : int;            (** dynamic explicit checks, untiered full *)
  ss_tier0_calls : int;
  ss_steady_calls : int;
  ss_promotions : int;
  ss_demotions : int;
  ss_deopts : int;
  ss_installs : int;
  ss_submitted : int;
  ss_queue_full : int;
  ss_traps : int;
  ss_served_installs : int option;
      (** with a service: installs made by the serving path, i.e.
          before the final {!Tier.drain}; [None] in sync mode *)
  ss_recompile_seconds : float;
      (** pool/wall time of installed recompiles — all of it overlapped
          with execution when a service is attached *)
}

let checks_per_call ~checks ~calls =
  float_of_int checks /. float_of_int (max 1 calls)

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let run_once ?tier ~arch (p : Ir.program) (cfg : Config.t) : Interp.counters =
  let c = Compiler.compile ?tier cfg ~arch p in
  let r = Interp.run ~fuel ~arch c.Compiler.program [] in
  match r.Interp.outcome with
  | Interp.Returned (Some _) -> r.Interp.counters
  | o ->
    failwith
      (Fmt.str "steady-state %s/%s: %a" cfg.Config.name arch.Arch.name
         Interp.pp_outcome o)

let collect ?svc ?(config = Config.new_full) ?(runs = default_runs)
    ~(arch : Arch.t) (w : W.t) : row =
  if runs < 2 then invalid_arg "Steady_state.collect: runs must be >= 2";
  (* site ids restart per workload so the committed numbers do not
     depend on which workloads ran before this one *)
  Ir.reset_sites ();
  let p = w.W.build ~scale:1 in
  let expected = w.W.expected ~scale:1 in
  let tier0 = run_once ~tier:0 ~arch p config in
  let full = run_once ~arch p config in
  let t = Tier.create ?svc ~config ~arch p in
  let history = ref [] in
  for i = 1 to runs do
    (* the final run is the steady state: let every recompile still in
       flight finish first, so it runs tiered code rather than how far
       the pool got before the loop ran out; its call boundaries
       install them (a no-op in sync mode) *)
    if i = runs then Tier.settle t;
    let r = Tier.run ~fuel t [] in
    (match r.Interp.outcome with
    | Interp.Returned (Some (Value.Vint c)) when c = expected -> ()
    | Interp.Returned (Some _) ->
      failwith
        (Printf.sprintf "steady-state %s: tiered run %d checksum mismatch"
           w.W.name i)
    | o ->
      failwith
        (Fmt.str "steady-state %s: tiered run %d: %a" w.W.name i
           Interp.pp_outcome o));
    history :=
      (r.Interp.counters.Interp.explicit_checks, r.Interp.counters.Interp.calls)
      :: !history
  done;
  let served = (Tier.stats t).Tier.st_installs in
  Tier.drain t;
  List.iter
    (fun (tier, (c : Compiler.compiled)) ->
      match Compiler.reconcile c with
      | Ok () -> ()
      | Error e ->
        failwith
          (Printf.sprintf "steady-state %s: tier-%d artifact: %s" w.W.name
             tier e))
    (Tier.artifacts t);
  let history = List.rev !history in
  let steady, steady_calls = List.nth history (runs - 1) in
  let time_to_peak =
    let rec first i = function
      | (c, _) :: _ when c = steady -> i
      | _ :: rest -> first (i + 1) rest
      | [] -> runs
    in
    first 1 history
  in
  let s = Tier.stats t in
  {
    ss_workload = w.W.name;
    ss_runs = runs;
    ss_time_to_peak = time_to_peak;
    ss_tier0 = tier0.Interp.explicit_checks;
    ss_steady = steady;
    ss_full = full.Interp.explicit_checks;
    ss_tier0_calls = tier0.Interp.calls;
    ss_steady_calls = steady_calls;
    ss_promotions = s.Tier.st_promotions;
    ss_demotions = s.Tier.st_demotions;
    ss_deopts = s.Tier.st_deopts;
    ss_installs = s.Tier.st_installs;
    ss_submitted = s.Tier.st_submitted;
    ss_queue_full = s.Tier.st_queue_full;
    ss_traps = s.Tier.st_traps;
    ss_served_installs = Option.map (fun _ -> served) svc;
    ss_recompile_seconds = s.Tier.st_recompile_seconds;
  }

let collect_all ?svc ?config ?runs ~(arch : Arch.t) () : row list =
  List.map (fun w -> collect ?svc ?config ?runs ~arch w) (Registry.all ())

(* ------------------------------------------------------------------ *)
(* The headline gate                                                   *)
(* ------------------------------------------------------------------ *)

(** On every workload where the full pipeline eliminates checks, the
    steady state must execute strictly fewer explicit checks than tier
    0.  With a service, a workload that promoted anything must have
    installed some of it through the serving path. *)
let check_rows (rows : row list) : (unit, string list) result =
  let errs =
    List.concat_map
      (fun r ->
        let e1 =
          if r.ss_full < r.ss_tier0 && r.ss_steady >= r.ss_tier0 then
            [
              Printf.sprintf
                "%s: steady state executes %d explicit checks, tier 0 %d — \
                 tiering never caught up"
                r.ss_workload r.ss_steady r.ss_tier0;
            ]
          else []
        in
        let e2 =
          match r.ss_served_installs with
          | Some 0 when r.ss_promotions > 0 ->
            [
              Printf.sprintf
                "%s: %d promotions, none installed by the serving path"
                r.ss_workload r.ss_promotions;
            ]
          | _ -> []
        in
        e1 @ e2)
      rows
  in
  if errs = [] then Ok () else Error errs

(* ------------------------------------------------------------------ *)
(* Forced deoptimization evidence                                      *)
(* ------------------------------------------------------------------ *)

type forced_deopt = {
  fd_sites : Ir.site list;       (** raw implicit-eligible sites, in order *)
  fd_trapped : Ir.site;          (** the site whose trap actually fired *)
  fd_deopted : Ir.site list;     (** sites the manager re-materialized *)
  fd_only_offending : bool;      (** [fd_deopted = [fd_trapped]] *)
  fd_demotions : int;
  fd_deopts : int;
  fd_rematerialized : int;       (** explicit-check delta vs the clean tier 2 *)
  fd_reconciled : bool;          (** every artifact's decision log reconciles *)
}

(* [helper a b] dereferences both parameters behind one raw explicit
   check each; [main] calls it in a loop and substitutes null for [b]
   on one late iteration, catching the NPE.  After promotion both
   checks are implicit, so the injected null fires a hardware trap at
   exactly [b]'s site. *)
let forced_program () =
  Ir.reset_sites ();
  let fld_x = { Ir.fname = "x"; foffset = 8; fkind = Ir.Kint } in
  let fld_y = { Ir.fname = "y"; foffset = 16; fkind = Ir.Kint } in
  let cls =
    { Ir.cname = "Cell"; csuper = None; cfields = [ fld_x; fld_y ];
      cmethods = [] }
  in
  let open B in
  let helper =
    let b = create ~name:"helper" ~params:[ "a"; "b" ] () in
    let x = fresh b and y = fresh b and r = fresh b in
    getfield b ~dst:x ~obj:(param b 0) fld_x;
    getfield b ~dst:y ~obj:(param b 1) fld_y;
    emit b (Binop (r, Add, Var x, Var y));
    terminate b (Return (Some (Var r)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[] () in
    let obj = fresh b and nul = fresh b and acc = fresh b and i = fresh b in
    emit b (New_object (obj, cls.Ir.cname));
    putfield b ~obj fld_x (Cint 2);
    putfield b ~obj fld_y (Cint 3);
    emit b (Move (nul, Cnull));
    emit b (Move (acc, Cint 0));
    count_do b ~v:i ~from:(Cint 0) ~limit:(Cint 12) (fun b ->
        let arg = fresh b and r = fresh b in
        emit b (Move (arg, Var obj));
        if_then b (Ir.Eq, Ir.Var i, Ir.Cint 8)
          ~then_:(fun b -> emit b (Move (arg, Var nul)))
          ();
        with_try b
          ~handler:(fun b -> emit b (Move (r, Cint (-1))))
          (fun b -> scall b ~dst:r "helper" [ Var obj; Var arg ]);
        emit b (Binop (acc, Add, Var acc, Var r)));
    terminate b (Return (Some (Var acc)));
    finish b
  in
  let p = B.program ~classes:[ cls ] ~main:"main" [ main; helper ] in
  Ir_validate.check_exn p;
  p

let forced_deopt ?(config = Config.new_full) ~(arch : Arch.t) () : forced_deopt
    =
  let cfg =
    { config with Config.promote_calls = 1; deopt_traps = 1; inline = false }
  in
  let p = forced_program () in
  let sites =
    let f = Ir.find_func p "helper" in
    let acc = ref [] in
    Array.iter
      (fun (blk : Ir.block) ->
        Array.iter
          (function
            | Ir.Null_check (_, _, s) -> acc := s :: !acc | _ -> ())
          blk.Ir.instrs)
      f.Ir.fn_blocks;
    List.rev !acc
  in
  let trapped =
    match sites with
    | [ _; sb ] -> sb
    | _ -> failwith "forced_deopt: helper must have exactly 2 raw sites"
  in
  let t = Tier.create ~config:cfg ~arch p in
  let r = Tier.run ~fuel t [] in
  (match r.Interp.outcome with
  | Interp.Returned (Some _) -> ()
  | o -> failwith (Fmt.str "forced_deopt: %a" Interp.pp_outcome o));
  Tier.drain t;
  let reconciled =
    List.for_all
      (fun (_, c) -> Compiler.reconcile c = Ok ())
      (Tier.artifacts t)
  in
  let deopted = Tier.deopt_sites t "helper" in
  let s = Tier.stats t in
  let clean = Compiler.compile ~tier:2 cfg ~arch p in
  (* the deopt variant: the artifact whose decision log records the
     re-materialization (main's own clean promotion compiles later) *)
  let final =
    List.fold_left
      (fun acc (_, (c : Compiler.compiled)) ->
        if
          List.exists
            (fun (e : Decision.event) ->
              e.Decision.action = Decision.Deoptimized)
            c.Compiler.decisions
        then Some c
        else acc)
      None (Tier.artifacts t)
  in
  let remat =
    match final with
    | Some c ->
      c.Compiler.checks.Compiler.explicit_after
      - clean.Compiler.checks.Compiler.explicit_after
    | None -> -1
  in
  {
    fd_sites = sites;
    fd_trapped = trapped;
    fd_deopted = deopted;
    fd_only_offending = deopted = [ trapped ];
    fd_demotions = s.Tier.st_demotions;
    fd_deopts = s.Tier.st_deopts;
    fd_rematerialized = remat;
    fd_reconciled = reconciled;
  }

(* ------------------------------------------------------------------ *)
(* Markdown                                                            *)
(* ------------------------------------------------------------------ *)

let pf = Printf.bprintf

let md_table buf (rows : row list) =
  pf buf
    "| workload | tier0 checks | steady checks | full checks | \
     checks/call t0 | checks/call steady | time-to-peak | promotions | \
     deopts | recompile s |\n";
  pf buf
    "|----------|-------------:|--------------:|------------:|-------------:|-------------------:|-------------:|-----------:|-------:|------------:|\n";
  List.iter
    (fun r ->
      pf buf "| %s | %d | %d | %d | %.3f | %.3f | %d | %d | %d | %.4f |\n"
        r.ss_workload r.ss_tier0 r.ss_steady r.ss_full
        (checks_per_call ~checks:r.ss_tier0 ~calls:r.ss_tier0_calls)
        (checks_per_call ~checks:r.ss_steady ~calls:r.ss_steady_calls)
        r.ss_time_to_peak r.ss_promotions r.ss_deopts r.ss_recompile_seconds)
    rows;
  pf buf "\n"

let report_md (rows : row list) (fd : forced_deopt) : string =
  let buf = Buffer.create (1 lsl 14) in
  pf buf "# Tiered steady state\n\n";
  md_table buf rows;
  pf buf "Forced deoptimization: trap at site %d deoptimized sites [%s] — %s\n"
    fd.fd_trapped
    (String.concat "; " (List.map string_of_int fd.fd_deopted))
    (if fd.fd_only_offending then "only the offending site"
     else "UNEXPECTED extra sites");
  Buffer.contents buf

(** The headline gate: {!check_rows}, plus a forced deoptimization that
    re-materialized exactly the trapping site and reconciled. *)
let gate (rows : row list) (fd : forced_deopt) : (unit, string list) result =
  let fd_errs =
    if fd.fd_only_offending && fd.fd_reconciled then []
    else
      [
        Printf.sprintf
          "forced deopt: trapped site %d, deoptimized [%s], reconciled %b"
          fd.fd_trapped
          (String.concat "; " (List.map string_of_int fd.fd_deopted))
          fd.fd_reconciled;
      ]
  in
  let row_errs = match check_rows rows with Ok () -> [] | Error es -> es in
  match row_errs @ fd_errs with [] -> Ok () | errs -> Error errs

(** [nullelim tiered]: every workload's row and the forced deopt under
    [Config.new_full] with [promote_calls] (0 keeps its default), then
    {!gate}.  With [jobs > 0] recompiles run on a pool of that many
    domains (mode [async]); otherwise at the submission point (mode
    [sync], deterministic counters). *)
let run ?(jobs = 0) ?(promote_calls = 0) ?runs ~(arch : Arch.t) () =
  let config =
    if promote_calls <= 0 then Config.new_full
    else { Config.new_full with Config.promote_calls }
  in
  let collect svc =
    let rows = collect_all ?svc ~config ?runs ~arch () in
    (rows, forced_deopt ~config ~arch ())
  in
  match
    if jobs > 0 then
      Svc.with_service ~domains:jobs (fun svc -> collect (Some svc))
    else collect None
  with
  | exception Failure e -> Error ("tiered benchmark failed: " ^ e)
  | rows, fd ->
    Result.map_error
      (fun errs -> String.concat "\n  " ("steady-state gate FAILED:" :: errs))
      (gate rows fd)
    |> Result.map (fun () -> (rows, fd))

(** The stdout table: one line per workload, then the forced deopt. *)
let pp_summary ppf ((rows : row list), (fd : forced_deopt)) =
  Fmt.pf ppf "%-12s %6s %8s %8s %8s %6s %6s %6s %9s@." "workload" "peak"
    "tier0" "steady" "full" "promo" "deopt" "traps" "recomp(s)";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-12s %6d %8d %8d %8d %6d %6d %6d %9.4f@." r.ss_workload
        r.ss_time_to_peak r.ss_tier0 r.ss_steady r.ss_full r.ss_promotions
        r.ss_deopts r.ss_traps r.ss_recompile_seconds)
    rows;
  Fmt.pf ppf
    "forced deopt: trapped site %d -> deoptimized [%s] (only offending: \
     %b)@."
    fd.fd_trapped
    (String.concat "; " (List.map string_of_int fd.fd_deopted))
    fd.fd_only_offending

(* ------------------------------------------------------------------ *)
(* JSON ("tiered" section of BENCH_results.json + baseline file)       *)
(* ------------------------------------------------------------------ *)

let row_fields =
  Doc.
    [
      field "workload" str (fun r -> r.ss_workload);
      field "runs" int (fun r -> r.ss_runs);
      field "time_to_peak" int (fun r -> r.ss_time_to_peak);
      field "tier0_checks" int (fun r -> r.ss_tier0);
      field "steady_checks" int (fun r -> r.ss_steady);
      field "full_checks" int (fun r -> r.ss_full);
      field "tier0_checks_per_call" num (fun r ->
          checks_per_call ~checks:r.ss_tier0 ~calls:r.ss_tier0_calls);
      field "steady_checks_per_call" num (fun r ->
          checks_per_call ~checks:r.ss_steady ~calls:r.ss_steady_calls);
      field "promotions" int (fun r -> r.ss_promotions);
      field "demotions" int (fun r -> r.ss_demotions);
      field "deopts" int (fun r -> r.ss_deopts);
      field "installs" int (fun r -> r.ss_installs);
      field "submitted" int (fun r -> r.ss_submitted);
      field "queue_full" int (fun r -> r.ss_queue_full);
      field "traps" int (fun r -> r.ss_traps);
      field "recompile_seconds" num (fun r -> r.ss_recompile_seconds);
    ]

let forced_deopt_fields =
  Doc.
    [
      field "sites" (list int) (fun fd -> fd.fd_sites);
      field "trapped_site" int (fun fd -> fd.fd_trapped);
      field "deopt_sites" (list int) (fun fd -> fd.fd_deopted);
      field "only_offending" bool (fun fd -> fd.fd_only_offending);
      field "demotions" int (fun fd -> fd.fd_demotions);
      field "deopts" int (fun fd -> fd.fd_deopts);
      field "rematerialized" int (fun fd -> fd.fd_rematerialized);
      field "reconciled" bool (fun fd -> fd.fd_reconciled);
    ]

(* The document describes (mode, rows, forced deopt). *)
let fields =
  Doc.
    [
      field "mode" (enum Fun.id [ "sync"; "async" ]) (fun (m, _, _) -> m);
      field "rows" (list (nested row_fields)) (fun (_, rows, _) -> rows);
      field "forced_deopt" (nested forced_deopt_fields) (fun (_, _, fd) -> fd);
    ]

let rules j =
  let evidence name =
    Option.bind (Json.member "forced_deopt" j) (Json.member name)
  in
  if evidence "only_offending" = Some (Json.Bool true)
     && evidence "reconciled" = Some (Json.Bool true)
  then Ok ()
  else Error "forced_deopt: deoptimization was not exact or did not reconcile"

let doc = Doc.v ~name:"tiered" ~rules "nullelim-tiered/1" fields

(** The ["tiered"] document.  [mode] records whether the rows came from
    the synchronous manager ("sync" — deterministic, what the baseline
    gate compares) or a real compile pool ("async"). *)
let tiered_json ~mode (rows : row list) (fd : forced_deopt) : Json.t =
  Doc.obj doc (Doc.record fields (mode, rows, fd))

(* ------------------------------------------------------------------ *)
(* Regression gate (BENCH_baseline.json)                               *)
(* ------------------------------------------------------------------ *)

(** Compare fresh synchronous rows against the committed ["tiered"]
    baseline.  Regressions: a steady state that executes {e more}
    explicit checks than recorded, or promotion/deopt/demotion counters
    that drifted at all — the synchronous state machine is
    deterministic, so any drift is a behaviour change that must be
    acknowledged by refreshing the baseline.  Improvements in the check
    counts and rows missing on either side are reported as drift. *)
let check_against_baseline ~(baseline : Json.t) (rows : row list) :
    (string list, string list) result =
  let fresh = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace fresh r.ss_workload r) rows;
  let regressions = ref [] and drift = ref [] in
  (match Json.member "rows" baseline with
  | Some (Json.List brows) ->
    List.iter
      (fun row ->
        let geti n =
          match Json.member n row with Some (Json.Int v) -> Some v | _ -> None
        in
        match (Json.member "workload" row, geti "steady_checks") with
        | Some (Json.Str w), Some steady -> (
          match Hashtbl.find_opt fresh w with
          | None ->
            drift := Printf.sprintf "%s: gone from fresh run" w :: !drift
          | Some r ->
            if r.ss_steady > steady then
              regressions :=
                Printf.sprintf
                  "%s: steady-state explicit checks %d > baseline %d" w
                  r.ss_steady steady
                :: !regressions
            else if r.ss_steady < steady then
              drift :=
                Printf.sprintf "%s: improved to %d (baseline %d) — refresh" w
                  r.ss_steady steady
                :: !drift;
            List.iter
              (fun (name, got) ->
                match geti name with
                | Some want when want <> got ->
                  regressions :=
                    Printf.sprintf "%s: %s drifted to %d (baseline %d)" w name
                      got want
                    :: !regressions
                | _ -> ())
              [
                ("promotions", r.ss_promotions);
                ("deopts", r.ss_deopts);
                ("demotions", r.ss_demotions);
              ])
        | _ -> drift := "malformed baseline row" :: !drift)
      brows
  | _ -> regressions := [ "baseline document has no \"rows\" list" ]);
  if !regressions <> [] then Error (List.rev !regressions)
  else Ok (List.rev !drift)
