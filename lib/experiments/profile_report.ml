(** Per-site dynamic profiling reports (the paper's Figures 7-8).

    [Experiments] reproduces the *score* tables; this module produces the
    *attribution* data: which check site, loop and optimization decision
    each dynamic count came from.  One {!run} bundles everything a report
    needs about a single workload x config execution — the profile
    collector, the interpreter's result (outcome and aggregate
    counters), and the compiled artifact (its program for loop
    structure, its decision log for provenance lineage).  [nullelim run
    --profile] prints its tables from the same {!collect}.

    Reconciliation ({!reconcile}) is the correctness contract: per-site
    profile counts must sum exactly to the aggregate counters, and every
    executed check site must trace back to an original IR site or a
    decision-log event that minted it.  The profile CLI refuses to emit
    a report that does not reconcile, and the property tests run the
    same predicate over the whole workload x config matrix. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Interp = Nullelim_vm.Interp
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Context = Nullelim_cfg.Context
module Loops = Nullelim_cfg.Loops
module Profile = Nullelim_obs.Profile
module Clock = Nullelim_obs.Clock
module Decision = Nullelim_obs.Decision
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

(** The report's config axis: unoptimized baseline, Whaley's forward
    elimination, the paper's architecture-independent phase 1, and the
    full phase 1 + phase 2 pipeline.  (There is no phase-2-only
    configuration — phase 2 consumes phase 1's result by design.) *)
let profile_configs : Config.t list =
  [
    Config.no_null_opt_no_trap;
    Config.old_null_check;
    Config.new_phase1_only;
    Config.new_full;
  ]

let baseline_config = Config.no_null_opt_no_trap.Config.name

type run = {
  pr_workload : string;
  pr_config : string;
  pr_profile : Profile.t;
  pr_compiled : Compiler.compiled;  (** the artifact that was executed *)
  pr_result : Interp.result;
  pr_run_span : float * float;  (** {!Clock.now} before and after the run *)
  pr_orig_sites : (Ir.site, unit) Hashtbl.t;
      (** sites present in the freshly built (pre-optimization) program *)
}

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

let collect ?(scale = 1) ~(arch : Arch.t) (cfg : Config.t) (w : W.t) : run =
  (* site ids restart at 0 per workload so that the committed baseline
     numbers do not depend on which workloads ran before this one *)
  Ir.reset_sites ();
  let prog = w.W.build ~scale in
  let orig = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ f ->
      List.iter (fun s -> Hashtbl.replace orig s ()) (Ir.sites_of_func f))
    prog.Ir.funcs;
  let c = Compiler.compile cfg ~arch prog in
  let profile = Profile.create () in
  let t0 = Clock.now () in
  let r =
    Interp.run ~fuel:1_000_000_000 ~profile ~arch c.Compiler.program []
  in
  let t1 = Clock.now () in
  (match r.Interp.outcome with
  | Interp.Returned (Some _) -> ()
  | o ->
    failwith
      (Fmt.str "profile %s/%s/%s: %a" w.W.name cfg.Config.name
         arch.Arch.name Interp.pp_outcome o));
  {
    pr_workload = w.W.name;
    pr_config = cfg.Config.name;
    pr_profile = profile;
    pr_compiled = c;
    pr_result = r;
    pr_run_span = (t0, t1);
    pr_orig_sites = orig;
  }

(** All registry workloads x {!profile_configs}, grouped by workload. *)
let collect_all ?(scale = 1) ~(arch : Arch.t) () : run list list =
  List.map
    (fun w -> List.map (fun cfg -> collect ~scale ~arch cfg w) profile_configs)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Reconciliation                                                      *)
(* ------------------------------------------------------------------ *)

(** Per-site counts must sum to the aggregate counters, field by field,
    and every executed site must have a provenance story. *)
let reconcile (r : run) : (unit, string) result =
  let ( let* ) = Result.bind in
  let p = r.pr_profile and c = r.pr_result.Interp.counters in
  let sites = Profile.sites p in
  let sum f = List.fold_left (fun a row -> a + f row) 0 sites in
  let eq name got want =
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf "%s/%s: %s: profile %d <> counters %d" r.pr_workload
           r.pr_config name got want)
  in
  let* () =
    eq "explicit hits"
      (Profile.total_hits p Profile.Cexplicit)
      c.Interp.explicit_checks
  in
  let* () =
    eq "implicit hits"
      (Profile.total_hits p Profile.Cimplicit)
      c.Interp.implicit_checks
  in
  let* () =
    eq "bound hits" (Profile.total_hits p Profile.Cbound) c.Interp.bound_checks
  in
  let* () = eq "npe" (sum (fun s -> s.Profile.sr_npe)) c.Interp.npe_explicit in
  let* () =
    eq "misses" (sum (fun s -> s.Profile.sr_misses)) c.Interp.implicit_miss
  in
  let* () =
    eq "traps"
      (sum (fun s -> s.Profile.sr_traps) + Profile.other_traps p)
      c.Interp.npe_trap
  in
  let* () =
    eq "spec reads"
      (List.fold_left
         (fun a (b : Profile.block_row) -> a + b.Profile.br_spec_reads)
         0 (Profile.blocks p))
      c.Interp.spec_null_reads
  in
  (* provenance: a site the interpreter saw is either an original
     builder-assigned id or was minted during optimization, in which
     case some decision event recorded it *)
  let minted = Hashtbl.create 64 in
  List.iter
    (fun (e : Decision.event) ->
      if e.Decision.site >= 0 then Hashtbl.replace minted e.Decision.site ())
    r.pr_compiled.Compiler.decisions;
  List.fold_left
    (fun acc (s : Profile.site_row) ->
      let* () = acc in
      let id = s.Profile.sr_site in
      if id < 0 then
        Error
          (Printf.sprintf "%s/%s: executed %s check with no provenance id"
             r.pr_workload r.pr_config
             (Profile.kind_to_string s.Profile.sr_kind))
      else if Hashtbl.mem r.pr_orig_sites id || Hashtbl.mem minted id then
        Ok ()
      else
        Error
          (Printf.sprintf
             "%s/%s: site %d (%s, %s) traces to neither an original IR site \
              nor a decision-log event"
             r.pr_workload r.pr_config id s.Profile.sr_func
             (Profile.kind_to_string s.Profile.sr_kind)))
    (Ok ()) sites

(* ------------------------------------------------------------------ *)
(* Loop hotness                                                        *)
(* ------------------------------------------------------------------ *)

type hot_loop = {
  hl_func : string;
  hl_header : int;
  hl_blocks : int;       (** static blocks in the loop body *)
  hl_dynamic : int;      (** executed blocks: sum of body block counts *)
  hl_header_trips : int; (** times the header block ran *)
}

(** Natural loops of the optimized program ranked by executed-block
    count (descending).  Block counts come from the profile; loop
    structure from the memoized {!Context} over each function. *)
let loop_hotness (r : run) : hot_loop list =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (b : Profile.block_row) ->
      Hashtbl.replace counts (b.Profile.br_func, b.Profile.br_block)
        b.Profile.br_count)
    (Profile.blocks r.pr_profile);
  let count func blk =
    Option.value ~default:0 (Hashtbl.find_opt counts (func, blk))
  in
  let loops = ref [] in
  Ir.iter_funcs
    (fun f ->
      let ctx = Context.make f in
      List.iter
        (fun (l : Loops.loop) ->
          let members = Loops.members l in
          let dyn =
            List.fold_left
              (fun a blk -> a + count f.Ir.fn_name blk)
              0 members
          in
          loops :=
            {
              hl_func = f.Ir.fn_name;
              hl_header = l.Loops.header;
              hl_blocks = List.length members;
              hl_dynamic = dyn;
              hl_header_trips = count f.Ir.fn_name l.Loops.header;
            }
            :: !loops)
        (Context.loops ctx))
    r.pr_compiled.Compiler.program;
  List.sort (fun a b -> compare (b.hl_dynamic, a.hl_func) (a.hl_dynamic, b.hl_func)) !loops

type func_summary = {
  fs_func : string;
  fs_blocks_run : int;    (** sum of block counts over the function *)
  fs_in_loops : int;      (** portion of [fs_blocks_run] inside loops *)
  fs_checks_run : int;    (** dynamic checks attributed to the function *)
  fs_hottest : (int * int) list;  (** top blocks as (label, count) *)
}

(** Per-function hot-path summary: how much of the function's dynamic
    block traffic sits inside natural loops, and where the checks are. *)
let func_summaries ?(top = 3) (r : run) : func_summary list =
  let in_loop = Hashtbl.create 256 in
  Ir.iter_funcs
    (fun f ->
      let ctx = Context.make f in
      List.iter
        (fun (l : Loops.loop) ->
          List.iter
            (fun blk -> Hashtbl.replace in_loop (f.Ir.fn_name, blk) ())
            (Loops.members l))
        (Context.loops ctx))
    r.pr_compiled.Compiler.program;
  let checks = Hashtbl.create 64 in
  List.iter
    (fun (s : Profile.site_row) ->
      let cur =
        Option.value ~default:0 (Hashtbl.find_opt checks s.Profile.sr_func)
      in
      Hashtbl.replace checks s.Profile.sr_func (cur + s.Profile.sr_hits))
    (Profile.sites r.pr_profile);
  let by_func = Hashtbl.create 64 in
  List.iter
    (fun (b : Profile.block_row) ->
      let rows =
        Option.value ~default:[] (Hashtbl.find_opt by_func b.Profile.br_func)
      in
      Hashtbl.replace by_func b.Profile.br_func (b :: rows))
    (Profile.blocks r.pr_profile);
  Hashtbl.fold
    (fun func rows acc ->
      let total =
        List.fold_left (fun a (b : Profile.block_row) -> a + b.Profile.br_count) 0 rows
      in
      let looped =
        List.fold_left
          (fun a (b : Profile.block_row) ->
            if Hashtbl.mem in_loop (func, b.Profile.br_block) then
              a + b.Profile.br_count
            else a)
          0 rows
      in
      let hottest =
        List.sort
          (fun (b1 : Profile.block_row) b2 ->
            compare b2.Profile.br_count b1.Profile.br_count)
          rows
        |> List.filteri (fun i _ -> i < top)
        |> List.map (fun (b : Profile.block_row) ->
               (b.Profile.br_block, b.Profile.br_count))
      in
      {
        fs_func = func;
        fs_blocks_run = total;
        fs_in_loops = looped;
        fs_checks_run =
          Option.value ~default:0 (Hashtbl.find_opt checks func);
        fs_hottest = hottest;
      }
      :: acc)
    by_func []
  |> List.sort (fun a b -> compare (b.fs_blocks_run, a.fs_func) (a.fs_blocks_run, b.fs_func))

(* ------------------------------------------------------------------ *)
(* Dynamic-elimination table (Figures 7-8)                             *)
(* ------------------------------------------------------------------ *)

type elim_row = {
  er_workload : string;
  er_config : string;
  er_explicit : int;   (** dynamic explicit null checks *)
  er_implicit : int;   (** dynamic implicit ("free") null checks *)
  er_bound : int;      (** dynamic bound checks *)
  er_baseline : int;   (** baseline config's dynamic null checks *)
  er_pct_eliminated : float;
      (** 100 * (1 - (explicit+implicit)/baseline): checks that no
          longer exist dynamically in any form *)
  er_pct_implicit : float;
      (** 100 * implicit/baseline: checks converted to free implicit
          form (the paper's "eliminated by hardware trap" share) *)
}

(** [runs] must be one workload's runs across configs and include the
    baseline config. *)
let elim_rows (runs : run list) : elim_row list =
  let null_checks (r : run) =
    let c = r.pr_result.Interp.counters in
    c.Interp.explicit_checks + c.Interp.implicit_checks
  in
  let base =
    match List.find_opt (fun r -> r.pr_config = baseline_config) runs with
    | Some r -> null_checks r
    | None -> invalid_arg "elim_rows: no baseline run"
  in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 base) in
  List.map
    (fun r ->
      let c = r.pr_result.Interp.counters in
      {
        er_workload = r.pr_workload;
        er_config = r.pr_config;
        er_explicit = c.Interp.explicit_checks;
        er_implicit = c.Interp.implicit_checks;
        er_bound = c.Interp.bound_checks;
        er_baseline = base;
        er_pct_eliminated = 100. -. pct (null_checks r);
        er_pct_implicit = pct c.Interp.implicit_checks;
      })
    runs

(* ------------------------------------------------------------------ *)
(* Markdown                                                            *)
(* ------------------------------------------------------------------ *)

let pf = Printf.bprintf

let md_site_table buf (r : run) =
  pf buf "#### `%s` under `%s`\n\n" r.pr_workload r.pr_config;
  let sites = Profile.sites r.pr_profile in
  if sites = [] then pf buf "(no checks executed)\n\n"
  else begin
    pf buf "| site | func | kind | hits | npe | traps | misses |\n";
    pf buf "|-----:|------|------|-----:|----:|------:|-------:|\n";
    List.iter
      (fun (s : Profile.site_row) ->
        pf buf "| %d | `%s` | %s | %d | %d | %d | %d |\n" s.Profile.sr_site
          s.Profile.sr_func
          (Profile.kind_to_string s.Profile.sr_kind)
          s.Profile.sr_hits s.Profile.sr_npe s.Profile.sr_traps
          s.Profile.sr_misses)
      sites;
    if Profile.other_traps r.pr_profile > 0 then
      pf buf "\nunattributed hardware traps: %d\n"
        (Profile.other_traps r.pr_profile);
    pf buf "\n"
  end

let md_hotness buf (r : run) ~loops_top =
  let hot = loop_hotness r in
  if hot <> [] then begin
    pf buf "Hottest loops (`%s`, executed blocks):\n\n" r.pr_config;
    pf buf "| func | header | static blocks | dynamic blocks | header trips |\n";
    pf buf "|------|-------:|--------------:|---------------:|-------------:|\n";
    List.iteri
      (fun i (l : hot_loop) ->
        if i < loops_top then
          pf buf "| `%s` | %d | %d | %d | %d |\n" l.hl_func l.hl_header
            l.hl_blocks l.hl_dynamic l.hl_header_trips)
      hot;
    pf buf "\n"
  end;
  let fns = func_summaries r in
  pf buf "Per-function hot paths:\n\n";
  pf buf "| func | blocks run | in loops | checks run | hottest blocks |\n";
  pf buf "|------|-----------:|---------:|-----------:|----------------|\n";
  List.iter
    (fun (f : func_summary) ->
      let hot_s =
        String.concat ", "
          (List.map (fun (b, c) -> Printf.sprintf "b%d:%d" b c) f.fs_hottest)
      in
      pf buf "| `%s` | %d | %d | %d | %s |\n" f.fs_func f.fs_blocks_run
        f.fs_in_loops f.fs_checks_run hot_s)
    fns;
  pf buf "\n"

let md_elim_table buf (rows : elim_row list) =
  pf buf
    "| workload | config | explicit | implicit | bound | %% eliminated | %% \
     implicit |\n";
  pf buf
    "|----------|--------|---------:|---------:|------:|--------------:|-----------:|\n";
  List.iter
    (fun (e : elim_row) ->
      pf buf "| %s | %s | %d | %d | %d | %.1f | %.1f |\n" e.er_workload
        e.er_config e.er_explicit e.er_implicit e.er_bound e.er_pct_eliminated
        e.er_pct_implicit)
    rows;
  pf buf "\n"

(** Every run reconciled; [Error] joins the mismatches.  A report whose
    per-site rows do not sum to the aggregate counters is worthless, so
    both the CLI and the bench refuse to emit one. *)
let reconcile_all (all : run list list) : (unit, string) result =
  match
    List.concat_map
      (List.filter_map (fun r ->
           match reconcile r with Ok () -> None | Error e -> Some e))
      all
  with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)

(** The stdout elimination table: one line per workload x config. *)
let pp_summary ppf (all : run list list) =
  Fmt.pf ppf "%-18s %-22s %10s %10s %8s %8s@." "workload" "config" "explicit"
    "implicit" "elim%" "impl%";
  List.iter
    (fun runs ->
      List.iter
        (fun (e : elim_row) ->
          Fmt.pf ppf "%-18s %-22s %10d %10d %7.1f%% %7.1f%%@." e.er_workload
            e.er_config e.er_explicit e.er_implicit e.er_pct_eliminated
            e.er_pct_implicit)
        (elim_rows runs))
    all

(** The full markdown report over the workload x config matrix.
    Raises [Failure] if any run fails to reconcile ({!reconcile_all}). *)
let report_md ?(scale = 1) (all : run list list) : string =
  let buf = Buffer.create (1 lsl 16) in
  pf buf "# Dynamic null-check profile (scale %d)\n\n" scale;
  pf buf
    "Per-site dynamic counts attributed to static provenance ids; the \
     elimination percentages reproduce the shape of the paper's Figures \
     7-8 (dynamic checks vs. the `%s` baseline).\n\n"
    baseline_config;
  pf buf "## Dynamic elimination (Figures 7-8)\n\n";
  Result.iter_error failwith (reconcile_all all);
  List.iter (fun runs -> md_elim_table buf (elim_rows runs)) all;
  pf buf "## Per-site profiles\n\n";
  List.iter (fun runs -> List.iter (fun r -> md_site_table buf r) runs) all;
  pf buf "## Loop hotness and hot paths (full config)\n\n";
  List.iter
    (fun runs ->
      match List.find_opt (fun r -> r.pr_config = Config.new_full.Config.name) runs with
      | Some r ->
        pf buf "### `%s`\n\n" r.pr_workload;
        md_hotness buf r ~loops_top:5
      | None -> ())
    all;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON ("dynamic" section of BENCH_results.json + baseline file)      *)
(* ------------------------------------------------------------------ *)

let elim_fields =
  Doc.
    [
      field "workload" str (fun e -> e.er_workload);
      field "config" str (fun e -> e.er_config);
      field "explicit" int (fun e -> e.er_explicit);
      field "implicit" int (fun e -> e.er_implicit);
      field "bound" int (fun e -> e.er_bound);
      field "baseline" int (fun e -> e.er_baseline);
      field "pct_eliminated" num (fun e -> e.er_pct_eliminated);
      field "pct_implicit" num (fun e -> e.er_pct_implicit);
    ]

(* The document describes (scale, rows). *)
let dynamic_fields =
  Doc.
    [
      field "scale" int fst;
      field "baseline_config" str (fun _ -> baseline_config);
      field "rows" (list (nested elim_fields)) snd;
    ]

let dynamic_doc = Doc.v ~name:"dynamic" "nullelim-dynamic/1" dynamic_fields

(** The ["dynamic"] document merged into [BENCH_results.json]: scale-1
    deterministic dynamic counters — no wall-clock anywhere, so the
    committed baseline diff is meaningful. *)
let dynamic_json ~scale (all : run list list) : Json.t =
  Doc.obj dynamic_doc
    (Doc.record dynamic_fields (scale, List.concat_map elim_rows all))

(* ------------------------------------------------------------------ *)
(* Regression gate (BENCH_baseline.json)                               *)
(* ------------------------------------------------------------------ *)

(** Compare fresh runs against a committed baseline document (the
    ["dynamic"] schema).  A regression is a workload x config whose
    dynamic null-check count (explicit + implicit) exceeds the recorded
    value — the optimizer got *worse* at eliminating checks.  Rows
    missing from either side and counts that merely changed downward
    are reported as drift (the refresh script re-records them) but do
    not fail the gate. *)
let check_against_baseline ~(baseline : Json.t) (all : run list list) :
    (string list, string list) result =
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun runs ->
      List.iter
        (fun (e : elim_row) ->
          Hashtbl.replace fresh (e.er_workload, e.er_config)
            (e.er_explicit + e.er_implicit))
        (elim_rows runs))
    all;
  let regressions = ref [] and drift = ref [] in
  (match Json.member "rows" baseline with
  | Some (Json.List rows) ->
    List.iter
      (fun row ->
        match
          ( Json.member "workload" row,
            Json.member "config" row,
            Json.member "explicit" row,
            Json.member "implicit" row )
        with
        | Some (Json.Str w), Some (Json.Str c), Some (Json.Int e), Some (Json.Int i)
          -> (
          let recorded = e + i in
          match Hashtbl.find_opt fresh (w, c) with
          | None -> drift := Printf.sprintf "%s/%s: gone from fresh run" w c :: !drift
          | Some now when now > recorded ->
            regressions :=
              Printf.sprintf "%s/%s: dynamic null checks %d > baseline %d" w c
                now recorded
              :: !regressions
          | Some now when now < recorded ->
            drift :=
              Printf.sprintf "%s/%s: improved to %d (baseline %d) — refresh"
                w c now recorded
              :: !drift
          | Some _ -> ())
        | _ -> drift := "malformed baseline row" :: !drift)
      rows
  | _ -> regressions := [ "baseline document has no \"rows\" list" ]);
  if !regressions <> [] then Error (List.rev !regressions)
  else Ok (List.rev !drift)
