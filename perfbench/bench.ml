(* The repository benchmark: one run sets up a compile service, a tiered
   runtime and a native trap kernel, then measures for [--seconds] in
   100 ms rounds that interleave three phases, so machine noise lands
   on all three alike:

   - compile (50%): a closed loop of compile requests through [Svc]
     with two requests in flight on one worker domain;
   - tiered (30%): program runs through [Tier] managers;
   - native (20%): runs of an emitted C kernel whose every iteration
     takes a real SIGSEGV on the guard page and recovers.

   The workloads differ only in reuse:

   - [hit]: compile requests repeat a warmed pool of (program, config)
     keys, tiered runs reuse managers already promoted to tier 2, and
     all traps fire at one site;
   - [miss]: every compile request and every tiered run gets a freshly
     built program, so no key repeats and every tiered run starts cold,
     and traps cycle over [miss_sites] sites.

   The programs are the seventeen registry workloads at scale 1; their
   checksums come from the OCaml reference implementations, so every
   compiled artifact and every tiered run is checked against an answer
   the compiler did not produce.  A freshly built program gets fresh
   provenance sites, which the cache key covers: that is what makes
   every [miss] key distinct.

   With [--trace 1] the run records spans around each call into a layer
   and reports the per-layer ledger instead of the end-to-end metrics;
   the spans are written as a Chrome trace to [--trace-file]. *)

open Nullelim
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let arch = Arch.ia32_windows
let setups = 5
let round_s = 0.1
let in_flight = 2
let miss_sites = 64
let kernel_traps = 2048
let check_every = 4

(* ------------------------------------------------------------------ *)
(* Clock, samples, spans                                               *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_float (Native.now_ns ()) *. 1e-9

let quantile (xs : float list) q =
  match List.sort compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* End-to-end samples carry their completion time.  Co-tenants on a
   shared host slow every phase together, by up to half, in episodes of
   seconds; a run's overall median then mostly measures how long it was
   disturbed.  So an end-to-end metric is the statistic of the run's
   best one-second window: interference only ever adds time, and a
   slower program slows every window alike. *)
let window_s = 1.0

let best_window q (samples : (float * float) list) =
  let windows = Hashtbl.create 64 in
  List.iter
    (fun (t, v) ->
      let w = int_of_float (t /. window_s) in
      Hashtbl.replace windows w
        (v :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
    samples;
  let best =
    Hashtbl.fold
      (fun _ vs best ->
        if List.length vs < 20 then best else Float.min best (quantile vs q))
      windows infinity
  in
  if best = infinity then quantile (List.map snd samples) q else best

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0

(* Records [name] over [t0, t1] under [parent] when tracing; returns the
   new span's id (or -1 when not tracing). *)
let add_span ?(parent = -1) name t0 t1 =
  if not !tracing then -1
  else (
    incr next_id;
    spans := { id = !next_id; parent; name; t0; t1 } :: !spans;
    !next_id)

let timed name f =
  let t0 = now () in
  let r = f () in
  ignore (add_span name t0 (now ()));
  r

(* Self time of every span: its duration minus what its children cover
   (children never overlap each other here). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self :: Option.value ~default:[] (Hashtbl.find_opt by_name s.name)))
    !spans;
  by_name

let write_trace path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Inputs and checks                                                   *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable attempted : int;
  mutable failed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable promotions : int;
  mutable managers : int;
}

let counts =
  {
    attempted = 0;
    failed = 0;
    cache_hits = 0;
    cache_misses = 0;
    promotions = 0;
    managers = 0;
  }

let first_error = ref None

let fail what =
  counts.failed <- counts.failed + 1;
  if !first_error = None then first_error := Some what

let check_outcome what expected (r : Interp.result) =
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint c)) when c = expected -> ()
  | o -> fail (Fmt.str "%s: %a, expected %d" what Interp.pp_outcome o expected)

(* A loop whose every iteration dereferences null inside a try region at
   each of [sites] distinct sites; the handler adds [bump], so the
   result is [iters * sites * bump]. *)
let trap_kernel ~sites ~iters ~bump : Ir.program =
  let open Builder in
  let fld = { Ir.fname = "x"; foffset = 16; fkind = Ir.Kint } in
  let cls = { Ir.cname = "Cell"; csuper = None; cfields = [ fld ]; cmethods = [] } in
  let b = create ~name:"main" ~params:[] () in
  let acc = fresh b in
  emit b (Move (acc, Cint 0));
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint iters) (fun b ->
      for _ = 1 to sites do
        with_try b
          ~handler:(fun b -> emit b (Binop (acc, Add, Var acc, Cint bump)))
          (fun b ->
            let x = fresh b and t = fresh b in
            emit b (Move (x, Cnull));
            emit b (Null_check (Implicit, x, Ir.fresh_site ()));
            emit b (Get_field (t, x, fld));
            emit b (Binop (acc, Add, Var acc, Var t)))
      done);
  terminate b (Return (Some (Var acc)));
  program ~classes:[ cls ] ~main:"main" [ finish b ]

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  svc : Svc.t;
  programs : W.t array;
  configs : Config.t array;
  pool : (Svc.job * int) array;  (** hit: warmed compile jobs *)
  tiers : (Tier.t * int) array;  (** hit: managers at tier 2 *)
  kernel : Native.compiled;
  kernel_expect : int;
}

let expected (w : W.t) = w.W.expected ~scale:1

let build_kernel ~hit ~seed =
  let sites = if hit then 1 else miss_sites in
  let iters = kernel_traps / sites and bump = 1 + (seed land 7) in
  let p = trap_kernel ~sites ~iters ~bump in
  (match timed "native.emit" (fun () -> Emit_c.emit ~trap_area:arch.Arch.trap_area ~fuel_checks:false p) with
  | Ok _ -> ()
  | Error e -> failwith ("trap kernel outside the native subset: " ^ e));
  match timed "native.build" (fun () -> Native.compile ~fuel_checks:false ~arch p) with
  | Ok k -> (k, iters * sites * bump)
  | Error e -> failwith ("native build failed: " ^ e)

(* Trace-only re-measurement of the layers that run inside the worker,
   on the calling domain with the monotonic clock: the optimizer's
   passes one by one (the program's own pass timings are process CPU
   time), the key digest and the cache lookup. *)
let opt_ms = Hashtbl.create 4

let pass_group name =
  if String.starts_with ~prefix:"nullcheck" name then "nullcheck"
  else if name = "other:codegen" then "codegen"
  else "other"

let remeasure_opt (job : Svc.job) =
  let p = Ir.copy_program job.Svc.jb_program in
  (* Re-seeding rewinds this domain's site counter; move it back past
     every program built so far, or the next [miss] program could
     repeat an earlier one's sites and hit the cache. *)
  let counter = Domain.DLS.get Ir.site_counter in
  let saved = !counter in
  Ir.seed_sites p;
  let sums = Hashtbl.create 4 in
  List.iter (fun g -> Hashtbl.replace sums g 0.) [ "nullcheck"; "codegen"; "other" ];
  ignore
    (Nullelim_obs.Decision.with_log (fun () ->
         List.iter
           (fun (pass : Pipeline.pass) ->
             let t0 = now () in
             Pipeline.run [ pass ] p;
             let t1 = now () in
             ignore (add_span ("opt." ^ pass.Pipeline.name) t0 t1);
             let g = pass_group pass.Pipeline.name in
             Hashtbl.replace sums g (Hashtbl.find sums g +. t1 -. t0))
           (Compiler.passes job.Svc.jb_config ~arch)));
  counter := max saved !counter;
  Hashtbl.iter
    (fun g t ->
      Hashtbl.replace opt_ms g
        ((t *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt opt_ms g)))
    sums

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let warm_tier svc (w : W.t) =
  let t =
    timed "tier.tier0_compile" (fun () ->
        Tier.create ~svc ~config:Config.new_full ~arch (w.W.build ~scale:1))
  in
  (* Main is promoted after [promote_calls] runs; drain and run once
     more so every promotion is installed before timing. *)
  for _ = 0 to Config.new_full.Config.promote_calls do
    ignore (Tier.run t [])
  done;
  Tier.drain t;
  check_outcome ("tier warm-up " ^ w.W.name) (expected w) (Tier.run t []);
  (t, expected w)

let setup ~hit ~seed =
  let programs = Array.of_list (Registry.all ()) in
  let configs = Array.of_list Config.windows_suite in
  let svc =
    timed "svc.create" (fun () ->
        Svc.create ~domains:1 ~cache:(Svc.create_cache ()) ())
  in
  let pool, tiers =
    if not hit then ([||], [||])
    else
      let jobs =
        Array.to_list programs
        |> List.concat_map (fun (w : W.t) ->
               let p = w.W.build ~scale:1 in
               Array.to_list configs
               |> List.map (fun config -> (Svc.job ~config ~arch p, expected w)))
      in
      let outcomes = Svc.compile_all svc (List.map fst jobs) in
      List.iter2
        (fun (o : Svc.outcome) (_, e) ->
          check_outcome "pool warm-up" e
            (Interp.run ~arch o.Svc.oc_compiled.Compiler.program []))
        outcomes jobs;
      if !tracing then List.iter (fun (j, _) -> remeasure_opt j) jobs;
      (Array.of_list jobs, Array.map (warm_tier svc) programs)
  in
  let kernel, kernel_expect = build_kernel ~hit ~seed in
  { svc; programs; configs; pool; tiers; kernel; kernel_expect }

let teardown st =
  Svc.shutdown st.svc;
  Native.close st.kernel

(* ------------------------------------------------------------------ *)
(* The three phases                                                    *)
(* ------------------------------------------------------------------ *)

let compile_ms = ref []
let tiered_ms = ref []
let trap_ns = ref []
let service_ms = ref []
let instrs = ref []
let explicit_checks = ref []
let transfers = ref []
let explicit_after = ref []

(* Draws indices in [0, n) as back-to-back seeded shuffles, so every
   run sees nearly the same mix of inputs, only in another order: the
   seed then moves a run's medians less than the machine does. *)
let cycle rng n =
  let perm = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    perm.(!pos - 1)

let fresh_job st k =
  let n = Array.length st.configs in
  let w = st.programs.(k / n) and config = st.configs.(k mod n) in
  (Svc.job ~config ~arch (w.W.build ~scale:1), expected w)

let remeasure st ~miss job =
  if miss then remeasure_opt job;
  let key = timed "svc.key_digest" (fun () -> Svc.job_key job) in
  match Svc.cache st.svc with
  | Some c -> ignore (timed "svc.cache_lookup" (fun () -> Codecache.find c key))
  | None -> ()

let finish_request st ~hit (job, e) t0 fut n =
  let o = Svc.await fut in
  let t1 = now () in
  counts.attempted <- counts.attempted + 1;
  compile_ms := (t1, (t1 -. t0) *. 1e3) :: !compile_ms;
  let c = o.Svc.oc_compiled in
  if o.Svc.oc_cache_hit then counts.cache_hits <- counts.cache_hits + 1
  else counts.cache_misses <- counts.cache_misses + 1;
  (match Compiler.reconcile c with
  | Ok () -> ()
  | Error m -> fail ("decision log does not reconcile: " ^ m));
  if (not hit) && n mod check_every = 0 then
    check_outcome "compiled artifact" e (Interp.run ~arch c.Compiler.program []);
  if !tracing then begin
    let req = add_span "compile.request" t0 t1 in
    let q = o.Svc.oc_queued_seconds and s = o.Svc.oc_seconds in
    ignore (add_span ~parent:req "svc.queue" t0 (t0 +. q));
    ignore (add_span ~parent:req "svc.service" (t1 -. s) t1);
    service_ms := (s *. 1e3) :: !service_ms;
    transfers := float_of_int c.Compiler.solver.Nullelim_dataflow.Solver.transfers :: !transfers;
    explicit_after := float_of_int c.Compiler.checks.Compiler.explicit_after :: !explicit_after;
    remeasure st ~miss:(not o.Svc.oc_cache_hit) job
  end

let compile_phase st ~hit next deadline =
  let inflight = Queue.create () in
  let n = ref 0 in
  let rec loop () =
    if now () < deadline && Queue.length inflight < in_flight then begin
      let ((job, _) as req) =
        if hit then st.pool.(next ()) else fresh_job st (next ())
      in
      let t0 = now () in
      match Svc.recompile_async st.svc job with
      | Some fut -> Queue.push (req, t0, fut) inflight; loop ()
      | None -> counts.attempted <- counts.attempted + 1; fail "compile request shed"
    end
    else if not (Queue.is_empty inflight) then begin
      let req, t0, fut = Queue.pop inflight in
      incr n;
      finish_request st ~hit req t0 fut !n;
      loop ()
    end
  in
  loop ()

let record_run name e (r : Interp.result) =
  counts.attempted <- counts.attempted + 1;
  check_outcome name e r;
  instrs := float_of_int r.Interp.counters.Interp.instrs :: !instrs;
  explicit_checks := float_of_int r.Interp.counters.Interp.explicit_checks :: !explicit_checks

let tiered_phase st ~hit next deadline =
  while now () < deadline do
    if hit then begin
      let t, e = st.tiers.(next ()) in
      let t0 = now () in
      let r = Tier.run t [] in
      let t1 = now () in
      ignore (add_span "tier.run" t0 t1);
      tiered_ms := (t1, (t1 -. t0) *. 1e3) :: !tiered_ms;
      record_run "tiered run" e r
    end
    else begin
      let w = st.programs.(next ()) in
      let p = w.W.build ~scale:1 in
      let t0 = now () in
      let t = Tier.create ~svc:st.svc ~config:Config.new_full ~arch p in
      let t1 = now () in
      let r = Tier.run t [] in
      let t2 = now () in
      let req = add_span "tier.request" t0 t2 in
      ignore (add_span ~parent:req "tier.tier0_compile" t0 t1);
      ignore (add_span ~parent:req "tier.run" t1 t2);
      tiered_ms := (t2, (t2 -. t0) *. 1e3) :: !tiered_ms;
      record_run "cold tiered run" (expected w) r;
      (* Let promotions submitted by this run finish before the next
         request, so requests do not queue behind each other's
         recompiles. *)
      Tier.drain t;
      let s = Tier.stats t in
      counts.managers <- counts.managers + 1;
      counts.promotions <- counts.promotions + s.Tier.st_promotions
    end
  done

let native_phase st deadline =
  while now () < deadline do
    let r = Native.run st.kernel in
    let t1 = now () in
    counts.attempted <- counts.attempted + 1;
    ignore (add_span "native.run" (t1 -. (Int64.to_float r.Native.r_wall_ns *. 1e-9)) t1);
    check_outcome "trap kernel" st.kernel_expect r.Native.r_result;
    if r.Native.r_traps <> kernel_traps then
      fail (Printf.sprintf "trap kernel recovered %d traps, expected %d" r.Native.r_traps kernel_traps)
    else
      trap_ns := (t1, Int64.to_float r.Native.r_wall_ns /. float_of_int kernel_traps) :: !trap_ns
  done

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let json_metric (name, value, unit) =
  (* An empty sample list means a phase never ran: a benchmark bug. *)
  let value = if Float.is_nan value then (fail ("no samples for " ^ name); 0.) else value in
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hit | miss");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer ledger");
      ("--trace-file", Arg.Set_string trace_file, "where --trace 1 writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload hit|miss --seed N --seconds S --trace 0|1";
  let hit =
    match !workload with
    | "hit" -> true
    | "miss" -> false
    | w -> prerr_endline ("unknown workload: " ^ w); exit 2
  in
  if not (Native.available ()) then begin
    prerr_endline "the native backend is unavailable on this host";
    exit 2
  end;
  tracing := !trace = 1;
  let rng = Random.State.make [| !seed |] in
  let setup_s = ref [] in
  let st = ref None in
  for _ = 1 to setups do
    Option.iter teardown !st;
    let t0 = now () in
    st := Some (setup ~hit ~seed:!seed);
    setup_s := (now () -. t0) :: !setup_s
  done;
  let st = Option.get !st in
  let next_job = cycle rng (Array.length st.programs * Array.length st.configs) in
  let next_program = cycle rng (Array.length st.programs) in
  Gc.full_major ();
  let t_end = now () +. float_of_int !seconds in
  while now () < t_end do
    let t = now () in
    compile_phase st ~hit next_job (Float.min t_end (t +. (0.5 *. round_s)));
    tiered_phase st ~hit next_program (Float.min t_end (t +. (0.8 *. round_s)));
    native_phase st (Float.min t_end (t +. round_s))
  done;
  if hit then
    Array.iter
      (fun (t, _) ->
        let s = Tier.stats t in
        counts.managers <- counts.managers + 1;
        counts.promotions <- counts.promotions + s.Tier.st_promotions)
      st.tiers;
  teardown st;
  let metrics =
    if not !tracing then
      [
        ("compile_p50_ms", best_window 0.5 !compile_ms, "ms");
        ("tiered_run_p50_ms", best_window 0.5 !tiered_ms, "ms");
        ("trap_recovery_ns", best_window 0.5 !trap_ns, "ns");
        ("setup_s", median !setup_s, "s");
      ]
    else begin
      if !trace_file <> "" then write_trace !trace_file;
      let self = self_times () in
      let ms name = median (Option.value ~default:[] (Hashtbl.find_opt self name)) *. 1e3 in
      let opt g = mean (Option.value ~default:[] (Hashtbl.find_opt opt_ms g)) in
      let per_manager n = float_of_int n /. float_of_int (max 1 counts.managers) in
      [
        ("svc_unattributed_ms", ms "compile.request", "ms");
        ("svc_queue_wait_ms", ms "svc.queue", "ms");
        ("svc_service_ms", median !service_ms, "ms");
        ("svc_key_digest_ms", ms "svc.key_digest", "ms");
        ("svc_cache_lookup_ms", ms "svc.cache_lookup", "ms");
        ("opt_nullcheck_ms", opt "nullcheck", "ms");
        ("opt_codegen_ms", opt "codegen", "ms");
        ("opt_other_ms", opt "other", "ms");
        ("cache_hits", float_of_int counts.cache_hits, "count");
        ("cache_misses", float_of_int counts.cache_misses, "count");
        ("solver_transfers", median !transfers, "count");
        ("checks_explicit_after", mean !explicit_after, "count");
        ("tier_tier0_compile_ms", ms "tier.tier0_compile", "ms");
        ("tier_run_ms", ms "tier.run", "ms");
        ("tier_promotions", per_manager counts.promotions, "count");
        ("interp_instrs", median !instrs, "count");
        ("interp_explicit_checks", median !explicit_checks, "count");
        ("svc_create_ms", ms "svc.create", "ms");
        ("native_emit_ms", ms "native.emit", "ms");
        ("native_build_ms", ms "native.build", "ms");
        ("native_run_ms", ms "native.run", "ms");
      ]
    end
  in
  Option.iter (fun e -> prerr_endline ("check failed: " ^ e)) !first_error;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (counts.failed = 0) counts.attempted counts.failed
    (String.concat ", " (List.map json_metric metrics))
