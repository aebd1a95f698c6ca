(** The differential fuzz run (see the interface). *)

module Arch = Nullelim_arch.Arch
module Phase2 = Nullelim_opt.Phase2
module Svc = Nullelim_svc.Svc
module Clock = Nullelim_obs.Clock

(* programs the pool compiles at once: bounds resident artifacts *)
let flight = 8

let run ?(arch = Arch.ia32_windows) ?(jobs = 0) ?(mutate = false) ~seed
    ~count () : Report.t =
  let count = max 0 count and jobs = max 0 jobs in
  let params = Gen.default_params in
  let seeds =
    let r = Rng.make seed in
    Array.init count (fun _ -> Rng.fresh_seed r)
  in
  (* produce and settle both run on this domain, in index order *)
  let gens : (int, Gen.t) Hashtbl.t = Hashtbl.create 16 in
  let gen_for i =
    match Hashtbl.find_opt gens i with
    | Some g -> g
    | None ->
      let g = Gen.generate ~params ~seed:seeds.(i) () in
      Hashtbl.replace gens i g;
      g
  in
  let dist = ref Report.empty_distribution in
  let passed = ref 0
  and skipped = ref 0
  and failed = ref 0
  and pool_compiles = ref 0
  and cache_hits = ref 0
  and failures = ref [] in
  let record_failure i (f : Diff.failure) =
    incr failed;
    let g = gen_for i in
    let pred q = Diff.still_fails ~arch f q in
    let shrunk =
      if not (pred g.Gen.g_program) then
        (* e.g. a pool-only serial/parallel divergence — the serial
           shrinker predicate cannot reproduce it *)
        None
      else
        let q, st = Shrink.shrink ~still_fails:pred g.Gen.g_program in
        Some
          ( st.Shrink.sh_instrs_after,
            st.Shrink.sh_steps,
            Report.program_to_string q )
    in
    failures :=
      {
        Report.fr_seed = seeds.(i);
        fr_oracle = f.Diff.fl_oracle;
        fr_config = f.Diff.fl_config;
        fr_detail = f.Diff.fl_detail;
        fr_shrunk = shrunk;
      }
      :: !failures
  in
  let settle i (pool_outcomes : Svc.outcome list option) =
    let g = gen_for i in
    dist := Report.add_features !dist g.Gen.g_features;
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
  let t0 = Clock.now () in
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
  {
    Report.fz_seed = seed;
    fz_count = count;
    fz_gen_version = Gen.gen_version;
    fz_size = params.Gen.p_size;
    fz_arch = arch.Arch.name;
    fz_jobs = jobs;
    fz_mutate = mutate;
    fz_passed = !passed;
    fz_skipped = !skipped;
    fz_failed = !failed;
    fz_pool_compiles = !pool_compiles;
    fz_cache_hits = !cache_hits;
    fz_seconds = Clock.now () -. t0;
    fz_distribution = !dist;
    fz_failures = List.rev !failures;
  }

let verdict (r : Report.t) =
  match (r.Report.fz_mutate, r.Report.fz_failed) with
  | true, 0 ->
    Error
      (Printf.sprintf "mutation went UNDETECTED across %d programs"
         r.Report.fz_count)
  | true, n ->
    Ok
      (Some
         (Printf.sprintf
            "mutation     : caught by the oracles (%d failures), as expected" n))
  | false, 0 -> Ok None
  | false, n -> Error (Printf.sprintf "%d programs failed" n)

let pp ppf (r : Report.t) =
  let d = r.Report.fz_distribution in
  Fmt.pf ppf "fuzz         : %d programs (master seed %d, gen v%d, size %d)@."
    r.Report.fz_count r.Report.fz_seed r.Report.fz_gen_version
    r.Report.fz_size;
  Fmt.pf ppf "verdicts     : %d pass / %d skip / %d fail%s@."
    r.Report.fz_passed r.Report.fz_skipped r.Report.fz_failed
    (if r.Report.fz_mutate then " [phase-2 kill-rule mutation active]"
     else "");
  Fmt.pf ppf
    "distribution : try %d, alias %d, null %d, loop %d, recursive %d, %d \
     instrs@."
    d.Report.ds_with_try d.Report.ds_with_alias d.Report.ds_with_null
    d.Report.ds_with_loop d.Report.ds_recursive d.Report.ds_instrs_total;
  if r.Report.fz_jobs > 0 then
    Fmt.pf ppf "pool         : %d domains, %d compiles, %d cache hits@."
      r.Report.fz_jobs r.Report.fz_pool_compiles r.Report.fz_cache_hits;
  Fmt.pf ppf "wall time    : %.2f s (%.1f programs/sec)@." r.Report.fz_seconds
    (float_of_int r.Report.fz_count /. Float.max 1e-9 r.Report.fz_seconds)

let pp_failures ppf (r : Report.t) =
  List.iter
    (fun (f : Report.failure_row) ->
      Fmt.pf ppf "FAIL seed %d: [%s] %s%s@." f.Report.fr_seed
        f.Report.fr_oracle
        (if f.Report.fr_config = "" then "" else f.Report.fr_config ^ ": ")
        f.Report.fr_detail;
      match f.Report.fr_shrunk with
      | Some (instrs, steps, printed) ->
        Fmt.pf ppf "  shrunk to %d instrs in %d steps:@.%s@." instrs steps
          printed
      | None -> ())
    r.Report.fz_failures
