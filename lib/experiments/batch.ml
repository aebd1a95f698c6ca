(** The registry compiled as one parallel batch (see the interface). *)

module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Compiler = Nullelim_jit.Compiler
module Svc = Nullelim_svc.Svc
module Codecache = Nullelim_svc.Codecache
module Clock = Nullelim_obs.Clock
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

type t = {
  b_arch : Arch.t;
  b_scale : int;
  b_workloads : int;
  b_configs : int;
  b_repeat : int;
  b_domains : int;
  b_wall : float;
  b_outcomes : Svc.outcome list;
  b_cache : Codecache.stats option;
  b_unreconciled : string list;
}

let run ?(jobs = 0) ?(repeat = 1) ?(cache = true) ?(scale = 1) ~(arch : Arch.t)
    () : t =
  let repeat = max 1 repeat in
  let configs =
    if arch.Arch.name = Arch.ppc_aix.Arch.name then Config.aix_suite
    else Config.windows_suite
  in
  let workloads = Registry.all () in
  let matrix =
    List.concat_map
      (fun (w : W.t) ->
        let p = w.W.build ~scale in
        List.map (fun cfg -> Svc.job ~config:cfg ~arch p) configs)
      workloads
  in
  let all_jobs = List.concat (List.init repeat (fun _ -> matrix)) in
  let cache = if cache then Some (Svc.create_cache ()) else None in
  let domains = if jobs > 0 then jobs else Svc.default_domains () in
  let t0 = Clock.now () in
  let outcomes =
    Svc.with_service ~domains ?cache (fun t -> Svc.compile_all t all_jobs)
  in
  let wall = Clock.now () -. t0 in
  {
    b_arch = arch;
    b_scale = scale;
    b_workloads = List.length workloads;
    b_configs = List.length configs;
    b_repeat = repeat;
    b_domains = domains;
    b_wall = wall;
    b_outcomes = outcomes;
    b_cache = Option.map Codecache.stats cache;
    b_unreconciled =
      List.filter_map
        (fun (o : Svc.outcome) ->
          Result.fold ~ok:(fun () -> None) ~error:Option.some
            (Compiler.reconcile o.Svc.oc_compiled))
        outcomes;
  }

let distinct_keys t =
  List.length
    (List.sort_uniq String.compare
       (List.map (fun (o : Svc.outcome) -> o.Svc.oc_key) t.b_outcomes))

(* With nothing evicted, a key that missed twice was compiled twice:
   the batch's single flight let a repeat through. *)
let single_flight (s : Codecache.stats) ~keys =
  if s.Codecache.evictions = 0 && s.Codecache.misses <> keys then
    Error
      (Printf.sprintf "single flight FAILED: %d misses for %d distinct keys"
         s.Codecache.misses keys)
  else Ok ()

let check t =
  let n = List.length t.b_outcomes in
  match (t.b_unreconciled, t.b_cache) with
  | e :: _, _ ->
    Error
      (Printf.sprintf "reconciliation FAILED (%d of %d): %s"
         (List.length t.b_unreconciled) n e)
  | [], Some s -> single_flight s ~keys:(distinct_keys t)
  | [], None -> Ok ()

let pp ppf t =
  let n = List.length t.b_outcomes in
  Fmt.pf ppf "batch          : %d jobs (%d workloads x %d configs x repeat %d)@."
    n t.b_workloads t.b_configs t.b_repeat;
  Fmt.pf ppf "domains        : %d (queue capacity 64)@." t.b_domains;
  Fmt.pf ppf "arch / scale   : %s / %d@." t.b_arch.Arch.name t.b_scale;
  Fmt.pf ppf "wall time      : %.4f s (%.1f jobs/sec)@." t.b_wall
    (float_of_int n /. Float.max 1e-9 t.b_wall);
  Fmt.pf ppf "compile time   : %.4f s summed over fresh compiles@."
    (List.fold_left
       (fun acc (o : Svc.outcome) ->
         acc +. o.Svc.oc_compiled.Compiler.compile_seconds)
       0. t.b_outcomes);
  (match t.b_cache with
  | None -> Fmt.pf ppf "cache          : off@."
  | Some s ->
    Fmt.pf ppf
      "cache          : %d hits / %d misses / %d evictions, %d entries, %.2f \
       MiB of %.0f MiB@."
      s.Codecache.hits s.Codecache.misses s.Codecache.evictions
      s.Codecache.entries
      (float_of_int s.Codecache.bytes /. 1048576.)
      (float_of_int s.Codecache.budget_bytes /. 1048576.);
    Fmt.pf ppf "               : %d of %d jobs served from cache@."
      (List.length (List.filter (fun o -> o.Svc.oc_cache_hit) t.b_outcomes))
      n;
    Fmt.pf ppf "               : %d misses for %d distinct keys@."
      s.Codecache.misses (distinct_keys t));
  if t.b_unreconciled = [] then
    Fmt.pf ppf "reconciliation : all %d decision logs reconcile@." n
