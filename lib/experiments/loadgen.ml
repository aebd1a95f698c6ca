(** Open-loop Poisson load generator (see the interface for the
    discipline and the honesty argument).

    One rate step draws its whole arrival schedule from a seeded
    exponential stream — the next arrival is [prev + Exp(rate)],
    never "when the previous request came back" — then sleeps to each
    scheduled instant and submits through {!Svc.recompile_async}.  A
    full queue sheds the request (counted, not retried): the generator
    must never block, or the offered rate would silently degrade to the
    service's capacity and the percentiles would lie.

    Latency is measured against the {e scheduled} arrival, not the
    actual submission, so generator lag on an overloaded box is charged
    to the service like any other queueing delay (the anti-coordinated-
    omission rule). *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Config = Nullelim_jit.Config
module Svc = Nullelim_svc.Svc
module Tier = Nullelim_tier.Tier
module Metrics = Nullelim_obs.Metrics
module Recorder = Nullelim_obs.Recorder
module Clock = Nullelim_obs.Clock
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc
module Trace = Nullelim_obs.Trace
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

type calibration = {
  cal_jobs : int;
  cal_mean_seconds : float;
  cal_base_rate : float;
}

type tenant_row = {
  tn_tenant : int;
  tn_offered : int;
  tn_completed : int;
  tn_shed : int;
}

type rate_row = {
  lr_multiplier : float;
  lr_offered_rate : float;
  lr_offered : int;
  lr_completed : int;
  lr_shed : int;
  lr_elapsed : float;
  lr_throughput : float;
  lr_mean_ms : float;
  lr_p50_ms : float;
  lr_p90_ms : float;
  lr_p99_ms : float;
  lr_p999_ms : float;
  lr_hist_p99_ms : float;
  lr_tenants : tenant_row list;
}

type overhead = {
  ov_ns_per_event : float;
  ov_enabled_seconds : float;
  ov_disabled_seconds : float;
  ov_fraction : float;
}

type t = {
  lg_domains : int;
  lg_queue_capacity : int;
  lg_duration : float;
  lg_seed : int;
  lg_tenants : int;
  lg_tenant_cap : int;
  lg_calibration : calibration;
  lg_rows : rate_row list;
  lg_saturation_throughput : float;
  lg_overhead : overhead option;
}

let default_multipliers = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* Corpus and calibration                                              *)
(* ------------------------------------------------------------------ *)

let corpus () : Svc.job list =
  Ir.reset_sites ();
  List.map
    (fun (w : W.t) ->
      Svc.job ~config:Config.new_full ~arch:Arch.ia32_windows
        (w.W.build ~scale:1))
    (Registry.all ())

(* One serial pass's mean compile time varies by a factor of four from
   run to run on a shared host, and the normalized p99 divides by it;
   the median of five passes' means takes that noise out. *)
let calibrate (jobs : Svc.job list) : calibration =
  if jobs = [] then invalid_arg "Loadgen.calibrate: empty corpus";
  let n = List.length jobs in
  let pass_mean _ =
    List.fold_left
      (fun acc o -> acc +. o.Svc.oc_seconds)
      0. (Svc.compile_serial jobs)
    /. float_of_int n
  in
  let means = List.sort compare (List.init 5 pass_mean) in
  let mean = max 1e-9 (List.nth means 2) in
  {
    cal_jobs = n;
    cal_mean_seconds = mean;
    cal_base_rate = 1. /. mean;
  }

(* ------------------------------------------------------------------ *)
(* One rate step                                                       *)
(* ------------------------------------------------------------------ *)

(* exact quantile of a sorted array: the ceil(q*n)-th order statistic,
   matching Metrics.percentile's rank rule *)
let exact_q (sorted : float array) q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
    sorted.(rank - 1)

let latency_buckets = Metrics.log_buckets ~lo:1e-5 ~hi:100. ~per_decade:10

let run_rate ~svc ~(jobs : Svc.job array) ~multiplier ~rate ~duration ~seed
    ~max_requests ~tenants : rate_row =
  let st = Random.State.make [| seed; int_of_float (multiplier *. 1000.) |] in
  let n =
    min max_requests (max 8 (int_of_float ((rate *. duration) +. 0.5)))
  in
  let tenants = max 1 tenants in
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:latency_buckets "loadgen_latency" in
  (* per-tenant closed accounting: every offered request ends up in
     exactly one of completed/shed, per tenant — the structural gate
     checks the identity on each row *)
  let t_offered = Array.make tenants 0 in
  let t_completed = Array.make tenants 0 in
  let t_shed = Array.make tenants 0 in
  let t0 = Clock.now () in
  let next = ref t0 in
  let inflight = ref [] in
  let shed = ref 0 in
  for k = 0 to n - 1 do
    let u = Random.State.float st 1.0 in
    next := !next +. (-.log (1. -. u) /. rate);
    let now = Clock.now () in
    if !next > now then Unix.sleepf (!next -. now);
    (* tenants interleave round-robin, so every tenant offers load at
       every rate and the per-tenant series are comparable *)
    let tenant = k mod tenants in
    t_offered.(tenant) <- t_offered.(tenant) + 1;
    match Svc.recompile_async svc ~tenant jobs.(k mod Array.length jobs) with
    | Some fut -> inflight := (tenant, !next, fut) :: !inflight
    | None ->
      incr shed;
      t_shed.(tenant) <- t_shed.(tenant) + 1
  done;
  (* drain: open-loop submission is over, completions are awaited so
     every accepted request contributes a latency sample *)
  let lats =
    List.rev_map
      (fun (tenant, scheduled, fut) ->
        let oc = Svc.await fut in
        t_completed.(tenant) <- t_completed.(tenant) + 1;
        let l = max 0. (oc.Svc.oc_done_at -. scheduled) in
        Metrics.observe h l;
        l)
      !inflight
  in
  let elapsed = max 1e-9 (Clock.now () -. t0) in
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let completed = Array.length sorted in
  let mean =
    if completed = 0 then nan
    else Array.fold_left ( +. ) 0. sorted /. float_of_int completed
  in
  let ms x = 1000. *. x in
  {
    lr_multiplier = multiplier;
    lr_offered_rate = rate;
    lr_offered = n;
    lr_completed = completed;
    lr_shed = !shed;
    lr_elapsed = elapsed;
    lr_throughput = float_of_int completed /. elapsed;
    lr_mean_ms = ms mean;
    lr_p50_ms = ms (exact_q sorted 0.5);
    lr_p90_ms = ms (exact_q sorted 0.9);
    lr_p99_ms = ms (exact_q sorted 0.99);
    lr_p999_ms = ms (exact_q sorted 0.999);
    lr_hist_p99_ms = ms (Metrics.percentile m "loadgen_latency" 0.99);
    lr_tenants =
      List.init tenants (fun i ->
          {
            tn_tenant = i;
            tn_offered = t_offered.(i);
            tn_completed = t_completed.(i);
            tn_shed = t_shed.(i);
          });
  }

(* ------------------------------------------------------------------ *)
(* Recorder overhead                                                   *)
(* ------------------------------------------------------------------ *)

let fuel = 1_000_000_000

(* one steady-state pass: promote-and-stabilize a mid-size workload on
   the synchronous tier manager — the path whose hot loops feed the
   recorder from the channel, cache and tier layers *)
let tiered_pass () =
  Ir.reset_sites ();
  let w =
    match Registry.find "huffman" with
    | Some w -> w
    | None -> List.hd (Registry.all ())
  in
  let p = w.W.build ~scale:1 in
  let cfg = { Config.new_full with Config.promote_calls = 2 } in
  let t = Tier.create ~config:cfg ~arch:Arch.ia32_windows p in
  for _ = 1 to 6 do
    ignore (Tier.run ~fuel t [])
  done;
  Tier.drain t

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure_overhead () : overhead =
  let g = Recorder.global in
  let was = Recorder.is_enabled g in
  Fun.protect
    ~finally:(fun () -> Recorder.set_enabled g was)
    (fun () ->
      (* tight-loop cost of one record *)
      let r = Recorder.create ~capacity:1024 () in
      let iters = 1_000_000 in
      let t0 = Clock.now () in
      for i = 0 to iters - 1 do
        Recorder.record ~a:i r Recorder.Mark
      done;
      let ns = 1e9 *. (Clock.now () -. t0) /. float_of_int iters in
      (* alternating on/off passes of the tiered loop; medians cancel
         the occasional GC/scheduler outlier *)
      let on = ref [] and off = ref [] in
      tiered_pass () (* warm-up, not timed *);
      for _ = 1 to 3 do
        Recorder.set_enabled g false;
        let t0 = Clock.now () in
        tiered_pass ();
        off := (Clock.now () -. t0) :: !off;
        Recorder.set_enabled g true;
        let t0 = Clock.now () in
        tiered_pass ();
        on := (Clock.now () -. t0) :: !on
      done;
      let on = median !on and off = median !off in
      {
        ov_ns_per_event = ns;
        ov_enabled_seconds = on;
        ov_disabled_seconds = off;
        ov_fraction = (on -. off) /. max 1e-9 off;
      })

(* ------------------------------------------------------------------ *)
(* The sweep                                                           *)
(* ------------------------------------------------------------------ *)

let sweep ?domains ?(queue_capacity = 64) ?(duration = 2.0) ?(seed = 42)
    ?(multipliers = default_multipliers) ?(max_requests = 400)
    ?(overhead = false) ?(tenants = 1) ?(tenant_cap = 0) ?metrics ?recorder
    () : t =
  let jobs = corpus () in
  let cal = calibrate jobs in
  let jobs = Array.of_list jobs in
  let multipliers = List.sort compare multipliers in
  let tenants = max 1 tenants in
  let domains =
    match domains with Some d -> max 1 d | None -> Svc.default_domains ()
  in
  let rows =
    Svc.with_service ~domains ~queue_capacity ?metrics ?recorder ~tenant_cap
      (fun svc ->
        List.map
          (fun multiplier ->
            let rate = max 0.1 (multiplier *. cal.cal_base_rate) in
            run_rate ~svc ~jobs ~multiplier ~rate ~duration ~seed
              ~max_requests ~tenants)
          multipliers)
  in
  let saturation =
    List.fold_left (fun acc r -> max acc r.lr_throughput) 0. rows
  in
  {
    lg_domains = domains;
    lg_queue_capacity = queue_capacity;
    lg_duration = duration;
    lg_seed = seed;
    lg_tenants = tenants;
    lg_tenant_cap = max 0 tenant_cap;
    lg_calibration = cal;
    lg_rows = rows;
    lg_saturation_throughput = saturation;
    lg_overhead = (if overhead then Some (measure_overhead ()) else None);
  }

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

let check_rows (rows : rate_row list) : (unit, string list) result =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if rows = [] then err "no rate rows";
  let running_max = ref 0. in
  List.iter
    (fun r ->
      if r.lr_offered <= 0 then
        err "rate %.2fx: no requests offered" r.lr_multiplier;
      if r.lr_completed + r.lr_shed <> r.lr_offered then
        err "rate %.2fx: %d completed + %d shed <> %d offered"
          r.lr_multiplier r.lr_completed r.lr_shed r.lr_offered;
      (* throughput must climb to saturation and then plateau; a dip
         >15% below the best seen so far is a scheduling pathology *)
      if r.lr_throughput < 0.85 *. !running_max then
        err
          "rate %.2fx: throughput %.2f/s dropped >15%% below the %.2f/s \
           already reached at a lower rate"
          r.lr_multiplier r.lr_throughput !running_max;
      running_max := max !running_max r.lr_throughput;
      let finite x = Float.is_finite x in
      if
        r.lr_completed > 0
        && finite r.lr_p50_ms && finite r.lr_p99_ms && finite r.lr_p999_ms
        && not (r.lr_p50_ms <= r.lr_p99_ms && r.lr_p99_ms <= r.lr_p999_ms)
      then
        err "rate %.2fx: percentiles not monotone (p50 %.2f p99 %.2f p999 %.2f)"
          r.lr_multiplier r.lr_p50_ms r.lr_p99_ms r.lr_p999_ms;
      (* per-tenant closed accounting, and the tenant rows must tie out
         against the row totals *)
      List.iter
        (fun tn ->
          if tn.tn_completed + tn.tn_shed <> tn.tn_offered then
            err
              "rate %.2fx tenant %d: %d completed + %d shed <> %d offered"
              r.lr_multiplier tn.tn_tenant tn.tn_completed tn.tn_shed
              tn.tn_offered)
        r.lr_tenants;
      if r.lr_tenants <> [] then begin
        let sum f = List.fold_left (fun a tn -> a + f tn) 0 r.lr_tenants in
        if sum (fun tn -> tn.tn_offered) <> r.lr_offered then
          err "rate %.2fx: tenant offered counts don't sum to the row total"
            r.lr_multiplier;
        if sum (fun tn -> tn.tn_shed) <> r.lr_shed then
          err "rate %.2fx: tenant shed counts don't sum to the row total"
            r.lr_multiplier
      end)
    rows;
  if !errs = [] then Ok () else Error (List.rev !errs)

(* The machine-independent stable quantity: how many mean compile times
   does a p99 request wait end-to-end at the lowest offered rate. *)
let normalized_p99 (t : t) : float =
  match t.lg_rows with
  | [] -> nan
  | r :: _ -> r.lr_p99_ms /. 1000. /. t.lg_calibration.cal_mean_seconds

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let tenant_fields =
  Doc.
    [
      field "tenant" int (fun tn -> tn.tn_tenant);
      field "offered" int (fun tn -> tn.tn_offered);
      field "completed" int (fun tn -> tn.tn_completed);
      field "shed" int (fun tn -> tn.tn_shed);
    ]

let row_fields =
  Doc.
    [
      field "rate_multiplier" num (fun r -> r.lr_multiplier);
      field "offered_rate_per_sec" num (fun r -> r.lr_offered_rate);
      field "offered" int (fun r -> r.lr_offered);
      field "completed" int (fun r -> r.lr_completed);
      field "shed" int (fun r -> r.lr_shed);
      field "elapsed_seconds" num (fun r -> r.lr_elapsed);
      field "throughput_per_sec" num (fun r -> r.lr_throughput);
      field "mean_ms" num (fun r -> r.lr_mean_ms);
      field "p50_ms" num (fun r -> r.lr_p50_ms);
      field "p90_ms" num (fun r -> r.lr_p90_ms);
      field "p99_ms" num (fun r -> r.lr_p99_ms);
      field "p999_ms" num (fun r -> r.lr_p999_ms);
      field "hist_p99_ms" num (fun r -> r.lr_hist_p99_ms);
      field "tenants" (list (nested tenant_fields)) (fun r -> r.lr_tenants);
    ]

let calibration_fields =
  Doc.
    [
      field "jobs" int (fun c -> c.cal_jobs);
      field "mean_compile_seconds" (num_where "a number > 0" (fun m -> m > 0.))
        (fun c -> c.cal_mean_seconds);
      field "base_rate_per_sec" num (fun c -> c.cal_base_rate);
    ]

let overhead_fields =
  Doc.
    [
      field "ns_per_event" num (fun o -> o.ov_ns_per_event);
      field "enabled_seconds" num (fun o -> o.ov_enabled_seconds);
      field "disabled_seconds" num (fun o -> o.ov_disabled_seconds);
      field "fraction" num (fun o -> o.ov_fraction);
    ]

let fields =
  Doc.
    [
      field "domains" int (fun t -> t.lg_domains);
      field "queue_capacity" int (fun t -> t.lg_queue_capacity);
      field "duration_seconds" num (fun t -> t.lg_duration);
      field "seed" int (fun t -> t.lg_seed);
      field "tenants" int (fun t -> t.lg_tenants);
      field "tenant_cap" int (fun t -> t.lg_tenant_cap);
      field "calibration" (nested calibration_fields) (fun t ->
          t.lg_calibration);
      field "rows" (list ~non_empty:true (nested row_fields)) (fun t ->
          t.lg_rows);
      field "saturation_throughput_per_sec" num (fun t ->
          t.lg_saturation_throughput);
      field "normalized_p99" num normalized_p99;
      opt "recorder_overhead" (nested overhead_fields) (fun t -> t.lg_overhead);
    ]

(* each tenant row closes its own accounting *)
let rules j =
  let int name o =
    match Json.member name o with Some (Json.Int i) -> i | _ -> 0
  in
  let list name o =
    match Json.member name o with Some (Json.List xs) -> xs | _ -> []
  in
  match
    List.find_opt
      (fun tn -> int "completed" tn + int "shed" tn <> int "offered" tn)
      (List.concat_map (list "tenants") (list "rows" j))
  with
  | None -> Ok ()
  | Some tn ->
    Error
      (Printf.sprintf "tenant %d: %d completed + %d shed <> %d offered"
         (int "tenant" tn) (int "completed" tn) (int "shed" tn)
         (int "offered" tn))

let doc = Doc.v ~name:"loadgen" ~rules "nullelim-loadgen/1" fields
let to_json (t : t) : Json.t = Doc.obj doc (Doc.record fields t)

(* ------------------------------------------------------------------ *)
(* Baseline gate                                                       *)
(* ------------------------------------------------------------------ *)

let check_against_baseline ~(baseline : Json.t) (t : t) :
    (string list, string list) result =
  let factor = 3.0 in
  let fresh = normalized_p99 t in
  match Option.bind (Json.member "normalized_p99" baseline) num with
  | None -> Error [ "baseline document has no \"normalized_p99\" member" ]
  | Some base ->
    if not (Float.is_finite fresh) then
      Error [ "fresh sweep produced no finite normalized p99" ]
    else if fresh > factor *. base then
      Error
        [
          Printf.sprintf
            "normalized p99 regressed: %.3f mean-compiles vs baseline %.3f \
             (gate %.1fx)"
            fresh base factor;
        ]
    else
      let drift = ref [] in
      if fresh *. factor < base then
        drift :=
          Printf.sprintf
            "normalized p99 improved to %.3f (baseline %.3f) — consider \
             refreshing"
            fresh base
          :: !drift;
      (match Json.member "rows" baseline with
      | Some (Json.List brows)
        when List.length brows <> List.length t.lg_rows ->
        drift :=
          Printf.sprintf "rate grid changed: %d rows vs baseline %d"
            (List.length t.lg_rows) (List.length brows)
          :: !drift
      | _ -> ());
      Ok (List.rev !drift)

(* ------------------------------------------------------------------ *)
(* The loadgen command                                                 *)
(* ------------------------------------------------------------------ *)

type load = {
  ld_jobs : int;
  ld_duration : float;
  ld_seed : int;
  ld_multipliers : float list;
  ld_max_requests : int;
  ld_tenants : int;
  ld_tenant_cap : int;
}

let parse_multipliers s =
  match
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map float_of_string
  with
  | exception Failure _ -> Error (Printf.sprintf "cannot parse %S" s)
  | ms when ms = [] || List.exists (fun m -> m <= 0.) ms ->
    Error "rate multipliers must be positive"
  | ms -> Ok ms

(* per-tenant offered/completed/shed totals summed over the rate rows *)
let pp_tenant_totals ppf (rows : rate_row list) =
  let tbl : (int, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun tn ->
          let o, c, s =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl tn.tn_tenant)
          in
          Hashtbl.replace tbl tn.tn_tenant
            (o + tn.tn_offered, c + tn.tn_completed, s + tn.tn_shed))
        r.lr_tenants)
    rows;
  let ids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  Fmt.pf ppf "@.%7s %8s %10s %6s@." "tenant" "offered" "completed" "shed";
  List.iter
    (fun id ->
      let o, c, s = Hashtbl.find tbl id in
      Fmt.pf ppf "%7d %8d %10d %6d@." id o c s)
    ids

let pp ppf (t : t) =
  let cal = t.lg_calibration in
  Fmt.pf ppf
    "calibration: %d jobs, %.4f s mean compile, base rate %.2f req/s, %d \
     domains@."
    cal.cal_jobs cal.cal_mean_seconds cal.cal_base_rate t.lg_domains;
  Fmt.pf ppf "@.%6s %9s %7s %9s %5s %9s %9s %9s %9s@." "rate" "offered/s"
    "offered" "completed" "shed" "thru/s" "p50ms" "p99ms" "p999ms";
  List.iter
    (fun r ->
      Fmt.pf ppf "%5.2fx %9.2f %7d %9d %5d %9.2f %9.2f %9.2f %9.2f@."
        r.lr_multiplier r.lr_offered_rate r.lr_offered r.lr_completed r.lr_shed
        r.lr_throughput r.lr_p50_ms r.lr_p99_ms r.lr_p999_ms)
    t.lg_rows;
  Fmt.pf ppf
    "saturation throughput: %.2f req/s; normalized p99: %.3f mean-compiles@."
    t.lg_saturation_throughput (normalized_p99 t);
  if t.lg_tenants > 1 then pp_tenant_totals ppf t.lg_rows;
  Option.iter
    (fun o ->
      Fmt.pf ppf
        "recorder overhead: %.0f ns/event; tiered loop %.4f s on vs %.4f s \
         off (%+.2f%%)@."
        o.ov_ns_per_event o.ov_enabled_seconds o.ov_disabled_seconds
        (100. *. o.ov_fraction))
    t.lg_overhead

let run ppf ?overhead ?metrics ?(recorder = Recorder.global) ?flight
    ?flight_trace ?timelines (l : load) =
  let ( let* ) = Result.bind in
  let t =
    sweep
      ?domains:(if l.ld_jobs > 0 then Some l.ld_jobs else None)
      ~duration:l.ld_duration ~seed:l.ld_seed ~multipliers:l.ld_multipliers
      ~max_requests:l.ld_max_requests ?overhead ~tenants:l.ld_tenants
      ~tenant_cap:l.ld_tenant_cap ?metrics ~recorder ()
  in
  pp ppf t;
  let* () =
    Result.map_error
      (fun es -> String.concat "\n  " ("loadgen gate FAILED:" :: es))
      (check_rows t.lg_rows)
  in
  let* () =
    match flight with
    | None -> Ok ()
    | Some path ->
      Doc.write Recorder.doc path (Recorder.to_json recorder)
      |> Result.map (fun () -> Fmt.pf ppf "flight dump written to %s@." path)
  in
  Option.iter
    (fun path ->
      Trace.write path (Recorder.to_trace recorder);
      Fmt.pf ppf "flight trace written to %s@." path)
    flight_trace;
  let tls = Timelines.of_recorder recorder in
  Timelines.pp ppf tls;
  let* () = Timelines.emit ppf ~gate:true ?out:timelines tls in
  Ok t
