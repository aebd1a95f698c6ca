(* See slo.mli.  Objectives are evaluated in the good/bad-event
   formulation: a latency objective counts an observation "good" when it
   lands at or below the threshold (resolved against the histogram's
   bucket bounds), an availability objective takes its good/bad counts
   from two counters.  [tick] samples the cumulative counts; burn rates
   come from windowed deltas of those samples, so the evaluator never
   needs the registry to support resetting. *)

type kind =
  | Latency of { metric : string; threshold : float }
  | Availability of { good : string; bad : string }

type objective = { o_name : string; o_kind : kind; o_target : float }

let latency ~name ~metric ~threshold ~target =
  if not (target >= 0. && target <= 1.) then
    invalid_arg "Slo.latency: target must be in [0,1]";
  { o_name = name; o_kind = Latency { metric; threshold }; o_target = target }

let availability ~name ~good ~bad ~target =
  if not (target >= 0. && target <= 1.) then
    invalid_arg "Slo.availability: target must be in [0,1]";
  { o_name = name; o_kind = Availability { good; bad }; o_target = target }

type status = Healthy | Degraded | Failing

let status_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Failing -> "failing"

(* one cumulative sample: (timestamp, good events ever, bad events ever) *)
type sample = { s_ts : float; s_good : int; s_bad : int }

type tracked = { t_obj : objective; mutable t_samples : sample list (* newest first *) }

type t = {
  registry : Metrics.t;
  short_window : float;
  long_window : float;
  degraded_burn : float;
  failing_burn : float;
  tracked : tracked list;
  m : Mutex.t;
}

let create ?(short_window = 300.) ?(long_window = 3600.)
    ?(degraded_burn = 1.0) ?(failing_burn = 14.4) (registry : Metrics.t)
    (objectives : objective list) : t =
  if not (short_window > 0. && long_window >= short_window) then
    invalid_arg "Slo.create: want 0 < short_window <= long_window";
  {
    registry;
    short_window;
    long_window;
    degraded_burn;
    failing_burn;
    tracked = List.map (fun o -> { t_obj = o; t_samples = [] }) objectives;
    m = Mutex.create ();
  }

(* Cumulative (good, bad) for an objective right now. *)
let read_counts (r : Metrics.t) = function
  | Availability { good; bad } ->
    (Metrics.counter_total_any r good, Metrics.counter_total_any r bad)
  | Latency { metric; threshold } -> (
    match Metrics.histogram_merged_any r metric with
    | None -> (0, 0)
    | Some (buckets, counts, total, _sum) ->
      (* good = observations in buckets whose upper bound fits under the
         threshold; a threshold between bounds rounds down (conservative:
         borderline observations count as bad) *)
      let good = ref 0 in
      Array.iteri
        (fun i le -> if le <= threshold +. 1e-12 then good := !good + counts.(i))
        buckets;
      (!good, total - !good))

let tick ?now (t : t) : unit =
  let ts = match now with Some n -> n | None -> Clock.now () in
  Mutex.lock t.m;
  List.iter
    (fun tr ->
      let good, bad = read_counts t.registry tr.t_obj.o_kind in
      let s = { s_ts = ts; s_good = good; s_bad = bad } in
      (* drop history beyond the long window, but always keep one sample
         at-or-older than the window edge so the edge delta stays exact *)
      let cutoff = ts -. t.long_window in
      let rec prune = function
        | a :: (b :: _ as rest) when b.s_ts >= cutoff -> a :: prune rest
        | a :: (_ :: _ as rest) when a.s_ts >= cutoff -> a :: prune rest
        | [ a ] -> [ a ]
        | a :: _ :: _ -> [ a ] (* a and everything older predate cutoff *)
        | [] -> []
      in
      tr.t_samples <- s :: prune tr.t_samples)
    t.tracked;
  Mutex.unlock t.m

type window_eval = { w_burn : float; w_total : int }

(* Delta over [now - w, now]: newest sample minus the newest sample at
   or older than the window edge (a sample exactly on the edge is the
   baseline — it is *excluded* from the window, events after it are in). *)
let eval_window (samples : sample list) ~(now : float) ~(w : float)
    ~(target : float) : window_eval =
  match samples with
  | [] -> { w_burn = 0.; w_total = 0 }
  | newest :: _ ->
    let edge = now -. w in
    let rec baseline = function
      | [] -> None
      | s :: rest -> if s.s_ts <= edge +. 1e-12 then Some s else baseline rest
    in
    let base =
      match baseline samples with
      | Some s -> s
      | None -> (
        (* history younger than the window: measure from the oldest
           sample we have *)
        match List.rev samples with oldest :: _ -> oldest | [] -> newest)
    in
    let good = newest.s_good - base.s_good in
    let bad = newest.s_bad - base.s_bad in
    let total = good + bad in
    if total <= 0 then { w_burn = 0.; w_total = 0 }
    else
      let err = float_of_int bad /. float_of_int total in
      let allowed = 1. -. target in
      let burn =
        if allowed <= 0. then (if err > 0. then Float.infinity else 0.)
        else err /. allowed
      in
      { w_burn = burn; w_total = total }

type report = {
  r_name : string;
  r_target : float;
  r_kind : kind;
  r_status : status;
  r_short_burn : float;
  r_long_burn : float;
  r_short_total : int;
  r_long_total : int;
}

let classify (t : t) ~short_burn ~long_burn : status =
  (* an alert needs *both* windows burning: the long window proves the
     problem is sustained, the short window proves it is still going on *)
  if short_burn >= t.failing_burn && long_burn >= t.failing_burn then Failing
  else if short_burn >= t.degraded_burn && long_burn >= t.degraded_burn then
    Degraded
  else Healthy

let evaluate ?now (t : t) : report list =
  let now = match now with Some n -> n | None -> Clock.now () in
  Mutex.lock t.m;
  let reports =
    List.map
      (fun tr ->
        let target = tr.t_obj.o_target in
        let short =
          eval_window tr.t_samples ~now ~w:t.short_window ~target
        in
        let long = eval_window tr.t_samples ~now ~w:t.long_window ~target in
        {
          r_name = tr.t_obj.o_name;
          r_target = target;
          r_kind = tr.t_obj.o_kind;
          r_status =
            classify t ~short_burn:short.w_burn ~long_burn:long.w_burn;
          r_short_burn = short.w_burn;
          r_long_burn = long.w_burn;
          r_short_total = short.w_total;
          r_long_total = long.w_total;
        })
      t.tracked
  in
  Mutex.unlock t.m;
  reports

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Latency _ -> "latency"
  | Availability _ -> "availability"

let status = Doc.enum status_name [ Healthy; Degraded; Failing ]

(* burns are +inf when target = 1; JSON has no Inf literal, so they are
   capped at a sentinel large enough to read as "off the chart" *)
let burn =
  Doc.custom "a number >= 0"
    (fun b -> Obs_json.Float (if Float.is_finite b then b else 1e18))
    (function
      | Obs_json.Int i -> i >= 0
      | Obs_json.Float f -> f >= 0.
      | _ -> false)

let report_fields =
  Doc.
    [
      field "name" str (fun r -> r.r_name);
      field "kind" (enum Fun.id [ "latency"; "availability" ]) (fun r ->
          kind_name r.r_kind);
      field "target"
        (num_where "a number in [0, 1]" (fun t -> t >= 0. && t <= 1.))
        (fun r -> r.r_target);
      group
        (fun r ->
          match r.r_kind with
          | Latency { metric; threshold } -> Some (metric, threshold)
          | Availability _ -> None)
        [ field "metric" str fst; field "threshold" num snd ];
      group
        (fun r ->
          match r.r_kind with
          | Availability { good; bad } -> Some (good, bad)
          | Latency _ -> None)
        [ field "good" str fst; field "bad" str snd ];
      field "status" status (fun r -> r.r_status);
      field "short_burn" burn (fun r -> r.r_short_burn);
      field "long_burn" burn (fun r -> r.r_long_burn);
      field "short_total" nat (fun r -> r.r_short_total);
      field "long_total" nat (fun r -> r.r_long_total);
    ]

let worst reports =
  List.fold_left
    (fun acc r ->
      match (acc, r.r_status) with
      | Failing, _ | _, Failing -> Failing
      | Degraded, _ | _, Degraded -> Degraded
      | Healthy, Healthy -> Healthy)
    Healthy reports

(* The document describes (evaluator, its reports). *)
let fields =
  Doc.
    [
      field "short_window" num (fun (t, _) -> t.short_window);
      field "long_window" num (fun (t, _) -> t.long_window);
      field "degraded_burn" num (fun (t, _) -> t.degraded_burn);
      field "failing_burn" num (fun (t, _) -> t.failing_burn);
      field "status" status (fun (_, reports) -> worst reports);
      field "objectives" (list (nested report_fields)) snd;
    ]

let rules j =
  let num name o =
    match Obs_json.member name o with
    | Some (Obs_json.Float f) -> f
    | Some (Obs_json.Int i) -> float_of_int i
    | _ -> nan
  in
  let has name o = Obs_json.member name o <> None in
  let shape o =
    (* a latency objective names its histogram, an availability one its
       two counters — never both *)
    match Obs_json.member "kind" o with
    | Some (Obs_json.Str "latency") -> has "metric" o && not (has "good" o)
    | _ -> has "good" o && not (has "metric" o)
  in
  let short = num "short_window" j in
  if not (short > 0. && num "long_window" j >= short) then
    Error "want 0 < short_window <= long_window"
  else
    match Obs_json.member "objectives" j with
    | Some (Obs_json.List objs) when not (List.for_all shape objs) ->
      Error "an objective's members do not match its kind"
    | _ -> Ok ()

let doc = Doc.v ~name:"slo" ~rules "nullelim-slo/1" fields

let to_json ?now (t : t) : Obs_json.t =
  Doc.obj doc (Doc.record fields (t, evaluate ?now t))
