(** Typed metrics registry: counters, gauges and histograms with labels,
    and one stable JSON snapshot schema (see {!doc}).

    This is the single sink that unifies the instrumentation that used to
    live in three ad-hoc shapes (the pass manager's timing/counter
    hashtables, the data-flow solver's mutable counter record, the
    interpreter's counter record): the pass manager and the JIT driver
    write per-pass and per-compile series into a registry, the
    interpreter can dump its dynamic counters into one, and the benchmark
    harness merges {!snapshot} into its JSON report.

    An instrument is identified by its name plus its label set; asking
    for the same (name, labels) twice returns the same instrument, and
    asking with a different type is a programming error
    ([Invalid_argument]).

    Domain safety (see DESIGN.md §14): one table per registry behind
    one mutex.  The first registration of a key fixes its kind (and a
    histogram's bucket bounds); every domain then shares the one
    instrument.  Counters and gauges are [Atomic.t] cells; a
    histogram's counts and sum change under the registry's mutex, so
    every read is exact even while writers are live.  The mutex is a
    leaf: nothing is called while it is held. *)

type labels = (string * string) list

type histogram = {
  hm : Mutex.t;                 (* the registry's mutex *)
  hbuckets : float array;       (* upper bounds, ascending; +inf implicit *)
  hcounts : int array;          (* length = Array.length hbuckets + 1 *)
  mutable hcount : int;
  mutable hsum : float;
}

type instrument =
  | Counter of int Atomic.t
  | Gauge of float Atomic.t
  | Histogram of histogram

type t = { m : Mutex.t; tbl : (string * labels, instrument) Hashtbl.t }

type counter = int Atomic.t
type gauge = float Atomic.t

let create () : t = { m = Mutex.create (); tbl = Hashtbl.create 32 }

(** A process-wide default registry, for callers that do not thread their
    own. *)
let global : t = create ()

let norm_labels (labels : labels) : labels =
  List.sort_uniq compare labels

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with a different type (wanted %s)"
       name want)

(* The instrument registered under [key], registering [mk ()] first if
   there is none: the first registration wins. *)
let find_or_add (r : t) key (mk : unit -> instrument) : instrument =
  Mutex.protect r.m (fun () ->
      match Hashtbl.find_opt r.tbl key with
      | Some i -> i
      | None ->
        let i = mk () in
        Hashtbl.add r.tbl key i;
        i)

let find (r : t) ?(labels = []) name : instrument option =
  let key = (name, norm_labels labels) in
  Mutex.protect r.m (fun () -> Hashtbl.find_opt r.tbl key)

let counter (r : t) ?(labels = []) name : counter =
  match
    find_or_add r (name, norm_labels labels) (fun () -> Counter (Atomic.make 0))
  with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_error name "counter"

let inc (c : counter) n = ignore (Atomic.fetch_and_add c n)

let gauge (r : t) ?(labels = []) name : gauge =
  match
    find_or_add r (name, norm_labels labels) (fun () -> Gauge (Atomic.make 0.))
  with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_error name "gauge"

let set (g : gauge) v = Atomic.set g v

let rec add (g : gauge) v =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. v)) then add g v

let gauge_value (g : gauge) = Atomic.get g

(** Default histogram buckets: wall-clock seconds from 1 microsecond up
    to ~10 s, factor-of-~3 spacing. *)
let default_buckets =
  [| 1e-6; 3e-6; 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3;
     1.; 3.; 10. |]

let log_buckets ~lo ~hi ~per_decade : float array =
  if not (lo > 0. && hi > lo && per_decade >= 1) then
    invalid_arg "Metrics.log_buckets: need 0 < lo < hi and per_decade >= 1";
  let n =
    int_of_float (ceil (float per_decade *. log10 (hi /. lo) -. 1e-9))
  in
  Array.init (n + 1) (fun i ->
      lo *. (10. ** (float i /. float per_decade)))

let histogram (r : t) ?(labels = []) ?(buckets = default_buckets) name :
    histogram =
  let mk () =
    let b = Array.copy buckets in
    Array.sort compare b;
    Histogram
      { hm = r.m; hbuckets = b; hcounts = Array.make (Array.length b + 1) 0;
        hcount = 0; hsum = 0. }
  in
  match find_or_add r (name, norm_labels labels) mk with
  | Histogram h -> h
  | Counter _ | Gauge _ -> kind_error name "histogram"

let observe (h : histogram) v =
  let nb = Array.length h.hbuckets in
  let rec slot k = if k >= nb || v <= h.hbuckets.(k) then k else slot (k + 1) in
  let k = slot 0 in
  Mutex.lock h.hm;
  h.hcounts.(k) <- h.hcounts.(k) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  Mutex.unlock h.hm

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let counter_total (r : t) ?labels name : int =
  match find r ?labels name with Some (Counter c) -> Atomic.get c | _ -> 0

(* (bucket bounds, per-bucket counts, total count, sum), copied in one
   critical section. *)
let read_hist (h : histogram) : float array * int array * int * float =
  Mutex.protect h.hm (fun () ->
      (h.hbuckets, Array.copy h.hcounts, h.hcount, h.hsum))

let histogram_merged (r : t) ?labels name :
    (float array * int array * int * float) option =
  match find r ?labels name with
  | Some (Histogram h) -> Some (read_hist h)
  | _ -> None

let histogram_total_count (r : t) ?labels name : int =
  match histogram_merged r ?labels name with
  | Some (_, _, n, _) -> n
  | None -> 0

(* Every registered (labels) variant of [name], sorted.  Lets callers
   enumerate e.g. the tenants a labelled family has accumulated. *)
let instruments (r : t) name : labels list =
  Mutex.protect r.m (fun () ->
      Hashtbl.fold
        (fun (n, labels) _ acc -> if n = name then labels :: acc else acc)
        r.tbl [])
  |> List.sort compare

let label_values (r : t) name key : string list =
  instruments r name
  |> List.filter_map (fun labels -> List.assoc_opt key labels)
  |> List.sort_uniq compare

(* Sum of [name] across every label set. *)
let counter_total_any (r : t) name : int =
  instruments r name
  |> List.fold_left (fun acc labels -> acc + counter_total r ~labels name) 0

(* Merge [name]'s histograms across every label set whose bucket bounds
   agree with the first registration (the registry never registers the
   same name with different bounds in practice — bounds are fixed by the
   first caller — so the guard is belt-and-braces). *)
let histogram_merged_any (r : t) name :
    (float array * int array * int * float) option =
  let variants =
    instruments r name
    |> List.filter_map (fun labels -> histogram_merged r ~labels name)
  in
  match variants with
  | [] -> None
  | (b0, _, _, _) :: _ ->
    let counts = Array.make (Array.length b0 + 1) 0 in
    let n = ref 0 and sum = ref 0. in
    List.iter
      (fun (b, c, hn, hs) ->
        if b = b0 then begin
          Array.iteri (fun k v -> counts.(k) <- counts.(k) + v) c;
          n := !n + hn;
          sum := !sum +. hs
        end)
      variants;
    Some (b0, counts, !n, !sum)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

(* Rank-based extraction from cumulative-by-construction bucket counts:
   the q-quantile is the upper bound of the first bucket whose running
   count reaches ceil(q * total) — i.e. an overestimate by at most one
   bucket width.  The overflow bucket reports +infinity (the registry
   does not track the max). *)
let percentile_of ~buckets ~counts ~total q : float =
  if total = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = max 1 (min total (int_of_float (ceil (q *. float total)))) in
    let nb = Array.length buckets in
    let rec go k cum =
      let cum = cum + counts.(k) in
      if cum >= target then (if k < nb then buckets.(k) else Float.infinity)
      else go (k + 1) cum
    in
    go 0 0
  end

let percentiles (r : t) ?labels name (qs : float list) : float list =
  match histogram_merged r ?labels name with
  | None -> List.map (fun _ -> Float.nan) qs
  | Some (buckets, counts, total, _) ->
    List.map (percentile_of ~buckets ~counts ~total) qs

let percentile (r : t) ?labels name q : float =
  match percentiles r ?labels name [ q ] with
  | [ v ] -> v
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

(* A series is ((name, labels), value); a histogram's value is its
   (bounds, counts, count, sum). *)
let series value =
  Doc.
    [
      field "name" str (fun ((n, _), _) -> n);
      field "labels"
        (custom "an object of strings"
           (fun labels ->
             Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Str v)) labels))
           (function
             | Obs_json.Obj kvs ->
               List.for_all
                 (function _, Obs_json.Str _ -> true | _ -> false)
                 kvs
             | _ -> false))
        (fun ((_, l), _) -> l);
    ]
  @ value

let bucket_fields =
  Doc.
    [
      (* the overflow bucket's bound is "+Inf" *)
      field "le"
        (custom "a number or \"+Inf\""
           (function Some b -> Obs_json.Float b | None -> Obs_json.Str "+Inf")
           (function
             | Obs_json.Int _ | Obs_json.Float _ | Obs_json.Str "+Inf" -> true
             | _ -> false))
        fst;
      field "count" int snd;
    ]

let buckets (bounds, counts, _, _) =
  List.init
    (Array.length bounds + 1)
    (fun k ->
      ((if k < Array.length bounds then Some bounds.(k) else None), counts.(k)))

let fields =
  Doc.
    [
      field "counters" (list (nested (series [ field "value" int snd ])))
        (fun (c, _, _) -> c);
      field "gauges"
        (list (nested (series [ field "value" (nullable num) snd ])))
        (fun (_, g, _) -> g);
      field "histograms"
        (list
           (nested
              (series
                 [
                   field "count" int (fun (_, (_, _, n, _)) -> n);
                   field "sum" (nullable num) (fun (_, (_, _, _, s)) -> Some s);
                   field "buckets" (list (nested bucket_fields))
                     (fun (_, h) -> buckets h);
                 ])))
        (fun (_, _, h) -> h);
    ]

let doc = Doc.v ~name:"metrics" "nullelim-metrics/1" fields

type value =
  | Vcounter of int
  | Vgauge of float
  | Vhistogram of (float array * int array * int * float)

let values (r : t) : ((string * labels) * value) list =
  Mutex.protect r.m (fun () ->
      Hashtbl.fold (fun key i acc -> (key, i) :: acc) r.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (key, i) ->
         ( key,
           match i with
           | Counter c -> Vcounter (Atomic.get c)
           | Gauge g -> Vgauge (Atomic.get g)
           | Histogram h -> Vhistogram (read_hist h) ))

let snapshot (r : t) : Obs_json.t =
  let vs = values r in
  let pick f =
    List.filter_map (fun (key, v) -> Option.map (fun x -> (key, x)) (f v)) vs
  in
  Doc.obj doc
    (Doc.record fields
       ( pick (function Vcounter n -> Some n | _ -> None),
         pick (function
           | Vgauge v -> Some (if Float.is_nan v then None else Some v)
           | _ -> None),
         pick (function Vhistogram h -> Some h | _ -> None) ))
