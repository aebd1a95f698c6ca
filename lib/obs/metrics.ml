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

    Domain safety (see DESIGN.md §14): the registry is sharded
    per domain.  Counters and histograms live in domain-local shards
    ({!Domain_shard}) so the hot mutation path is a plain unsynchronized
    write — no lock, no CAS — and {!snapshot} / the [_total] readers
    merge all shards by summation.  Gauges have set-semantics (a sum of
    per-domain values is meaningless), so each gauge is a single shared
    [Atomic.t] cell.  Cross-domain reads of live cells are racy word
    reads — never torn, but possibly missing in-flight bumps; after the
    writing domains quiesce (join, pool shutdown) merged values are
    exact. *)

type labels = (string * string) list

(* Central per-registry spec of every instrument ever registered:
   enforces kind consistency across domains and fixes a histogram's
   bucket bounds at first registration. *)
type kind =
  | Kcounter
  | Kgauge
  | Khistogram of float array  (* upper bounds, ascending; +inf implicit *)

(* Domain-local cells.  Mutated only by the owning domain. *)
type hcells = {
  hbuckets : float array;       (* shared spec array, never written *)
  hcounts : int array;          (* length = Array.length hbuckets + 1 *)
  mutable hcount : int;
  mutable hsum : float;
}

type cell = Ccounter of int ref | Chistogram of hcells

type shard = {
  sh_tbl : (string * labels, cell) Hashtbl.t;
  sh_m : Mutex.t;
      (* Guards structural mutation of [sh_tbl] against cross-domain
         snapshot traversal.  The owning domain's lookups need no lock:
         only the owner inserts, and traversals don't mutate. *)
}

module Shards = Domain_shard.Make (struct
  type nonrec shard = shard

  let create ~owner_uid:_ ~domain:_ =
    { sh_tbl = Hashtbl.create 32; sh_m = Mutex.create () }
end)

type t = {
  owner : Shards.owner;
  rm : Mutex.t;                 (* guards [specs] and [gauges] *)
  specs : (string * labels, kind) Hashtbl.t;
  gauges : (string * labels, float Atomic.t) Hashtbl.t;
}

type counter = int ref          (* the calling domain's cell *)
type gauge = float Atomic.t     (* shared across domains *)
type histogram = hcells         (* the calling domain's cells *)

let create () : t =
  {
    owner = Shards.create ();
    rm = Mutex.create ();
    specs = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
  }

(** A process-wide default registry, for callers that do not thread their
    own. *)
let global : t = create ()

let norm_labels (labels : labels) : labels =
  List.sort_uniq compare labels

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let kind_error name want =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with a different type (wanted %s)"
       name want)

(* Register (or fetch) the canonical spec for a key; the first
   registration wins, later ones must agree on the constructor.  [mk]
   runs only on first registration. *)
let register_spec (r : t) key (mk : unit -> kind) : kind =
  with_lock r.rm (fun () ->
      match Hashtbl.find_opt r.specs key with
      | Some k0 -> k0
      | None ->
        let k = mk () in
        Hashtbl.replace r.specs key k;
        k)

(* The calling domain's cell for [key], if it has one: the lookup every
   repeated [counter]/[histogram] call ends at.  A cell exists only
   after its spec was registered, so the spec's lock is not needed. *)
let find_my_cell (r : t) key : cell option =
  Hashtbl.find_opt (Shards.my_shard r.owner).sh_tbl key

(* Install the calling domain's cell for [key].  Insertion excludes
   concurrent snapshot traversal. *)
let add_my_cell (r : t) key (c : cell) =
  let sh = Shards.my_shard r.owner in
  with_lock sh.sh_m (fun () -> Hashtbl.replace sh.sh_tbl key c)

let counter (r : t) ?(labels = []) name : counter =
  let key = (name, norm_labels labels) in
  match find_my_cell r key with
  | Some (Ccounter c) -> c
  | Some (Chistogram _) -> kind_error name "counter"
  | None -> (
    match register_spec r key (fun () -> Kcounter) with
    | Kgauge | Khistogram _ -> kind_error name "counter"
    | Kcounter ->
      let c = ref 0 in
      add_my_cell r key (Ccounter c);
      c)

let inc (c : counter) n = c := !c + n
let counter_value (c : counter) = !c

let gauge (r : t) ?(labels = []) name : gauge =
  let key = (name, norm_labels labels) in
  with_lock r.rm (fun () ->
      match Hashtbl.find_opt r.specs key with
      | Some (Kcounter | Khistogram _) -> kind_error name "gauge"
      | Some Kgauge -> Hashtbl.find r.gauges key
      | None ->
        Hashtbl.replace r.specs key Kgauge;
        let g = Atomic.make 0. in
        Hashtbl.replace r.gauges key g;
        g)

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
  let key = (name, norm_labels labels) in
  match find_my_cell r key with
  | Some (Chistogram h) -> h
  | Some (Ccounter _) -> kind_error name "histogram"
  | None -> (
    let sorted () =
      let b = Array.copy buckets in
      Array.sort compare b;
      Khistogram b
    in
    match register_spec r key sorted with
    | Kcounter | Kgauge -> kind_error name "histogram"
    | Khistogram canonical ->
      let h =
        { hbuckets = canonical;
          hcounts = Array.make (Array.length canonical + 1) 0;
          hcount = 0; hsum = 0. }
      in
      add_my_cell r key (Chistogram h);
      h)

let observe (h : histogram) v =
  let nb = Array.length h.hbuckets in
  let rec slot k = if k >= nb || v <= h.hbuckets.(k) then k else slot (k + 1) in
  let k = slot 0 in
  h.hcounts.(k) <- h.hcounts.(k) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v

let histogram_count (h : histogram) = h.hcount

(* ------------------------------------------------------------------ *)
(* Merged (cross-domain) reads                                         *)
(* ------------------------------------------------------------------ *)

(* Fold [f] over every shard's cell for [key].  Shard locks exclude
   concurrent structural insertion during the lookup; the cell reads
   themselves are unsynchronized word reads. *)
let fold_cells (r : t) key (f : 'a -> cell -> 'a) (init : 'a) : 'a =
  List.fold_left
    (fun acc sh ->
      match with_lock sh.sh_m (fun () -> Hashtbl.find_opt sh.sh_tbl key) with
      | Some c -> f acc c
      | None -> acc)
    init
    (Shards.shards r.owner)

let counter_total (r : t) ?(labels = []) name : int =
  let key = (name, norm_labels labels) in
  fold_cells r key
    (fun acc c -> match c with Ccounter c -> acc + !c | Chistogram _ -> acc)
    0

(* Merged histogram for [key]: (bucket bounds, per-bucket counts, total
   count, sum).  None if no histogram is registered under the key. *)
let merged_histogram (r : t) key : (float array * int array * int * float) option =
  match with_lock r.rm (fun () -> Hashtbl.find_opt r.specs key) with
  | Some (Khistogram buckets) ->
    let counts = Array.make (Array.length buckets + 1) 0 in
    let n = ref 0 and sum = ref 0. in
    fold_cells r key
      (fun () c ->
        match c with
        | Chistogram h ->
          Array.iteri (fun k v -> counts.(k) <- counts.(k) + v) h.hcounts;
          n := !n + h.hcount;
          sum := !sum +. h.hsum
        | Ccounter _ -> ())
      ();
    Some (buckets, counts, !n, !sum)
  | Some (Kcounter | Kgauge) | None -> None

let histogram_total_count (r : t) ?(labels = []) name : int =
  match merged_histogram r (name, norm_labels labels) with
  | Some (_, _, n, _) -> n
  | None -> 0

let histogram_merged (r : t) ?(labels = []) name :
    (float array * int array * int * float) option =
  merged_histogram r (name, norm_labels labels)

(* Every registered (labels) variant of [name], in registration-spec
   (sorted-key) order.  Lets callers enumerate e.g. the tenants a
   labelled family has accumulated. *)
let instruments (r : t) name : labels list =
  with_lock r.rm (fun () ->
      Hashtbl.fold
        (fun (n, labels) _ acc -> if n = name then labels :: acc else acc)
        r.specs [])
  |> List.sort compare

let label_values (r : t) name key : string list =
  instruments r name
  |> List.filter_map (fun labels -> List.assoc_opt key labels)
  |> List.sort_uniq compare

(* Sum of [name] across every label set and every domain. *)
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

let percentiles (r : t) ?(labels = []) name (qs : float list) : float list =
  match merged_histogram r (name, norm_labels labels) with
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
   merged (bounds, counts, count, sum). *)
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

let snapshot (r : t) : Obs_json.t =
  (* deterministic order: sorted by (name, labels); values merged across
     every domain's shard *)
  let keys =
    with_lock r.rm (fun () ->
        Hashtbl.fold (fun key kind acc -> (key, kind) :: acc) r.specs []
        |> List.sort compare)
  in
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (((name, labels) as key), kind) ->
      match kind with
      | Kcounter -> counters := (key, counter_total r ~labels name) :: !counters
      | Kgauge ->
        let g = with_lock r.rm (fun () -> Hashtbl.find r.gauges key) in
        let v = Atomic.get g in
        gauges := (key, if Float.is_nan v then None else Some v) :: !gauges
      | Khistogram _ ->
        histograms := (key, Option.get (merged_histogram r key)) :: !histograms)
    keys;
  Doc.obj doc
    (Doc.record fields
       (List.rev !counters, List.rev !gauges, List.rev !histograms))
