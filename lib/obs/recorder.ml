(* See recorder.mli.  The four context columns (tenant/request/span/
   parent) are filled from the explicit [?ctx] or the calling domain's
   ambient {!Ctx.current}. *)

type kind =
  | Tier_promote
  | Tier_demote
  | Trap_fired
  | Cache_hit
  | Cache_miss
  | Cache_evict
  | Req_enqueue
  | Req_start
  | Req_done
  | Req_shed
  | Mark

let kind_name = function
  | Tier_promote -> "tier_promote"
  | Tier_demote -> "tier_demote"
  | Trap_fired -> "trap_fired"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Cache_evict -> "cache_evict"
  | Req_enqueue -> "req_enqueue"
  | Req_start -> "req_start"
  | Req_done -> "req_done"
  | Req_shed -> "req_shed"
  | Mark -> "mark"

let all_kinds =
  [
    Tier_promote; Tier_demote; Trap_fired; Cache_hit; Cache_miss; Cache_evict;
    Req_enqueue; Req_start; Req_done; Req_shed; Mark;
  ]

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds
let kind_enum = Doc.enum kind_name all_kinds

type event = {
  ev_ts : float;
  ev_domain : int;
  ev_kind : kind;
  ev_a : int;
  ev_b : int;
  ev_ctx : Ctx.t;
}

(* One struct-of-arrays ring behind one mutex: a float array for
   timestamps and int arrays for the rest keep recording allocation-free
   (no per-event record on the hot path). *)
type t = {
  m : Mutex.t;            (* a leaf: guards every array and [w] *)
  enabled : bool Atomic.t;
  cap : int;
  rts : float array;
  rdomain : int array;
  rkind : kind array;     (* constant constructors: stored unboxed *)
  ra : int array;
  rb : int array;
  rtenant : int array;
  rreq : int array;
  rspan : int array;
  rparent : int array;
  mutable w : int;        (* total events ever recorded *)
}

let create ?(capacity = 4096) () : t =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  let ints v = Array.make capacity v in
  {
    m = Mutex.create ();
    enabled = Atomic.make true;
    cap = capacity;
    rts = Array.make capacity 0.;
    rdomain = ints 0;
    rkind = Array.make capacity Mark;
    ra = ints 0;
    rb = ints 0;
    rtenant = ints (-1);
    rreq = ints (-1);
    rspan = ints (-1);
    rparent = ints (-1);
    w = 0;
  }

let global : t = create ~capacity:24576 ()

let now = Clock.now

let record ?ctx ?ts ?(a = 0) ?(b = 0) (t : t) (kind : kind) : unit =
  if Atomic.get t.enabled then begin
    let c = match ctx with Some c -> c | None -> Ctx.current () in
    let d = (Domain.self () :> int) in
    Mutex.lock t.m;
    (* the clock is read inside the critical section, so ring order is
       timestamp order for every event without an explicit [ts] *)
    let i = t.w mod t.cap in
    t.rts.(i) <- (match ts with Some ts -> ts | None -> Clock.now ());
    t.rdomain.(i) <- d;
    t.rkind.(i) <- kind;
    t.ra.(i) <- a;
    t.rb.(i) <- b;
    t.rtenant.(i) <- c.Ctx.cx_tenant;
    t.rreq.(i) <- c.Ctx.cx_request;
    t.rspan.(i) <- c.Ctx.cx_span;
    t.rparent.(i) <- c.Ctx.cx_parent;
    t.w <- t.w + 1;
    Mutex.unlock t.m
  end

let set_enabled t on = Atomic.set t.enabled on
let is_enabled t = Atomic.get t.enabled

(* (dropped, events): the arrays are copied under the lock, oldest
   retained event first, and the events are built outside it. *)
let snapshot (t : t) : int * event list =
  let w, cols =
    Mutex.protect t.m (fun () ->
        let n = min t.w t.cap in
        let sub a = Array.sub a 0 n in
        ( t.w,
          ( sub t.rts, sub t.rdomain, sub t.rkind, sub t.ra, sub t.rb,
            sub t.rtenant, sub t.rreq, sub t.rspan, sub t.rparent ) ))
  in
  let ts, dom, kind, a, b, tenant, req, span, parent = cols in
  let n = Array.length ts in
  let evs =
    List.init n (fun k ->
        let i = (w - n + k) mod t.cap in
        {
          ev_ts = ts.(i);
          ev_domain = dom.(i);
          ev_kind = kind.(i);
          ev_a = a.(i);
          ev_b = b.(i);
          ev_ctx =
            {
              Ctx.cx_tenant = tenant.(i);
              cx_request = req.(i);
              cx_span = span.(i);
              cx_parent = parent.(i);
            };
        })
  in
  (* only events recorded with an explicit [ts] can be out of order *)
  (w - n, List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts) evs)

let dump t = snd (snapshot t)
let dropped t = Mutex.protect t.m (fun () -> max 0 (t.w - t.cap))
let clear t = Mutex.protect t.m (fun () -> t.w <- 0)

let record_metrics ?(registry = Metrics.global) (t : t) : unit =
  Metrics.set (Metrics.gauge registry "flight_recorder_dropped")
    (float_of_int (dropped t));
  Metrics.set (Metrics.gauge registry "flight_recorder_capacity")
    (float_of_int t.cap)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_fields =
  Doc.
    [
      field "ts" num (fun e -> e.ev_ts);
      field "domain" int (fun e -> e.ev_domain);
      field "kind" kind_enum (fun e -> e.ev_kind);
      field "a" int (fun e -> e.ev_a);
      field "b" int (fun e -> e.ev_b);
      field "tenant" int (fun e -> e.ev_ctx.Ctx.cx_tenant);
      field "request" int (fun e -> e.ev_ctx.Ctx.cx_request);
      field "span" int (fun e -> e.ev_ctx.Ctx.cx_span);
      field "parent" int (fun e -> e.ev_ctx.Ctx.cx_parent);
    ]

(* A dump is (capacity, dropped, events), read once so the warning and
   the count agree on a live recorder. *)
let fields =
  Doc.
    [
      field "capacity" (int_where "an integer >= 1" (fun c -> c >= 1))
        (fun (c, _, _) -> c);
      field "dropped" nat (fun (_, d, _) -> d);
      opt "warning" str (fun (_, d, _) ->
          if d = 0 then None
          else
            Some
              (Printf.sprintf
                 "%d events were overwritten before this dump; the oldest \
                  part of the timeline is incomplete (raise the recorder \
                  capacity to retain more)"
                 d));
      field "events" (list (nested event_fields)) (fun (_, _, evs) -> evs);
    ]

let rules j =
  let ts e =
    match Obs_json.member "ts" e with
    | Some (Obs_json.Int i) -> float_of_int i
    | Some (Obs_json.Float f) -> f
    | _ -> nan
  in
  let rec sorted = function
    | a :: (b :: _ as rest) -> ts b +. 1e-9 >= ts a && sorted rest
    | _ -> true
  in
  match (Obs_json.member "warning" j, Obs_json.member "dropped" j) with
  | Some _, Some (Obs_json.Int 0) -> Error "warning present but dropped = 0"
  | _ -> (
    match Obs_json.member "events" j with
    | Some (Obs_json.List evs) when not (sorted evs) ->
      Error "events not sorted by timestamp"
    | _ -> Ok ())

let doc = Doc.v ~name:"flight" ~rules "nullelim-flight/1" fields

let to_json (t : t) : Obs_json.t =
  let dropped, evs = snapshot t in
  Doc.obj doc (Doc.record fields (t.cap, dropped, evs))

let events_of_json (j : Obs_json.t) : (event list * int, string) result =
  (* after validation every member is present with its declared kind *)
  let int name e =
    match Obs_json.member name e with Some (Obs_json.Int i) -> i | _ -> 0
  in
  let event e =
    {
      ev_ts =
        (match Obs_json.member "ts" e with
        | Some (Obs_json.Float f) -> f
        | _ -> float_of_int (int "ts" e));
      ev_domain = int "domain" e;
      ev_kind =
        (match Obs_json.member "kind" e with
        | Some (Obs_json.Str k) -> Option.get (kind_of_name k)
        | _ -> Mark);
      ev_a = int "a" e;
      ev_b = int "b" e;
      ev_ctx =
        {
          Ctx.cx_tenant = int "tenant" e;
          cx_request = int "request" e;
          cx_span = int "span" e;
          cx_parent = int "parent" e;
        };
    }
  in
  Result.map
    (fun () ->
      let evs =
        match Obs_json.member "events" j with
        | Some (Obs_json.List evs) -> evs
        | _ -> []
      in
      (List.map event evs, int "dropped" j))
    (Doc.validate doc j)

let to_trace (t : t) : Trace.event list =
  match dump t with
  | [] -> []
  | first :: _ as evs ->
    let t0 = first.ev_ts in
    List.map
      (fun e ->
        {
          Trace.ev_name = kind_name e.ev_kind;
          ev_cat = "flight";
          ev_ts_us = (e.ev_ts -. t0) *. 1e6;
          ev_dur_us = 0.;
          ev_args =
            ([
               ("domain", Obs_json.Int e.ev_domain);
               ("a", Obs_json.Int e.ev_a);
               ("b", Obs_json.Int e.ev_b);
             ]
            @
            if Ctx.is_none e.ev_ctx then []
            else
              [
                ("tenant", Obs_json.Int e.ev_ctx.Ctx.cx_tenant);
                ("request", Obs_json.Int e.ev_ctx.Ctx.cx_request);
              ]);
        })
      evs
