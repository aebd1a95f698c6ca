(* See recorder.mli.  Struct-of-arrays rings: one float array for
   timestamps and a handful of int arrays for payload keep recording
   allocation-free (no per-event record on the hot path).  The four
   context columns (tenant/request/span/parent) are filled from the
   explicit [?ctx] or the calling domain's ambient {!Ctx.current}. *)

type kind =
  | Tier_promote
  | Tier_demote
  | Trap_fired
  | Cache_hit
  | Cache_miss
  | Cache_evict
  | Enqueue
  | Dequeue
  | Req_enqueue
  | Req_start
  | Req_done
  | Req_shed
  | Mark

let kind_to_int = function
  | Tier_promote -> 0
  | Tier_demote -> 1
  | Trap_fired -> 2
  | Cache_hit -> 3
  | Cache_miss -> 4
  | Cache_evict -> 5
  | Enqueue -> 6
  | Dequeue -> 7
  | Req_enqueue -> 8
  | Req_start -> 9
  | Req_done -> 10
  | Req_shed -> 11
  | Mark -> 12

let kind_of_int = function
  | 0 -> Tier_promote
  | 1 -> Tier_demote
  | 2 -> Trap_fired
  | 3 -> Cache_hit
  | 4 -> Cache_miss
  | 5 -> Cache_evict
  | 6 -> Enqueue
  | 7 -> Dequeue
  | 8 -> Req_enqueue
  | 9 -> Req_start
  | 10 -> Req_done
  | 11 -> Req_shed
  | _ -> Mark

let kind_name = function
  | Tier_promote -> "tier_promote"
  | Tier_demote -> "tier_demote"
  | Trap_fired -> "trap_fired"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Cache_evict -> "cache_evict"
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Req_enqueue -> "req_enqueue"
  | Req_start -> "req_start"
  | Req_done -> "req_done"
  | Req_shed -> "req_shed"
  | Mark -> "mark"

let kind_of_name = function
  | "tier_promote" -> Some Tier_promote
  | "tier_demote" -> Some Tier_demote
  | "trap_fired" -> Some Trap_fired
  | "cache_hit" -> Some Cache_hit
  | "cache_miss" -> Some Cache_miss
  | "cache_evict" -> Some Cache_evict
  | "enqueue" -> Some Enqueue
  | "dequeue" -> Some Dequeue
  | "req_enqueue" -> Some Req_enqueue
  | "req_start" -> Some Req_start
  | "req_done" -> Some Req_done
  | "req_shed" -> Some Req_shed
  | "mark" -> Some Mark
  | _ -> None

type event = {
  ev_ts : float;
  ev_domain : int;
  ev_kind : kind;
  ev_a : int;
  ev_b : int;
  ev_ctx : Ctx.t;
}

type ring = {
  rd : int;               (* recording domain's id *)
  cap : int;
  rts : float array;
  rkind : int array;
  ra : int array;
  rb : int array;
  rtenant : int array;
  rreq : int array;
  rspan : int array;
  rparent : int array;
  mutable w : int;        (* total events ever recorded *)
}

(* Domain_shard's create hook only sees the owner uid, so per-owner
   capacity is resolved through this side table (written once per
   recorder, under the mutex). *)
let caps : (int, int) Hashtbl.t = Hashtbl.create 8
let caps_m = Mutex.create ()

let default_capacity = 4096

module Rings = Domain_shard.Make (struct
  type shard = ring

  let create ~owner_uid ~domain =
    let cap =
      Mutex.lock caps_m;
      let c =
        Option.value ~default:default_capacity
          (Hashtbl.find_opt caps owner_uid)
      in
      Mutex.unlock caps_m;
      c
    in
    {
      rd = domain;
      cap;
      rts = Array.make cap 0.;
      rkind = Array.make cap 0;
      ra = Array.make cap 0;
      rb = Array.make cap 0;
      rtenant = Array.make cap (-1);
      rreq = Array.make cap (-1);
      rspan = Array.make cap (-1);
      rparent = Array.make cap (-1);
      w = 0;
    }
end)

type t = {
  owner : Rings.owner;
  enabled : bool Atomic.t;
  rcap : int;
}

let create ?(capacity = default_capacity) () : t =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  let owner = Rings.create () in
  Mutex.lock caps_m;
  Hashtbl.replace caps (Rings.uid owner) capacity;
  Mutex.unlock caps_m;
  { owner; enabled = Atomic.make true; rcap = capacity }

let global : t = create ~capacity:8192 ()

let now () = Unix.gettimeofday ()

let record ?ctx ?ts ?(a = 0) ?(b = 0) (t : t) (kind : kind) : unit =
  if Atomic.get t.enabled then begin
    let c = match ctx with Some c -> c | None -> Ctx.current () in
    let r = Rings.my_shard t.owner in
    let i = r.w mod r.cap in
    r.rts.(i) <- (match ts with Some ts -> ts | None -> Unix.gettimeofday ());
    r.rkind.(i) <- kind_to_int kind;
    r.ra.(i) <- a;
    r.rb.(i) <- b;
    r.rtenant.(i) <- c.Ctx.cx_tenant;
    r.rreq.(i) <- c.Ctx.cx_request;
    r.rspan.(i) <- c.Ctx.cx_span;
    r.rparent.(i) <- c.Ctx.cx_parent;
    r.w <- r.w + 1
  end

let set_enabled t on = Atomic.set t.enabled on
let is_enabled t = Atomic.get t.enabled
let capacity t = t.rcap

let ring_events (r : ring) : event list =
  let w = r.w in
  let n = min w r.cap in
  (* oldest retained event first *)
  List.init n (fun k ->
      let i = (w - n + k) mod r.cap in
      {
        ev_ts = r.rts.(i);
        ev_domain = r.rd;
        ev_kind = kind_of_int r.rkind.(i);
        ev_a = r.ra.(i);
        ev_b = r.rb.(i);
        ev_ctx =
          {
            Ctx.cx_tenant = r.rtenant.(i);
            cx_request = r.rreq.(i);
            cx_span = r.rspan.(i);
            cx_parent = r.rparent.(i);
          };
      })

let dump (t : t) : event list =
  Rings.shards t.owner
  |> List.concat_map ring_events
  |> List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts)

let dropped (t : t) : int =
  List.fold_left
    (fun acc r -> acc + max 0 (r.w - r.cap))
    0 (Rings.shards t.owner)

let clear (t : t) : unit =
  List.iter (fun r -> r.w <- 0) (Rings.shards t.owner)

let record_metrics ?(registry = Metrics.global) (t : t) : unit =
  Metrics.set (Metrics.gauge registry "flight_recorder_dropped")
    (float_of_int (dropped t));
  Metrics.set (Metrics.gauge registry "flight_recorder_capacity")
    (float_of_int t.rcap)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_to_json (e : event) : Obs_json.t =
  Obs_json.Obj
    [
      ("ts", Obs_json.Float e.ev_ts);
      ("domain", Obs_json.Int e.ev_domain);
      ("kind", Obs_json.Str (kind_name e.ev_kind));
      ("a", Obs_json.Int e.ev_a);
      ("b", Obs_json.Int e.ev_b);
      ("tenant", Obs_json.Int e.ev_ctx.Ctx.cx_tenant);
      ("request", Obs_json.Int e.ev_ctx.Ctx.cx_request);
      ("span", Obs_json.Int e.ev_ctx.Ctx.cx_span);
      ("parent", Obs_json.Int e.ev_ctx.Ctx.cx_parent);
    ]

let doc =
  Doc.v ~name:"flight" "nullelim-flight/1" @@ fun j ->
  let ( let* ) r f = Result.bind r f in
  let* () =
    match (Obs_json.member "capacity" j, Obs_json.member "dropped" j) with
    | Some (Obs_json.Int c), Some (Obs_json.Int d) when c >= 1 && d >= 0 ->
      Ok ()
    | _ -> Error "capacity/dropped must be non-negative integers"
  in
  let* () =
    (* the drop warning, when present, must accompany a positive count *)
    match (Obs_json.member "warning" j, Obs_json.member "dropped" j) with
    | None, _ -> Ok ()
    | Some (Obs_json.Str _), Some (Obs_json.Int d) when d > 0 -> Ok ()
    | Some (Obs_json.Str _), _ -> Error "warning present but dropped = 0"
    | Some _, _ -> Error "warning must be a string"
  in
  match Obs_json.member "events" j with
  | Some (Obs_json.List evs) ->
    let opt_int name e =
      match Obs_json.member name e with
      | None | Some (Obs_json.Int _) -> true
      | Some _ -> false
    in
    let check_event prev_ts e =
      let* prev_ts = prev_ts in
      match
        ( Obs_json.member "ts" e,
          Obs_json.member "domain" e,
          Obs_json.member "kind" e,
          Obs_json.member "a" e,
          Obs_json.member "b" e )
      with
      | Some ((Obs_json.Float _ | Obs_json.Int _) as jts),
        Some (Obs_json.Int _),
        Some (Obs_json.Str k),
        Some (Obs_json.Int _),
        Some (Obs_json.Int _) ->
        let ts =
          match jts with
          | Obs_json.Int i -> float_of_int i
          | Obs_json.Float f -> f
          | _ -> 0.
        in
        let* () =
          match kind_of_name k with
          | Some _ -> Ok ()
          | None -> Error (Printf.sprintf "unknown event kind %s" k)
        in
        let* () =
          if
            List.for_all
              (fun n -> opt_int n e)
              [ "tenant"; "request"; "span"; "parent" ]
          then Ok ()
          else Error "context fields must be integers"
        in
        if ts +. 1e-9 < prev_ts then
          Error "events not sorted by timestamp"
        else Ok ts
      | _ -> Error "event missing ts/domain/kind/a/b"
    in
    let* _ = List.fold_left check_event (Ok neg_infinity) evs in
    Ok ()
  | _ -> Error "missing events list"

let to_json (t : t) : Obs_json.t =
  let d = dropped t in
  Doc.obj doc
    ([ ("capacity", Obs_json.Int t.rcap); ("dropped", Obs_json.Int d) ]
    @ (if d > 0 then
         [
           ( "warning",
             Obs_json.Str
               (Printf.sprintf
                  "%d events were overwritten before this dump; the oldest \
                   part of the timeline is incomplete (raise the recorder \
                   capacity to retain more)"
                  d) );
         ]
       else [])
    @ [ ("events", Obs_json.List (List.map event_to_json (dump t))) ])

let events_of_json (j : Obs_json.t) : (event list * int, string) result =
  let int_of name ~default e =
    match Obs_json.member name e with Some (Obs_json.Int i) -> i | _ -> default
  in
  let event e =
    let ts =
      match Obs_json.member "ts" e with
      | Some (Obs_json.Float f) -> f
      | _ -> float_of_int (int_of "ts" ~default:0 e)
    in
    let kind =
      match Obs_json.member "kind" e with
      | Some (Obs_json.Str k) -> kind_of_name k
      | _ -> None
    in
    {
      ev_ts = ts;
      ev_domain = int_of "domain" ~default:0 e;
      ev_kind = Option.get kind;
      ev_a = int_of "a" ~default:0 e;
      ev_b = int_of "b" ~default:0 e;
      ev_ctx =
        {
          Ctx.cx_tenant = int_of "tenant" ~default:(-1) e;
          cx_request = int_of "request" ~default:(-1) e;
          cx_span = int_of "span" ~default:(-1) e;
          cx_parent = int_of "parent" ~default:(-1) e;
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
      (List.map event evs, int_of "dropped" ~default:0 j))
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
          ev_depth = 0;
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
