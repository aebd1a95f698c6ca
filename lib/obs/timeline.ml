(* See timeline.mli.  A timeline is the ts-sorted slice of a flight
   dump sharing one request id — taken from the event's causal context
   or, for the Req_* lifecycle kinds, the [a] payload (the two always
   agree when a context was in force; the payload also covers events
   recorded before the context machinery existed). *)

type phase = Completed | Shed | Inflight

let phase_name = function
  | Completed -> "completed"
  | Shed -> "shed"
  | Inflight -> "inflight"

type t = {
  tl_request : int;
  tl_tenant : int;
  tl_events : Recorder.event list; (* ts-sorted *)
  tl_enqueue : float option;
  tl_dequeue : float option;
  tl_done : float option;
  tl_shed : float option;
}

let request_of_event (e : Recorder.event) : int option =
  if e.Recorder.ev_ctx.Ctx.cx_request >= 0 then
    Some e.Recorder.ev_ctx.Ctx.cx_request
  else
    match e.Recorder.ev_kind with
    | Recorder.Req_enqueue | Recorder.Req_start | Recorder.Req_done
    | Recorder.Req_shed ->
      if e.Recorder.ev_a >= 0 then Some e.Recorder.ev_a else None
    | _ -> None

let of_events (events : Recorder.event list) : t list =
  let by_req : (int, Recorder.event list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match request_of_event e with
      | None -> ()
      | Some req -> (
        match Hashtbl.find_opt by_req req with
        | Some l -> l := e :: !l
        | None -> Hashtbl.add by_req req (ref [ e ])))
    events;
  Hashtbl.fold
    (fun req evs acc ->
      let evs =
        List.stable_sort
          (fun a b -> compare a.Recorder.ev_ts b.Recorder.ev_ts)
          (List.rev !evs)
      in
      let tenant =
        List.fold_left
          (fun acc e ->
            if acc >= 0 then acc else e.Recorder.ev_ctx.Ctx.cx_tenant)
          (-1) evs
      in
      let first kind =
        List.find_map
          (fun e ->
            if e.Recorder.ev_kind = kind then Some e.Recorder.ev_ts else None)
          evs
      in
      {
        tl_request = req;
        tl_tenant = tenant;
        tl_events = evs;
        tl_enqueue = first Recorder.Req_enqueue;
        tl_dequeue = first Recorder.Req_start;
        tl_done = first Recorder.Req_done;
        tl_shed = first Recorder.Req_shed;
      }
      :: acc)
    by_req []
  |> List.sort (fun a b -> compare a.tl_request b.tl_request)

let phase (tl : t) : phase =
  if tl.tl_done <> None then Completed
  else if tl.tl_shed <> None then Shed
  else Inflight

let queue_wait (tl : t) : float option =
  match (tl.tl_enqueue, tl.tl_dequeue) with
  | Some e, Some d -> Some (d -. e)
  | _ -> None

let service_time (tl : t) : float option =
  match (tl.tl_dequeue, tl.tl_done) with
  | Some s, Some d -> Some (d -. s)
  | _ -> None

let total_latency (tl : t) : float option =
  match (tl.tl_enqueue, tl.tl_done) with
  | Some e, Some d -> Some (d -. e)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Completeness                                                        *)
(* ------------------------------------------------------------------ *)

let check_complete ?(dropped = 0) (tls : t list) : (unit, string) result =
  (* With a wrapped ring the oldest spans are gone by design: a
     completed request missing its enqueue or start is then expected,
     not a propagation bug.  The spans that are present are checked
     either way. *)
  let before a b =
    match (a, b) with Some a, Some b -> a <= b +. 1e-9 | _ -> true
  in
  let ts = function Some t -> Printf.sprintf "%.6f" t | None -> "-" in
  let rec go = function
    | [] -> Ok ()
    | tl :: rest ->
      let fail msg =
        Error (Printf.sprintf "request %d: %s" tl.tl_request msg)
      in
      let e, s, d = (tl.tl_enqueue, tl.tl_dequeue, tl.tl_done) in
      if phase tl <> Completed then go rest
      else if dropped = 0 && e = None then
        fail "completed without a req_enqueue span"
      else if dropped = 0 && s = None then
        fail "completed without a req_start span"
      else if not (before e s && before s d && before e d) then
        fail
          (Printf.sprintf
             "spans out of causal order (enqueue %s, start %s, done %s)"
             (ts e) (ts s) (ts d))
      else if
        (* every attributed span must agree on the tenant *)
        List.exists
          (fun ev ->
            let t = ev.Recorder.ev_ctx.Ctx.cx_tenant in
            t >= 0 && tl.tl_tenant >= 0 && t <> tl.tl_tenant)
          tl.tl_events
      then fail "spans disagree on tenant"
      else if
        List.exists
          (fun ev ->
            let r = ev.Recorder.ev_ctx.Ctx.cx_request in
            r >= 0 && r <> tl.tl_request)
          tl.tl_events
      then fail "spans disagree on request id"
      else go rest
  in
  go tls

let missing_spans (tl : t) =
  phase tl = Completed && (tl.tl_enqueue = None || tl.tl_dequeue = None)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let span_fields =
  Doc.
    [
      field "ts" num (fun e -> e.Recorder.ev_ts);
      field "domain" int (fun e -> e.Recorder.ev_domain);
      field "kind" Recorder.kind_enum (fun e -> e.Recorder.ev_kind);
      field "span" int (fun e -> e.Recorder.ev_ctx.Ctx.cx_span);
      field "parent" int (fun e -> e.Recorder.ev_ctx.Ctx.cx_parent);
    ]

let timeline_fields =
  Doc.
    [
      field "request" nat (fun tl -> tl.tl_request);
      field "tenant" int (fun tl -> tl.tl_tenant);
      field "phase" (enum phase_name [ Completed; Shed; Inflight ]) phase;
      opt "enqueue_ts" num (fun tl -> tl.tl_enqueue);
      opt "dequeue_ts" num (fun tl -> tl.tl_dequeue);
      opt "done_ts" num (fun tl -> tl.tl_done);
      opt "shed_ts" num (fun tl -> tl.tl_shed);
      opt "queue_wait" num queue_wait;
      opt "service_time" num service_time;
      opt "total_latency" num total_latency;
      field "spans" (list (nested span_fields)) (fun tl -> tl.tl_events);
    ]

(* The document describes (dropped, timelines). *)
let fields =
  let count p (_, tls) =
    List.length (List.filter (fun tl -> phase tl = p) tls)
  in
  Doc.
    [
      field "dropped" nat fst;
      field "requests" nat (fun (_, tls) -> List.length tls);
      field "completed" nat (count Completed);
      field "shed" nat (count Shed);
      field "inflight" nat (count Inflight);
      field "timelines" (list (nested timeline_fields)) snd;
    ]

let rules j =
  let int name =
    match Obs_json.member name j with Some (Obs_json.Int i) -> i | _ -> 0
  in
  if int "completed" + int "shed" + int "inflight" <> int "requests" then
    Error "completed + shed + inflight <> requests"
  else
    match Obs_json.member "timelines" j with
    | Some (Obs_json.List tls) when List.length tls <> int "requests" ->
      Error "requests count <> timelines length"
    | _ -> Ok ()

let doc = Doc.v ~name:"timelines" ~rules "nullelim-timeline/1" fields

let to_json ?(dropped = 0) (tls : t list) : Obs_json.t =
  Doc.obj doc (Doc.record fields (dropped, tls))
