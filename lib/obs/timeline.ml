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

let phase_of_name = function
  | "completed" -> Some Completed
  | "shed" -> Some Shed
  | "inflight" -> Some Inflight
  | _ -> None

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
  (* With a wrapped ring the oldest spans are gone by design; a
     completed request missing its enqueue is then expected, not a
     propagation bug, so the check only binds when nothing was lost. *)
  if dropped > 0 then Ok ()
  else
    let rec go = function
      | [] -> Ok ()
      | tl :: rest -> (
        let fail msg =
          Error (Printf.sprintf "request %d: %s" tl.tl_request msg)
        in
        match phase tl with
        | Shed | Inflight -> go rest
        | Completed -> (
          match (tl.tl_enqueue, tl.tl_dequeue, tl.tl_done) with
          | None, _, _ -> fail "completed without a req_enqueue span"
          | _, None, _ -> fail "completed without a req_start span"
          | _, _, None -> go rest (* unreachable: Completed has tl_done *)
          | Some e, Some s, Some d ->
            if not (e <= s +. 1e-9 && s <= d +. 1e-9) then
              fail
                (Printf.sprintf
                   "spans out of causal order (enqueue %.6f, start %.6f, \
                    done %.6f)"
                   e s d)
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
            else go rest))
    in
    go tls

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let opt_f name = function
  | None -> []
  | Some v -> [ (name, Obs_json.Float v) ]

let timeline_to_json (tl : t) : Obs_json.t =
  Obs_json.Obj
    ([
       ("request", Obs_json.Int tl.tl_request);
       ("tenant", Obs_json.Int tl.tl_tenant);
       ("phase", Obs_json.Str (phase_name (phase tl)));
     ]
    @ opt_f "enqueue_ts" tl.tl_enqueue
    @ opt_f "dequeue_ts" tl.tl_dequeue
    @ opt_f "done_ts" tl.tl_done
    @ opt_f "shed_ts" tl.tl_shed
    @ opt_f "queue_wait" (queue_wait tl)
    @ opt_f "service_time" (service_time tl)
    @ opt_f "total_latency" (total_latency tl)
    @ [
        ( "spans",
          Obs_json.List
            (List.map
               (fun e ->
                 Obs_json.Obj
                   [
                     ("ts", Obs_json.Float e.Recorder.ev_ts);
                     ("domain", Obs_json.Int e.Recorder.ev_domain);
                     ( "kind",
                       Obs_json.Str (Recorder.kind_name e.Recorder.ev_kind)
                     );
                     ("span", Obs_json.Int e.Recorder.ev_ctx.Ctx.cx_span);
                     ( "parent",
                       Obs_json.Int e.Recorder.ev_ctx.Ctx.cx_parent );
                   ])
               tl.tl_events) );
      ])

let doc =
  Doc.v ~name:"timelines" "nullelim-timeline/1" @@ fun j ->
  let ( let* ) r f = Result.bind r f in
  let int_ge0 name =
    match Obs_json.member name j with
    | Some (Obs_json.Int i) when i >= 0 -> Ok i
    | _ -> Error (Printf.sprintf "%s must be a non-negative integer" name)
  in
  let* _ = int_ge0 "dropped" in
  let* total = int_ge0 "requests" in
  let* c = int_ge0 "completed" in
  let* s = int_ge0 "shed" in
  let* i = int_ge0 "inflight" in
  let* () =
    if c + s + i = total then Ok ()
    else Error "completed + shed + inflight <> requests"
  in
  match Obs_json.member "timelines" j with
  | Some (Obs_json.List tls) ->
    let* n =
      List.fold_left
        (fun acc tl ->
          let* n = acc in
          let* req =
            match Obs_json.member "request" tl with
            | Some (Obs_json.Int r) when r >= 0 -> Ok r
            | _ -> Error "timeline missing request id"
          in
          let fail msg =
            Error (Printf.sprintf "request %d: %s" req msg)
          in
          let* () =
            match Obs_json.member "phase" tl with
            | Some (Obs_json.Str p) when phase_of_name p <> None -> Ok ()
            | _ -> fail "phase must be completed/shed/inflight"
          in
          let* () =
            match Obs_json.member "spans" tl with
            | Some (Obs_json.List spans) ->
              if
                List.for_all
                  (fun sp ->
                    match
                      ( Obs_json.member "ts" sp,
                        Obs_json.member "kind" sp )
                    with
                    | ( Some (Obs_json.Float _ | Obs_json.Int _),
                        Some (Obs_json.Str k) ) ->
                      Recorder.kind_of_name k <> None
                    | _ -> false)
                  spans
              then Ok ()
              else fail "span missing ts/kind"
            | _ -> fail "missing spans list"
          in
          Ok (n + 1))
        (Ok 0) tls
    in
    if n = total then Ok () else Error "requests count <> timelines length"
  | _ -> Error "missing timelines list"

let to_json ?(dropped = 0) (tls : t list) : Obs_json.t =
  let phases = List.map phase tls in
  let count p = List.length (List.filter (( = ) p) phases) in
  Doc.obj doc
    [
      ("dropped", Obs_json.Int dropped);
      ("requests", Obs_json.Int (List.length tls));
      ("completed", Obs_json.Int (count Completed));
      ("shed", Obs_json.Int (count Shed));
      ("inflight", Obs_json.Int (count Inflight));
      ("timelines", Obs_json.List (List.map timeline_to_json tls));
    ]
