(** Per-request timelines sliced from a flight dump (see the
    interface). *)

module Recorder = Nullelim_obs.Recorder
module Timeline = Nullelim_obs.Timeline
module Doc = Nullelim_obs.Doc

type t = { events : int; dropped : int; timelines : Timeline.t list }

let of_events ~dropped events =
  { events = List.length events; dropped; timelines = Timeline.of_events events }

let of_recorder r = of_events ~dropped:(Recorder.dropped r) (Recorder.dump r)

let read path =
  Result.bind (Doc.read path) (fun j ->
      Result.map_error
        (Printf.sprintf "%s: not a flight document: %s" path)
        (Recorder.events_of_json (Doc.find Recorder.doc j)))
  |> Result.map (fun (events, dropped) -> of_events ~dropped events)

let count t p =
  List.length (List.filter (fun tl -> Timeline.phase tl = p) t.timelines)

let pp ppf t =
  Fmt.pf ppf
    "timelines: %d events -> %d requests: %d completed, %d shed, %d in \
     flight (%d events dropped)@."
    t.events (List.length t.timelines)
    (count t Timeline.Completed)
    (count t Timeline.Shed) (count t Timeline.Inflight) t.dropped

let pp_table ppf t =
  Fmt.pf ppf "@.%8s %7s %10s %10s %10s %10s@." "request" "tenant" "phase"
    "wait_ms" "svc_ms" "total_ms";
  let ms = function
    | Some s -> Printf.sprintf "%.2f" (1000. *. s)
    | None -> "-"
  in
  List.iter
    (fun (tl : Timeline.t) ->
      Fmt.pf ppf "%8d %7d %10s %10s %10s %10s@." tl.Timeline.tl_request
        tl.Timeline.tl_tenant
        (Timeline.phase_name (Timeline.phase tl))
        (ms (Timeline.queue_wait tl))
        (ms (Timeline.service_time tl))
        (ms (Timeline.total_latency tl)))
    t.timelines

let emit ppf ~gate ?out t =
  let gated =
    if not gate then Ok ()
    else
      match Timeline.check_complete ~dropped:t.dropped t.timelines with
      | Ok () ->
        let partial = List.filter Timeline.missing_spans t.timelines in
        Fmt.pf ppf "causal gate: OK%s@."
          (if t.dropped = 0 then ""
           else
             Printf.sprintf
               " (%d events dropped: %d completed requests lost spans, \
                only the order of the rest was checked)"
               t.dropped (List.length partial));
        Ok ()
      | Error e -> Error ("timeline causal gate FAILED: " ^ e)
  in
  Result.bind gated (fun () ->
      match out with
      | None -> Ok ()
      | Some path ->
        Doc.write Timeline.doc path
          (Timeline.to_json ~dropped:t.dropped t.timelines)
        |> Result.map (fun () ->
               Fmt.pf ppf "timeline document written to %s@." path))

let run ppf ~check ?out path =
  Result.bind (read path) (fun t ->
      Fmt.pf ppf "%a%a@." pp t pp_table t;
      emit ppf ~gate:check ?out t)
