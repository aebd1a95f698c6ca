(** Chrome trace-event encoding.  The events come from a compile's pass
    records ([Compiler.trace]) or from the flight recorder
    ({!Recorder.to_trace}); the file loads directly into
    [chrome://tracing] or [ui.perfetto.dev]. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;
  ev_dur_us : float;
  ev_args : (string * Obs_json.t) list;
}

let event_fields =
  Doc.
    [
      field "name" str (fun e -> e.ev_name);
      field "cat" str (fun e -> e.ev_cat);
      field "ph" str (fun _ -> "X");
      field "ts" num (fun e -> e.ev_ts_us);
      field "dur" num (fun e -> e.ev_dur_us);
      field "pid" int (fun _ -> 1);
      field "tid" int (fun _ -> 1);
      opt "args"
        (custom "an object"
           (fun args -> Obs_json.Obj args)
           (function Obs_json.Obj _ -> true | _ -> false))
        (fun e -> if e.ev_args = [] then None else Some e.ev_args);
    ]

let fields =
  Doc.
    [
      field "traceEvents" (list (nested event_fields)) Fun.id;
      field "displayTimeUnit" str (fun _ -> "ms");
    ]

let to_json (events : event list) : Obs_json.t =
  Obs_json.Obj (Doc.record fields events)

let validate = Doc.check fields

let write path events =
  let oc = open_out path in
  output_string oc (Obs_json.to_string (to_json events));
  output_char oc '\n';
  close_out oc
