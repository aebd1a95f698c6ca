(** Low-overhead trace spans with Chrome trace-event output.

    A span wraps a computation and, when tracing is active, records a
    complete event ([ph:"X"]) with microsecond wall-clock timestamp and
    duration; the resulting file loads directly into [chrome://tracing]
    or [ui.perfetto.dev].  When tracing is inactive — the default — a
    span is a single [bool] test plus a tail call, so instrumented code
    pays nothing measurable.

    Activation:
    - environment: [NULLELIM_TRACE=path] arms collection at program start
      and writes [path] at exit;
    - programmatic: {!start_to_file} (same behaviour, e.g. for a
      [--trace] CLI flag) or {!start}/{!stop} for in-memory collection
      (used by the test suite).

    Spans nest lexically; {!depth} exposes the current nesting depth so
    tests can assert the stream is balanced. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts_us : float;   (** start, microseconds since collection started *)
  ev_dur_us : float;
  ev_depth : int;     (** nesting depth at span entry (0 = top level) *)
  ev_args : (string * Obs_json.t) list;
}

type sink = { mutable events : event list; mutable count : int; file : string option }

(* All collection state is domain-local: arming tracing on one domain
   (the CLI main domain, a test) never makes another domain's spans
   race on the sink.  Worker domains of the compile service therefore
   start with tracing disarmed, and a span there costs one DLS read. *)
type state = {
  mutable active : sink option;
  mutable cur_depth : int;
  mutable t0_us : float;
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { active = None; cur_depth = 0; t0_us = 0. })

let state () = Domain.DLS.get state_key

(** Cap on collected events: a runaway tracing session degrades into
    dropping the tail rather than exhausting memory. *)
let max_events = 2_000_000

let now_us () = Int64.to_float (Clock.now_ns ()) *. 1e-3

let enabled () = (state ()).active <> None
let depth () = (state ()).cur_depth

let start_sink file =
  let st = state () in
  st.t0_us <- now_us ();
  st.cur_depth <- 0;
  st.active <- Some { events = []; count = 0; file }

let start () = start_sink None
let start_to_file path = start_sink (Some path)

let record_event st e =
  match st.active with
  | Some s when s.count < max_events ->
    s.events <- e :: s.events;
    s.count <- s.count + 1
  | Some _ | None -> ()

let span ?(cat = "nullelim") ?(args = []) name f =
  let st = state () in
  match st.active with
  | None -> f ()
  | Some _ ->
    let d = st.cur_depth in
    st.cur_depth <- d + 1;
    let t0 = now_us () -. st.t0_us in
    let finish () =
      let t1 = now_us () -. st.t0_us in
      st.cur_depth <- st.cur_depth - 1;
      record_event st
        {
          ev_name = name;
          ev_cat = cat;
          ev_ts_us = t0;
          ev_dur_us = t1 -. t0;
          ev_depth = d;
          ev_args = args;
        }
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let instant ?(cat = "nullelim") ?(args = []) name =
  let st = state () in
  if st.active <> None then
    record_event st
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_us = now_us () -. st.t0_us;
        ev_dur_us = 0.;
        ev_depth = st.cur_depth;
        ev_args = args;
      }

(** Events in start order (spans record at exit, so the raw list is in
    completion order; sort by start time, ties broken longest-first so a
    parent precedes its children). *)
let ordered (s : sink) =
  List.stable_sort
    (fun a b ->
      match compare a.ev_ts_us b.ev_ts_us with
      | 0 -> compare b.ev_dur_us a.ev_dur_us
      | c -> c)
    (List.rev s.events)

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

let stop () =
  let st = state () in
  match st.active with
  | None -> []
  | Some s ->
    st.active <- None;
    st.cur_depth <- 0;
    let evs = ordered s in
    (match s.file with Some path -> write path evs | None -> ());
    evs

(* Arm from the environment, and flush at exit if the program never
   called [stop] itself.  Module initialization runs on the initial
   domain, so NULLELIM_TRACE arms exactly that domain's collection. *)
let () =
  match Sys.getenv_opt "NULLELIM_TRACE" with
  | Some path when path <> "" ->
    start_to_file path;
    at_exit (fun () -> ignore (stop ()))
  | Some _ | None -> ()
