module Doc = Nullelim_obs.Doc
module Json = Nullelim_obs.Obs_json

let all =
  [
    Nullelim_obs.Metrics.doc;
    Nullelim_obs.Recorder.doc;
    Nullelim_obs.Timeline.doc;
    Nullelim_obs.Slo.doc;
    Profile_report.dynamic_doc;
    Steady_state.doc;
    Loadgen.doc;
    Native_bench.doc;
    Nullelim_gen.Report.doc;
    Nullelim_svc.Status.tenants_doc;
  ]

let registered = String.concat ", " (List.map Doc.schema all)

let check where schema j =
  match List.find_opt (fun d -> Doc.schema d = schema) all with
  | None ->
    Error
      (Printf.sprintf "%sunknown schema %S (registered: %s)" where schema
         registered)
  | Some d -> (
    match Doc.validate d j with
    | Ok () -> Ok (where ^ schema)
    | Error e -> Error (Printf.sprintf "%s%s: %s" where schema e))

let validate j =
  match (Json.member "schema" j, Json.member "traceEvents" j) with
  | Some (Json.Str s), _ when s = Doc.container ->
    let members = match j with Json.Obj fields -> fields | _ -> [] in
    let results =
      List.filter_map
        (fun (name, m) ->
          match Json.member "schema" m with
          | Some (Json.Str s) when String.starts_with ~prefix:"nullelim-" s ->
            Some (check (name ^ ": ") s m)
          | _ -> None)
        members
    in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) results
    in
    if errors <> [] then Error (String.concat "; " errors)
    else if results = [] then
      Error (Printf.sprintf "%s container with no registered member" s)
    else Ok (List.filter_map Result.to_option results)
  | Some (Json.Str s), _ -> Result.map (fun c -> [ c ]) (check "" s j)
  | Some _, _ -> Error "field \"schema\" must be a string"
  | None, Some _ ->
    Result.map (fun () -> [ "Chrome trace" ]) (Nullelim_obs.Trace.validate j)
  | None, None ->
    Error
      (Printf.sprintf
         "no \"schema\" string and no \"traceEvents\" list; tried %s, a %s \
          container and a Chrome trace"
         registered Doc.container)
