(** The live status server driven by the load generator (see the
    interface). *)

module Status = Nullelim_svc.Status
module Metrics = Nullelim_obs.Metrics
module Recorder = Nullelim_obs.Recorder
module Slo = Nullelim_obs.Slo
module Export = Nullelim_obs.Export
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc

let ( let* ) = Result.bind

let self_probe ppf address =
  let get path =
    Result.map_error
      (Printf.sprintf "%s probe failed: %s" path)
      (Status.get address path)
  in
  let ok_200 path = function
    | 200, body -> Ok body
    | s, _ -> Error (Printf.sprintf "%s returned %d" path s)
  in
  let* body = Result.bind (get "/metrics") (ok_200 "/metrics") in
  let* () =
    Result.map_error
      (( ^ ) "/metrics exposition lint FAILED: ")
      (Export.lint body)
  in
  Fmt.pf ppf "@.self-probe /metrics : 200, exposition lints clean@.";
  let* s, body = get "/healthz" in
  let* () =
    Result.map_error
      (( ^ ) "/healthz document invalid: ")
      (Result.bind (Json.of_string body) (Doc.validate Slo.doc))
  in
  Fmt.pf ppf "self-probe /healthz : %d (%s valid)@." s (Doc.schema Slo.doc);
  let* _ = Result.bind (get "/tenants") (ok_200 "/tenants") in
  Fmt.pf ppf "self-probe /tenants : 200@.";
  Ok ()

let run ppf ?(addr = "127.0.0.1") ?(port = 0) ?port_file ?unix_socket
    ?timelines ?(linger = 0.) load =
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~capacity:65536 () in
  let slo =
    Slo.create metrics
      [
        Slo.latency ~name:"compile-latency" ~metric:"svc_compile_seconds"
          ~threshold:1.0 ~target:0.99;
        Slo.availability ~name:"availability"
          ~good:"svc_requests_completed_total" ~bad:"svc_requests_shed_total"
          ~target:0.99;
      ]
  in
  let srv =
    Status.serve ~addr ~port ?unix_path:unix_socket
      ~tick:(fun () -> Slo.tick slo)
      (Status.obs_routes ~metrics ~recorder ~slo ())
  in
  Fun.protect
    ~finally:(fun () -> Status.stop srv)
    (fun () ->
      let address = Status.address srv in
      Fmt.pf ppf "serving on %s@." (Status.address_to_string address);
      (match (address, port_file) with
      | Status.Tcp (_, p), Some pf ->
        Out_channel.with_open_bin pf (fun oc ->
            output_string oc (string_of_int p ^ "\n"));
        Fmt.pf ppf "port written to %s@." pf
      | Status.Unix_sock _, Some pf ->
        Fmt.pf ppf "port file %s ignored (unix socket)@." pf
      | _, None -> ());
      let* _ = Loadgen.run ppf ~metrics ~recorder ?timelines load in
      let* () = self_probe ppf address in
      if linger > 0. then begin
        Fmt.pf ppf "lingering %.1f s for external probes@." linger;
        Unix.sleepf linger
      end
      else if linger < 0. then begin
        Fmt.pf ppf "serving until killed@.";
        while true do
          Unix.sleepf 3600.
        done
      end;
      Ok ())
