(* Status server + causal-tracing integration: the HTTP surface answers
   over real sockets (routing, 404s, exposition lint, SLO verdict), a
   4-domain loadgen run's flight dump reconstructs a complete causal
   timeline for every completed request, and the per-tenant admission
   cap sheds with the right reason while the closed accounting
   (submitted + shed = offered and submitted = completed, per tenant)
   keeps holding. *)

open Nullelim
module LG = Nullelim_experiments.Loadgen
module Metrics = Obs.Metrics
module Recorder = Obs.Recorder
module Timeline = Obs.Timeline
module Slo = Obs.Slo
module Export = Obs.Export
module Ctx = Nullelim_obs.Ctx
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

let get_ok srv path =
  match Status.get (Status.address srv) path with
  | Ok (st, body) -> (st, body)
  | Error e -> Alcotest.failf "GET %s failed: %s" path e

(* ------------------------------------------------------------------ *)
(* HTTP surface                                                        *)
(* ------------------------------------------------------------------ *)

let test_routes_and_404 () =
  let srv =
    Status.serve
      [
        ("/hello", fun () -> Status.ok "hi there");
        ("/boom", fun () -> failwith "kaboom");
      ]
  in
  Fun.protect
    ~finally:(fun () -> Status.stop srv)
    (fun () ->
      let st, body = get_ok srv "/hello" in
      Alcotest.(check int) "200" 200 st;
      Alcotest.(check string) "body" "hi there" body;
      let st, _ = get_ok srv "/nope" in
      Alcotest.(check int) "404" 404 st;
      (* query strings are stripped before dispatch *)
      let st, _ = get_ok srv "/hello?x=1" in
      Alcotest.(check int) "query stripped" 200 st;
      (* a raising handler is a 500, not a dead server *)
      let st, body = get_ok srv "/boom" in
      Alcotest.(check int) "500" 500 st;
      Alcotest.(check bool) "exception text" true
        (String.length body > 0);
      (* and the server still answers afterwards *)
      let st, _ = get_ok srv "/hello" in
      Alcotest.(check int) "alive after 500" 200 st)

let test_stop_idempotent () =
  let srv = Status.serve [ ("/x", fun () -> Status.ok "y") ] in
  let st, _ = get_ok srv "/x" in
  Alcotest.(check int) "serves" 200 st;
  Status.stop srv;
  Status.stop srv;
  match Status.get (Status.address srv) "/x" with
  | Ok _ -> Alcotest.fail "server still answering after stop"
  | Error _ -> ()

let test_unix_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nullelim-test-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Status.serve ~unix_path:path [ ("/ping", fun () -> Status.ok "pong") ]
  in
  Fun.protect
    ~finally:(fun () -> Status.stop srv)
    (fun () ->
      let st, body = get_ok srv "/ping" in
      Alcotest.(check int) "200 over unix socket" 200 st;
      Alcotest.(check string) "body" "pong" body);
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists path)

let test_obs_routes_live () =
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~capacity:1024 () in
  Metrics.inc (Metrics.counter metrics ~labels:[ ("tenant", "0") ]
                 "svc_requests_submitted_total") 7;
  Metrics.inc (Metrics.counter metrics ~labels:[ ("tenant", "0") ]
                 "svc_requests_completed_total") 7;
  Recorder.record ~ctx:(Ctx.mint ~tenant:0 ~request:1 ()) ~a:1 recorder
    Recorder.Req_enqueue;
  let slo =
    Slo.create metrics
      [
        Slo.availability ~name:"avail" ~good:"svc_requests_completed_total"
          ~bad:"svc_requests_shed_total" ~target:0.99;
      ]
  in
  let srv = Status.serve (Status.obs_routes ~metrics ~recorder ~slo ()) in
  Fun.protect
    ~finally:(fun () -> Status.stop srv)
    (fun () ->
      let st, body = get_ok srv "/metrics" in
      Alcotest.(check int) "/metrics 200" 200 st;
      (match Export.lint body with
      | Ok () -> ()
      | Error e -> Alcotest.failf "/metrics must lint: %s" e);
      Alcotest.(check bool) "recorder gauge exported" true
        (String.split_on_char '\n' body
        |> List.exists (fun l -> l = "flight_recorder_dropped 0"));
      let st, body = get_ok srv "/healthz" in
      Alcotest.(check int) "/healthz healthy" 200 st;
      (match Json.of_string body with
      | Ok j -> (
        match Obs.Doc.validate Slo.doc j with
        | Ok () -> ()
        | Error e -> Alcotest.failf "/healthz not nullelim-slo/1: %s" e)
      | Error e -> Alcotest.failf "/healthz not JSON: %s" e);
      let st, body = get_ok srv "/flight" in
      Alcotest.(check int) "/flight 200" 200 st;
      (match Json.of_string body with
      | Ok j -> (
        match Obs.Doc.validate Recorder.doc j with
        | Ok () -> ()
        | Error e -> Alcotest.failf "/flight not nullelim-flight/1: %s" e)
      | Error e -> Alcotest.failf "/flight not JSON: %s" e);
      let st, body = get_ok srv "/timelines" in
      Alcotest.(check int) "/timelines 200" 200 st;
      (match Json.of_string body with
      | Ok j -> (
        match Obs.Doc.validate Timeline.doc j with
        | Ok () -> ()
        | Error e -> Alcotest.failf "/timelines not nullelim-timeline/1: %s" e)
      | Error e -> Alcotest.failf "/timelines not JSON: %s" e);
      let st, body = get_ok srv "/tenants" in
      Alcotest.(check int) "/tenants 200" 200 st;
      match Json.of_string body with
      | Ok j -> (
        (match Obs.Doc.validate Status.tenants_doc j with
        | Ok () -> ()
        | Error e -> Alcotest.failf "/tenants not nullelim-tenants/1: %s" e);
        match Json.member "tenants" j with
        | Some (Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "/tenants lists no tenants")
      | Error e -> Alcotest.failf "/tenants not JSON: %s" e)

(* a failing SLO must flip /healthz to 503 *)
let test_healthz_failing () =
  let metrics = Metrics.create () in
  Metrics.inc (Metrics.counter metrics "bad_total") 100;
  let slo =
    Slo.create ~short_window:60. ~long_window:600. metrics
      [
        Slo.availability ~name:"avail" ~good:"good_total" ~bad:"bad_total"
          ~target:0.99;
      ]
  in
  (* seed a baseline sample well in the past so the probe's own tick
     sees the 100 errors inside both windows *)
  Slo.tick ~now:(Obs.Clock.now () -. 30.) slo;
  Metrics.inc (Metrics.counter metrics "bad_total") 100;
  let srv =
    Status.serve (Status.obs_routes ~metrics ~recorder:Recorder.global ~slo ())
  in
  Fun.protect
    ~finally:(fun () -> Status.stop srv)
    (fun () ->
      let st, _ = get_ok srv "/healthz" in
      Alcotest.(check int) "total outage is 503" 503 st)

(* ------------------------------------------------------------------ *)
(* Causal timelines from a real 4-domain run                           *)
(* ------------------------------------------------------------------ *)

(* The loadgen command's own path ([LG.run], as [serve] drives it): a
   4-domain sweep into a private recorder must reconstruct a complete
   causal timeline for every completed request — enqueue -> dequeue ->
   done, in order, with every span agreeing on request id and tenant —
   and write a valid timeline document. *)
let test_timelines_complete_4domain () =
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~capacity:65536 () in
  let out = Filename.temp_file "timelines" ".json" in
  let load =
    {
      LG.ld_jobs = 4;
      ld_duration = 0.2;
      ld_seed = 7;
      ld_multipliers = [ 0.5; 1.0 ];
      ld_max_requests = 40;
      ld_tenants = 3;
      ld_tenant_cap = 0;
    }
  in
  let t =
    match LG.run null_ppf ~metrics ~recorder ~timelines:out load with
    | Ok t -> t
    | Error e -> Alcotest.failf "loadgen run: %s" e
  in
  let tls = Nullelim_experiments.Timelines.of_recorder recorder in
  Alcotest.(check int) "ring did not wrap" 0 tls.dropped;
  let completed =
    List.filter (fun tl -> Timeline.phase tl = Timeline.Completed) tls.timelines
  in
  let total_completed =
    List.fold_left (fun a r -> a + r.LG.lr_completed) 0 t.LG.lg_rows
  in
  Alcotest.(check int) "one completed timeline per completed request"
    total_completed (List.length completed);
  (* every completed timeline carries a real tenant and sane latencies *)
  List.iter
    (fun tl ->
      Alcotest.(check bool) "tenant attributed" true
        (tl.Timeline.tl_tenant >= 0 && tl.Timeline.tl_tenant < 3);
      match (Timeline.queue_wait tl, Timeline.total_latency tl) with
      | Some w, Some l ->
        Alcotest.(check bool) "wait <= total" true (w <= l +. 1e-9)
      | _ -> Alcotest.fail "completed timeline missing spans")
    completed;
  (* the written document ties out *)
  let doc = Obs.Doc.read out in
  Sys.remove out;
  match Result.bind doc (Obs.Doc.validate Timeline.doc) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "timeline doc invalid: %s" e

(* ------------------------------------------------------------------ *)
(* Tenant admission caps                                               *)
(* ------------------------------------------------------------------ *)

let small_job () =
  let w = Registry.all () |> List.hd in
  Svc.job ~config:Config.new_full ~arch:Arch.ia32_windows (w.W.build ~scale:1)

(* With a cap of 1 in-queue request per tenant, a rapid burst from one
   tenant must shed with reason `tenant_cap', and the per-tenant
   accounting must stay closed: submitted + shed = offered. *)
let test_tenant_cap_sheds () =
  let metrics = Metrics.create () in
  let recorder = Recorder.create ~capacity:8192 () in
  let job = small_job () in
  let n = 50 in
  let futures = ref [] in
  let shed = ref 0 in
  Svc.with_service ~domains:1 ~recorder ~metrics ~tenant_cap:1 (fun svc ->
      for _ = 1 to n do
        match Svc.recompile_async svc ~tenant:0 job with
        | Some f -> futures := f :: !futures
        | None -> incr shed
      done;
      List.iter (fun f -> ignore (Svc.await f)) !futures);
  Alcotest.(check bool) "burst against cap 1 sheds" true (!shed > 0);
  Alcotest.(check int) "accepted + shed = offered" n
    (List.length !futures + !shed);
  (* metrics agree, with the right reason label *)
  let shed_capped =
    Metrics.counter_total metrics
      ~labels:[ ("tenant", "0"); ("reason", Svc.reason_tenant_cap) ]
      "svc_requests_shed_total"
  in
  Alcotest.(check int) "shed counted under tenant_cap" !shed shed_capped;
  let submitted =
    Metrics.counter_total metrics ~labels:[ ("tenant", "0") ]
      "svc_requests_submitted_total"
  in
  let completed =
    Metrics.counter_total metrics ~labels:[ ("tenant", "0") ]
      "svc_requests_completed_total"
  in
  Alcotest.(check int) "submitted all completed" submitted completed;
  Alcotest.(check int) "closed accounting" n (submitted + shed_capped);
  (* the flight dump carries Req_shed events flagged tenant-cap (b=1) *)
  let shed_events =
    List.filter
      (fun (e : Recorder.event) ->
        e.Recorder.ev_kind = Recorder.Req_shed && e.Recorder.ev_b = 1)
      (Recorder.dump recorder)
  in
  Alcotest.(check int) "Req_shed(tenant_cap) events" !shed
    (List.length shed_events);
  List.iter
    (fun (e : Recorder.event) ->
      Alcotest.(check int) "shed event attributed to tenant 0" 0
        e.Recorder.ev_ctx.Ctx.cx_tenant)
    shed_events

(* an uncapped second tenant must be unaffected by tenant 0's cap *)
let test_tenant_cap_isolation () =
  let metrics = Metrics.create () in
  let job = small_job () in
  Svc.with_service ~domains:1 ~metrics ~tenant_cap:1 (fun svc ->
      let fs = ref [] in
      for i = 1 to 20 do
        (* tenant 1 submits between tenant 0's bursts; its own cap is
           also 1 but its queue share drains just the same *)
        ignore (Svc.recompile_async svc ~tenant:0 job);
        if i mod 2 = 0 then
          match Svc.recompile_async svc ~tenant:1 job with
          | Some f -> fs := f :: !fs
          | None -> ()
      done;
      List.iter (fun f -> ignore (Svc.await f)) !fs;
      let sub t =
        Metrics.counter_total metrics
          ~labels:[ ("tenant", string_of_int t) ]
          "svc_requests_submitted_total"
      in
      let shed t =
        Metrics.counter_total metrics
          ~labels:[ ("tenant", string_of_int t);
                    ("reason", Svc.reason_tenant_cap) ]
          "svc_requests_shed_total"
      in
      Alcotest.(check int) "tenant 0 closed" 20 (sub 0 + shed 0);
      Alcotest.(check int) "tenant 1 closed" 10 (sub 1 + shed 1);
      Alcotest.(check bool) "tenant 1 made progress" true (sub 1 > 0))

(* ------------------------------------------------------------------ *)
(* Request heads: deadline, size cap, malformed lines                  *)
(* ------------------------------------------------------------------ *)

(* A client driven by hand over TCP. *)
let raw_connect srv =
  match Status.address srv with
  | Status.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    fd
  | Status.Unix_sock _ -> Alcotest.fail "expected a TCP server"

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* Everything the server sends before closing ("" when it resets the
   connection first), then close; gives up after 10 s. *)
let response fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 10. with
    | [], _, _ -> ()
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error _ -> ())
  in
  go ();
  Unix.close fd;
  Buffer.contents buf

let status_line resp =
  match String.index_opt resp '\r' with
  | Some i -> String.sub resp 0 i
  | None -> resp

let with_health_server f =
  let srv = Status.serve [ ("/healthz", fun () -> Status.ok "healthy") ] in
  Fun.protect ~finally:(fun () -> Status.stop srv) (fun () -> f srv)

let test_silent_client () =
  with_health_server (fun srv ->
      let silent = raw_connect srv in
      Unix.sleepf 0.05;
      let t0 = Unix.gettimeofday () in
      let st, _ = get_ok srv "/healthz" in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "/healthz served" 200 st;
      if waited > Status.head_deadline_s +. 0.5 then
        Alcotest.failf "/healthz waited %.2f s behind a silent client" waited;
      Alcotest.(check string) "the silent client is refused"
        "HTTP/1.0 400 Bad Request" (status_line (response silent)))

let test_slow_client () =
  with_health_server (fun srv ->
      let fd = raw_connect srv in
      (* five reads within the deadline; the blank line spans three *)
      List.iter
        (fun part ->
          send fd part;
          Unix.sleepf 0.1)
        [ "GET /heal"; "thz HTTP/1.0\r\n"; "Host: x\r\n"; "\r"; "\n" ];
      Alcotest.(check string) "served" "HTTP/1.0 200 OK"
        (status_line (response fd)))

let test_oversized_head () =
  with_health_server (fun srv ->
      let fd = raw_connect srv in
      send fd "GET /healthz HTTP/1.0\r\n";
      let pad = "X-Pad: " ^ String.make 1017 'a' ^ "\r\n" in
      for _ = 1 to 17 do
        send fd pad
      done;
      send fd "\r\n";
      (* refused with a 400, or reset with the head unread *)
      (match status_line (response fd) with
      | "HTTP/1.0 400 Bad Request" | "" -> ()
      | l -> Alcotest.failf "a 17 KiB head was answered %S" l);
      let st, _ = get_ok srv "/healthz" in
      Alcotest.(check int) "still serving" 200 st)

let test_malformed_request_line () =
  with_health_server (fun srv ->
      let fd = raw_connect srv in
      send fd "BLAH\r\n\r\n";
      let resp = response fd in
      Alcotest.(check string) "status" "HTTP/1.0 400 Bad Request"
        (status_line resp);
      Alcotest.(check bool) "the existing error body" true
        (Helpers.contains resp "\r\n\r\nbad request\n"))

(* Fill the descriptor table past FD_SETSIZE (1024) so the server
   accepts this client on a descriptor select would refuse; the client
   itself takes a low descriptor freed just before it connects. *)
let test_high_fd_client () =
  with_health_server (fun srv ->
      let fillers = ref [] in
      let close_fillers () =
        List.iter (fun fd -> try Unix.close fd with _ -> ()) !fillers;
        fillers := []
      in
      Fun.protect ~finally:close_fillers (fun () ->
          (match
             for _ = 1 to 1100 do
               fillers := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !fillers
             done
           with
          | () -> ()
          | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
            Alcotest.skip ());
          (* the first filler is the lowest descriptor we hold *)
          let low = List.nth !fillers (List.length !fillers - 1) in
          Unix.close low;
          fillers := List.filter (fun fd -> fd <> low) !fillers;
          let fd = raw_connect srv in
          send fd "GET /healthz HTTP/1.0\r\n\r\n";
          Alcotest.(check string) "served on a high descriptor"
            "HTTP/1.0 200 OK" (status_line (response fd)));
      let st, _ = get_ok srv "/healthz" in
      Alcotest.(check int) "still serving" 200 st)

(* ------------------------------------------------------------------ *)
(* The serve command's self-probes                                     *)
(* ------------------------------------------------------------------ *)

let with_server routes f =
  let srv = Status.serve routes in
  Fun.protect ~finally:(fun () -> Status.stop srv) (fun () -> f srv)

let probe_routes () =
  let metrics = Metrics.create () in
  let slo =
    Slo.create metrics
      [
        Slo.availability ~name:"avail" ~good:"good_total" ~bad:"bad_total"
          ~target:0.99;
      ]
  in
  Status.obs_routes ~metrics ~slo ()

let test_self_probe_passes () =
  with_server (probe_routes ()) (fun srv ->
      match Nullelim_experiments.Serve.self_probe null_ppf (Status.address srv) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "healthy server failed its probe: %s" e)

let test_self_probe_non_200_metrics () =
  let failing =
    {
      Status.rs_status = 503;
      rs_content_type = "text/plain";
      rs_body = "# TYPE x counter\nx 1\n";
    }
  in
  let routes =
    ("/metrics", fun () -> failing)
    :: List.filter
         (fun (path, _) -> path <> "/metrics")
         (probe_routes ())
  in
  with_server routes (fun srv ->
      match Nullelim_experiments.Serve.self_probe null_ppf (Status.address srv) with
      | Ok () -> Alcotest.fail "a 503 /metrics passed the probe"
      | Error e ->
        Alcotest.(check bool) ("names the status: " ^ e) true
          (Helpers.contains e "/metrics returned 503"))

let () =
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "routes + 404 + 500" `Quick test_routes_and_404;
          Alcotest.test_case "stop is idempotent" `Quick test_stop_idempotent;
          Alcotest.test_case "unix-domain socket" `Quick test_unix_socket;
          Alcotest.test_case "obs routes live" `Quick test_obs_routes_live;
          Alcotest.test_case "failing SLO is 503" `Quick test_healthz_failing;
          Alcotest.test_case "silent client waits out the deadline" `Quick
            test_silent_client;
          Alcotest.test_case "slow client within the deadline" `Quick
            test_slow_client;
          Alcotest.test_case "head over 16 KiB refused" `Quick
            test_oversized_head;
          Alcotest.test_case "malformed request line" `Quick
            test_malformed_request_line;
          Alcotest.test_case "client on a descriptor above 1024" `Quick
            test_high_fd_client;
        ] );
      ( "timelines",
        [
          Alcotest.test_case "4-domain run is causally complete" `Slow
            test_timelines_complete_4domain;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "cap sheds with reason" `Slow
            test_tenant_cap_sheds;
          Alcotest.test_case "cap isolates tenants" `Slow
            test_tenant_cap_isolation;
        ] );
      ( "probe",
        [
          Alcotest.test_case "obs routes pass" `Quick test_self_probe_passes;
          Alcotest.test_case "non-200 /metrics fails" `Quick
            test_self_probe_non_200_metrics;
        ] );
    ]
