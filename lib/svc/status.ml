(* See status.mli.  A deliberately small HTTP/1.0 server: accept,
   read the request head, dispatch on the path, write one response,
   close.  No keep-alive, no chunking, no external dependencies — the
   stdlib [Unix] module is the whole substrate.  The accept loop runs
   on its own domain and polls a stop flag through a select timeout, so
   [stop] never has to interrupt a blocked [accept]. *)

module Metrics = Nullelim_obs.Metrics
module Recorder = Nullelim_obs.Recorder
module Export = Nullelim_obs.Export
module Slo = Nullelim_obs.Slo
module Timeline = Nullelim_obs.Timeline
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc
module Clock = Nullelim_obs.Clock

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_body : string;
}

let ok ?(content_type = "text/plain; charset=utf-8") body =
  { rs_status = 200; rs_content_type = content_type; rs_body = body }

let json_response ?(status = 200) (j : Json.t) =
  {
    rs_status = status;
    rs_content_type = "application/json";
    rs_body = Json.to_string j ^ "\n";
  }

let not_found =
  {
    rs_status = 404;
    rs_content_type = "text/plain; charset=utf-8";
    rs_body = "not found\n";
  }

type route = string * (unit -> response)

type address = Tcp of string * int | Unix_sock of string

type t = {
  fd : Unix.file_descr;
  address : address;
  stop_flag : bool Atomic.t;
  acceptor : unit Domain.t;
}

let address t = t.address

let address_to_string = function
  | Tcp (host, port) -> Printf.sprintf "http://%s:%d" host port
  | Unix_sock path -> Printf.sprintf "unix:%s" path

let reason_of_status = function
  | 200 -> "OK"
  | 404 -> "Not Found"
  | 400 -> "Bad Request"
  | 503 -> "Service Unavailable"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

(* ------------------------------------------------------------------ *)
(* Request/response plumbing                                           *)
(* ------------------------------------------------------------------ *)

let write_all fd (s : string) =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let send_response fd (r : response) =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      r.rs_status
      (reason_of_status r.rs_status)
      r.rs_content_type
      (String.length r.rs_body)
  in
  write_all fd head;
  write_all fd r.rs_body

(* The accept loop serves one connection at a time, so a client gets
   this long from its accept to send its whole request head; a silent
   or slow client then holds up the others by at most this much. *)
let head_deadline_s = 1.0

let max_head = 16 * 1024

(* Read until the blank line ending the request head (we never read a
   body — every endpoint is a GET).  [None] when the head outgrows
   [max_head], misses the deadline, the client sends nothing or the
   socket fails.  The deadline is the socket's receive timeout, reset to
   the time left before each read (select would refuse an fd at or above
   FD_SETSIZE); a timed-out read fails with EAGAIN. *)
let read_head fd : string option =
  let deadline = Clock.now () +. head_deadline_s in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  (* no "\r\n\r\n" starts before [from]: each scan resumes where the
     last one stopped, backing up three bytes for a split terminator *)
  let rec has_end from =
    from + 3 < Buffer.length buf
    && ((Buffer.nth buf from = '\r'
        && Buffer.nth buf (from + 1) = '\n'
        && Buffer.nth buf (from + 2) = '\r'
        && Buffer.nth buf (from + 3) = '\n')
       || has_end (from + 1))
  in
  let rec loop from =
    let remaining = deadline -. Clock.now () in
    if Buffer.length buf > max_head || remaining <= 0. then None
    else
      (* a zero timeout would mean "wait forever": keep at least 1 ms *)
      match
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max remaining 1e-3);
        Unix.read fd chunk 0 (Bytes.length chunk)
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop from
      | exception Unix.Unix_error _ -> None
      | 0 -> if Buffer.length buf > 0 then Some (Buffer.contents buf) else None
      | got ->
        Buffer.add_subbytes buf chunk 0 got;
        if has_end from then Some (Buffer.contents buf)
        else loop (max 0 (Buffer.length buf - 3))
  in
  loop 0

let parse_request (head : string) : (string * string) option =
  (* "GET /path HTTP/1.x" — method and path are all we dispatch on *)
  match String.index_opt head '\n' with
  | None -> None
  | Some nl -> (
    let line = String.trim (String.sub head 0 nl) in
    match String.split_on_char ' ' line with
    | [ meth; target; _version ] ->
      (* strip any query string: routes dispatch on the bare path *)
      let path =
        match String.index_opt target '?' with
        | Some q -> String.sub target 0 q
        | None -> target
      in
      Some (meth, path)
    | _ -> None)

let handle_client (routes : route list) fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      match Option.bind (read_head fd) parse_request with
      | None ->
        (try
           send_response fd
             {
               rs_status = 400;
               rs_content_type = "text/plain; charset=utf-8";
               rs_body = "bad request\n";
             }
         with _ -> ())
      | Some (meth, path) ->
        let resp =
          if meth <> "GET" then
            {
              rs_status = 400;
              rs_content_type = "text/plain; charset=utf-8";
              rs_body = "only GET is supported\n";
            }
          else
            match List.assoc_opt path routes with
            | None -> not_found
            | Some handler -> (
              try handler ()
              with e ->
                {
                  rs_status = 500;
                  rs_content_type = "text/plain; charset=utf-8";
                  rs_body = Printexc.to_string e ^ "\n";
                })
        in
        (try send_response fd resp with _ -> ()))

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let accept_loop fd stop_flag tick routes () =
  while not (Atomic.get stop_flag) do
    (match tick with Some f -> (try f () with _ -> ()) | None -> ());
    match Unix.select [ fd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept fd with
      | client, _ -> handle_client routes client
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close fd with _ -> ())

let serve ?(addr = "127.0.0.1") ?(port = 0) ?unix_path ?tick
    (routes : route list) : t =
  let fd, address =
    match unix_path with
    | Some path ->
      (try Unix.unlink path with _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, Unix_sock path)
    | None ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
      let actual_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (addr, actual_port))
  in
  Unix.listen fd 16;
  let stop_flag = Atomic.make false in
  let acceptor = Domain.spawn (accept_loop fd stop_flag tick routes) in
  { fd; address; stop_flag; acceptor }

let stop (t : t) : unit =
  if not (Atomic.exchange t.stop_flag true) then begin
    Domain.join t.acceptor;
    match t.address with
    | Unix_sock path -> ( try Unix.unlink path with _ -> ())
    | Tcp _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* The observability routes                                            *)
(* ------------------------------------------------------------------ *)

(* A tenant row describes (registry, tenant label). *)
let tenant_fields =
  let counter name (metrics, tenant) =
    Metrics.counter_total metrics ~labels:[ ("tenant", tenant) ] name
  in
  let shed (metrics, tenant) =
    (* shed counters carry an extra reason label; sum the reasons *)
    List.fold_left
      (fun acc reason ->
        acc
        + Metrics.counter_total metrics
            ~labels:[ ("reason", reason); ("tenant", tenant) ]
            "svc_requests_shed_total")
      0
      (Metrics.label_values metrics "svc_requests_shed_total" "reason")
  in
  let p99 name (metrics, tenant) =
    let v =
      Metrics.percentile metrics ~labels:[ ("tenant", tenant) ] name 0.99
    in
    if Float.is_nan v then None
    else Some (if Float.is_finite v then v else 1e18)
  in
  Doc.
    [
      field "tenant" str snd;
      field "submitted" nat (counter "svc_requests_submitted_total");
      field "completed" nat (counter "svc_requests_completed_total");
      field "shed" nat shed;
      field "queue_wait_p99" (nullable num) (p99 "svc_queue_wait_seconds");
      field "compile_p99" (nullable num) (p99 "svc_compile_seconds");
    ]

let tenants_fields =
  Doc.
    [
      field "tenants" (list (nested tenant_fields)) (fun metrics ->
          List.map
            (fun tenant -> (metrics, tenant))
            (Metrics.label_values metrics "svc_requests_submitted_total"
               "tenant"));
    ]

let tenants_doc = Doc.v ~name:"tenants" "nullelim-tenants/1" tenants_fields

let tenants_json (metrics : Metrics.t) : Json.t =
  Doc.obj tenants_doc (Doc.record tenants_fields metrics)

let obs_routes ?(metrics = Metrics.global) ?(recorder = Recorder.global)
    ?slo () : route list =
  [
    ( "/",
      fun () ->
        ok
          "nullelim compile-service status\n\
           endpoints: /metrics /healthz /flight /timelines /tenants\n" );
    ( "/metrics",
      fun () ->
        (* surface the recorder's health right before rendering so the
           dropped-events gauge in the exposition is current *)
        Recorder.record_metrics ~registry:metrics recorder;
        ok ~content_type:Export.content_type (Export.render metrics) );
    ( "/healthz",
      fun () ->
        match slo with
        | None ->
          json_response
            (Json.Obj [ ("status", Json.Str "healthy") ])
        | Some slo ->
          Slo.tick slo;
          let reports = Slo.evaluate slo in
          let failing =
            List.exists (fun r -> r.Slo.r_status = Slo.Failing) reports
          in
          json_response ~status:(if failing then 503 else 200)
            (Slo.to_json slo) );
    ( "/flight",
      fun () -> json_response (Recorder.to_json recorder) );
    ( "/timelines",
      fun () ->
        json_response
          (Timeline.to_json
             ~dropped:(Recorder.dropped recorder)
             (Timeline.of_events (Recorder.dump recorder))) );
    ("/tenants", fun () -> json_response (tenants_json metrics));
  ]

(* ------------------------------------------------------------------ *)
(* A tiny GET client (tests, CI smoke, `nullelim serve --probe`)       *)
(* ------------------------------------------------------------------ *)

let get (address : address) (path : string) : (int * string, string) result =
  let sock_addr, fd =
    match address with
    | Tcp (host, port) ->
      ( Unix.ADDR_INET (Unix.inet_addr_of_string host, port),
        Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 )
    | Unix_sock path ->
      (Unix.ADDR_UNIX path, Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      match Unix.connect fd sock_addr with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect: %s" (Unix.error_message e))
      | () -> (
        write_all fd (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
        (* drain until EOF: HTTP/1.0 close-delimited body *)
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          let got =
            try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0
          in
          if got > 0 then begin
            Buffer.add_subbytes buf chunk 0 got;
            drain ()
          end
        in
        drain ();
        let raw = Buffer.contents buf in
        (* split head from body, parse the status line *)
        let rec body_at i =
          if i + 3 >= String.length raw then None
          else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
                  && raw.[i + 3] = '\n'
          then Some (i + 4)
          else body_at (i + 1)
        in
        match body_at 0 with
        | None -> Error "malformed response (no header terminator)"
        | Some b -> (
          match String.split_on_char ' ' raw with
          | _http :: code :: _ -> (
            match int_of_string_opt code with
            | Some status ->
              Ok (status, String.sub raw b (String.length raw - b))
            | None -> Error "malformed status line")
          | _ -> Error "malformed status line")))
