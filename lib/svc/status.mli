(** Live status server for the compile service: a minimal HTTP/1.0
    server on stdlib [Unix] sockets (no external dependencies, no
    keep-alive — one request per connection, close-delimited bodies)
    plus the canned observability routes [nullelim serve] exposes.

    The accept loop runs on its own domain; {!stop} flips a flag the
    loop polls through a 100ms select timeout, so shutdown never races
    a blocked accept.  An optional [tick] callback runs once per loop
    iteration — the serve command uses it to {!Nullelim_obs.Slo.tick}
    and to refresh the recorder-health gauges.  See DESIGN.md §15. *)

type response = {
  rs_status : int;        (** HTTP status code *)
  rs_content_type : string;
  rs_body : string;
}

val ok : ?content_type:string -> string -> response
(** 200 with the given body (default content type [text/plain]). *)

type route = string * (unit -> response)
(** Exact-match path (query strings are stripped before dispatch) and
    its handler.  A raising handler becomes a 500 with the exception
    text. *)

type address =
  | Tcp of string * int   (** host, port *)
  | Unix_sock of string   (** filesystem path *)

val address_to_string : address -> string

type t
(** A running server. *)

val serve :
  ?addr:string ->
  ?port:int ->
  ?unix_path:string ->
  ?tick:(unit -> unit) ->
  route list ->
  t
(** Bind and start accepting on a fresh domain.  With [unix_path] the
    server listens on a unix-domain socket at that path (unlinking any
    stale one); otherwise on TCP [addr]:[port] (defaults 127.0.0.1:0 —
    port 0 lets the kernel pick, {!address} reports the actual port,
    which is how the CI smoke avoids port races). *)

val head_deadline_s : float
(** Seconds a connection has, from its accept, to send its request head
    (at most 16 KiB).  Connections are served one at a time, so this
    bounds how long a silent or slow client delays everyone else; a
    client that misses it, or sends a longer head, gets the 400
    response a malformed request gets. *)

val address : t -> address
(** Where the server actually listens (real port after port-0 bind). *)

val stop : t -> unit
(** Stop accepting, join the acceptor domain, unlink the unix socket if
    any.  Idempotent. *)

val obs_routes :
  ?metrics:Nullelim_obs.Metrics.t ->
  ?recorder:Nullelim_obs.Recorder.t ->
  ?slo:Nullelim_obs.Slo.t ->
  unit ->
  route list
(** The standard observability surface (defaults: the global registry
    and recorder, no SLOs):

    - [/] — plain-text index;
    - [/metrics] — Prometheus text exposition of the registry
      (refreshes the [flight_recorder_dropped] gauge first);
    - [/healthz] — SLO verdict as JSON ([nullelim-slo/1]); 503 when any
      objective is failing, 200 otherwise ([{"status":"healthy"}] when
      no SLOs were declared).  Each probe {!Nullelim_obs.Slo.tick}s;
    - [/flight] — the flight recorder as [nullelim-flight/1] JSON;
    - [/timelines] — the dump sliced into per-request causal timelines
      ([nullelim-timeline/1]);
    - [/tenants] — per-tenant request accounting
      ([nullelim-tenants/1]): submitted/completed/shed counts and p99
      queue-wait/compile latency per tenant label. *)

val tenants_doc : Nullelim_obs.Doc.t
(** ["nullelim-tenants/1"], the [/tenants] document: one row of counts
    and p99s per tenant (a p99 is [null] before any sample). *)

val get : address -> string -> (int * string, string) result
(** Minimal blocking GET against a server (the CI smoke's probe and the
    serve tests' client): [Ok (status, body)] or [Error message] on
    connect/parse failure. *)
