(** [nullelim serve]: the live status server ({!Nullelim_svc.Status})
    over a fresh metrics registry and flight recorder, with the load
    generator as its first client.  See DESIGN.md §15. *)

val run :
  Format.formatter ->
  ?addr:string ->
  ?port:int ->
  ?port_file:string ->
  ?unix_socket:string ->
  ?timelines:string ->
  ?linger:float ->
  Loadgen.load ->
  (unit, string) result
(** Serve [/metrics], [/healthz], [/flight], [/timelines] and
    [/tenants] on [addr]:[port] (default 127.0.0.1, port 0 = the kernel
    picks), or on the unix socket [unix_socket].  The actual TCP port
    is written to [port_file] once listening.  [/healthz] judges two
    objectives: 99% of compiles within 1 s, and 99% of requests not
    shed.  Then drive {!Loadgen.run} with [load] through the server's
    registry and recorder, {!self_probe} the endpoints, and keep
    serving for [linger] seconds (default 0; negative = until killed).
    The server is stopped on every path.  [Error] names the failed
    gate or probe. *)

val self_probe :
  Format.formatter -> Nullelim_svc.Status.address -> (unit, string) result
(** GET [/metrics] (must be 200 and lint clean), [/healthz] (any
    status, but a valid [nullelim-slo/1] document) and [/tenants] (must
    be 200) over a real socket. *)
