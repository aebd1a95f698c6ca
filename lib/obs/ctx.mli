(** Causal trace context: who caused the event the runtime is about to
    record.

    A context is minted at the service front door — one per compile
    request — and names the {e tenant} that submitted the request, the
    service-wide {e request id}, and a process-unique {e span id} with
    its parent's (every context is minted as a root, parent [-1]; the
    field keeps the recorded event format ready for nested spans).  It
    is carried
    two ways:

    - {e explicitly}, on the structures that cross domains (a queued
      task carries its context; the worker that picks it up records
      request lifecycle events against it);
    - {e ambiently}, in a per-domain slot ({!current} /
      {!with_current}): layers that are too deep to thread a context
      through — the code cache recording a hit, the tier manager logging
      a promotion — inherit whatever request their domain is currently
      serving, because {!Recorder.record} reads the ambient slot by
      default.

    A context is four immediate ints; reading, setting and restoring the
    ambient slot never allocates, which is what keeps the recorder hot
    path inside the <5% macro overhead budget (DESIGN.md §15). *)

type t = {
  cx_tenant : int;   (** tenant id, [-1] = unattributed *)
  cx_request : int;  (** service-wide request id, [-1] = none *)
  cx_span : int;     (** process-unique span id, [-1] = none *)
  cx_parent : int;   (** parent span id, [-1] = root *)
}

val none : t
(** The null context (all fields [-1]); what {!current} returns outside
    any request. *)

val is_none : t -> bool

val mint : ?tenant:int -> ?request:int -> unit -> t
(** A fresh root span ([cx_parent = -1]) with a process-unique span id.
    Span ids start at 1, so id 0 never occurs. *)

val current : unit -> t
(** The calling domain's ambient context ({!none} if unset). *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run with the ambient context set to [t], restoring the previous
    value on any exit path. *)

val tenant_label : int -> string
(** Canonical metrics label value for a tenant id: the decimal id, or
    ["none"] for negative (unattributed) ids. *)
