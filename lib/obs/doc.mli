(** Versioned JSON documents.

    Every artifact this repository writes ([nullelim-dynamic/1],
    [nullelim-tiered/1], the flight dump, the metrics snapshot, …) is a
    {!t}: a member name, a schema string whose [/N] suffix is the
    version, and a check of the body.  This module owns everything the
    documents share — the [schema]/[schema_version] header and its
    check, validate-before-write, reading a file with parse errors
    reported, and [--merge] into a [nullelim-bench/1] container. *)

type t

val v : name:string -> string -> (Obs_json.t -> (unit, string) result) -> t
(** [v ~name schema body] declares a document.  [name] is its member key
    in a bench container (["dynamic"], ["tiered"], …); [schema] is e.g.
    ["nullelim-tiered/1"]; [body] checks everything but the header.
    @raise Invalid_argument if [schema] has no [/N] version suffix. *)

val name : t -> string
val schema : t -> string

val version : t -> int
(** The [N] of the schema string, written as ["schema_version"]. *)

val obj : t -> (string * Obs_json.t) list -> Obs_json.t
(** [obj d fields] is the document object: the two header fields, then
    [fields] in order. *)

val validate : t -> Obs_json.t -> (unit, string) result
(** Header check (exact schema string and version), then the body
    check. *)

(** {1 Body checks} *)

type field = Int | Num | Str | Bool  (** [Num]: an integer or a float *)

val fields : field -> string list -> Obs_json.t -> (unit, string) result
(** Every named member is present with that type; the error names the
    first one that is not. *)

val each :
  string -> (Obs_json.t -> (unit, string) result) -> Obs_json.t ->
  (unit, string) result
(** Member [name] is a list and the check passes on every element;
    errors are prefixed with [name]. *)

(** {1 Files} *)

val find : t -> Obs_json.t -> Obs_json.t
(** The document inside a file: the file itself when it carries this
    schema, else its member {!name} when present (a bench container),
    else the file unchanged (so {!validate} reports what is wrong). *)

val read : string -> (Obs_json.t, string) result
(** Read and parse a JSON file; errors name the path. *)

val write : t -> string -> Obs_json.t -> (unit, string) result
(** Validate, then write the document and a trailing newline.  A
    document that fails its own schema is an internal error and is not
    written. *)

val container : string
(** ["nullelim-bench/1"]: the schema of a file that groups documents
    under their member names (BENCH_results.json, BENCH_baseline.json). *)

val merge : t -> string -> Obs_json.t -> (unit, string) result
(** [merge d path j] validates [j], then replaces or appends member
    {!name} of the container at [path], creating the container when the
    file is absent. *)
