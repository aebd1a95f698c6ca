(** Versioned JSON documents.

    Every artifact this repository writes ([nullelim-dynamic/1],
    [nullelim-tiered/1], the flight dump, the metrics snapshot, …) is a
    {!t}: a member name, a schema string whose [/N] suffix is the
    version, and a list of {!field}s.  The field list is the one
    declaration of the body: {!record} writes a value's members from
    it, and the body check is derived from it, so a writer and its
    check cannot drift apart.  This module also owns everything the
    documents share — the [schema]/[schema_version] header and its
    check, validate-before-write, reading a file with parse errors
    reported, and [--merge] into a [nullelim-bench/1] container. *)

(** {1 Fields} *)

type 'a kind
(** How one member's value is written and checked. *)

type 'r field
(** One or more members of an object that describes an ['r]. *)

val int : int kind
val nat : int kind  (** an integer [>= 0] *)

val num : float kind
(** Written as a float; an integer also reads as a number. *)

val str : string kind
val bool : bool kind

val int_where : string -> (int -> bool) -> int kind
val num_where : string -> (float -> bool) -> float kind
(** [num_where what p]: a number satisfying [p]; [what] describes it in
    errors (["a number in [0, 1]"]). *)

val enum : ('a -> string) -> 'a list -> 'a kind
(** [enum name all]: written as [name x]; reads as one of the names of
    [all]. *)

val custom : string -> ('a -> Obs_json.t) -> (Obs_json.t -> bool) -> 'a kind
(** [custom what write ok]: a leaf written by [write] and accepted when
    [ok] holds; [what] describes it in errors. *)

val nullable : 'a kind -> 'a option kind
(** [None] is written as [null]. *)

val list : ?non_empty:bool -> 'a kind -> 'a list kind

val nested : 'a field list -> 'a kind
(** An object with these members. *)

val field : string -> 'a kind -> ('r -> 'a) -> 'r field
(** A member that is always present. *)

val opt : string -> 'a kind -> ('r -> 'a option) -> 'r field
(** A member written only when the value is [Some]; it may be absent. *)

val group : ('r -> 'a option) -> 'a field list -> 'r field
(** Members written in place only when the value is [Some]: all of them
    are present, or none. *)

val record : 'r field list -> 'r -> (string * Obs_json.t) list
(** The members that describe a value, in declaration order. *)

val check : 'r field list -> Obs_json.t -> (unit, string) result
(** The check derived from a field list: every member is present (or,
    for {!opt} and {!group}, absent) with its kind, down through nested
    objects and lists.  Errors name the member's path, as in
    ["rows[3].offered: must be an integer"]. *)

(** {1 Documents} *)

type t

val v :
  name:string ->
  ?rules:(Obs_json.t -> (unit, string) result) ->
  string ->
  'r field list ->
  t
(** [v ~name schema fields] declares a document.  [name] is its member
    key in a bench container (["dynamic"], ["tiered"], …); [schema] is
    e.g. ["nullelim-tiered/1"].  The body check is {!check}[ fields],
    then [rules]: what a field list cannot say, such as sums across
    members.
    @raise Invalid_argument if [schema] has no [/N] version suffix. *)

val name : t -> string
val schema : t -> string

val version : t -> int
(** The [N] of the schema string, written as ["schema_version"]. *)

val obj : t -> (string * Obs_json.t) list -> Obs_json.t
(** [obj d members] is the document object: the two header members,
    then [members] in order (usually [record fields x]). *)

val validate : t -> Obs_json.t -> (unit, string) result
(** Header check (exact schema string and version), then the body
    check, then the rules. *)

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
