(** Leveled logging ([NULLELIM_LOG=debug|info|warn|quiet], default
    [warn]); the only sanctioned path to stderr for library code. *)

type level = Debug | Info | Warn | Quiet

val to_string : level -> string
(** Lower-case level name ("debug", "info", …). *)

val of_string : string -> level option
(** Inverse of {!to_string}; [None] on anything else. *)

val level : unit -> level
(** The current threshold. *)

val enabled : level -> bool
(** Would a message at this level be emitted right now? *)

val debug : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [Fmt]-style formatted message, printed to stderr as
    ["[nullelim:debug] ..."] when the threshold admits it; likewise
    {!info} and {!warn}.  All three are cheap no-ops when gated off. *)

val info : ('a, Format.formatter, unit, unit) format4 -> 'a
val warn : ('a, Format.formatter, unit, unit) format4 -> 'a
