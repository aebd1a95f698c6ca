(** Leveled logging for library code.

    Library modules must never write to stderr unconditionally; they call
    {!debug}/{!info}/{!warn} and the active level decides whether
    anything is printed.  The level is read once, at startup, from the
    environment variable [NULLELIM_LOG] ([debug], [info], [warn] or
    [quiet]); the default is [warn], so a library embedded in a larger
    program is silent unless something is actually wrong. *)

type level = Debug | Info | Warn | Quiet

let to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Quiet -> "quiet"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "quiet" | "none" | "off" -> Some Quiet
  | _ -> None

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Quiet -> 3

let current =
  match Sys.getenv_opt "NULLELIM_LOG" with
  | Some s -> Option.value ~default:Warn (of_string s)
  | None -> Warn

let level () = current

(** Is a message at [l] emitted under the active level? *)
let enabled l = l <> Quiet && rank l >= rank current

let logf l fmt =
  if enabled l then
    Format.eprintf ("[nullelim:%s] " ^^ fmt ^^ "@.") (to_string l)
  else Format.ifprintf Format.err_formatter fmt

let debug fmt = logf Debug fmt
let info fmt = logf Info fmt
let warn fmt = logf Warn fmt
