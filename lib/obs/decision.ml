(** Per-check optimization decision log.

    Every transformation of a null or bound check records a provenance
    event: which pass, in which function and block, acting on which
    variable, what was done ({!action}) and why ({!justification}).  Each
    event also carries the delta it applies to the program's static
    explicit/implicit null-check counts, so the compile driver's final
    check statistics are {e derivable} from the log: folding
    {!derived_deltas} over a compilation's events and adding the raw
    input counts must reproduce the compiler's [check_stats] exactly —
    the reconciliation the test suite asserts on every registry workload.
    That makes each line of the paper's Table 2/3 reproduction auditable
    check by check.

    Collection is scoped: the JIT driver wraps one compilation in
    {!with_log}; {!record} is a no-op when no collector is installed.
    The pass manager maintains the pass/function context so that
    individual passes only state what happened and why. *)

(** What happened to the check.  The first six actions are the paper's
    transformation vocabulary (Sections 4.1, 4.2, 3.3.1); the last two
    are bookkeeping actions needed so the log stays count-complete under
    the surrounding optimizer (inlining copies checks; unreachable-code
    removal drops them). *)
type action =
  | Eliminated_redundant  (** deleted: target already known non-null *)
  | Moved_backward        (** materialized at an earlier insertion point *)
  | Moved_forward         (** picked up / rematerialized by forward motion *)
  | Converted_implicit    (** became a free hardware-trap check *)
  | Substituted           (** deleted: re-covered later on every path *)
  | Speculated            (** a load was hoisted above this check *)
  | Duplicated            (** copied by inlining *)
  | Dropped_unreachable   (** its block was unreachable *)
  | Deoptimized           (** implicit check re-materialized as explicit
                              after its trap actually fired (tiered
                              recompilation) *)

(** The justifying fact. *)
type justification =
  | Nonnull_dominating       (** dominated by an equivalent check/deref/alloc *)
  | Insertion_earliest       (** phase-1 Earliest(n) insertion point *)
  | Floated                  (** picked up into the phase-2 floating set *)
  | Trap_covered of int option
      (** dereference offset inside the protected trap area *)
  | Trap_not_covered         (** BigOffset / variable index / non-trapping OS *)
  | Side_effect_barrier
  | Overwritten              (** the checked variable was redefined *)
  | Not_anticipated          (** a successor does not accept the floated check *)
  | Covered_later            (** substitutable (Section 4.2.2) *)
  | Available_on_entry       (** bound check available on every path *)
  | Invariant_in_loop        (** bound check hoisted to the preheader *)
  | Speculative_read         (** non-trapping read moved above the check *)
  | Inline_copy of string    (** callee the check was copied from *)
  | Unreachable_code
  | Trap_fired               (** runtime observed a hardware trap at this
                                 site, so the free-until-it-fires bet
                                 lost — re-materialize the explicit check *)

type kind = Kexplicit | Kimplicit | Kbound | Kother

type event = {
  id : int;            (** sequential within one collection scope *)
  pass : string;
  func : string;
  block : int;
  var : int;           (** -1 when no single variable identifies the check *)
  kind : kind;
  action : action;
  just : justification;
  d_explicit : int;    (** delta to the static explicit null-check count *)
  d_implicit : int;    (** delta to the static implicit null-check count *)
  site : int;
      (** provenance id ([Ir.site]) of the check acted on — for insertions
          and duplications, the id of the {e new} check; -1 when unknown *)
  parent : int;
      (** when a fresh site was materialized from an existing check
          (inline copy, phase-2 rematerialization), the originating site;
          -1 otherwise *)
  tier : int;
      (** execution tier of the compilation that recorded the event
          (0 = entry tier, 2 = full pipeline); -1 for untiered
          compilations *)
}

type collector = {
  mutable evs : event list;
  mutable n : int;
  mutable cur_pass : string;
  mutable cur_func : string;
  mutable cur_tier : int;
}

(* Domain-local: each domain of the compile service collects its own
   log, so concurrent compilations never interleave events. *)
let current_key : collector option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let active () = !(current ()) <> None

let count () = match !(current ()) with Some c -> c.n | None -> 0

let set_pass name =
  match !(current ()) with Some c -> c.cur_pass <- name | None -> ()

let set_func name =
  match !(current ()) with Some c -> c.cur_func <- name | None -> ()

let set_tier tier =
  match !(current ()) with Some c -> c.cur_tier <- tier | None -> ()

let record ?(d_explicit = 0) ?(d_implicit = 0) ?(block = -1) ?(var = -1)
    ?(site = -1) ?(parent = -1) ~(kind : kind) ~(action : action)
    ~(just : justification) () : unit =
  match !(current ()) with
  | None -> ()
  | Some c ->
    let ev =
      {
        id = c.n;
        pass = c.cur_pass;
        func = c.cur_func;
        block;
        var;
        kind;
        action;
        just;
        d_explicit;
        d_implicit;
        site;
        parent;
        tier = c.cur_tier;
      }
    in
    c.n <- c.n + 1;
    c.evs <- ev :: c.evs

(** Run [f] with a fresh collector installed; returns its result and the
    events in record order.  Re-entrant: a previously installed
    collector is saved and restored. *)
let with_log (f : unit -> 'a) : 'a * event list =
  let cur = current () in
  let saved = !cur in
  let c = { evs = []; n = 0; cur_pass = ""; cur_func = ""; cur_tier = -1 } in
  cur := Some c;
  let restore () = cur := saved in
  match f () with
  | v ->
    restore ();
    (v, List.rev c.evs)
  | exception e ->
    restore ();
    raise e

(** Sum of the static-count deltas: [(d_explicit, d_implicit)]. *)
let derived_deltas (evs : event list) : int * int =
  List.fold_left
    (fun (e, i) ev -> (e + ev.d_explicit, i + ev.d_implicit))
    (0, 0) evs

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let action_to_string = function
  | Eliminated_redundant -> "eliminated-redundant"
  | Moved_backward -> "moved-backward"
  | Moved_forward -> "moved-forward"
  | Converted_implicit -> "converted-implicit"
  | Substituted -> "substituted"
  | Speculated -> "speculated"
  | Duplicated -> "duplicated"
  | Dropped_unreachable -> "dropped-unreachable"
  | Deoptimized -> "deoptimized"

let justification_to_string = function
  | Nonnull_dominating -> "nonnull-dominating"
  | Insertion_earliest -> "insertion-earliest"
  | Floated -> "floated"
  | Trap_covered (Some off) -> Printf.sprintf "trap-covered:%d" off
  | Trap_covered None -> "trap-covered"
  | Trap_not_covered -> "trap-not-covered"
  | Side_effect_barrier -> "side-effect-barrier"
  | Overwritten -> "overwritten"
  | Not_anticipated -> "not-anticipated"
  | Covered_later -> "covered-later"
  | Available_on_entry -> "available-on-entry"
  | Invariant_in_loop -> "invariant-in-loop"
  | Speculative_read -> "speculative-read"
  | Inline_copy callee -> "inline-copy:" ^ callee
  | Unreachable_code -> "unreachable-code"
  | Trap_fired -> "trap-fired"

let kind_to_string = function
  | Kexplicit -> "explicit"
  | Kimplicit -> "implicit"
  | Kbound -> "bound"
  | Kother -> "other"

let event_to_json (ev : event) : Obs_json.t =
  Obs_json.Obj
    [
      ("id", Obs_json.Int ev.id);
      ("pass", Obs_json.Str ev.pass);
      ("func", Obs_json.Str ev.func);
      ("block", Obs_json.Int ev.block);
      ("var", Obs_json.Int ev.var);
      ("kind", Obs_json.Str (kind_to_string ev.kind));
      ("action", Obs_json.Str (action_to_string ev.action));
      ("justification", Obs_json.Str (justification_to_string ev.just));
      ("d_explicit", Obs_json.Int ev.d_explicit);
      ("d_implicit", Obs_json.Int ev.d_implicit);
      ("site", Obs_json.Int ev.site);
      ("parent", Obs_json.Int ev.parent);
      ("tier", Obs_json.Int ev.tier);
    ]

let to_json (evs : event list) : Obs_json.t =
  Obs_json.List (List.map event_to_json evs)

(** Event counts per action, sorted by action name — the one-line summary
    the CLI prints. *)
let summary (evs : event list) : (string * int) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let k = action_to_string ev.action in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    evs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
