(** Scalar replacement of memory accesses.

    Two ingredients (paper Sections 3.2, 3.3.1 and Figure 4/6):

    - {b loop-invariant load hoisting}: [getfield]/[arraylength]/array
      loads whose operands are loop invariant move to the loop preheader
      when no instruction in the loop may write the accessed location
      (type/field-based alias analysis: a field load is killed only by a
      store to the same field name; an array-element load only by an
      array store of the same element kind; any call kills everything;
      array lengths are immutable).  Hoisting a load is only legal when
      it cannot fault where the original could not: either the base is
      known non-null on loop entry (typically because phase 1 already
      hoisted its null check to the preheader — the synergy of Figure 4),
      or {e speculation} is enabled: on an OS that does not trap reads of
      the protected page (AIX), a read through a possibly-null pointer at
      a known offset inside that page is harmless, so the load may move
      above its own null check (Figure 6);
    - {b redundant-load elimination} within a block: a second load of the
      same field/length with no intervening aliasing store becomes a
      register move, and a store forwards its value to subsequent loads.

    A hoisted array-element load additionally needs an in-bounds
    guarantee: the preheader must already contain (or make available) the
    corresponding [arraylength] and [Bound_check] — which the bound-check
    pass puts there on an earlier pipeline iteration, another leg of the
    iterate-until-settled design of Figure 2. *)

module Ir = Nullelim_ir.Ir
module Cfg = Nullelim_cfg.Cfg
module Context = Nullelim_cfg.Context
module Loops = Nullelim_cfg.Loops
module Nullness = Nullelim_analysis.Nullness
module Liveness = Nullelim_analysis.Liveness
module Arch = Nullelim_arch.Arch
module Decision = Nullelim_obs.Decision

type stats = { mutable hoisted : int; mutable replaced : int }

(* ------------------------------------------------------------------ *)
(* Loop-invariant hoisting                                             *)
(* ------------------------------------------------------------------ *)

type loop_summary = {
  defs : (Ir.var, int) Hashtbl.t;       (** def counts in the loop *)
  stored_fields : (string, unit) Hashtbl.t;
  stored_kinds : (Ir.kind, unit) Hashtbl.t;
  has_call : bool;
}

let summarize (f : Ir.func) members : loop_summary =
  let defs = Hashtbl.create 16 in
  let stored_fields = Hashtbl.create 8 in
  let stored_kinds = Hashtbl.create 4 in
  let has_call = ref false in
  List.iter
    (fun m ->
      Array.iter
        (fun i ->
          let d = Ir.def_of_instr i in
          if d <> Ir.no_var then
            Hashtbl.replace defs d
              (1 + Option.value ~default:0 (Hashtbl.find_opt defs d));
          match i with
          | Ir.Put_field (_, fld, _) -> Hashtbl.replace stored_fields fld.fname ()
          | Ir.Array_store (_, _, _, k) -> Hashtbl.replace stored_kinds k ()
          | Ir.Call _ -> has_call := true
          | _ -> ())
        (Ir.block f m).instrs)
    members;
  { defs; stored_fields; stored_kinds; has_call = !has_call }

let invariant_var s v = not (Hashtbl.mem s.defs v)

let invariant_operand s = function
  | Ir.Var v -> invariant_var s v
  | Ir.Cint _ | Ir.Cfloat _ | Ir.Cnull -> true

(** Is an in-bounds guarantee for [arr.(idx)] available at the end of the
    preheader?  We look for the pattern the bound-check hoisting pass
    produces: [len = arraylength arr] followed (not necessarily
    adjacently) by [Bound_check (idx, Var len)], with neither [len] nor
    the variables of [idx] redefined in between. *)
let bounds_proven (f : Ir.func) ph ~arr ~idx =
  let instrs = (Ir.block f ph).instrs in
  let n = Array.length instrs in
  let ok = ref false in
  for k = 0 to n - 1 do
    match instrs.(k) with
    | Ir.Array_length (len, a) when a = arr ->
      (* scan forward for the matching bound check *)
      let rec scan j =
        if j >= n then ()
        else
          match instrs.(j) with
          | Ir.Bound_check (x, Ir.Var l2, _) when x = idx && l2 = len ->
            ok := true
          | i ->
            let d = Ir.def_of_instr i in
            if not (d = len || List.mem d (Ir.vars_of_operand idx)) then
              scan (j + 1)
      in
      scan (k + 1)
    | _ -> ()
  done;
  !ok

(** One hoisting round over one loop; returns true if something moved. *)
let hoist_in_loop ~speculate ~(arch : Arch.t) (f : Ir.func) (cfg : Cfg.t)
    (live : Liveness.t Lazy.t) (nullness : Nullness.t Lazy.t)
    (l : Loops.loop) (stats : stats) : bool =
  let members = Loops.members l in
  let s = summarize f members in
  if s.has_call then false
  else begin
    let nonnull_at ph v =
      Nullness.nonnull_at_exit (Lazy.force nullness) ph v
    in
    let may_speculate_read ~offset =
      speculate
      && (not (arch.Arch.traps_on Arch.Read))
      && offset >= 0 && offset < arch.Arch.trap_area
    in
    let dst_ok d =
      Hashtbl.find_opt s.defs d = Some 1
      && not (Liveness.live_in (Lazy.force live) l.header d)
    in
    (* collect all candidates: (block, index, instr, base, site) *)
    let candidates = ref [] in
    List.iter
      (fun m ->
        Array.iteri
          (fun k i ->
            match i with
            | Ir.Get_field (d, o, fld)
              when invariant_var s o
                   && (not (Hashtbl.mem s.stored_fields fld.fname))
                   && dst_ok d ->
              candidates := (m, k, i, o, `Field fld.foffset) :: !candidates
            | Ir.Array_length (d, a) when invariant_var s a && dst_ok d ->
              candidates :=
                (m, k, i, a, `Field Ir.array_length_offset) :: !candidates
            | Ir.Array_load (d, a, idx, kind)
              when invariant_var s a
                   && invariant_operand s idx
                   && (not (Hashtbl.mem s.stored_kinds kind))
                   && dst_ok d ->
              candidates := (m, k, i, a, `Elem idx) :: !candidates
            | _ -> ())
          (Ir.block f m).instrs)
      members;
    match List.rev !candidates with
    | [] -> false
    | candidates ->
      let old_nblocks = Cfg.nblocks cfg in
      let ph = Loops.ensure_preheader f cfg l in
      if ph >= old_nblocks then
        (* a fresh preheader block was created: the analyses are stale;
           signal progress so the caller recomputes and retries *)
        true
      else begin
        let try_one (m, k, i, base, site) =
          let speculated = ref false in
          let safe =
            match site with
            | `Field offset ->
              nonnull_at ph base
              ||
              (may_speculate_read ~offset && (speculated := true; true))
            | `Elem idx ->
              (* element loads need non-nullness and proven bounds *)
              nonnull_at ph base && bounds_proven f ph ~arr:base ~idx
          in
          if not safe then false
          else begin
            let instrs = (Ir.block f m).instrs in
            let keep = ref [] in
            Array.iteri (fun j x -> if j <> k then keep := x :: !keep) instrs;
            Opt_util.set_instrs f m (List.rev !keep);
            Opt_util.append_instrs f ph [ i ];
            stats.hoisted <- stats.hoisted + 1;
            if !speculated then
              Decision.record ~block:m ~var:base ~kind:Decision.Kother
                ~action:Decision.Speculated ~just:Decision.Speculative_read ();
            true
          end
        in
        List.exists try_one candidates
      end
  end

(* ------------------------------------------------------------------ *)
(* Block-local redundant-load elimination                              *)
(* ------------------------------------------------------------------ *)

(* The key of an [arraylength] load, in place of a field offset. *)
let len_key = min_int

let eliminate_redundant_loads (f : Ir.func) (stats : stats) : unit =
  (* The loads available in the current block: entry [k] (below [!n])
     says [held.(k)] holds the load of [base.(k)] at offset [off.(k)]
     ([len_key] for the array length).  A block adds at most one entry
     per instruction, and a kill scans only the live entries. *)
  let cap =
    Array.fold_left (fun m (b : Ir.block) -> max m (Array.length b.instrs)) 0
      f.fn_blocks
  in
  let base = Array.make cap 0 and off = Array.make cap 0
  and held = Array.make cap 0 and n = ref 0 in
  (* keep, in order, the entries [keep] accepts *)
  let filter keep =
    let j = ref 0 in
    for k = 0 to !n - 1 do
      if keep k then begin
        base.(!j) <- base.(k);
        off.(!j) <- off.(k);
        held.(!j) <- held.(k);
        incr j
      end
    done;
    n := !j
  in
  let find b o =
    let k = ref 0 in
    while !k < !n && not (base.(!k) = b && off.(!k) = o) do
      incr k
    done;
    if !k < !n then held.(!k) else Ir.no_var
  in
  let set b o v =
    filter (fun k -> base.(k) <> b || off.(k) <> o);
    base.(!n) <- b;
    off.(!n) <- o;
    held.(!n) <- v;
    incr n
  in
  Array.iter
    (fun (b : Ir.block) ->
      n := 0;
      let instrs = b.instrs in
      for k = 0 to Array.length instrs - 1 do
        let i = instrs.(k) in
        let w =
          match i with
          | Ir.Get_field (_, o, fld) -> find o fld.foffset
          | Ir.Array_length (_, a) -> find a len_key
          | _ -> Ir.no_var
        in
        (match i with
        | (Ir.Get_field (d, _, _) | Ir.Array_length (d, _))
          when w <> Ir.no_var && w <> d ->
          stats.replaced <- stats.replaced + 1;
          instrs.(k) <- Ir.Move (d, Ir.Var w)
        | _ -> ());
        (* update availability from the ORIGINAL instruction *)
        let d = Ir.def_of_instr i in
        if d <> Ir.no_var then filter (fun k -> base.(k) <> d && held.(k) <> d);
        match i with
        | Ir.Get_field (d, o, fld) -> set o fld.foffset d
        | Ir.Array_length (d, a) -> set a len_key d
        | Ir.Put_field (o, fld, src) -> (
          filter (fun k -> off.(k) <> fld.foffset);
          match src with Ir.Var sv -> set o fld.foffset sv | _ -> ())
        | Ir.Call _ -> filter (fun k -> off.(k) = len_key)
        | _ -> ()
      done)
    f.fn_blocks

(** Run the pass.  [speculate] enables read speculation (legal only when
    the architecture does not trap reads, i.e. AIX in the paper). *)
let run ?(speculate = false) ~(arch : Arch.t) (f : Ir.func) : stats =
  let stats = { hoisted = 0; replaced = 0 } in
  let ctx = Context.of_func f in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let cfg = Context.cfg ctx in
    let loops = Context.loops ctx in
    (* liveness/nullness are per-round (instruction motion changes them)
       and solved only once a candidate reads them; CFG, dominators and
       loops survive rounds that create no block *)
    let live = lazy (Liveness.solve cfg) in
    let nullness = lazy (Nullness.solve ~deref_gen:false cfg) in
    List.iter
      (fun l ->
        if not !continue_ then
          if hoist_in_loop ~speculate ~arch f cfg live nullness l stats then
            continue_ := true)
      loops
  done;
  eliminate_redundant_loads f stats;
  stats
