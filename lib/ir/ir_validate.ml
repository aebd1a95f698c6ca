(** Structural validation of IR programs.

    Checks performed per function:
    - every terminator targets an existing block;
    - every instruction references variables below [fn_nvars];
    - every try region referenced by a block has a handler, and handlers
      are existing blocks;
    - all blocks are reachable from the entry (warning-level: unreachable
      blocks are tolerated by the optimizer but reported here);
    - virtual calls pass at least the receiver.

    With [~strict:true] (used for generated programs before they reach
    the solver; the fuzzer's shrinker also re-validates every candidate
    edit), three deeper well-formedness properties are enforced:
    - {b definite assignment}: on every path (including the exceptional
      edge into a handler, which assumes {e none} of the region's block
      effects happened) each variable is assigned before use;
    - {b try-region entry discipline}: a try region is entered by normal
      control flow at a single block — a jump from outside the region
      into its middle would bypass the state the region's analyses
      ([Edge_try], handler liveness) assume established at entry;
    - {b handler placement}: a region's handler must not lie inside the
      region itself (or a nested one) — an exception in the handler
      would re-enter it.

    Returns a list of human-readable error strings; [\[\]] means valid. *)

(* --- strict-mode helpers ------------------------------------------- *)

(** The region lexically enclosing [r]: the region its handler block
    lives in.  [no_region] when unknown. *)
let region_parent (f : Ir.func) (r : Ir.region) : Ir.region =
  match Ir.handler_of f r with
  | Some h when h >= 0 && h < Ir.nblocks f -> (Ir.block f h).breg
  | _ -> Ir.no_region

(** [region_is_ancestor f ~anc r]: is [anc] equal to [r] or on [r]'s
    parent chain?  Fuel-bounded so malformed (cyclic) handler tables
    terminate. *)
let region_is_ancestor (f : Ir.func) ~(anc : Ir.region) (r : Ir.region) : bool =
  let rec go r fuel =
    if r = anc then true
    else if r = Ir.no_region || fuel <= 0 then false
    else go (region_parent f r) (fuel - 1)
  in
  go r (List.length f.fn_handlers + 1)

(** Definite assignment: iterate a forward must-be-assigned analysis to
    a fixpoint, then report every use of a possibly-unassigned variable.
    The exceptional edge into the handler of region [r] meets over the
    {e entry} states of all blocks of [r] — an exception may fire before
    any instruction of the faulting block has executed. *)
let check_definite_assignment err (f : Ir.func) =
  let n = Ir.nblocks f and nv = f.Ir.fn_nvars in
  let entry_state () = Array.init nv (fun v -> v < f.fn_nparams) in
  (* inb.(l) = None means "not yet reached" (top) *)
  let inb = Array.make n None in
  inb.(0) <- Some (entry_state ());
  let transfer st (b : Ir.block) =
    let st = Array.copy st in
    Array.iter
      (fun i ->
        let d = Ir.def_of_instr i in
        if d <> Ir.no_var && d < nv then st.(d) <- true)
      b.instrs;
    st
  in
  let meet_into dst src =
    match !dst with
    | None ->
      dst := Some (Array.copy src);
      true
    | Some cur ->
      let changed = ref false in
      Array.iteri
        (fun v s ->
          if cur.(v) && not s then begin
            cur.(v) <- false;
            changed := true
          end)
        src;
      !changed
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun l (b : Ir.block) ->
        match inb.(l) with
        | None -> ()
        | Some st ->
          let out = transfer st b in
          List.iter
            (fun s ->
              let cell = ref inb.(s) in
              if meet_into cell out then begin
                inb.(s) <- !cell;
                changed := true
              end)
            (Ir.succs_of_term b.term);
          (* exceptional edge: handler sees the block's entry state *)
          if b.breg <> Ir.no_region then
            match Ir.handler_of f b.breg with
            | Some h when h >= 0 && h < n ->
              let cell = ref inb.(h) in
              if meet_into cell st then begin
                inb.(h) <- !cell;
                changed := true
              end
            | _ -> ())
      f.fn_blocks
  done;
  Array.iteri
    (fun l (b : Ir.block) ->
      match inb.(l) with
      | None -> () (* unreachable: already reported *)
      | Some st ->
        let st = Array.copy st in
        let use where v =
          if v < nv && not st.(v) then
            err (Printf.sprintf "B%d: %s: variable %s may be unassigned" l
                   where (Ir.var_name f v))
        in
        Array.iteri
          (fun i instr ->
            let where = Printf.sprintf "instr %d" i in
            Ir.iter_uses (use where) instr;
            let d = Ir.def_of_instr instr in
            if d <> Ir.no_var && d < nv then st.(d) <- true)
          b.instrs;
        Ir.iter_term_uses (use "terminator") b.term)
    f.fn_blocks

(** Try-region entry discipline and handler placement. *)
let check_regions err (f : Ir.func) =
  (* handler of r must not sit inside r (or a region nested in r) *)
  List.iter
    (fun (r, h) ->
      if h >= 0 && h < Ir.nblocks f then
        let hreg = (Ir.block f h).breg in
        if region_is_ancestor f ~anc:r hreg then
          err
            (Printf.sprintf "handler B%d of region %d lies inside its own region"
               h r))
    f.fn_handlers;
  (* collect, per region, the member blocks entered from outside it *)
  let entries = Hashtbl.create 8 in
  Array.iteri
    (fun s (b : Ir.block) ->
      List.iter
        (fun t ->
          if t >= 0 && t < Ir.nblocks f then begin
            let treg = (Ir.block f t).breg in
            (* an edge whose target region is neither the source's
               region nor an ancestor of it enters [treg] from outside
               (edges back out to an enclosing region are exits) *)
            if
              treg <> Ir.no_region && treg <> b.breg
              && not (region_is_ancestor f ~anc:treg b.breg)
            then begin
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt entries treg)
              in
              if not (List.mem t cur) then
                Hashtbl.replace entries treg (t :: cur)
            end;
            ignore s
          end)
        (Ir.succs_of_term b.term))
    f.fn_blocks;
  Hashtbl.iter
    (fun r targets ->
      match targets with
      | [] | [ _ ] -> ()
      | _ ->
        err
          (Printf.sprintf "region %d entered from outside at multiple blocks: %s"
             r
             (String.concat ", "
                (List.sort compare (List.map (Printf.sprintf "B%d") targets)))))
    entries

let validate_func ?(strict = false) (p : Ir.program option) (f : Ir.func) :
    string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := (f.fn_name ^ ": " ^ s) :: !errs) fmt in
  let n = Ir.nblocks f in
  if n = 0 then err "no blocks";
  let check_label where l =
    if l < 0 || l >= n then err "%s: bad label B%d" where l
  in
  let check_var where v =
    if v < 0 || v >= f.fn_nvars then err "%s: bad variable %d" where v
  in
  Array.iteri
    (fun bi (b : Ir.block) ->
      let where = Printf.sprintf "B%d" bi in
      Array.iter
        (fun i ->
          Ir.iter_uses (check_var where) i;
          let d = Ir.def_of_instr i in
          if d <> Ir.no_var then check_var where d;
          match (i, p) with
          | Ir.Call (_, Virtual _, []), _ ->
            err "%s: virtual call without receiver" where
          | Ir.Call (_, Static fn, _), Some prog ->
            if
              (not (Hashtbl.mem prog.Ir.funcs fn))
              && Ir.intrinsic_of_name fn = None
            then err "%s: call to unknown function %s" where fn
          | Ir.New_object (_, c), Some prog ->
            if not (Hashtbl.mem prog.Ir.classes c) then
              err "%s: new of unknown class %s" where c
          | _ -> ())
        b.instrs;
      List.iter (check_label where) (Ir.succs_of_term b.term);
      Ir.iter_term_uses (check_var where) b.term;
      if b.breg <> Ir.no_region then
        match Ir.handler_of f b.breg with
        | Some h -> check_label where h
        | None -> err "%s: try region %d has no handler" where b.breg)
    f.fn_blocks;
  (* reachability (only meaningful once all labels are in range) *)
  if n > 0 && !errs = [] then begin
    let seen = Array.make n false in
    let rec go l =
      if l >= 0 && l < n && not seen.(l) then begin
        seen.(l) <- true;
        List.iter go (Ir.succs_of_term f.fn_blocks.(l).term);
        match Ir.handler_of f f.fn_blocks.(l).breg with
        | Some h -> go h
        | None -> ()
      end
    in
    go 0;
    Array.iteri
      (fun i s -> if not s then err "B%d unreachable from entry" i)
      seen
  end;
  (* the deep checks assume structurally sound labels/handlers *)
  if strict && n > 0 && !errs = [] then begin
    let err_s s = errs := (f.fn_name ^ ": " ^ s) :: !errs in
    check_regions err_s f;
    check_definite_assignment err_s f
  end;
  List.rev !errs

let validate_program ?(strict = false) (p : Ir.program) : string list =
  let errs = ref [] in
  if not (Hashtbl.mem p.funcs p.prog_main) then
    errs := [ "missing main function " ^ p.prog_main ];
  Ir.iter_funcs (fun f -> errs := validate_func ~strict (Some p) f @ !errs) p;
  !errs

(** Raise [Invalid_argument] if the program is structurally invalid. *)
let check_exn ?(strict = false) p =
  match validate_program ~strict p with
  | [] -> ()
  | errs -> invalid_arg ("invalid IR:\n" ^ String.concat "\n" errs)
