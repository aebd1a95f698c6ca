(** Block-local copy and constant propagation.

    Replaces uses of a variable by its defining copy source within a
    basic block ([d = s; ... use d] becomes [... use s]) as long as
    neither side has been redefined in between.  Null-check targets are
    only rewritten to variables (a check needs a variable), which lets
    phase 1 recognize two checks of the same object through a copy.

    The rewrite is in place: an instruction or terminator is rebuilt
    only when one of its uses is substituted, so a block with nothing
    to propagate keeps its terminator and the function's analysis
    context stays valid. *)

module Ir = Nullelim_ir.Ir

let run (f : Ir.func) : int =
  let changed = ref 0 in
  (* The facts, var-indexed and reset per block: [copy.(d)] is what a
     use of [d] may read instead, and [readers.(s)] lists the variables
     made copies of [s] (an entry goes stale once its variable is
     redefined, so [kill] checks before it clears).  [touched] lists
     every variable with a fact or a reader, for the reset. *)
  let nv = f.Ir.fn_nvars in
  let copy : Ir.operand option array = Array.make nv None in
  let readers : Ir.var list array = Array.make nv [] in
  let touched = ref [] in
  let kill v =
    copy.(v) <- None;
    List.iter
      (fun d ->
        match copy.(d) with
        | Some (Ir.Var w) when w = v -> copy.(d) <- None
        | _ -> ())
      readers.(v);
    readers.(v) <- []
  in
  let set d src =
    copy.(d) <- Some src;
    touched := d :: !touched;
    match src with
    | Ir.Var s ->
      readers.(s) <- d :: readers.(s);
      touched := s :: !touched
    | _ -> ()
  in
  let reset () =
    List.iter
      (fun v ->
        copy.(v) <- None;
        readers.(v) <- [])
      !touched;
    touched := []
  in
  (* substitution returns its argument itself when nothing changes *)
  let subst_op o =
    match o with
    | Ir.Var v -> (
      match copy.(v) with
      | Some o' ->
        incr changed;
        o'
      | None -> o)
    | _ -> o
  in
  let subst_var v =
    match copy.(v) with
    | Some (Ir.Var w) ->
      incr changed;
      w
    | _ -> v
  in
  let rec subst_args = function
    | [] -> []
    | a :: rest as args ->
      let a' = subst_op a in
      let rest' = subst_args rest in
      if a' == a && rest' == rest then args else a' :: rest'
  in
  let rewrite (i : Ir.instr) : Ir.instr =
    match i with
    | Move (d, s) ->
      let s' = subst_op s in
      if s' == s then i else Move (d, s')
    | Unop (d, u, s) ->
      let s' = subst_op s in
      if s' == s then i else Unop (d, u, s')
    | Binop (d, op, a, b) ->
      let a' = subst_op a in
      let b' = subst_op b in
      if a' == a && b' == b then i else Binop (d, op, a', b')
    | Null_check (k, v, s) ->
      let v' = subst_var v in
      if v' = v then i else Null_check (k, v', s)
    | Bound_check (a, b, s) ->
      let a' = subst_op a in
      let b' = subst_op b in
      if a' == a && b' == b then i else Bound_check (a', b', s)
    | Get_field (d, o, fld) ->
      let o' = subst_var o in
      if o' = o then i else Get_field (d, o', fld)
    | Put_field (o, fld, s) ->
      let o' = subst_var o in
      let s' = subst_op s in
      if o' = o && s' == s then i else Put_field (o', fld, s')
    | Array_load (d, a, idx, k) ->
      let a' = subst_var a in
      let idx' = subst_op idx in
      if a' = a && idx' == idx then i else Array_load (d, a', idx', k)
    | Array_store (a, idx, s, k) ->
      let a' = subst_var a in
      let idx' = subst_op idx in
      let s' = subst_op s in
      if a' = a && idx' == idx && s' == s then i
      else Array_store (a', idx', s', k)
    | Array_length (d, a) ->
      let a' = subst_var a in
      if a' = a then i else Array_length (d, a')
    | New_object _ -> i
    | New_array (d, k, n) ->
      let n' = subst_op n in
      if n' == n then i else New_array (d, k, n')
    | Call (d, t, args) ->
      let args' = subst_args args in
      if args' == args then i else Call (d, t, args')
    | Print s ->
      let s' = subst_op s in
      if s' == s then i else Print s'
  in
  let rewrite_term (t : Ir.terminator) : Ir.terminator =
    match t with
    | If (c, a, b, l1, l2) ->
      let a' = subst_op a in
      let b' = subst_op b in
      if a' == a && b' == b then t else If (c, a', b', l1, l2)
    | Ifnull (v, l1, l2) ->
      let v' = subst_var v in
      if v' = v then t else Ifnull (v', l1, l2)
    | Return (Some o) ->
      let o' = subst_op o in
      if o' == o then t else Return (Some o')
    | Goto _ | Return None | Throw _ -> t
  in
  Array.iter
    (fun (b : Ir.block) ->
      reset ();
      let instrs = b.instrs in
      for k = 0 to Array.length instrs - 1 do
        let i = instrs.(k) in
        let i' = rewrite i in
        if i' != i then instrs.(k) <- i';
        let d = Ir.def_of_instr i' in
        if d <> Ir.no_var then kill d;
        match i' with
        | Move (d, (Ir.Var s as src)) when d <> s -> set d src
        | Move (d, ((Ir.Cint _ | Ir.Cfloat _) as c)) -> set d c
        | _ -> ()
      done;
      let t' = rewrite_term b.term in
      if t' != b.term then b.term <- t')
    f.fn_blocks;
  !changed
