(** The Figure 1 / Figure 7 scenario: devirtualization + inlining of an
    accessor whose body only dereferences the receiver on one branch.
    The receiver null check must stay explicit after inlining; the
    architecture-dependent phase 2 sinks it into the dereferencing branch
    (implicit, free) and keeps an explicit check only on the other path —
    then even that one is eliminated when a later dereference covers it.

    Run with: [dune exec examples/inlined_accessors.exe] *)

open Nullelim

let fld_v = { Ir.fname = "v"; foffset = 16; fkind = Ir.Kint }

let cls =
  {
    Ir.cname = "Box";
    csuper = None;
    cfields = [ fld_v ];
    cmethods = [ ("func", "Box.func") ];
  }

(* Figure 1's method:
   int func(int s1) { if (s1 < 0) return s1; else return this.v; } *)
let func_method () =
  let open Builder in
  let b = create ~name:"Box.func" ~is_method:true ~params:[ "this"; "s1" ] () in
  let this = param b 0 and s1 = param b 1 in
  let r = fresh ~name:"r" b in
  if_then b (Ir.Lt, Var s1, Cint 0)
    ~then_:(fun b -> emit b (Move (r, Var s1)))
    ~else_:(fun b -> getfield b ~dst:r ~obj:this fld_v)
    ();
  terminate b (Return (Some (Var r)));
  finish b

let caller () =
  let open Builder in
  let b = create ~name:"caller" ~params:[ "a"; "i" ] () in
  let a = param b 0 and i = param b 1 in
  let r = fresh ~name:"result" b in
  vcall b ~dst:r ~recv:a "func" [ Var i ];
  terminate b (Return (Some (Var r)));
  finish b

let () =
  let arch = Arch.ia32_windows in
  let prog =
    Builder.program ~classes:[ cls ] ~main:"caller" [ caller (); func_method () ]
  in
  Fmt.pr "=== raw caller: a virtual call ===@.%a@." Ir_pp.pp_func
    (Ir.find_func prog "caller");

  (* inline by hand to show the intermediate state of Figure 1(2) *)
  let p = Ir.copy_program prog in
  ignore (Inline.devirtualize p);
  ignore (Inline.run p);
  Ir.iter_funcs (fun f -> ignore (Simplify_cfg.run f)) p;
  Ir.iter_funcs (fun f -> ignore (Copyprop.run f)) p;
  Ir.iter_funcs (fun f -> ignore (Dce.run f)) p;
  Fmt.pr
    "@.=== after devirtualization + inlining (Figure 1(2)): the explicit@.\
    \    check must be generated because the right path never touches 'a' \
     ===@.%a@."
    Ir_pp.pp_func (Ir.find_func p "caller");

  Ir.iter_funcs (fun f -> ignore (Phase2.run ~arch f)) p;
  Fmt.pr
    "@.=== after phase 2 (Figure 7): implicit on the dereferencing path,@.\
    \    explicit only where the object is never touched ===@.%a@."
    Ir_pp.pp_func (Ir.find_func p "caller");

  (* behaviour is identical, including the NullPointerException *)
  let box_value n =
    let obj = Value.new_object (Hashtbl.create 1) cls in
    Value.set_field obj fld_v (Value.Vint n);
    Value.Vref (Value.Obj obj)
  in
  List.iter
    (fun (label, args) ->
      let before = Interp.run ~arch prog args in
      let after = Interp.run ~arch p args in
      Fmt.pr "%-24s before: %a | after: %a@." label Interp.pp_outcome
        before.Interp.outcome Interp.pp_outcome after.Interp.outcome;
      assert (Interp.equivalent before after))
    [
      ("box, positive index", [ box_value 42; Value.Vint 5 ]);
      ("box, negative index", [ box_value 42; Value.Vint (-5) ]);
      ("null, positive index", [ Value.Vref Value.Null; Value.Vint 5 ]);
      ("null, negative index", [ Value.Vref Value.Null; Value.Vint (-5) ]);
    ];
  Fmt.pr "@.all four cases behave identically before and after. done.@."
