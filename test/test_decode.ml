(* Differential oracle for the decoded interpreter: [Interp.run]
   (pre-decoded, opcode-specialised operations) against
   [Interp.run_reference] (the IR-walking loop).  Both must agree on the
   full counters record, the event trace, the outcome including the
   text of a simulation error, the profile's site and block rows and
   the sequence of [on_trap] calls — over the registry workloads at
   tier 0 and 2 under every Windows and AIX configuration, the
   synchronous tiered manager, generated programs, a grid of ill-typed
   and undefined operands for every specialised shape, every fuel limit
   of a small program, and field slots that move between objects.
   Decoded code is also tied to the arch it was decoded for. *)

open Nullelim
module Profile = Obs.Profile
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let ia32 = Arch.ia32_windows
let aix = Arch.ppc_aix

(* ------------------------------------------------------------------ *)
(* Observation and comparison                                          *)
(* ------------------------------------------------------------------ *)

type obs = {
  r : Interp.result;
  profile : (Profile.site_row list * Profile.block_row list * int) option;
  traps : (string * int) list; (* on_trap calls, in order *)
}

let outcome_string = function
  | Interp.Returned (Some (Value.Vfloat x)) ->
    Printf.sprintf "returned float %Lx" (Int64.bits_of_float x)
  | o -> Fmt.str "%a" Interp.pp_outcome o

let counters_string (c : Interp.counters) =
  Printf.sprintf
    "instrs=%d cycles=%d explicit=%d implicit=%d bound=%d loads=%d \
     stores=%d calls=%d allocs=%d npe_trap=%d npe_explicit=%d \
     implicit_miss=%d spec_null_reads=%d"
    c.instrs c.cycles c.explicit_checks c.implicit_checks c.bound_checks
    c.loads c.stores c.calls c.allocs c.npe_trap c.npe_explicit
    c.implicit_miss c.spec_null_reads

(* Run one engine.  [forward] receives every trap after it is
   recorded (the tiered manager's hook). *)
let observe ~reference ?fuel ?(profile = false) ?dispatch
    ?(forward = fun ~func:_ ~site:_ -> ()) ~arch p args =
  let prof = if profile then Some (Profile.create ()) else None in
  let traps = ref [] in
  let on_trap ~func ~site =
    traps := (func, site) :: !traps;
    forward ~func ~site
  in
  let args = Value.deep_copy_all args in
  let r =
    if reference then
      Interp.run_reference ?fuel ?profile:prof ?dispatch ~on_trap ~arch p args
    else Interp.run ?fuel ?profile:prof ?dispatch ~on_trap ~arch p args
  in
  let profile =
    Option.map
      (fun pr -> (Profile.sites pr, Profile.blocks pr, Profile.other_traps pr))
      prof
  in
  { r; profile; traps = List.rev !traps }

let check_same what (d : obs) (r : obs) =
  let fail field a b =
    Alcotest.failf "%s: %s differ\n  decoded:   %s\n  reference: %s" what
      field a b
  in
  let o1 = outcome_string d.r.outcome and o2 = outcome_string r.r.outcome in
  if o1 <> o2 then fail "outcomes" o1 o2;
  let c1 = counters_string d.r.counters and c2 = counters_string r.r.counters in
  if c1 <> c2 then fail "counters" c1 c2;
  let trace x = Fmt.(str "%a" (list ~sep:semi Interp.pp_event) x.r.trace) in
  if d.r.trace <> r.r.trace then fail "traces" (trace d) (trace r);
  let profile x =
    match x.profile with
    | None -> "none"
    | Some (sites, blocks, other) ->
      let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
      Printf.sprintf "%d sites (%d hits), %d blocks (%d runs), %d other traps"
        (List.length sites)
        (sum (fun s -> s.Profile.sr_hits) sites)
        (List.length blocks)
        (sum (fun b -> b.Profile.br_count) blocks)
        other
  in
  if d.profile <> r.profile then fail "profiles" (profile d) (profile r);
  let traps x =
    String.concat ";" (List.map (fun (f, s) -> Printf.sprintf "%s@%d" f s) x.traps)
  in
  if d.traps <> r.traps then fail "on_trap calls" (traps d) (traps r)

(* Both engines on the same untiered program, profile off and on. *)
let agree ?fuel ~arch what p args =
  List.iter
    (fun profile ->
      let what = if profile then what ^ " (profiled)" else what in
      check_same what
        (observe ~reference:false ?fuel ~profile ~arch p args)
        (observe ~reference:true ?fuel ~profile ~arch p args))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Registry workloads and the tiered manager                           *)
(* ------------------------------------------------------------------ *)

let configs =
  List.map (fun c -> (c, ia32)) Config.windows_suite
  @ List.map (fun c -> (c, aix)) Config.aix_suite

let test_registry () =
  List.iter
    (fun (w : W.t) ->
      let prog = w.W.build ~scale:1 in
      List.iter
        (fun ((cfg : Config.t), arch) ->
          List.iter
            (fun tier ->
              let c = Compiler.compile ~tier cfg ~arch prog in
              agree ~arch
                (Printf.sprintf "%s %s tier %d" w.W.name cfg.Config.name tier)
                c.Compiler.program [])
            [ 0; 2 ])
        configs)
    (Registry.all ())

(* Two identical synchronous managers, one run through each engine:
   results, trap feedback and the managers' decisions must match run
   after run, through promotions and deopts. *)
let test_tiered_manager () =
  let cfg = { Config.new_full with promote_calls = 2; deopt_traps = 1 } in
  List.iter
    (fun (w : W.t) ->
      let prog = w.W.build ~scale:1 in
      let t_dec = Tier.create ~config:cfg ~arch:ia32 prog
      and t_ref = Tier.create ~config:cfg ~arch:ia32 prog in
      let p0 t = (snd (List.hd (Tier.artifacts t))).Compiler.program in
      for run = 1 to 4 do
        let side ~reference t =
          observe ~reference ~profile:(run mod 2 = 0)
            ~dispatch:(Tier.dispatch t)
            ~forward:(fun ~func ~site -> Tier.on_trap t ~func ~site)
            ~arch:ia32 (p0 t) []
        in
        let d = side ~reference:false t_dec in
        let r = side ~reference:true t_ref in
        let what = Printf.sprintf "%s tiered run %d" w.W.name run in
        check_same what d r;
        let decisions t =
          { (Tier.stats t) with Tier.st_recompile_seconds = 0. }
        in
        if decisions t_dec <> decisions t_ref then
          Alcotest.failf "%s: manager decisions differ" what
      done)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)
(* ------------------------------------------------------------------ *)

let gen_seeds = 600

let test_generated () =
  let cfgs = [| Config.new_full; Config.old_null_check; Config.hotspot_model |] in
  for seed = 1 to gen_seeds do
    let g = Gen.generate ~seed () in
    let p = g.Gen.g_program in
    let fuel = 200_000 in
    agree ~fuel ~arch:ia32 (Printf.sprintf "seed %d raw" seed) p [];
    let cfg = cfgs.(seed mod Array.length cfgs) in
    let arch = if seed mod 4 = 0 then aix else ia32 in
    let cfg = if arch == aix then Config.aix_speculation else cfg in
    let c = Compiler.compile cfg ~arch p in
    agree ~fuel ~arch
      (Printf.sprintf "seed %d %s" seed cfg.Config.name)
      c.Compiler.program []
  done

(* ------------------------------------------------------------------ *)
(* Ill-typed and undefined operands                                    *)
(* ------------------------------------------------------------------ *)

let fld_a = { Ir.fname = "a"; foffset = 16; fkind = Ir.Kint }
let fld_b = { Ir.fname = "b"; foffset = 24; fkind = Ir.Kint }
let fld_far = { Ir.fname = "far"; foffset = 524272; fkind = Ir.Kint }

let cell_cls =
  { Ir.cname = "Cell"; csuper = None; cfields = [ fld_a ]; cmethods = [] }

(* argument values: ints (zero and negative for divisors and indices),
   a float, null, an object, int and float arrays, undefined *)
let arg_values () =
  let obj = Value.new_object (Hashtbl.create 1) cell_cls in
  Value.set_field obj fld_a (Value.Vint 7);
  [
    Value.Vint 3; Value.Vint 0; Value.Vint (-2); Value.Vfloat 2.5;
    Value.Vref Value.Null; Value.Vref (Value.Obj obj);
    Value.Vref (Value.Arr (Value.new_array Ir.Kint 4));
    Value.Vref (Value.Arr (Value.new_array Ir.Kfloat 2));
    Value.Vundef;
  ]

(* Operand shapes: both parameters, int, zero, float and null
   constants, and a variable never assigned. *)
let operands undef =
  [
    Ir.Var 0; Ir.Var 1; Ir.Cint 2; Ir.Cint 0; Ir.Cfloat 1.5; Ir.Cnull;
    Ir.Var undef;
  ]

let n_operands = List.length (operands 0)

(* [main(p0, p1)] built by [template d ops b], with [d] a fresh
   variable and [ops] the operand shapes. *)
let grid_program template =
  let b = Builder.create ~name:"main" ~params:[ "p0"; "p1" ] () in
  let d = Builder.fresh b in
  template d (operands (Builder.fresh b)) b;
  Builder.program ~classes:[ cell_cls ] ~main:"main" [ Builder.finish b ]

let ret d b = Builder.terminate b (Ir.Return (Some (Ir.Var d)))

let int_binops : Ir.binop list =
  Ir.[ Add; Sub; Mul; Div; Rem; Band; Bor; Bxor; Shl; Shr ]
  @ List.map (fun c -> Ir.Icmp c) Ir.[ Eq; Ne; Lt; Le; Gt; Ge ]

let float_binops : Ir.binop list =
  Ir.[ Fadd; Fsub; Fmul; Fdiv ]
  @ List.map (fun c -> Ir.Fcmp c) Ir.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* Templates over two operands [x], [y] (any shape) and the variable
   parameters. *)
let two_operand_templates : (string * (Ir.operand -> Ir.operand -> Ir.var -> Builder.t -> unit)) list =
  List.map
    (fun op ->
      ( Fmt.str "binop %s%s"
          (match op with Ir.Fcmp _ -> "f" | _ -> "")
          (Ir_pp.binop_str op),
        fun x y d b ->
          Builder.emit b (Ir.Binop (d, op, x, y));
          ret d b ))
    (int_binops @ float_binops)
  @ List.map
      (fun c ->
        ( Fmt.str "if %a" Ir_pp.pp_cmp c,
          fun x y _ b ->
            Builder.terminate b (Ir.If (c, x, y, 1, 2));
            let l1 = Builder.new_block b and l2 = Builder.new_block b in
            Builder.switch_to b l1;
            Builder.terminate b (Ir.Return (Some (Ir.Cint 1)));
            Builder.switch_to b l2;
            Builder.terminate b (Ir.Return (Some (Ir.Cint 2))) ))
      Ir.[ Eq; Ne; Lt; Le; Gt; Ge ]
  @ [
      ( "bound check",
        fun x y d b ->
          Builder.emit b (Ir.Bound_check (x, y, Ir.fresh_site ()));
          Builder.emit b (Ir.Move (d, Ir.Cint 5));
          ret d b );
      ( "array load",
        fun x _ d b ->
          Builder.emit b (Ir.Array_load (d, 0, x, Ir.Kint));
          ret d b );
      ( "array load (float kind)",
        fun x _ d b ->
          Builder.emit b (Ir.Array_load (d, 1, x, Ir.Kfloat));
          ret d b );
      ( "array store",
        fun x y d b ->
          Builder.emit b (Ir.Array_store (0, x, y, Ir.Kint));
          Builder.emit b (Ir.Array_load (d, 0, x, Ir.Kint));
          ret d b );
      ( "implicit check + array store",
        fun x y d b ->
          Builder.emit b (Ir.Null_check (Ir.Implicit, 1, Ir.fresh_site ()));
          Builder.emit b (Ir.Array_store (1, x, y, Ir.Kint));
          Builder.emit b (Ir.Move (d, Ir.Cint 5));
          ret d b );
      ( "put field",
        fun x _ d b ->
          Builder.emit b (Ir.Put_field (1, fld_a, x));
          Builder.emit b (Ir.Get_field (d, 1, fld_a));
          ret d b );
      ( "intrinsic call",
        fun x _ d b ->
          Builder.emit b (Ir.Call (Some d, Ir.Static "Math.sqrt", [ x ]));
          ret d b );
      ( "static call",
        fun x y d b ->
          Builder.emit b (Ir.Call (Some d, Ir.Static "callee", [ x; y ]));
          ret d b );
    ]

(* Templates over one operand [x]. *)
let one_operand_templates : (string * (Ir.operand -> Ir.var -> Builder.t -> unit)) list =
  List.map
    (fun u ->
      ( "unop " ^ Ir_pp.unop_str u,
        fun x d b ->
          Builder.emit b (Ir.Unop (d, u, x));
          ret d b ))
    Ir.[ Neg; Fneg; I2f; F2i; Fsqrt; Fexp; Flog; Fsin; Fcos ]
  @ [
      ( "move",
        fun x d b ->
          Builder.emit b (Ir.Move (d, x));
          ret d b );
      ( "print",
        fun x d b ->
          Builder.emit b (Ir.Print x);
          Builder.emit b (Ir.Move (d, Ir.Cint 0));
          ret d b );
      ( "return",
        fun x _ b -> Builder.terminate b (Ir.Return (Some x)) );
    ]

(* Templates over the variable parameter [p0] only (bases and checked
   variables are variables in the IR). *)
let var_templates : (string * (Ir.var -> Builder.t -> unit)) list =
  List.map
    (fun kind ->
      ( "null check",
        fun d b ->
          Builder.emit b (Ir.Null_check (kind, 0, Ir.fresh_site ()));
          Builder.emit b (Ir.Move (d, Ir.Cint 1));
          ret d b ))
    [ Ir.Explicit; Ir.Implicit ]
  @ List.map
      (fun fld ->
        ( "implicit check + get field",
          fun d b ->
            Builder.emit b (Ir.Null_check (Ir.Implicit, 0, Ir.fresh_site ()));
            Builder.emit b (Ir.Get_field (d, 0, fld));
            ret d b ))
      [ fld_a; fld_b; fld_far ]
  @ [
      ( "get field",
        fun d b ->
          Builder.emit b (Ir.Get_field (d, 0, fld_a));
          ret d b );
      ( "put field on base",
        fun d b ->
          Builder.emit b (Ir.Null_check (Ir.Implicit, 0, Ir.fresh_site ()));
          Builder.emit b (Ir.Put_field (0, fld_b, Ir.Var 1));
          Builder.emit b (Ir.Get_field (d, 0, fld_b));
          ret d b );
      ( "array length",
        fun d b ->
          Builder.emit b (Ir.Null_check (Ir.Implicit, 0, Ir.fresh_site ()));
          Builder.emit b (Ir.Array_length (d, 0));
          ret d b );
      ( "ifnull",
        fun _ b ->
          Builder.terminate b (Ir.Ifnull (0, 1, 2));
          let l1 = Builder.new_block b and l2 = Builder.new_block b in
          Builder.switch_to b l1;
          Builder.terminate b (Ir.Return (Some (Ir.Cint 1)));
          Builder.switch_to b l2;
          Builder.terminate b (Ir.Return (Some (Ir.Cint 2))) );
      ( "virtual call",
        fun d b ->
          Builder.emit b (Ir.Call (Some d, Ir.Virtual "m", [ Ir.Var 0 ]));
          ret d b );
    ]

let callee =
  let b = Builder.create ~name:"callee" ~params:[ "a"; "b" ] () in
  Builder.terminate b (Ir.Return (Some (Ir.Var 1)));
  Builder.finish b

let with_callee (p : Ir.program) =
  Hashtbl.replace p.Ir.funcs "callee" callee;
  p

let test_operand_grid () =
  let args = arg_values () in
  let run_all what p =
    let p = with_callee p in
    List.iter
      (fun a0 ->
        List.iter
          (fun a1 ->
            List.iter
              (fun arch ->
                check_same
                  (Fmt.str "%s on %s (%a, %a)" what arch.Arch.name Value.pp a0
                     Value.pp a1)
                  (observe ~reference:false ~arch p [ a0; a1 ])
                  (observe ~reference:true ~arch p [ a0; a1 ]))
              [ ia32; aix ])
          args)
      args
  in
  List.iter
    (fun (name, t) ->
      for i = 0 to n_operands - 1 do
        for j = 0 to n_operands - 1 do
          run_all
            (Printf.sprintf "%s x%d y%d" name i j)
            (grid_program (fun d ops b -> t (List.nth ops i) (List.nth ops j) d b))
        done
      done)
    two_operand_templates;
  List.iter
    (fun (name, t) ->
      for i = 0 to n_operands - 1 do
        run_all
          (Printf.sprintf "%s x%d" name i)
          (grid_program (fun d ops b -> t (List.nth ops i) d b))
      done)
    one_operand_templates;
  List.iter
    (fun (name, t) -> run_all name (grid_program (fun d _ b -> t d b)))
    var_templates

(* ------------------------------------------------------------------ *)
(* Fuel, slot memos, arch binding                                      *)
(* ------------------------------------------------------------------ *)

(* a loop over an array with a call, field traffic and a print *)
let loop_program () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let arr = fresh b and o = fresh b and i = fresh b and acc = fresh b
  and x = fresh b in
  emit b (Ir.New_array (arr, Ir.Kint, Ir.Cint 4));
  emit b (Ir.New_object (o, "Cell"));
  emit b (Ir.Move (acc, Ir.Cint 0));
  count_do b ~v:i ~from:(Ir.Cint 0) ~limit:(Ir.Cint 4) (fun b ->
      emit b (Ir.Bound_check (Ir.Var i, Ir.Cint 4, Ir.fresh_site ()));
      emit b (Ir.Array_store (arr, Ir.Var i, Ir.Var i, Ir.Kint));
      emit b (Ir.Null_check (Ir.Explicit, o, Ir.fresh_site ()));
      emit b (Ir.Get_field (x, o, fld_a));
      emit b (Ir.Binop (x, Ir.Add, Ir.Var x, Ir.Var i));
      emit b (Ir.Put_field (o, fld_a, Ir.Var x));
      emit b (Ir.Call (Some x, Ir.Static "callee", [ Ir.Var x; Ir.Var i ]));
      emit b (Ir.Binop (acc, Ir.Add, Ir.Var acc, Ir.Var x)));
  emit b (Ir.Print (Ir.Var acc));
  terminate b (Ir.Return (Some (Ir.Var acc)));
  with_callee (program ~classes:[ cell_cls ] ~main:"main" [ finish b ])

(* a loop whose try regions throw from the middle of a block: one
   block without calls (a bound check fails from the third iteration
   on) and one whose call comes before the failing check *)
let try_program () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let arr = fresh b and i = fresh b and acc = fresh b and x = fresh b in
  emit b (Ir.New_array (arr, Ir.Kint, Ir.Cint 2));
  emit b (Ir.Move (acc, Ir.Cint 0));
  count_do b ~v:i ~from:(Ir.Cint 0) ~limit:(Ir.Cint 4) (fun b ->
      with_try b
        ~handler:(fun b -> emit b (Ir.Binop (acc, Ir.Add, Ir.Var acc, Ir.Cint 100)))
        (fun b ->
          emit b (Ir.Binop (x, Ir.Mul, Ir.Var i, Ir.Cint 3));
          emit b (Ir.Bound_check (Ir.Var i, Ir.Cint 2, Ir.fresh_site ()));
          emit b (Ir.Array_store (arr, Ir.Var i, Ir.Var x, Ir.Kint));
          emit b (Ir.Binop (acc, Ir.Add, Ir.Var acc, Ir.Var x)));
      with_try b
        ~handler:(fun b -> emit b (Ir.Binop (acc, Ir.Sub, Ir.Var acc, Ir.Cint 1)))
        (fun b ->
          emit b (Ir.Call (Some x, Ir.Static "callee", [ Ir.Var acc; Ir.Var i ]));
          emit b (Ir.Bound_check (Ir.Var x, Ir.Cint 3, Ir.fresh_site ()));
          emit b (Ir.Binop (acc, Ir.Add, Ir.Var acc, Ir.Var x))));
  emit b (Ir.Print (Ir.Var acc));
  terminate b (Ir.Return (Some (Ir.Var acc)));
  with_callee (program ~main:"main" [ finish b ])

(* Every fuel limit, up to past the run's need, stops both engines at
   the same operation with the same counters: the call loop, and the
   try loop whose handlers run after a mid-block exception. *)
let test_fuel () =
  List.iter
    (fun (name, p) ->
      let r = (observe ~reference:true ~arch:ia32 p []).r in
      Alcotest.(check bool) (name ^ " runs to completion") true
        (r.counters.instrs > 40 && match r.outcome with Returned _ -> true | _ -> false);
      for fuel = 1 to r.counters.instrs + 2 do
        agree ~fuel ~arch:ia32 (Printf.sprintf "%s, fuel %d" name fuel) p []
      done)
    [ ("call loop", loop_program ()); ("try loop", try_program ()) ];
  let r = (observe ~reference:false ~arch:ia32 (try_program ()) []).r in
  Alcotest.(check int) "the try loop's handlers ran" 3
    (List.length
       (List.filter (function Interp.Ecaught _ -> true | _ -> false) r.trace))

(* The same Get_field/Put_field operation sees objects whose slot for
   one offset differs (appended in different orders), and an object
   that gains the slot through that very Put_field. *)
let test_slot_memo () =
  let open Builder in
  let fld_c = { Ir.fname = "c"; foffset = 32; fkind = Ir.Kint } in
  let get =
    let b = create ~name:"get" ~params:[ "o" ] () in
    let d = fresh b in
    emit b (Ir.Get_field (d, 0, fld_b));
    emit b (Ir.Print (Ir.Var d));
    terminate b (Ir.Return (Some (Ir.Var d)));
    finish b
  and set =
    let b = create ~name:"set" ~params:[ "o"; "v" ] () in
    emit b (Ir.Put_field (0, fld_b, Ir.Var 1));
    terminate b (Ir.Return None);
    finish b
  in
  let b = create ~name:"main" ~params:[] () in
  let o1 = fresh b and o2 = fresh b and o3 = fresh b and o4 = fresh b
  and r = fresh b in
  List.iter (fun o -> emit b (Ir.New_object (o, "Cell"))) [ o1; o2; o3; o4 ];
  (* o1: slots a, b, c; o2: slots a, c, b *)
  emit b (Ir.Put_field (o1, fld_b, Ir.Cint 1));
  emit b (Ir.Put_field (o1, fld_c, Ir.Cint 2));
  emit b (Ir.Put_field (o2, fld_c, Ir.Cint 3));
  emit b (Ir.Put_field (o2, fld_b, Ir.Cint 4));
  let call f args = emit b (Ir.Call (None, Ir.Static f, args)) in
  List.iter (fun o -> call "get" [ Ir.Var o ]) [ o1; o2; o1; o2 ];
  (* set through one operation: across layouts, then appending *)
  call "set" [ Ir.Var o2; Ir.Cint 40 ];
  call "set" [ Ir.Var o1; Ir.Cint 10 ];
  call "set" [ Ir.Var o3; Ir.Cint 30 ];
  call "set" [ Ir.Var o4; Ir.Cint 50 ];
  call "set" [ Ir.Var o3; Ir.Cint 31 ];
  List.iter (fun o -> call "get" [ Ir.Var o ]) [ o1; o2; o3; o4 ];
  emit b (Ir.Get_field (r, o2, fld_c));
  terminate b (Ir.Return (Some (Ir.Var r)));
  let p =
    program ~classes:[ cell_cls ] ~main:"main" [ finish b; get; set ]
  in
  agree ~arch:ia32 "slot memo" p [];
  let prints = (observe ~reference:false ~arch:ia32 p []).r.trace in
  Alcotest.(check (list string))
    "values read through one operation"
    [ "1"; "4"; "1"; "4"; "10"; "40"; "31"; "50" ]
    (List.map (function Interp.Eprint s -> s | Interp.Ecaught _ -> "caught") prints)

let test_arch_bound () =
  let p = loop_program () in
  let code = Hashtbl.create 4 in
  let dispatch n =
    match Hashtbl.find_opt code n with
    | Some d -> (d, 0)
    | None ->
      let d = Interp.decode ~arch:ia32 (Ir.find_func p n) in
      Hashtbl.add code n d;
      (d, 0)
  in
  (match (Interp.run ~dispatch ~arch:ia32 p []).outcome with
  | Interp.Returned _ -> ()
  | o -> Alcotest.failf "same arch: %a" Interp.pp_outcome o);
  List.iter
    (fun arch ->
      match Interp.run ~dispatch ~arch p [] with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "code decoded for %s ran under %s" ia32.Arch.name
          arch.Arch.name)
    [ aix; Arch.sparc; Arch.no_trap ];
  (* the reference loop executes the IR and charges the run's arch *)
  agree ~arch:aix "reference under another arch" p []

let () =
  Alcotest.run "decode"
    [
      ( "oracle",
        [
          Alcotest.test_case "registry x configs x tier 0/2" `Quick test_registry;
          Alcotest.test_case "synchronous tiered manager" `Quick test_tiered_manager;
          Alcotest.test_case "generated programs" `Quick test_generated;
          Alcotest.test_case "ill-typed operand grid" `Quick test_operand_grid;
          Alcotest.test_case "every fuel limit" `Quick test_fuel;
          Alcotest.test_case "slot memo across layouts" `Quick test_slot_memo;
        ] );
      ("arch", [ Alcotest.test_case "decoded code is tied to its arch" `Quick test_arch_bound ]);
    ]
