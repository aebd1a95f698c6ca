(** Unit tests for the simulating interpreter: trap semantics per
    architecture, exception dispatch, cost accounting, the soundness
    counters, and the observable-equivalence relation. *)

open Nullelim
module H = Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ia32 = Arch.ia32_windows
let aix = Arch.ppc_aix
let no_trap = Arch.no_trap

(* a bare dereference with no check: the hardware is the only guard *)
let bare_read fld =
  let open Builder in
  let b = create ~name:"m" ~params:[ "a" ] () in
  let x = fresh b in
  emit b (Get_field (x, param b 0, fld));
  terminate b (Return (Some (Var x)));
  H.program_of [ finish b ] "m"

let bare_write fld =
  let open Builder in
  let b = create ~name:"m" ~params:[ "a" ] () in
  emit b (Put_field (param b 0, fld, Cint 1));
  terminate b (Return (Some (Cint 0)));
  H.program_of [ finish b ] "m"

let outcome ~arch p args = (Interp.run ~arch p args).Interp.outcome

let test_trap_read_ia32 () =
  match outcome ~arch:ia32 (bare_read H.fld_x) [ H.vnull ] with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "expected trap NPE, got %a" Interp.pp_outcome o

let test_trap_read_aix_silent () =
  (* AIX does not trap reads of the first page: garbage is returned *)
  let r = Interp.run ~arch:aix (bare_read H.fld_x) [ H.vnull ] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 0)) -> ()
  | o -> Alcotest.failf "expected silent zero read, got %a" Interp.pp_outcome o);
  check_int "counted as speculative null read" 1
    r.Interp.counters.Interp.spec_null_reads

let test_trap_write_aix () =
  match outcome ~arch:aix (bare_write H.fld_x) [ H.vnull ] with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "AIX write must trap: %a" Interp.pp_outcome o

let test_trap_big_offset_silent () =
  (* beyond the protected page nothing traps even on IA32 *)
  let r = Interp.run ~arch:ia32 (bare_read H.fld_big) [ H.vnull ] in
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 0)) -> ()
  | o -> Alcotest.failf "big offset should not trap: %a" Interp.pp_outcome o

let test_no_trap_arch () =
  let r = Interp.run ~arch:no_trap (bare_read H.fld_x) [ H.vnull ] in
  match r.Interp.outcome with
  | Interp.Returned _ -> ()
  | o -> Alcotest.failf "no-trap arch trapped: %a" Interp.pp_outcome o

let test_implicit_miss_counter () =
  (* an implicit check whose access does not trap is a soundness
     violation the interpreter must count *)
  let open Builder in
  let b = create ~name:"m" ~params:[ "a" ] () in
  let x = fresh b in
  emit b (Null_check (Implicit, param b 0, Ir.fresh_site ()));
  emit b (Get_field (x, param b 0, H.fld_x));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "m" in
  let r = Interp.run ~arch:aix p [ H.vnull ] in
  check_int "implicit miss recorded" 1 r.Interp.counters.Interp.implicit_miss;
  (* on IA32 the same program traps properly *)
  let r2 = Interp.run ~arch:ia32 p [ H.vnull ] in
  (match r2.Interp.outcome with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "%a" Interp.pp_outcome o);
  check_int "and counts a trap NPE" 1 r2.Interp.counters.Interp.npe_trap

let test_explicit_check_cost () =
  let open Builder in
  let prog n =
    let b = create ~name:"m" ~params:[ "a" ] () in
    for _ = 1 to n do
      emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()))
    done;
    terminate b (Return (Some (Cint 0)));
    H.program_of [ finish b ] "m"
  in
  let cycles arch n =
    (Interp.run ~arch (prog n) [ H.new_point () ]).Interp.counters.Interp.cycles
  in
  (* IA32 explicit check: 2 cycles; PowerPC conditional trap: 1 cycle *)
  check_int "ia32 delta" (10 * ia32.Arch.cost.Arch.c_explicit_check)
    (cycles ia32 11 - cycles ia32 1);
  check_int "ppc delta" (10 * aix.Arch.cost.Arch.c_explicit_check)
    (cycles aix 11 - cycles aix 1);
  check_bool "ppc checks are cheaper" true
    (aix.Arch.cost.Arch.c_explicit_check < ia32.Arch.cost.Arch.c_explicit_check)

let test_division_by_zero () =
  let open Builder in
  let b = create ~name:"m" ~params:[ "n" ] () in
  let x = fresh b in
  emit b (Binop (x, Div, Cint 10, Var (param b 0)));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "m" in
  (match outcome ~arch:ia32 p [ H.vint 0 ] with
  | Interp.Uncaught Ir.Arith -> ()
  | o -> Alcotest.failf "%a" Interp.pp_outcome o);
  match outcome ~arch:ia32 p [ H.vint 2 ] with
  | Interp.Returned (Some (Value.Vint 5)) -> ()
  | o -> Alcotest.failf "%a" Interp.pp_outcome o

let test_exception_unwinds_calls () =
  let open Builder in
  let callee =
    let b = create ~name:"boom" ~params:[ "a" ] () in
    let x = fresh b in
    getfield b ~dst:x ~obj:(param b 0) H.fld_x;
    terminate b (Return (Some (Var x)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[ "a" ] () in
    let r = fresh b in
    emit b (Move (r, Cint (-1)));
    with_try b
      ~handler:(fun b -> emit b (Move (r, Cint 7)))
      (fun b -> scall b ~dst:r "boom" [ Var (param b 0) ]);
    terminate b (Return (Some (Var r)));
    finish b
  in
  let p = H.program_of [ main; callee ] "main" in
  let r = Interp.run ~arch:ia32 p [ H.vnull ] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 7)) -> ()
  | o -> Alcotest.failf "exception did not unwind to handler: %a"
           Interp.pp_outcome o);
  (* the catch event is in the trace *)
  check_bool "caught event traced" true
    (List.exists
       (function Interp.Ecaught Ir.Npe -> true | _ -> false)
       r.Interp.trace)

let test_unchecked_oob_is_sim_error () =
  (* an array access whose bound check was (incorrectly) removed must be
     flagged as a simulation error, not silently executed *)
  let open Builder in
  let b = create ~name:"m" ~params:[ "arr" ] () in
  let x = fresh b in
  emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()));
  emit b (Array_load (x, param b 0, Cint 99, Ir.Kint));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "m" in
  let arr = Value.Vref (Value.Arr (Value.new_array Ir.Kint 4)) in
  match outcome ~arch:ia32 p [ arr ] with
  | Interp.Sim_error _ -> ()
  | o -> Alcotest.failf "unchecked OOB not flagged: %a" Interp.pp_outcome o

let test_undef_read_is_sim_error () =
  let open Builder in
  let b = create ~name:"m" ~params:[] () in
  let x = fresh b and y = fresh b in
  if_then b (Ir.Lt, Cint 0, Cint 1)
    ~then_:(fun b -> emit b (Move (x, Cint 1)))
    ();
  emit b (Binop (y, Add, Var x, Cint 1));
  terminate b (Return (Some (Var y)));
  (* x defined only on one path... but then_ is always taken; use the
     never-taken arm instead *)
  let p =
    let b2 = create ~name:"m" ~params:[] () in
    let x2 = fresh b2 and y2 = fresh b2 in
    if_then b2 (Ir.Lt, Cint 1, Cint 0)
      ~then_:(fun b2 -> emit b2 (Move (x2, Cint 1)))
      ();
    emit b2 (Binop (y2, Add, Var x2, Cint 1));
    terminate b2 (Return (Some (Var y2)));
    H.program_of [ finish b2 ] "m"
  in
  ignore (finish b);
  match outcome ~arch:ia32 p [] with
  | Interp.Sim_error _ -> ()
  | o -> Alcotest.failf "undef read not flagged: %a" Interp.pp_outcome o

let test_fuel_limit () =
  let open Builder in
  let b = create ~name:"m" ~params:[] () in
  let i = fresh b in
  emit b (Move (i, Cint 0));
  emit b (Print (Cint 42));
  do_while b
    ~body:(fun b -> emit b (Print (Cint 1)))
    ~cond:(fun _ -> (Ir.Eq, Ir.Cint 0, Ir.Cint 0))
    ();
  terminate b (Return None);
  let p = H.program_of [ finish b ] "m" in
  let r = Interp.run ~fuel:1000 ~arch:ia32 p [] in
  (match r.Interp.outcome with
  | Interp.Sim_error "out of fuel" -> ()
  | o -> Alcotest.failf "%a" Interp.pp_outcome o);
  check_int "fuel spent exactly" 1000 r.Interp.counters.Interp.instrs;
  (* the prints before exhaustion stay in the trace, in order *)
  match r.Interp.trace with
  | Interp.Eprint "42" :: (_ :: _ as loop) ->
    check_bool "loop prints" true
      (List.for_all (function Interp.Eprint "1" -> true | _ -> false) loop)
  | _ -> Alcotest.fail "prints before fuel exhaustion lost"

(* [down n] recurses [n] frames deep *)
let down_program () =
  let open Builder in
  let down =
    let b = create ~name:"down" ~params:[ "n" ] () in
    let m = fresh b and r = fresh b in
    if_then b (Ir.Le, Var (param b 0), Cint 0)
      ~then_:(fun b -> terminate b (Return (Some (Cint 0))))
      ();
    emit b (Binop (m, Sub, Var (param b 0), Cint 1));
    scall b ~dst:r "down" [ Var m ];
    emit b (Binop (r, Add, Var r, Cint 1));
    terminate b (Return (Some (Var r)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[ "n" ] () in
    let r = fresh b in
    scall b ~dst:r "down" [ Var (param b 0) ];
    terminate b (Return (Some (Var r)));
    finish b
  in
  H.program_of [ main; down ] "main"

let test_deep_recursion_fails () =
  let p = down_program () in
  (match outcome ~arch:ia32 p [ H.vint 1500 ] with
  | Interp.Returned (Some (Value.Vint 1500)) -> ()
  | o -> Alcotest.failf "1,500 frames: %a" Interp.pp_outcome o);
  match outcome ~arch:ia32 p [ H.vint 2500 ] with
  | Interp.Sim_error "call depth exceeded" -> ()
  | o -> Alcotest.failf "2,500 frames: %a" Interp.pp_outcome o

(* 3,000 throws out of a callee, each caught in the caller's loop: the
   unwound frames give their call depth back *)
let test_depth_restored_after_throw () =
  let open Builder in
  let thrower =
    let b = create ~name:"thrower" ~params:[] () in
    terminate b (Throw "E");
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[] () in
    let i = fresh b and n = fresh b in
    emit b (Move (n, Cint 0));
    count_do b ~v:i ~from:(Cint 0) ~limit:(Cint 3000) (fun b ->
        with_try b
          ~handler:(fun b -> emit b (Binop (n, Add, Var n, Cint 1)))
          (fun b -> scall b "thrower" []));
    terminate b (Return (Some (Var n)));
    finish b
  in
  let p = H.program_of [ main; thrower ] "main" in
  let r = Interp.run ~arch:ia32 p [] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 3000)) -> ()
  | o -> Alcotest.failf "expected 3000 caught throws: %a" Interp.pp_outcome o);
  if Native.available () then
    match Native.run_program ~arch:ia32 p with
    | Ok n ->
      check_bool "native agrees" true (Interp.equivalent n.Native.r_result r)
    | Error msg -> Alcotest.failf "native run failed: %s" msg

(* Point has no field at offset 40 *)
let ghost = { Ir.fname = "ghost"; foffset = 40; fkind = Ir.Kint }

let test_absent_field () =
  (match outcome ~arch:ia32 (bare_read ghost) [ H.new_point () ] with
  | Interp.Sim_error "field ghost missing from object" -> ()
  | o -> Alcotest.failf "absent field read: %a" Interp.pp_outcome o);
  (* a store to an absent offset adds the field; a read then sees it *)
  let open Builder in
  let b = create ~name:"m" ~params:[ "a" ] () in
  let x = fresh b in
  emit b (Put_field (param b 0, ghost, Cint 5));
  emit b (Get_field (x, param b 0, ghost));
  terminate b (Return (Some (Var x)));
  match outcome ~arch:ia32 (H.program_of [ finish b ] "m") [ H.new_point () ] with
  | Interp.Returned (Some (Value.Vint 5)) -> ()
  | o -> Alcotest.failf "absent field store: %a" Interp.pp_outcome o

let test_sparse_offsets_dense_slots () =
  (* fld_big sits at 512 KiB: the object still holds one slot per field *)
  let open Builder in
  let b = create ~name:"m" ~params:[] () in
  let o = fresh b and x = fresh b in
  emit b (New_object (o, "Point"));
  emit b (Put_field (o, H.fld_big, Cint 7));
  emit b (Get_field (x, o, H.fld_big));
  emit b (Print (Var x));
  terminate b (Return (Some (Var o)));
  let r = Interp.run ~arch:ia32 (H.program_of [ finish b ] "m") [] in
  check_bool "big field read back" true (r.Interp.trace = [ Interp.Eprint "7" ]);
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vref (Value.Obj obj))) ->
    check_int "one slot per field" 4 (Array.length obj.Value.o_slots)
  | o -> Alcotest.failf "%a" Interp.pp_outcome o

let test_deep_copy_aliasing () =
  let pt = H.new_point ~x:3 () in
  let arr = Value.new_array Ir.Kref 1 in
  arr.Value.a_elems.(0) <- pt;
  let x_of (o : Value.obj) =
    o.Value.o_slots.(Value.slot_of o H.fld_x.Ir.foffset)
  in
  match (pt, Value.deep_copy_all [ pt; pt; Value.Vref (Value.Arr arr) ]) with
  | ( Value.Vref (Value.Obj orig),
      [ Value.Vref (Value.Obj a); Value.Vref (Value.Obj b);
        Value.Vref (Value.Arr c) ] ) ->
    check_bool "passed twice, one copy" true (a == b);
    check_bool "reached through an array, same copy" true
      (match c.Value.a_elems.(0) with Value.Vref (Value.Obj o) -> o == a | _ -> false);
    check_bool "a copy, not the original" true (a != orig);
    Value.set_field a H.fld_x (Value.Vint 99);
    check_bool "copy mutated" true (x_of a = Value.Vint 99);
    check_bool "original unchanged" true (x_of orig = Value.Vint 3)
  | _ -> Alcotest.fail "deep copy changed the shape of its arguments"

let test_equivalence_relation () =
  let mk outcome trace = { Interp.outcome; trace; counters = Interp.new_counters () } in
  let ret n = Interp.Returned (Some (Value.Vint n)) in
  check_bool "same" true
    (Interp.equivalent (mk (ret 1) [ Eprint "1" ]) (mk (ret 1) [ Eprint "1" ]));
  check_bool "different value" false
    (Interp.equivalent (mk (ret 1) []) (mk (ret 2) []));
  check_bool "different trace" false
    (Interp.equivalent (mk (ret 1) [ Eprint "1" ]) (mk (ret 1) []));
  check_bool "npe kinds match" true
    (Interp.equivalent (mk (Interp.Uncaught Ir.Npe) []) (mk (Interp.Uncaught Ir.Npe) []));
  check_bool "npe vs oob differ" false
    (Interp.equivalent (mk (Interp.Uncaught Ir.Npe) []) (mk (Interp.Uncaught Ir.Oob) []))

let test_virtual_dispatch () =
  let open Builder in
  let base_m =
    let b = create ~name:"A.id" ~is_method:true ~params:[ "this" ] () in
    terminate b (Return (Some (Cint 1)));
    finish b
  in
  let sub_m =
    let b = create ~name:"B.id" ~is_method:true ~params:[ "this" ] () in
    terminate b (Return (Some (Cint 2)));
    finish b
  in
  let cls_a =
    { Ir.cname = "A"; csuper = None; cfields = []; cmethods = [ ("id", "A.id") ] }
  in
  let cls_b =
    { Ir.cname = "B"; csuper = Some "A"; cfields = [];
      cmethods = [ ("id", "B.id") ] }
  in
  let main =
    let b = create ~name:"main" ~params:[ "w" ] () in
    let o = fresh b and r1 = fresh b and r2 = fresh b in
    emit b (New_object (o, "A"));
    vcall b ~dst:r1 ~recv:o "id" [];
    emit b (New_object (o, "B"));
    vcall b ~dst:r2 ~recv:o "id" [];
    emit b (Binop (r1, Mul, Var r1, Cint 10));
    emit b (Binop (r1, Add, Var r1, Var r2));
    terminate b (Return (Some (Var r1)));
    finish b
  in
  let p =
    Builder.program ~classes:[ cls_a; cls_b ] ~main:"main" [ main; base_m; sub_m ]
  in
  Ir_validate.check_exn p;
  (match outcome ~arch:ia32 p [ H.vint 0 ] with
  | Interp.Returned (Some (Value.Vint 12)) -> ()
  | o -> Alcotest.failf "dispatch wrong: %a" Interp.pp_outcome o);
  (* two implementations: CHA must NOT devirtualize *)
  check_int "not devirtualized" 0 (Inline.devirtualize p)

let () =
  Alcotest.run "interp"
    [
      ( "traps",
        [
          Alcotest.test_case "ia32 read traps" `Quick test_trap_read_ia32;
          Alcotest.test_case "aix read silent" `Quick test_trap_read_aix_silent;
          Alcotest.test_case "aix write traps" `Quick test_trap_write_aix;
          Alcotest.test_case "big offset silent" `Quick
            test_trap_big_offset_silent;
          Alcotest.test_case "no-trap arch" `Quick test_no_trap_arch;
          Alcotest.test_case "implicit miss counter" `Quick
            test_implicit_miss_counter;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "explicit check cost per arch" `Quick
            test_explicit_check_cost;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "exceptions unwind calls" `Quick
            test_exception_unwinds_calls;
          Alcotest.test_case "virtual dispatch + CHA" `Quick
            test_virtual_dispatch;
          Alcotest.test_case "call depth restored after throws" `Quick
            test_depth_restored_after_throw;
          Alcotest.test_case "deep recursion fails" `Quick
            test_deep_recursion_fails;
          Alcotest.test_case "absent field" `Quick test_absent_field;
          Alcotest.test_case "sparse offsets, dense slots" `Quick
            test_sparse_offsets_dense_slots;
          Alcotest.test_case "deep copy keeps aliasing" `Quick
            test_deep_copy_aliasing;
        ] );
      ( "safety-nets",
        [
          Alcotest.test_case "unchecked OOB flagged" `Quick
            test_unchecked_oob_is_sim_error;
          Alcotest.test_case "undef read flagged" `Quick
            test_undef_read_is_sim_error;
          Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
        ] );
      ( "equivalence",
        [ Alcotest.test_case "relation basics" `Quick test_equivalence_relation ]
      );
    ]
