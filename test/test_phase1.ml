(** Tests for the architecture-independent optimization (paper §4.1),
    including direct encodings of Figures 3 and 4. *)

open Nullelim
module H = Helpers

let check_int = Alcotest.(check int)

(* Figure 3: a partially redundant check at a merge point becomes a single
   check before the branch. *)
let diamond () =
  let open Builder in
  let b = create ~name:"diamond" ~params:[ "a"; "c" ] () in
  let a = param b 0 and c = param b 1 in
  let x = fresh ~name:"x" b in
  if_then b (Ir.Ne, Ir.Var c, Ir.Cint 0)
    ~then_:(fun b -> getfield b ~dst:x ~obj:a H.fld_x)
    ~else_:(fun b -> emit b (Move (x, Cint 1)))
    ();
  let y = fresh ~name:"y" b in
  getfield b ~dst:y ~obj:a H.fld_x;
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  H.program_of [ finish b ] "diamond"

let test_diamond_counts () =
  let p = diamond () in
  let f = Ir.find_func p "diamond" in
  check_int "raw checks" 2 (Ir.count_checks f);
  let eliminated, inserted = Phase1.run f in
  check_int "eliminated" 2 eliminated;
  check_int "inserted" 1 inserted;
  check_int "one check remains" 1 (Ir.count_checks f);
  (* the surviving check sits in the entry block *)
  let entry_checks =
    Array.fold_left
      (fun n i -> match i with Ir.Null_check _ -> n + 1 | _ -> n)
      0 (Ir.block f 0).instrs
  in
  check_int "check in entry block" 1 entry_checks

let test_diamond_semantics () =
  H.assert_equiv (diamond ())
    [
      [ H.new_point ~x:7 (); H.vint 1 ];
      [ H.new_point ~x:7 (); H.vint 0 ];
      [ H.vnull; H.vint 1 ];
      [ H.vnull; H.vint 0 ];
    ]

(* Figure 4: a loop-invariant null check moves out of the loop. *)
let loop_invariant () =
  let open Builder in
  let b = create ~name:"loopinv" ~params:[ "a"; "n" ] () in
  let a = param b 0 and n = param b 1 in
  let sum = fresh ~name:"sum" b and i = fresh ~name:"i" b in
  let t = fresh ~name:"t" b in
  emit b (Move (sum, Cint 0));
  count_do b ~v:i ~from:(Cint 0) ~limit:(Var n) (fun b ->
      getfield b ~dst:t ~obj:a H.fld_x;
      emit b (Binop (sum, Add, Var sum, Var t)));
  terminate b (Return (Some (Var sum)));
  H.program_of [ finish b ] "loopinv"

let test_loop_hoist () =
  let p = loop_invariant () in
  let f = Ir.find_func p "loopinv" in
  check_int "raw: check inside loop" 1 (H.checks_in_loops p "loopinv");
  ignore (Phase1.run f);
  check_int "after: no check inside loop" 0 (H.checks_in_loops p "loopinv");
  check_int "after: exactly one check total" 1 (Ir.count_checks f)

let test_loop_semantics () =
  H.assert_equiv (loop_invariant ())
    [
      [ H.new_point ~x:3 (); H.vint 10 ];
      [ H.vnull; H.vint 10 ];
      [ H.new_point ~x:1 (); H.vint 0 ] (* bottom-tested: runs once *);
    ]

(* A memory write (field store to another object) inside the loop is a
   barrier: the check placed after it cannot leave the loop (Figure 6's
   "barrier of null check"), while a check before it can. *)
let barrier_loop () =
  let open Builder in
  let b = create ~name:"barrier" ~params:[ "a"; "b"; "n" ] () in
  let a = param b 0 and bb = param b 1 and n = param b 2 in
  let i = fresh ~name:"i" b and t = fresh ~name:"t" b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Var n) (fun b ->
      getfield b ~dst:t ~obj:a H.fld_x;
      putfield b ~obj:a H.fld_y (Var t);
      (* store above is a barrier *)
      getfield b ~dst:t ~obj:bb H.fld_x);
  terminate b (Return (Some (Var t)));
  H.program_of [ finish b ] "barrier"

let test_barrier () =
  let p = barrier_loop () in
  let f = Ir.find_func p "barrier" in
  ignore (Phase1.run f);
  (* the check of [bb] comes after the putfield barrier, so it must stay in
     the loop; checks of [a] (both before the store) hoist *)
  check_int "exactly one check left in loop" 1 (H.checks_in_loops p "barrier")

let test_barrier_semantics () =
  H.assert_equiv (barrier_loop ())
    [
      [ H.new_point (); H.new_point ~x:5 (); H.vint 4 ];
      [ H.vnull; H.new_point (); H.vint 4 ];
      [ H.new_point (); H.vnull; H.vint 4 ];
    ]

(* Try regions: a check inside a try region must not move out of it, and
   the NPE must still reach the handler. *)
let try_region () =
  let open Builder in
  let b = create ~name:"tryreg" ~params:[ "a" ] () in
  let a = param b 0 in
  let r = fresh ~name:"r" b in
  emit b (Move (r, Cint (-1)));
  with_try b
    ~handler:(fun b -> emit b (Move (r, Cint 99)))
    (fun b -> getfield b ~dst:r ~obj:a H.fld_x);
  terminate b (Return (Some (Var r)));
  H.program_of [ finish b ] "tryreg"

let test_try_region () =
  let p = try_region () in
  let f = Ir.find_func p "tryreg" in
  ignore (Phase1.run f);
  (* the check must remain inside the try region *)
  let ok = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      Array.iter
        (fun i ->
          match i with
          | Ir.Null_check _ when blk.breg <> Ir.no_region -> ok := true
          | Ir.Null_check _ ->
            Alcotest.fail "check escaped the try region"
          | _ -> ())
        blk.instrs)
    f.fn_blocks;
  Alcotest.(check bool) "check still in region" true !ok;
  (* NPE is caught: result is 99 for null input *)
  let r = H.run p [ H.vnull ] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 99)) -> ()
  | o -> Alcotest.failf "expected 99, got %a" Interp.pp_outcome o);
  H.assert_equiv p [ [ H.vnull ]; [ H.new_point ~x:3 () ] ]

(* Phase 1 must be idempotent: a second run changes nothing. *)
let test_idempotent () =
  List.iter
    (fun prog ->
      let p = prog () in
      Ir.iter_funcs (fun f -> ignore (Phase1.run f)) p;
      let snapshot = Fmt.str "%a" Ir_pp.pp_program p in
      Ir.iter_funcs
        (fun f ->
          let eliminated, inserted = Phase1.run f in
          (* a re-run may swap an existing check for an inserted one but
             must not grow the program *)
          check_int "no net growth" eliminated inserted)
        p;
      let again = Fmt.str "%a" Ir_pp.pp_program p in
      Alcotest.(check string) "stable" snapshot again)
    [ diamond; loop_invariant; barrier_loop; try_region ]

(* Checks of distinct variables do not interfere. *)
let test_independent_vars () =
  let open Builder in
  let b = create ~name:"indep" ~params:[ "a"; "b" ] () in
  let x = fresh b and y = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  getfield b ~dst:y ~obj:(param b 1) H.fld_x;
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "indep" in
  let f = Ir.find_func p "indep" in
  ignore (Phase1.run f);
  check_int "both checks survive" 2 (Ir.count_checks f);
  H.assert_equiv p
    [
      [ H.new_point (); H.new_point () ];
      [ H.vnull; H.new_point () ];
      [ H.new_point (); H.vnull ];
    ]

(* Redefinition of the checked variable kills motion and facts. *)
let test_redefinition () =
  let open Builder in
  let b = create ~name:"redef" ~params:[ "a"; "b" ] () in
  let a = param b 0 in
  let x = fresh b in
  getfield b ~dst:x ~obj:a H.fld_x;
  emit b (Move (a, Var (param b 1)));
  getfield b ~dst:x ~obj:a H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "redef" in
  let f = Ir.find_func p "redef" in
  ignore (Phase1.run f);
  check_int "both checks survive redefinition" 2 (Ir.count_checks f);
  H.assert_equiv p
    [
      [ H.new_point (); H.new_point () ];
      [ H.new_point (); H.vnull ];
      [ H.vnull; H.new_point () ];
    ]

(* A new object needs no check. *)
let test_new_gen () =
  let open Builder in
  let b = create ~name:"newgen" ~params:[] () in
  let o = fresh b and x = fresh b in
  emit b (New_object (o, "Point"));
  getfield b ~dst:x ~obj:o H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "newgen" in
  let f = Ir.find_func p "newgen" in
  ignore (Phase1.run f);
  check_int "check of fresh allocation removed" 0 (Ir.count_checks f)

(* The non-null edge of an ifnull branch proves the variable. *)
let test_ifnull_edge () =
  let open Builder in
  let b = create ~name:"ifn" ~params:[ "a" ] () in
  let a = param b 0 in
  let x = fresh b in
  emit b (Move (x, Cint 0));
  if_null b a
    ~null:(fun b -> emit b (Move (x, Cint (-1))))
    ~nonnull:(fun b -> getfield b ~dst:x ~obj:a H.fld_x);
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "ifn" in
  let f = Ir.find_func p "ifn" in
  ignore (Phase1.run f);
  check_int "check removed via edge fact" 0 (Ir.count_checks f);
  H.assert_equiv p [ [ H.vnull ]; [ H.new_point ~x:4 () ] ]

(* 'this' is non-null inside an instance method. *)
let test_this_nonnull () =
  let open Builder in
  let b = create ~name:"m" ~is_method:true ~params:[ "this" ] () in
  let x = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "m" in
  let f = Ir.find_func p "m" in
  ignore (Phase1.run f);
  check_int "this needs no check" 0 (Ir.count_checks f)

(* The program QCHECK_SEED=28 draws for "phase1 idempotent".  [B3]
   checks [a], then sets [a = null] and enters the loop [B7], whose
   header checks the new [a].  [B3]'s predecessors anticipate a check of
   the old [a], which once hid [B3]'s exit as the insertion point: the
   first run left the check in the loop and only a second run hoisted
   it.  Earliest now includes the checks a block kills. *)
let kill_then_loop () =
  let open Ir in
  let a = 0 and b = 1 and arr = 2 and n = 3 in
  let t0 = 4 and t1 = 5 and t2 = 6 and r = 7 in
  let v8 = 8 and v9 = 9 and v10 = 10 and v11 = 11 in
  let check v s = Null_check (Explicit, v, s) in
  let block instrs term = { instrs = Array.of_list instrs; term; breg = no_region } in
  let blocks =
    [|
      block
        [ Move (t0, Cint 0); Move (t1, Cint 1); Move (t2, Cint 2);
          Move (r, Var a); check arr 536; Array_length (v8, arr);
          Bound_check (Var t0, Var v8, 537);
          Array_load (t0, arr, Var t0, Kint) ]
        (If (Lt, Var n, Var t2, 1, 2));
      block
        [ check arr 538; Array_length (v9, arr);
          Bound_check (Var t1, Var v9, 539);
          Array_store (arr, Var t1, Cint 9, Kint) ]
        (If (Lt, Var n, Var t0, 4, 5));
      block [] (Goto 3);
      block
        [ check b 540; check a 541; Get_field (n, a, H.fld_x); Move (a, Cnull);
          Binop (n, Add, Var t1, Var t1); Move (v10, Cint 0) ]
        (Goto 7);
      block [] (Goto 6);
      block [ New_object (a, "Point"); Binop (t1, Add, Var n, Var t0) ] (Goto 6);
      block [] (Goto 3);
      block
        [ check a 542; Put_field (a, H.fld_x, Cint 0);
          Binop (n, Bxor, Var n, Var t1); check arr 543;
          Array_length (v11, arr); Bound_check (Var t0, Var v11, 544);
          Array_load (n, arr, Var t0, Kint); Print (Var n);
          Binop (v10, Add, Var v10, Cint 1) ]
        (If (Lt, Var v10, Cint 3, 7, 8));
      block
        [ Binop (t0, Bxor, Cint (-3), Var t0); check r 545;
          Put_field (r, H.fld_y, Cint (-3)); Binop (t0, Sub, Var t1, Var t2) ]
        (Return (Some (Var n)));
    |]
  in
  let names = Hashtbl.create 8 in
  List.iteri (fun v s -> Hashtbl.replace names v s)
    [ "a"; "b"; "arr"; "n"; "t0"; "t1"; "t2"; "r" ];
  H.program_of
    [ { fn_name = "f"; fn_nparams = 4; fn_is_method = false; fn_nvars = 12;
        fn_blocks = blocks; fn_handlers = []; fn_var_names = names } ]
    "f"

let test_kill_then_loop () =
  let p = kill_then_loop () in
  let f = Ir.find_func p "f" in
  ignore (Phase1.run f);
  check_int "one run: no check inside the loop" 0 (H.checks_in_loops p "f");
  let once = Fmt.str "%a" Ir_pp.pp_program p in
  ignore (Phase1.run f);
  Alcotest.(check string) "a second run changes nothing" once
    (Fmt.str "%a" Ir_pp.pp_program p)

let () =
  Alcotest.run "phase1"
    [
      ( "figures",
        [
          Alcotest.test_case "figure3 diamond counts" `Quick test_diamond_counts;
          Alcotest.test_case "figure3 diamond semantics" `Quick
            test_diamond_semantics;
          Alcotest.test_case "figure4 loop hoist" `Quick test_loop_hoist;
          Alcotest.test_case "figure4 loop semantics" `Quick test_loop_semantics;
          Alcotest.test_case "figure6 barrier" `Quick test_barrier;
          Alcotest.test_case "figure6 barrier semantics" `Quick
            test_barrier_semantics;
          Alcotest.test_case "figure4 hoist past a kill" `Quick
            test_kill_then_loop;
        ] );
      ( "precise-exceptions",
        [
          Alcotest.test_case "try region confinement" `Quick test_try_region;
          Alcotest.test_case "redefinition kills" `Quick test_redefinition;
        ] );
      ( "facts",
        [
          Alcotest.test_case "independent variables" `Quick
            test_independent_vars;
          Alcotest.test_case "new generates non-null" `Quick test_new_gen;
          Alcotest.test_case "ifnull edge fact" `Quick test_ifnull_edge;
          Alcotest.test_case "this non-null" `Quick test_this_nonnull;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
        ] );
    ]
