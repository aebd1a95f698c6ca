(** Unit tests for the auxiliary optimization passes: Whaley baseline,
    naive trap conversion, bound-check optimization, scalar replacement,
    inlining/devirtualization, copy propagation, DCE, CFG simplification
    and the back end. *)

open Nullelim
module H = Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ia32 = Arch.ia32_windows
let aix = Arch.ppc_aix

(* ------------------------------------------------------------------ *)
(* Whaley baseline                                                     *)
(* ------------------------------------------------------------------ *)

let test_whaley_redundant () =
  let open Builder in
  let b = create ~name:"w" ~params:[ "a" ] () in
  let x = fresh b and y = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  getfield b ~dst:y ~obj:(param b 0) H.fld_y;
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "w" in
  let removed = Whaley.run (Ir.find_func p "w") in
  check_int "second check removed" 1 removed;
  check_int "one check left" 1 (H.checks p "w")

let test_whaley_no_loop_hoist () =
  (* the paper's criticism: forward analysis cannot remove the check of a
     first-access-inside-loop *)
  let open Builder in
  let b = create ~name:"w2" ~params:[ "a"; "n" ] () in
  let i = fresh b and t = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Var (param b 1)) (fun b ->
      getfield b ~dst:t ~obj:(param b 0) H.fld_x);
  terminate b (Return (Some (Var t)));
  let p = H.program_of [ finish b ] "w2" in
  ignore (Whaley.run (Ir.find_func p "w2"));
  check_int "check stays in loop under whaley" 1 (H.checks_in_loops p "w2");
  (* whereas phase 1 moves it out *)
  let p2 = H.program_of [ finish (let b2 = create ~name:"w2" ~params:[ "a"; "n" ] () in
    let i = fresh b2 and t = fresh b2 in
    count_do b2 ~v:i ~from:(Cint 0) ~limit:(Var (param b2 1)) (fun b2 ->
        getfield b2 ~dst:t ~obj:(param b2 0) H.fld_x);
    terminate b2 (Return (Some (Var t)));
    b2) ] "w2"
  in
  ignore (Phase1.run (Ir.find_func p2 "w2"));
  check_int "phase1 hoists it" 0 (H.checks_in_loops p2 "w2")

(* ------------------------------------------------------------------ *)
(* Naive trap conversion                                               *)
(* ------------------------------------------------------------------ *)

let test_naive_adjacent () =
  let open Builder in
  let b = create ~name:"nt" ~params:[ "a" ] () in
  let x = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "nt" in
  let n = Naive_trap.run ~arch:ia32 (Ir.find_func p "nt") in
  check_int "converted" 1 n;
  check_int "implicit" 1 (H.checks ~kind:Ir.Implicit p "nt");
  Alcotest.(check int) "verifies" 0
    (List.length (Verify.verify_program ~arch:ia32 p))

let test_naive_blocked_by_barrier () =
  let open Builder in
  let b = create ~name:"nt2" ~params:[ "a" ] () in
  let x = fresh b in
  emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()));
  emit b (Print (Cint 1));
  emit b (Get_field (x, param b 0, H.fld_x));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "nt2" in
  let n = Naive_trap.run ~arch:ia32 (Ir.find_func p "nt2") in
  check_int "not converted across a print" 0 n

let test_naive_respects_arch () =
  let open Builder in
  let b = create ~name:"nt3" ~params:[ "a" ] () in
  let x = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "nt3" in
  (* reads do not trap on AIX *)
  check_int "aix read: no conversion" 0
    (Naive_trap.run ~arch:aix (Ir.find_func p "nt3"));
  let p2 = H.program_of [ finish (
    let b = create ~name:"nt3" ~params:[ "a" ] () in
    putfield b ~obj:(param b 0) H.fld_x (Cint 1);
    terminate b (Return None); b) ] "nt3"
  in
  check_int "aix write: converted" 1
    (Naive_trap.run ~arch:aix (Ir.find_func p2 "nt3"))

(* ------------------------------------------------------------------ *)
(* Bound-check optimization                                            *)
(* ------------------------------------------------------------------ *)

let test_boundcheck_redundant () =
  let open Builder in
  let b = create ~name:"bc" ~params:[ "arr"; "i" ] () in
  let x = fresh b and y = fresh b in
  aload b ~kind:Ir.Kint ~dst:x ~arr:(param b 0) (Var (param b 1));
  aload b ~kind:Ir.Kint ~dst:y ~arr:(param b 0) (Var (param b 1));
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "bc" in
  let f = Ir.find_func p "bc" in
  (* the two bound checks use different length temps; scalar replacement
     + copyprop canonicalize them first *)
  ignore (Scalar_repl.run ~arch:ia32 f);
  ignore (Copyprop.run f);
  let removed, _ = Boundcheck.run f in
  check_bool "a redundant bound check was removed" true (removed >= 1)

let test_boundcheck_hoist () =
  (* row bound check with invariant operands hoists out of the inner loop *)
  let open Builder in
  let b = create ~name:"bch" ~params:[ "arr"; "k"; "n" ] () in
  let arr = param b 0 and k = param b 1 and n = param b 2 in
  let j = fresh b and t = fresh b and sum = fresh b in
  emit b (Move (sum, Cint 0));
  count_do b ~v:j ~from:(Cint 0) ~limit:(Var n) (fun b ->
      aload b ~kind:Ir.Kint ~dst:t ~arr (Var k);
      emit b (Binop (sum, Add, Var sum, Var t)));
  terminate b (Return (Some (Var sum)));
  let p = H.program_of [ finish b ] "bch" in
  let f = Ir.find_func p "bch" in
  (* run the iterated pipeline by hand *)
  for _ = 1 to 3 do
    ignore (Phase1.run f);
    ignore (Boundcheck.run f);
    ignore (Scalar_repl.run ~arch:ia32 f);
    ignore (Copyprop.run f);
    ignore (Dce.run f)
  done;
  (* nothing checkable should remain in the loop *)
  let cfg = Cfg.make f in
  let dom = Dominance.compute cfg in
  let loops = Loops.detect cfg dom in
  let in_loop_bound_checks = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun m ->
          Array.iter
            (fun i ->
              match i with
              | Ir.Bound_check _ -> incr in_loop_bound_checks
              | _ -> ())
            (Ir.block f m).instrs)
        (Loops.members l))
    loops;
  check_int "bound check left the loop" 0 !in_loop_bound_checks;
  (* behaviour preserved, including the out-of-bounds path *)
  let arr6 = Value.Vref (Value.Arr (Value.new_array Ir.Kint 6)) in
  List.iter
    (fun args ->
      let r = H.run p args in
      match (r.Interp.outcome, args) with
      | Interp.Returned _, _ -> ()
      | Interp.Uncaught Ir.Oob, _ -> ()
      | o, _ -> Alcotest.failf "unexpected %a" Interp.pp_outcome o)
    [ [ arr6; H.vint 2; H.vint 5 ]; [ arr6; H.vint 9; H.vint 5 ] ]

(* ------------------------------------------------------------------ *)
(* Scalar replacement                                                  *)
(* ------------------------------------------------------------------ *)

let test_scalar_redundant_load () =
  let open Builder in
  let b = create ~name:"sr" ~params:[ "a" ] () in
  let x = fresh b and y = fresh b in
  emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()));
  emit b (Get_field (x, param b 0, H.fld_x));
  emit b (Get_field (y, param b 0, H.fld_x));
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "sr" in
  let stats = Scalar_repl.run ~arch:ia32 (Ir.find_func p "sr") in
  check_int "second load replaced" 1 stats.Scalar_repl.replaced

let test_scalar_store_forward_kill () =
  let open Builder in
  let b = create ~name:"sr2" ~params:[ "a"; "b" ] () in
  let x = fresh b and y = fresh b in
  emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()));
  emit b (Null_check (Explicit, param b 1, Ir.fresh_site ()));
  emit b (Get_field (x, param b 0, H.fld_x));
  (* store to the same field of ANOTHER object kills the availability *)
  emit b (Put_field (param b 1, H.fld_x, Cint 7));
  emit b (Get_field (y, param b 0, H.fld_x));
  emit b (Binop (x, Add, Var x, Var y));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "sr2" in
  let stats = Scalar_repl.run ~arch:ia32 (Ir.find_func p "sr2") in
  check_int "aliasing store blocks reuse" 0 stats.Scalar_repl.replaced;
  (* must remain correct when a == b *)
  let pt = H.new_point ~x:1 () in
  let r = H.run p [ pt; pt ] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 8)) -> ()
  | o -> Alcotest.failf "aliased run wrong: %a" Interp.pp_outcome o)

let test_scalar_speculation_gate () =
  (* a load below its in-loop null check only hoists with speculation on
     an arch that does not trap reads *)
  let open Builder in
  let make () =
    let b = create ~name:"sp" ~params:[ "a"; "b"; "n" ] () in
    let i = fresh b and t = fresh b and len = fresh b in
    count_do b ~v:i ~from:(Cint 0) ~limit:(Var (param b 2)) (fun b ->
        getfield b ~dst:t ~obj:(param b 0) H.fld_x;
        putfield b ~obj:(param b 0) H.fld_y (Var t);
        alen b ~dst:len ~arr:(param b 1));
    terminate b (Return (Some (Var len)));
    H.program_of [ finish b ] "sp"
  in
  let hoisted ~speculate ~arch =
    let p = make () in
    (Scalar_repl.run ~speculate ~arch (Ir.find_func p "sp")).Scalar_repl.hoisted
  in
  check_int "no speculation: stuck" 0 (hoisted ~speculate:false ~arch:aix);
  check_bool "speculation on aix: hoists" true
    (hoisted ~speculate:true ~arch:aix > 0);
  check_int "speculation on ia32 (reads trap): refused" 0
    (hoisted ~speculate:true ~arch:ia32)

(* ------------------------------------------------------------------ *)
(* Inlining / devirtualization / intrinsics                            *)
(* ------------------------------------------------------------------ *)

let accessor_cls =
  { Ir.cname = "C"; csuper = None; cfields = [ H.fld_x ];
    cmethods = [ ("get", "C.get") ] }

let small_method () =
  let open Builder in
  let b = create ~name:"C.get" ~is_method:true ~params:[ "this" ] () in
  let x = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  terminate b (Return (Some (Var x)));
  finish b

let test_devirt_and_inline () =
  let open Builder in
  let main =
    let b = create ~name:"main" ~params:[ "o" ] () in
    let r = fresh b in
    vcall b ~dst:r ~recv:(param b 0) "get" [];
    terminate b (Return (Some (Var r)));
    finish b
  in
  let p = Builder.program ~classes:[ accessor_cls ] ~main:"main"
      [ main; small_method () ] in
  Ir_validate.check_exn p;
  check_int "one devirtualized" 1 (Inline.devirtualize p);
  check_bool "inlined" true (Inline.run p > 0);
  check_int "no calls left in main" 0
    (Ir.count_instrs (function Ir.Call _ -> true | _ -> false)
       (Ir.find_func p "main"));
  (* receiver check preserved (Figure 1) *)
  check_bool "receiver check survives" true (H.checks p "main" >= 1);
  let r = H.run p [ H.new_point ~x:3 () ] in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 3)) -> ()
  | o -> Alcotest.failf "wrong result %a" Interp.pp_outcome o);
  let r = H.run p [ H.vnull ] in
  match r.Interp.outcome with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "missing NPE: %a" Interp.pp_outcome o

let test_no_inline_recursive () =
  let open Builder in
  let f =
    let b = create ~name:"fact" ~params:[ "n" ] () in
    let r = fresh b in
    if_then b (Ir.Le, Var (param b 0), Cint 1)
      ~then_:(fun b -> emit b (Move (r, Cint 1)))
      ~else_:(fun b ->
        let m = fresh b in
        emit b (Binop (m, Sub, Var (param b 0), Cint 1));
        scall b ~dst:r "fact" [ Var m ];
        emit b (Binop (r, Mul, Var r, Var (param b 0))))
      ();
    terminate b (Return (Some (Var r)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[] () in
    let r = fresh b in
    scall b ~dst:r "fact" [ Cint 5 ];
    terminate b (Return (Some (Var r)));
    finish b
  in
  let p = Builder.program ~main:"main" [ main; f ] in
  ignore (Inline.run p);
  let r = H.run p [] in
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 120)) -> ()
  | o -> Alcotest.failf "fact broken: %a" Interp.pp_outcome o

let test_intrinsify () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let x = fresh b in
  emit b (Move (x, Cfloat 4.0));
  scall b ~dst:x "Math.sqrt" [ Var x ];
  let q = fresh b in
  emit b (Unop (q, F2i, Var x));
  terminate b (Return (Some (Var q)));
  let p = Builder.program ~main:"main" [ finish b ] in
  check_int "intrinsified on ia32" 1 (Inline.intrinsify ~arch:ia32 (Ir.copy_program p |> fun p -> Hashtbl.reset p.Ir.classes; p));
  check_int "not on ppc (no fp intrinsics)" 0 (Inline.intrinsify ~arch:aix p);
  let p2 = Ir.copy_program p in
  ignore (Inline.intrinsify ~arch:ia32 p2);
  let a = H.run p [] and b2 = H.run p2 [] in
  check_bool "same result either way" true (Interp.equivalent a b2)

(* ------------------------------------------------------------------ *)
(* Cleanup passes                                                      *)
(* ------------------------------------------------------------------ *)

let test_copyprop () =
  let open Builder in
  let b = create ~name:"cp" ~params:[ "a" ] () in
  let c = fresh b and x = fresh b in
  emit b (Move (c, Var (param b 0)));
  emit b (Null_check (Explicit, c, Ir.fresh_site ()));
  emit b (Get_field (x, c, H.fld_x));
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "cp" in
  let f = Ir.find_func p "cp" in
  ignore (Copyprop.run f);
  (* check and deref now reference the original variable *)
  let uses_copy = ref false in
  Array.iter
    (fun i -> Ir.iter_uses (fun v -> if v = c then uses_copy := true) i)
    (Ir.block f 0).instrs;
  check_bool "copy propagated away" false !uses_copy

let test_dce_keeps_barriers () =
  let open Builder in
  let b = create ~name:"dc" ~params:[ "a" ] () in
  let dead = fresh b and live = fresh b in
  emit b (Move (dead, Cint 42));
  emit b (Move (live, Cint 1));
  emit b (Null_check (Explicit, param b 0, Ir.fresh_site ()));
  emit b (Print (Var live));
  terminate b (Return (Some (Var live)));
  let p = H.program_of [ finish b ] "dc" in
  let f = Ir.find_func p "dc" in
  let removed = Dce.run f in
  check_int "dead move removed" 1 removed;
  check_int "check kept" 1 (H.checks p "dc")

let test_simplify_cfg () =
  let open Builder in
  let b = create ~name:"sc" ~params:[] () in
  ignore (goto_new b);
  ignore (goto_new b);
  ignore (goto_new b);
  terminate b (Return (Some (Cint 1)));
  let p = H.program_of [ finish b ] "sc" in
  let f = Ir.find_func p "sc" in
  check_int "chain before" 4 (Ir.nblocks f);
  ignore (Simplify_cfg.run f);
  check_int "single block after" 1 (Ir.nblocks f)

(* ------------------------------------------------------------------ *)
(* Back end                                                            *)
(* ------------------------------------------------------------------ *)

let test_regalloc_no_overlap () =
  (* run on every workload function with a small register file to force
     spilling, and assert the allocation invariant *)
  let module W = Nullelim_workloads.Workload in
  List.iter
    (fun (w : W.t) ->
      let prog = w.W.build ~scale:1 in
      Ir.iter_funcs
        (fun f ->
          let a = Regalloc.allocate ~nregs:4 f in
          match Regalloc.check_no_overlap a with
          | None -> ()
          | Some (v1, v2) ->
            Alcotest.failf "%s/%s: variables %d and %d share a register"
              w.W.name f.Ir.fn_name v1 v2)
        prog)
    (Nullelim_workloads.Registry.all ())

let test_regalloc_spills_when_tight () =
  let w = Option.get (Nullelim_workloads.Registry.find "lu-decomposition") in
  let prog = w.Nullelim_workloads.Workload.build ~scale:1 in
  let f = Ir.find_func prog "luKernel" in
  let tight = Regalloc.allocate ~nregs:3 f in
  let roomy = Regalloc.allocate ~nregs:32 f in
  check_bool "tight file spills" true (tight.Regalloc.spill_slots > 0);
  check_int "roomy file does not" 0 roomy.Regalloc.spill_slots;
  let s_tight = Codegen.emit_func ~arch:ia32 f tight in
  let s_roomy = Codegen.emit_func ~arch:ia32 f roomy in
  check_bool "spills cost machine instructions" true
    (s_tight.Codegen.machine_instrs > s_roomy.Codegen.machine_instrs)

let test_codegen_implicit_free () =
  let open Builder in
  let b = create ~name:"cg" ~params:[ "a" ] () in
  let x = fresh b in
  getfield b ~dst:x ~obj:(param b 0) H.fld_x;
  terminate b (Return (Some (Var x)));
  let p = H.program_of [ finish b ] "cg" in
  let f = Ir.find_func p "cg" in
  let before = Codegen.run ~arch:ia32 f in
  ignore (Naive_trap.run ~arch:ia32 f);
  let after = Codegen.run ~arch:ia32 f in
  check_bool "implicit check emits nothing" true
    (after.Codegen.machine_instrs < before.Codegen.machine_instrs);
  check_int "no check instructions left" 0 after.Codegen.explicit_check_instrs

let () =
  Alcotest.run "opts"
    [
      ( "whaley",
        [
          Alcotest.test_case "removes redundant" `Quick test_whaley_redundant;
          Alcotest.test_case "cannot hoist from loop" `Quick
            test_whaley_no_loop_hoist;
        ] );
      ( "naive-trap",
        [
          Alcotest.test_case "adjacent conversion" `Quick test_naive_adjacent;
          Alcotest.test_case "barrier blocks" `Quick
            test_naive_blocked_by_barrier;
          Alcotest.test_case "arch-sensitive" `Quick test_naive_respects_arch;
        ] );
      ( "boundcheck",
        [
          Alcotest.test_case "redundant elimination" `Quick
            test_boundcheck_redundant;
          Alcotest.test_case "loop hoisting" `Quick test_boundcheck_hoist;
        ] );
      ( "scalar-repl",
        [
          Alcotest.test_case "redundant load" `Quick test_scalar_redundant_load;
          Alcotest.test_case "aliasing store kills" `Quick
            test_scalar_store_forward_kill;
          Alcotest.test_case "speculation gate" `Quick
            test_scalar_speculation_gate;
        ] );
      ( "inline",
        [
          Alcotest.test_case "devirt + inline" `Quick test_devirt_and_inline;
          Alcotest.test_case "recursion untouched" `Quick
            test_no_inline_recursive;
          Alcotest.test_case "intrinsify per arch" `Quick test_intrinsify;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "copyprop" `Quick test_copyprop;
          Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_barriers;
          Alcotest.test_case "simplify-cfg merges chains" `Quick
            test_simplify_cfg;
        ] );
      ( "backend",
        [
          Alcotest.test_case "regalloc: no interval overlap" `Quick
            test_regalloc_no_overlap;
          Alcotest.test_case "regalloc: spilling" `Quick
            test_regalloc_spills_when_tight;
          Alcotest.test_case "codegen: implicit checks are free" `Quick
            test_codegen_implicit_free;
        ] );
    ]
