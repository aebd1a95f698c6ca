(** Native-backend tests: guard-page probe, signal-handler edge cases
    (unknown fault PC re-raises the default action; a nested trap during
    recovery aborts), zero-instruction implicit checks in the emitted C,
    trap recovery to the correct [Ir.site], a workload executed
    natively, and a fixed-seed 100-program differential fuzz smoke
    against the interpreter.

    Every test degrades to a pass with a notice when the native backend
    is unavailable (non-linux/x86-64, or no usable C compiler) — the
    interp fallback keeps the suite green anywhere. *)

open Nullelim
module H = Helpers

let ia32 = Arch.ia32_windows

(* [skip] when the backend cannot run here: tests assert nothing but
   stay visible in the list, so a CI log shows what was exercised. *)
let native_test f () =
  if Native.available () then f ()
  else print_endline "native backend unavailable; skipping"

(* ------------------------------------------------------------------ *)
(* Stubs-level tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_guard_probe () =
  (* reading the guard region faults and the probe recovery path
     catches it: the PROT_NONE mapping is really there *)
  Alcotest.(check bool) "guard read traps" true (Native.probe_guard ())

let test_unknown_pc_default () =
  (* a fault whose PC is in no registered module must not be swallowed:
     the handler chains to the previously installed action, which in a
     bare forked child is the default — death by SIGSEGV (11) *)
  Alcotest.(check int) "child dies by SIGSEGV" 11 (Native.fork_unknown_pc ())

let test_nested_trap_aborts () =
  (* trapping while already recovering from a trap is a broken-runtime
     state; the handler must abort deliberately (SIGABRT, 6) rather
     than loop *)
  Alcotest.(check int) "child dies by SIGABRT" 6 (Native.fork_nested_trap ())

(* ------------------------------------------------------------------ *)
(* Emission statistics                                                 *)
(* ------------------------------------------------------------------ *)

(* A loop dereferencing a field: after new-full compilation the check
   in the loop is implicit, and the native emission must spend zero
   instructions on it. *)
let field_loop () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let p = fresh b in
  emit b (New_object (p, "Point"));
  putfield b ~obj:p H.fld_x (Cint 7);
  let acc = fresh b in
  let t = fresh b in
  emit b (Move (acc, Cint 0));
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint 100) (fun b ->
      getfield b ~dst:t ~obj:p H.fld_x;
      emit b (Binop (acc, Add, Var acc, Var t)));
  terminate b (Return (Some (Var acc)));
  H.program_of [ finish b ] "main"

(* new-full can prove the receiver non-null and delete the check
   entirely; no-null-opt-trap keeps every check and converts the
   deref-adjacent ones to implicit — the shape this test is about *)
let compiled_field_loop () =
  (Compiler.compile Config.no_null_opt_trap ~arch:ia32 (field_loop ()))
    .Compiler.program

let emit_stats p =
  match Emit_c.emit ~trap_area:ia32.Arch.trap_area p with
  | Ok em -> em.Emit_c.em_stats
  | Error msg -> Alcotest.failf "emission unsupported: %s" msg

let test_zero_implicit_instrs () =
  let p = compiled_field_loop () in
  let implicit = Ir.count_checks ~kind:Ir.Implicit (Hashtbl.find p.Ir.funcs "main") in
  Alcotest.(check bool) "compilation produced implicit checks" true (implicit > 0);
  let st = emit_stats p in
  Alcotest.(check int)
    "implicit checks emit zero instructions" 0
    st.Emit_c.ec_implicit_check_instrs;
  Alcotest.(check int) "every implicit site is in the stats" implicit
    st.Emit_c.ec_implicit_sites;
  Alcotest.(check bool) "trap table is populated" true
    (st.Emit_c.ec_trap_entries > 0)

(* ------------------------------------------------------------------ *)
(* Native execution                                                    *)
(* ------------------------------------------------------------------ *)

let run_native p =
  match Native.run_program ~arch:ia32 p with
  | Ok r -> r
  | Error msg -> Alcotest.failf "native run failed: %s" msg

let test_native_matches_interp () =
  let p = compiled_field_loop () in
  let r = run_native p in
  let i = Interp.run ~arch:ia32 p [] in
  Alcotest.(check bool) "native ~ interp" true
    (Interp.equivalent r.Native.r_result i);
  match r.Native.r_result.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 700)) -> ()
  | o -> Alcotest.failf "unexpected native outcome: %a" Interp.pp_outcome o

(* A null dereference guarded by an implicit check inside a try region:
   the SIGSEGV must recover to the handler with the check's own site in
   the trap log. *)
let null_trap_program () =
  let open Builder in
  let b = create ~name:"main" ~params:[] () in
  let r = fresh b in
  with_try b
    ~handler:(fun b -> emit b (Move (r, Cint (-1))))
    (fun b ->
      let x = fresh b in
      emit b (Move (x, Cnull));
      let t = fresh b in
      getfield b ~dst:t ~obj:x H.fld_x;
      emit b (Move (r, Var t)));
  terminate b (Return (Some (Var r)));
  H.program_of [ finish b ] "main"

let implicit_sites (p : Ir.program) : Ir.site list =
  let acc = ref [] in
  Ir.iter_funcs
    (fun f ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun i ->
              match i with
              | Ir.Null_check (Ir.Implicit, _, s) -> acc := s :: !acc
              | _ -> ())
            b.Ir.instrs)
        f.Ir.fn_blocks)
    p;
  !acc

let test_trap_recovers_to_site () =
  (* force the check implicit ourselves so the trap must fire *)
  let c = Compiler.compile Config.new_full ~arch:ia32 (null_trap_program ()) in
  let p = c.Compiler.program in
  match implicit_sites p with
  | [] ->
    (* the optimizer may have proven the branch dead; the fixture is
       then useless — fail loudly so it gets fixed *)
    Alcotest.fail "fixture compiled without an implicit check"
  | sites ->
    let r = run_native p in
    (match r.Native.r_result.Interp.outcome with
    | Interp.Returned (Some (Value.Vint -1)) -> ()
    | o -> Alcotest.failf "handler did not run: %a" Interp.pp_outcome o);
    Alcotest.(check int) "exactly one hardware trap" 1 r.Native.r_traps;
    let s = r.Native.r_trap_sites.(0) in
    Alcotest.(check bool)
      (Printf.sprintf "trap site %d is an implicit check site" s)
      true (List.mem s sites)

(* ------------------------------------------------------------------ *)
(* Differential fuzz smoke                                             *)
(* ------------------------------------------------------------------ *)

let test_fuzz_smoke () =
  let fails = ref [] in
  for seed = 0 to 99 do
    match (Gen.generate ~seed ()).Gen.g_program |> Diff.check_native with
    | Diff.Pass | Diff.Skip _ -> ()
    | Diff.Fail f -> fails := (seed, Fmt.str "%a" Diff.pp_failure f) :: !fails
  done;
  match !fails with
  | [] -> ()
  | (seed, msg) :: _ ->
    Alcotest.failf "%d seeds diverged; first: seed %d: %s" (List.length !fails)
      seed msg

let () =
  Alcotest.run "native"
    [
      ( "stubs",
        [
          Alcotest.test_case "guard probe" `Quick (native_test test_guard_probe);
          Alcotest.test_case "unknown fault PC re-raises default" `Quick
            (native_test test_unknown_pc_default);
          Alcotest.test_case "nested trap aborts" `Quick
            (native_test test_nested_trap_aborts);
        ] );
      ( "emission",
        [
          Alcotest.test_case "implicit checks cost zero instructions" `Quick
            test_zero_implicit_instrs;
        ] );
      ( "execution",
        [
          Alcotest.test_case "workload runs natively, matches interp" `Quick
            (native_test test_native_matches_interp);
          Alcotest.test_case "null deref recovers to the check's site" `Quick
            (native_test test_trap_recovers_to_site);
        ] );
      ( "differential",
        [
          Alcotest.test_case "100-seed native vs interp smoke" `Quick
            (native_test test_fuzz_smoke);
        ] );
    ]
