(** End-to-end tests of the JIT configurations: correctness on every
    config × arch, and the qualitative performance ordering the paper
    reports (full ≥ phase1 ≥ old ≥ trap-only ≥ no-trap on check-heavy
    code). *)

open Nullelim
module H = Helpers

(* A miniature "Assignment"-style kernel: 2-D array traversal where the
   row access is invariant in the inner loop.  This is the shape the
   paper credits for the big wins of the iterated phase-1 optimization. *)
let matrix2d ~rows ~cols () =
  let open Builder in
  let b = create ~name:"mat" ~params:[ "m" ] () in
  let m = param b 0 in
  let i = fresh ~name:"i" b and j = fresh ~name:"j" b in
  let row = fresh ~name:"row" b and t = fresh ~name:"t" b in
  let sum = fresh ~name:"sum" b in
  emit b (Move (sum, Cint 0));
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint rows) (fun b ->
      count_do b ~v:j ~from:(Cint 0) ~limit:(Cint cols) (fun b ->
          aload b ~kind:Ir.Kref ~dst:row ~arr:m (Var i);
          aload b ~kind:Ir.Kint ~dst:t ~arr:row (Var j);
          emit b (Binop (sum, Add, Var sum, Var t))));
  terminate b (Return (Some (Var sum)));
  H.program_of [ finish b ] "mat"

let make_matrix rows cols : Value.value =
  let mk_row r =
    let a = Value.new_array Ir.Kint cols in
    Array.iteri (fun j _ -> a.Value.a_elems.(j) <- Value.Vint (r + j))
      a.Value.a_elems;
    Value.Vref (Value.Arr a)
  in
  let m = Value.new_array Ir.Kref rows in
  Array.iteri (fun r _ -> m.Value.a_elems.(r) <- mk_row r) m.Value.a_elems;
  Value.Vref (Value.Arr m)

let expected_sum rows cols =
  let s = ref 0 in
  for r = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      s := !s + r + j
    done
  done;
  !s

let cycles_of ~arch cfg prog args =
  let c = H.compile ~arch cfg prog in
  let r = H.run ~arch c.Compiler.program args in
  (match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint _)) -> ()
  | o -> Alcotest.failf "%s: unexpected %a" cfg.Config.name Interp.pp_outcome o);
  (r.Interp.counters.Interp.cycles, r)

let test_matrix_correct_all_configs () =
  let rows = 8 and cols = 10 in
  let prog = matrix2d ~rows ~cols () in
  let args = [ make_matrix rows cols ] in
  let expect = expected_sum rows cols in
  List.iter
    (fun arch ->
      List.iter
        (fun cfg ->
          let c = H.compile ~arch cfg prog in
          let r = H.run ~arch c.Compiler.program args in
          match r.Interp.outcome with
          | Interp.Returned (Some (Value.Vint got)) when got = expect -> ()
          | o ->
            Alcotest.failf "%s/%s: expected %d, got %a" arch.Arch.name
              cfg.Config.name expect Interp.pp_outcome o)
        (Config.windows_suite @ Config.aix_suite))
    [ Arch.ia32_windows; Arch.ppc_aix; Arch.sparc; Arch.no_trap ]

(* After the full pipeline, the inner loop should execute no explicit
   null checks at all: everything is hoisted or implicit. *)
let test_matrix_check_counts () =
  let rows = 8 and cols = 50 in
  let prog = matrix2d ~rows ~cols () in
  let args = [ make_matrix rows cols ] in
  let arch = Arch.ia32_windows in
  (* On IA32 this kernel's checks are all adjacent to their dereferences,
     so even the naive trap conversion makes every one implicit (zero
     cost) — exactly why the paper's hardware-trap baseline is already
     strong.  Phase 1's advantage is *motion*: the number of checks
     executed (of either kind) drops because loop-invariant checks leave
     the loops. *)
  let counts cfg =
    let c = H.compile ~arch cfg prog in
    let r = H.run ~arch c.Compiler.program args in
    ( r.Interp.counters.Interp.explicit_checks,
      r.Interp.counters.Interp.explicit_checks
      + r.Interp.counters.Interp.implicit_checks )
  in
  let raw_e, raw_t = counts Config.no_null_opt_no_trap in
  let trap_e, trap_t = counts Config.no_null_opt_trap in
  let old_e, old_t = counts Config.old_null_check in
  let p1_e, p1_t = counts Config.new_phase1_only in
  let full_e, full_t = counts Config.new_full in
  (* raw executes an explicit check per access: 2 per inner iteration *)
  Alcotest.(check bool) "raw has many explicit checks" true
    (raw_e >= 2 * rows * cols);
  Alcotest.(check int) "trap-only: all become implicit" 0 trap_e;
  Alcotest.(check int) "same number of sites executed" raw_t trap_t;
  Alcotest.(check bool)
    (Printf.sprintf "old (%d) <= trap (%d) total" old_t trap_t)
    true (old_t <= trap_t);
  Alcotest.(check bool)
    (Printf.sprintf "phase1 total (%d) < old total (%d)" p1_t old_t)
    true (p1_t < old_t);
  Alcotest.(check bool)
    (Printf.sprintf "full total (%d) <= phase1 total (%d)" full_t p1_t)
    true (full_t <= p1_t);
  Alcotest.(check int) "old executes no explicit checks here" 0 old_e;
  Alcotest.(check int) "phase1 executes no explicit checks here" 0 p1_e;
  Alcotest.(check int) "full executes zero explicit checks" 0 full_e

(* Simulated cycle ordering on the matrix kernel (IA32). *)
let test_matrix_cycle_ordering () =
  let rows = 8 and cols = 50 in
  let prog = matrix2d ~rows ~cols () in
  let args = [ make_matrix rows cols ] in
  let arch = Arch.ia32_windows in
  let cy cfg = fst (cycles_of ~arch cfg prog args) in
  let raw = cy Config.no_null_opt_no_trap in
  let old = cy Config.old_null_check in
  let p1 = cy Config.new_phase1_only in
  let full = cy Config.new_full in
  Alcotest.(check bool)
    (Printf.sprintf "phase1 (%d) beats old (%d)" p1 old)
    true (p1 < old);
  Alcotest.(check bool)
    (Printf.sprintf "full (%d) <= phase1 (%d)" full p1)
    true (full <= p1);
  Alcotest.(check bool)
    (Printf.sprintf "old (%d) beats raw (%d)" old raw)
    true (old < raw)

(* Inner-loop memory traffic: the full pipeline hoists the row load and
   the row arraylength out of the inner loop, so loads drop well below
   the baseline's. *)
let test_matrix_load_hoisting () =
  let rows = 8 and cols = 50 in
  let prog = matrix2d ~rows ~cols () in
  let args = [ make_matrix rows cols ] in
  let arch = Arch.ia32_windows in
  let loads cfg =
    let c = H.compile ~arch cfg prog in
    (H.run ~arch c.Compiler.program args).Interp.counters.Interp.loads
  in
  let baseline = loads Config.no_null_opt_trap in
  let full = loads Config.new_full in
  Alcotest.(check bool)
    (Printf.sprintf "full loads (%d) well below baseline (%d)" full baseline)
    true (full * 2 < baseline * 2 && full < baseline)

(* AIX speculation: on a loop reading a field of a possibly-null object
   guarded in-loop, speculation hoists the read; without it the read
   stays.  Both behave identically. *)
let speculation_kernel () =
  let open Builder in
  let b = create ~name:"spec" ~params:[ "a"; "b"; "n" ] () in
  let a = param b 0 and bb = param b 1 and n = param b 2 in
  let i = fresh ~name:"i" b and t = fresh ~name:"t" b in
  let lenb = fresh ~name:"lenb" b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Var n) (fun b ->
      (* a.I++ : read-modify-write keeps a's accesses in the loop and the
         store is the barrier of Figure 6 *)
      getfield b ~dst:t ~obj:a H.fld_x;
      emit b (Binop (t, Add, Var t, Cint 1));
      putfield b ~obj:a H.fld_x (Var t);
      (* arraylength b is the speculation candidate *)
      alen b ~dst:lenb ~arr:bb);
  terminate b (Return (Some (Var lenb)));
  H.program_of [ finish b ] "spec"

let test_aix_speculation () =
  let prog = speculation_kernel () in
  let arch = Arch.ppc_aix in
  let arr = Value.Vref (Value.Arr (Value.new_array Ir.Kint 17)) in
  let args = [ H.new_point ~x:0 (); arr; H.vint 200 ] in
  let run cfg =
    let c = H.compile ~arch cfg prog in
    H.run ~arch c.Compiler.program args
  in
  let spec = run Config.aix_speculation in
  let nospec = run Config.aix_no_speculation in
  (match (spec.Interp.outcome, nospec.Interp.outcome) with
  | Interp.Returned (Some (Value.Vint 17)), Interp.Returned (Some (Value.Vint 17))
    -> ()
  | a, b ->
    Alcotest.failf "bad outcomes %a / %a" Interp.pp_outcome a Interp.pp_outcome b);
  Alcotest.(check bool)
    (Printf.sprintf "speculation saves loads (%d < %d)"
       spec.Interp.counters.Interp.loads nospec.Interp.counters.Interp.loads)
    true
    (spec.Interp.counters.Interp.loads < nospec.Interp.counters.Interp.loads);
  (* with a null array the speculative load must still end in an NPE *)
  let args_null = [ H.new_point ~x:0 (); H.vnull; H.vint 5 ] in
  let spec_null =
    let c = H.compile ~arch Config.aix_speculation prog in
    H.run ~arch c.Compiler.program args_null
  in
  (match spec_null.Interp.outcome with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "speculation broke NPE: %a" Interp.pp_outcome o)

(* The illegal-implicit configuration is flagged by the verifier on AIX
   (that is the point of the experiment). *)
let test_illegal_implicit_flagged () =
  let prog = matrix2d ~rows:3 ~cols:3 () in
  let arch = Arch.ppc_aix in
  let c = Compiler.compile Config.aix_illegal_implicit ~arch prog in
  Alcotest.(check bool) "verifier rejects" true
    (Verify.verify_program ~arch c.Compiler.program <> []);
  (* but on well-behaved (non-null) input it still computes the result *)
  let r = H.run ~arch c.Compiler.program [ make_matrix 3 3 ] in
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint v)) when v = expected_sum 3 3 -> ()
  | o -> Alcotest.failf "unexpected %a" Interp.pp_outcome o

(* Devirtualization + inlining end-to-end (the mtrt story): accessor
   methods called in a loop. *)
let accessor_program () =
  let open Builder in
  let getx =
    let b = create ~name:"Point.getX" ~is_method:true ~params:[ "this" ] () in
    let x = fresh b in
    getfield b ~dst:x ~obj:(param b 0) H.fld_x;
    terminate b (Return (Some (Var x)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[ "p"; "n" ] () in
    let p = param b 0 and n = param b 1 in
    let i = fresh ~name:"i" b and t = fresh b and sum = fresh b in
    emit b (Move (sum, Cint 0));
    count_do b ~v:i ~from:(Cint 0) ~limit:(Var n) (fun b ->
        vcall b ~dst:t ~recv:p "getX" [];
        emit b (Binop (sum, Add, Var sum, Var t)));
    terminate b (Return (Some (Var sum)));
    finish b
  in
  let cls =
    { Ir.cname = "Point"; csuper = None;
      cfields = [ H.fld_x; H.fld_y; H.fld_next; H.fld_big ];
      cmethods = [ ("getX", "Point.getX") ] }
  in
  let p = Builder.program ~classes:[ cls ] ~main:"main" [ main; getx ] in
  Ir_validate.check_exn p;
  p

let test_inlined_accessors () =
  let prog = accessor_program () in
  let arch = Arch.ia32_windows in
  let args = [ H.new_point ~x:4 (); H.vint 100 ] in
  let run cfg =
    let c = H.compile ~arch cfg prog in
    H.run ~arch c.Compiler.program args
  in
  let full = run Config.new_full in
  let old = run Config.old_null_check in
  (match full.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 400)) -> ()
  | o -> Alcotest.failf "bad result %a" Interp.pp_outcome o);
  (* inlining removes the calls entirely under every config with inline;
     the full config additionally kills the receiver checks *)
  Alcotest.(check int) "no calls left (full)" 0
    full.Interp.counters.Interp.calls;
  Alcotest.(check bool)
    (Printf.sprintf "full cycles (%d) <= old (%d)"
       full.Interp.counters.Interp.cycles old.Interp.counters.Interp.cycles)
    true
    (full.Interp.counters.Interp.cycles <= old.Interp.counters.Interp.cycles);
  (* and a null receiver still raises NPE *)
  let c = H.compile ~arch Config.new_full prog in
  let r = H.run ~arch c.Compiler.program [ H.vnull; H.vint 3 ] in
  match r.Interp.outcome with
  | Interp.Uncaught Ir.Npe -> ()
  | o -> Alcotest.failf "null receiver: %a" Interp.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Rounds to a fixpoint                                                *)
(* ------------------------------------------------------------------ *)

let configs_with_arch =
  List.map (fun c -> (c, Arch.ia32_windows)) Config.windows_suite
  @ List.map (fun c -> (c, Arch.ppc_aix)) Config.aix_suite

let normalize = Pipeline.per_func "other:normalize" (Opt_util.remove_unreachable ~log:true)

(* Run [passes] on a freshly seeded copy of [p]; return everything a
   round may change: the program, the decision log, the check counts
   and the site counter. *)
let artifact passes p =
  let q = Ir.copy_program p in
  Ir.seed_sites q;
  let (), events = Obs.Decision.with_log (fun () -> Pipeline.run passes q) in
  ( Fmt.str "%a" Ir_pp.pp_program q,
    events,
    Compiler.count_all_checks q,
    !(Domain.DLS.get Ir.site_counter) )

let check_rounds_match_unrolled label p =
  List.iter
    (fun ((cfg : Config.t), arch) ->
      let round () = Compiler.round cfg ~arch in
      let fixpoint = artifact (normalize :: Pipeline.rounds ~max:4 (round ())) p in
      let unrolled =
        artifact (normalize :: List.concat (List.init 4 (fun _ -> round ()))) p
      in
      let prog_a, ev_a, ck_a, site_a = fixpoint
      and prog_b, ev_b, ck_b, site_b = unrolled in
      let what = label ^ "/" ^ cfg.Config.name in
      Alcotest.(check string) (what ^ ": program") prog_b prog_a;
      Alcotest.(check bool) (what ^ ": decision log") true (ev_a = ev_b);
      Alcotest.(check (pair int int)) (what ^ ": check stats") ck_b ck_a;
      Alcotest.(check int) (what ^ ": site counter") site_b site_a)
    configs_with_arch

let test_rounds_generated () =
  for seed = 1 to 200 do
    let g = Gen.generate ~seed () in
    check_rounds_match_unrolled (Printf.sprintf "seed %d" seed) g.Gen.g_program
  done

let test_rounds_workloads () =
  List.iter
    (fun (w : Nullelim_workloads.Workload.t) ->
      check_rounds_match_unrolled w.Nullelim_workloads.Workload.name
        (w.Nullelim_workloads.Workload.build ~scale:1))
    (Nullelim_workloads.Registry.all ())

(* Runs [passes] under a decision log; returns the number of records. *)
let run_counting passes p =
  let sink = Pipeline.sink () in
  ignore (Obs.Decision.with_log (fun () -> Pipeline.run ~sink passes p));
  List.length (Pipeline.records sink)

(* How many times a one-pass group runs under [rounds ~max:4] when its
   body is [g] (given the call number), and how many records it left. *)
let calls_under_rounds g p =
  let calls = ref 0 in
  let probe = Pipeline.program_pass "probe" (fun p -> incr calls; g !calls p) in
  let records = run_counting (Pipeline.rounds ~max:4 [ probe ]) p in
  (!calls, records)

let test_rounds_deterministic () =
  let p = matrix2d ~rows:2 ~cols:2 () in
  let runs, recs = calls_under_rounds (fun _ _ -> ()) p in
  Alcotest.(check int) "no-op group runs once" 1 runs;
  Alcotest.(check int) "skipped rounds leave no record" 1 recs;
  let runs, _ =
    calls_under_rounds (fun n _ -> if n = 1 then ignore (Ir.fresh_site ())) p
  in
  Alcotest.(check int) "site minted in round 1 only: two rounds" 2 runs;
  let runs, _ = calls_under_rounds (fun _ _ -> ignore (Ir.fresh_site ())) p in
  Alcotest.(check int) "site minted every round: all four" 4 runs;
  let runs, _ =
    calls_under_rounds
      (fun _ _ ->
        Obs.Decision.record ~kind:Obs.Decision.Kother
          ~action:Obs.Decision.Speculated ~just:Obs.Decision.Speculative_read ())
      p
  in
  Alcotest.(check int) "decision event every round: all four" 4 runs;
  (* an in-place rewrite is seen, so the fingerprint copies the blocks *)
  let runs, _ =
    calls_under_rounds
      (fun n (p : Ir.program) ->
        if n = 1 then
          let f = Ir.find_func p "mat" in
          let b = f.Ir.fn_blocks.(0) in
          b.Ir.instrs.(0) <- Ir.Print (Ir.Cint 7))
      (Ir.copy_program p)
  in
  Alcotest.(check int) "in-place rewrite in round 1: two rounds" 2 runs;
  (* the round state resets, so the same list can run again *)
  let calls = ref 0 in
  let list =
    Pipeline.rounds ~max:4
      [ Pipeline.program_pass "probe" (fun _ -> incr calls) ]
  in
  ignore (run_counting list p);
  ignore (run_counting list p);
  Alcotest.(check int) "reused list runs once per use" 2 !calls

(* ------------------------------------------------------------------ *)
(* One sink                                                            *)
(* ------------------------------------------------------------------ *)

let kinds =
  [
    ("solves", fun (s : Solver.stats) -> s.Solver.solves);
    ("visits", fun s -> s.Solver.visits);
    ("transfers", fun s -> s.Solver.transfers);
    ("pushes", fun s -> s.Solver.pushes);
  ]

let check_sink what (c : Compiler.compiled) =
  let recs = c.Compiler.records in
  Alcotest.(check (float 0.)) (what ^ ": total = sum of records")
    (List.fold_left (fun acc r -> acc +. r.Pipeline.r_seconds) 0. recs)
    (Pipeline.total recs);
  Alcotest.(check (float 1e-12)) (what ^ ": nullcheck + other = total")
    (Pipeline.total recs)
    (Compiler.nullcheck_time c +. Compiler.other_time c);
  let counters = Pipeline.counters recs in
  let m = Compiler.metrics c in
  List.iter
    (fun (kind, get) ->
      let sum = List.fold_left (fun acc r -> acc + get r.Pipeline.r_solver) 0 recs in
      Alcotest.(check int) (what ^ ": counters #" ^ kind) sum
        (List.fold_left
           (fun acc (k, v) ->
             if String.ends_with ~suffix:("#" ^ kind) k then acc + v else acc)
           0 counters);
      (* the compile's own solver stats, measured around the whole
         pipeline, equal the sum of the per-pass deltas *)
      Alcotest.(check int) (what ^ ": compile solver " ^ kind) (get c.Compiler.solver) sum;
      Alcotest.(check int) (what ^ ": metrics solver_" ^ kind) sum
        (List.fold_left
           (fun acc (p : Pipeline.pass_total) ->
             acc
             + Obs.Metrics.counter_total m ~labels:[ ("pass", p.p_pass) ]
                 ("solver_" ^ kind))
           0 (Pipeline.by_pass recs)))
    kinds;
  List.iter
    (fun (p : Pipeline.pass_total) ->
      let labels = [ ("pass", p.p_pass) ] in
      Alcotest.(check int) (what ^ ": pass_runs " ^ p.p_pass) p.p_runs
        (Obs.Metrics.counter_total m ~labels "pass_runs");
      Alcotest.(check int) (what ^ ": pass_minor_words " ^ p.p_pass)
        p.p_minor_words
        (Obs.Metrics.counter_total m ~labels "pass_minor_words"))
    (Pipeline.by_pass recs)

let test_single_sink () =
  let settled = ref false in
  List.iter
    (fun (w : Nullelim_workloads.Workload.t) ->
      let p = w.Nullelim_workloads.Workload.build ~scale:1 in
      List.iter
        (fun ((cfg : Config.t), arch) ->
          let c = Compiler.compile cfg ~arch p in
          check_sink (w.Nullelim_workloads.Workload.name ^ "/" ^ cfg.Config.name) c;
          let phase1 =
            List.length
              (List.filter
                 (fun r -> r.Pipeline.r_pass = "nullcheck:phase1")
                 c.Compiler.records)
          in
          if cfg == Config.new_full && phase1 < cfg.Config.iterations then
            settled := true)
        configs_with_arch)
    (Nullelim_workloads.Registry.all ());
  Alcotest.(check bool) "some new-full compile settles before its last round"
    true !settled

let () =
  Alcotest.run "pipeline"
    [
      ( "matrix2d",
        [
          Alcotest.test_case "correct on all configs and archs" `Quick
            test_matrix_correct_all_configs;
          Alcotest.test_case "explicit-check ordering" `Quick
            test_matrix_check_counts;
          Alcotest.test_case "cycle ordering" `Quick test_matrix_cycle_ordering;
          Alcotest.test_case "load hoisting" `Quick test_matrix_load_hoisting;
        ] );
      ( "aix",
        [
          Alcotest.test_case "speculation" `Quick test_aix_speculation;
          Alcotest.test_case "illegal implicit flagged" `Quick
            test_illegal_implicit_flagged;
        ] );
      ( "inlining",
        [ Alcotest.test_case "accessor methods" `Quick test_inlined_accessors ]
      );
      ( "rounds",
        [
          Alcotest.test_case "fixpoint = unrolled, 200 generated programs" `Slow
            test_rounds_generated;
          Alcotest.test_case "fixpoint = unrolled, registry workloads" `Quick
            test_rounds_workloads;
          Alcotest.test_case "stop after an unchanged round" `Quick
            test_rounds_deterministic;
        ] );
      ( "sink",
        [ Alcotest.test_case "views derive from the records" `Quick test_single_sink ]
      );
    ]
