(* Fuzzing-infrastructure tests: the splittable PRNG, generator
   determinism and distribution, the strict validator's rejection of
   malformed shapes, shrinker soundness, the mutation self-test (an
   injected phase-2 kill-rule bug must be caught and shrink to a tiny
   reproducer), a differential mini-sweep, serial-vs-parallel artifact
   identity through the compile service, the nullelim-fuzz/1 report
   schema, and replay of the committed regression corpus. *)

open Nullelim

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let draws r = List.init 16 (fun _ -> Gen_rng.next_int64 r) in
  Alcotest.(check bool)
    "same seed, same stream" true
    (draws (Gen_rng.make 42) = draws (Gen_rng.make 42));
  Alcotest.(check bool)
    "different seeds differ" true
    (draws (Gen_rng.make 42) <> draws (Gen_rng.make 43))

let test_rng_split_independence () =
  (* the child stream is deterministic and distinct from the parent's
     continuation *)
  let p1 = Gen_rng.make 7 and p2 = Gen_rng.make 7 in
  let c1 = Gen_rng.split p1 and c2 = Gen_rng.split p2 in
  let draws r = List.init 16 (fun _ -> Gen_rng.next_int64 r) in
  let child1 = draws c1 in
  Alcotest.(check bool) "split deterministic" true (child1 = draws c2);
  Alcotest.(check bool)
    "child differs from parent continuation" true
    (child1 <> draws p1)

let test_rng_int_bounds () =
  let r = Gen_rng.make 99 in
  List.iter
    (fun n ->
      for _ = 1 to 1000 do
        let x = Gen_rng.int r n in
        if x < 0 || x >= n then
          Alcotest.failf "int %d out of range: %d" n x
      done)
    [ 1; 2; 7; 100 ];
  match Gen_rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | x -> Alcotest.failf "int 0 returned %d instead of raising" x

let test_rng_weighted () =
  let r = Gen_rng.make 5 in
  let a = ref 0 and b = ref 0 in
  for _ = 1 to 2000 do
    match Gen_rng.weighted r [ (1, `A); (3, `B) ] with
    | `A -> incr a
    | `B -> incr b
  done;
  Alcotest.(check int) "all draws counted" 2000 (!a + !b);
  Alcotest.(check bool) "weights respected" true (!b > !a);
  Alcotest.(check bool) "both sides drawn" true (!a > 0);
  Alcotest.(check char) "choose singleton" 'x'
    (Gen_rng.choose r [ 'x' ])

let test_rng_fresh_seed () =
  let r = Gen_rng.make 1 in
  for _ = 1 to 100 do
    let s = Gen_rng.fresh_seed r in
    if s <= 0 then Alcotest.failf "fresh_seed not positive: %d" s
  done

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_gen_determinism () =
  List.iter
    (fun seed ->
      let a = Gen.generate ~seed () and b = Gen.generate ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d program" seed)
        (Fuzz_report.program_to_string a.Gen.g_program)
        (Fuzz_report.program_to_string b.Gen.g_program);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d features" seed)
        true
        (a.Gen.g_features = b.Gen.g_features))
    [ 1; 7; 42; 12345 ]

let test_gen_programs_strictly_valid () =
  for seed = 1 to 50 do
    let g = Gen.generate ~seed () in
    match Ir_validate.validate_program ~strict:true g.Gen.g_program with
    | [] -> ()
    | errs ->
      Alcotest.failf "seed %d invalid: %s" seed (String.concat "; " errs)
  done

(* Distribution sanity over a 500-program corpus: the generator must
   keep hitting the shapes the oracles exist to stress.  Thresholds are
   deliberately below the measured rates (try/alias/null ~100%, loops
   ~95%, recursion ~75%) so they only fire on a genuine distribution
   regression, not sampling noise. *)
let test_gen_distribution () =
  let n = 500 in
  let d = ref Fuzz_report.empty_distribution in
  for seed = 1 to n do
    let g = Gen.generate ~seed () in
    d := Fuzz_report.add_features !d g.Gen.g_features
  done;
  let d = !d in
  let pct field = 100 * field / n in
  Alcotest.(check int) "programs" n d.Fuzz_report.ds_programs;
  let assert_ge name actual floor =
    if actual < floor then
      Alcotest.failf "%s: %d%% of programs, need >= %d%%" name actual floor
  in
  assert_ge "try regions" (pct d.Fuzz_report.ds_with_try) 95;
  assert_ge "aliasing" (pct d.Fuzz_report.ds_with_alias) 95;
  assert_ge "runtime nulls" (pct d.Fuzz_report.ds_with_null) 95;
  assert_ge "loops" (pct d.Fuzz_report.ds_with_loop) 85;
  assert_ge "recursion" (pct d.Fuzz_report.ds_recursive) 50;
  let avg = d.Fuzz_report.ds_instrs_total / n in
  if avg < 50 || avg > 1000 then
    Alcotest.failf "average size drifted: %d instrs/program" avg

(* ------------------------------------------------------------------ *)
(* Strict validation (Ir_validate ~strict)                             *)
(* ------------------------------------------------------------------ *)

let strict_errors f = Ir_validate.validate_func ~strict:true None f
let lax_errors f = Ir_validate.validate_func None f

let has_error errs needle =
  List.exists (fun e -> Helpers.contains e needle) errs

(* a variable assigned on only one arm of a branch, then used after the
   join *)
let may_be_unassigned_func () =
  let b = Builder.create ~name:"f" ~params:[ "p" ] () in
  let v = Builder.fresh ~name:"v" b in
  Builder.if_then b (Ir.Ne, Ir.Var (Builder.param b 0), Ir.Cint 0)
    ~then_:(fun b -> Builder.emit b (Ir.Move (v, Ir.Cint 1)))
    ();
  Builder.emit b (Ir.Print (Ir.Var v));
  Builder.terminate b (Ir.Return None);
  Builder.finish b

let test_strict_rejects_unassigned () =
  let f = may_be_unassigned_func () in
  Alcotest.(check (list string)) "lax accepts" [] (lax_errors f);
  let errs = strict_errors f in
  if not (has_error errs "may be unassigned") then
    Alcotest.failf "expected 'may be unassigned', got: %s"
      (String.concat "; " errs)

let block instrs term breg = { Ir.instrs = Array.of_list instrs; term; breg }

let hand_func ?(nparams = 1) ?(handlers = []) blocks : Ir.func =
  {
    Ir.fn_name = "f";
    fn_nparams = nparams;
    fn_is_method = false;
    fn_nvars = nparams;
    fn_blocks = Array.of_list blocks;
    fn_handlers = handlers;
    fn_var_names = Hashtbl.create 1;
  }

(* two distinct blocks of region 1 are branch targets from outside it *)
let multi_entry_region_func () =
  hand_func
    ~handlers:[ (1, 3) ]
    [
      block [] (Ir.Ifnull (0, 1, 2)) Ir.no_region;
      block [] (Ir.Return None) 1;
      block [] (Ir.Return None) 1;
      block [] (Ir.Return None) Ir.no_region;
    ]

let test_strict_rejects_multi_entry_region () =
  let f = multi_entry_region_func () in
  Alcotest.(check (list string)) "lax accepts" [] (lax_errors f);
  let errs = strict_errors f in
  if not (has_error errs "entered from outside at multiple blocks") then
    Alcotest.failf "expected multi-entry rejection, got: %s"
      (String.concat "; " errs)

(* the handler of region 1 is itself a member of region 1: an exception
   in the handler would re-enter it forever *)
let handler_in_own_region_func () =
  hand_func
    ~handlers:[ (1, 1) ]
    [
      block [] (Ir.Goto 1) Ir.no_region;
      block [] (Ir.Return None) 1;
    ]

let test_strict_rejects_handler_in_region () =
  let f = handler_in_own_region_func () in
  Alcotest.(check (list string)) "lax accepts" [] (lax_errors f);
  let errs = strict_errors f in
  if not (has_error errs "lies inside its own region") then
    Alcotest.failf "expected handler-placement rejection, got: %s"
      (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_drop_unreachable () =
  let f =
    hand_func
      [
        block [] (Ir.Return None) Ir.no_region;
        block [ Ir.Print (Ir.Cint 1) ] (Ir.Return None) Ir.no_region;
      ]
  in
  let f' = Shrink.drop_unreachable f in
  Alcotest.(check int) "one block left" 1 (Ir.nblocks f');
  Alcotest.(check (list string)) "still valid" []
    (Ir_validate.validate_func None f')

let count_prints (p : Ir.program) =
  let n = ref 0 in
  Ir.iter_funcs
    (fun f ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun i -> match i with Ir.Print _ -> incr n | _ -> ())
            b.instrs)
        f.Ir.fn_blocks)
    p;
  !n

(* shrinking against an arbitrary structural predicate: the result is
   smaller, still valid, and still satisfies the predicate.  The
   shrinker itself guarantees lax validity only; strict validity is
   preserved in real use because a strictly-invalid candidate fails the
   "validate-input" oracle instead of the original one, so
   [Diff.still_fails] rejects the edit. *)
let test_shrink_soundness () =
  let g = Gen.generate ~seed:3 () in
  let p = g.Gen.g_program in
  let still_fails q = count_prints q >= 1 in
  Alcotest.(check bool) "predicate holds on input" true (still_fails p);
  let q, st = Shrink.shrink ~still_fails p in
  Alcotest.(check bool) "predicate preserved" true (still_fails q);
  Alcotest.(check (list string)) "shrunk program valid" []
    (Ir_validate.validate_program q);
  Alcotest.(check bool) "got smaller" true
    (st.Shrink.sh_instrs_after < st.Shrink.sh_instrs_before);
  Alcotest.(check int) "instr count matches stats"
    st.Shrink.sh_instrs_after (Shrink.instr_count q)

(* The acceptance self-test: inject the phase-2 kill-rule bug (Print no
   longer a substitution barrier), scan seeds until the differential
   harness catches it, shrink the reproducer, and confirm (a) it is tiny
   and (b) the shrunk program passes once the mutation is lifted — i.e.
   the failure is the mutation's, not the shrinker's. *)
let test_mutation_detected_and_shrunk () =
  let caught = ref None in
  Atomic.set Phase2.mutate_kill_barrier true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Phase2.mutate_kill_barrier false)
    (fun () ->
      (let seed = ref 1 in
       while !caught = None && !seed <= 60 do
         let g = Gen.generate ~seed:!seed () in
         (match Diff.check g.Gen.g_program with
         | Diff.Fail f -> caught := Some (!seed, f, g.Gen.g_program)
         | _ -> ());
         incr seed
       done);
      match !caught with
      | None ->
        Alcotest.fail "injected kill-rule bug not detected in 60 seeds"
      | Some (seed, f, p) ->
        let q, st = Shrink.shrink ~still_fails:(Diff.still_fails f) p in
        if st.Shrink.sh_instrs_after > 10 then
          Alcotest.failf "seed %d: shrunk reproducer has %d instrs (want <= 10)"
            seed st.Shrink.sh_instrs_after;
        caught := Some (seed, f, q));
  match !caught with
  | Some (_, _, q) -> (
    match Diff.check q with
    | Diff.Pass -> ()
    | Diff.Skip s -> Alcotest.failf "shrunk program skips unmutated: %s" s
    | Diff.Fail f ->
      Alcotest.failf "shrunk program fails UNMUTATED: %a" Diff.pp_failure f)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Differential mini-sweep                                             *)
(* ------------------------------------------------------------------ *)

(* The fuzz run itself ([nullelim fuzz]): 200 programs through every
   serial oracle. *)
let test_differential_sweep () =
  let r = Fuzz.run ~seed:1 ~count:200 () in
  if r.Fuzz_report.fz_failed > 0 then
    Alcotest.failf "%d/200 programs failed:@.%a" r.Fuzz_report.fz_failed
      Fuzz.pp_failures r;
  (* a few fuel/depth skips are legitimate; a flood means the generator
     or the fuel budget broke *)
  if r.Fuzz_report.fz_skipped > 20 then
    Alcotest.failf "%d/200 programs skipped — differential signal too weak"
      r.Fuzz_report.fz_skipped;
  Alcotest.(check bool) "verdict passes" true (Fuzz.verdict r = Ok None)

(* With a pool, every program's artifacts are also compiled on two
   domains and must be byte-identical to the serial ones. *)
let test_serial_parallel_identity () =
  let count = 6 in
  let r = Fuzz.run ~jobs:2 ~seed:1 ~count () in
  List.iter
    (fun (f : Fuzz_report.failure_row) ->
      Alcotest.failf "seed %d: [%s] %s%s" f.Fuzz_report.fr_seed
        f.Fuzz_report.fr_oracle f.Fuzz_report.fr_config
        f.Fuzz_report.fr_detail)
    r.Fuzz_report.fz_failures;
  let per_program = List.length (Diff.jobs (Gen.generate ~seed:1 ()).Gen.g_program) in
  Alcotest.(check int) "every program's jobs went through the pool"
    (count * per_program) r.Fuzz_report.fz_pool_compiles;
  Alcotest.(check int) "every program settled" count
    (r.Fuzz_report.fz_passed + r.Fuzz_report.fz_skipped)

(* [--mutate] inverts the verdict: the weakened kill rule must be
   caught, and being caught is the pass. *)
let test_mutation_run_verdict () =
  let r = Fuzz.run ~mutate:true ~seed:2 ~count:12 () in
  Alcotest.(check bool) "mutation lifted after the run" false
    (Atomic.get Phase2.mutate_kill_barrier);
  if r.Fuzz_report.fz_failed = 0 then
    Alcotest.fail "the oracles missed the mutation in 12 programs";
  (match Fuzz.verdict r with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "a caught mutation gave no note"
  | Error e -> Alcotest.failf "a caught mutation failed the run: %s" e);
  (* the same counts without the mutation flag fail, and a mutation
     nobody caught fails *)
  Alcotest.(check bool) "failures fail an unmutated run" true
    (Result.is_error (Fuzz.verdict { r with Fuzz_report.fz_mutate = false }));
  Alcotest.(check bool) "an undetected mutation fails" true
    (Result.is_error
       (Fuzz.verdict
          { r with Fuzz_report.fz_failed = 0; fz_failures = [] }))

(* ------------------------------------------------------------------ *)
(* Report schema and corpus entries                                    *)
(* ------------------------------------------------------------------ *)

let sample_report () : Fuzz_report.t =
  {
    Fuzz_report.fz_seed = 42;
    fz_count = 2;
    fz_gen_version = Gen.gen_version;
    fz_size = 24;
    fz_arch = "ia32-windows";
    fz_jobs = 0;
    fz_mutate = false;
    fz_passed = 1;
    fz_skipped = 0;
    fz_failed = 1;
    fz_pool_compiles = 0;
    fz_cache_hits = 0;
    fz_seconds = 0.25;
    fz_distribution =
      Fuzz_report.add_features Fuzz_report.empty_distribution
        (Gen.generate ~seed:1 ()).Gen.g_features;
    fz_failures =
      [
        {
          Fuzz_report.fr_seed = 17;
          fr_oracle = "behaviour";
          fr_config = "new-full";
          fr_detail = "trace mismatch";
          fr_shrunk = Some (10, 446, "func main() { ... }");
        };
      ];
  }

let test_report_schema_roundtrip () =
  let j = Fuzz_report.to_json (sample_report ()) in
  (match Obs.Doc.validate Fuzz_report.doc j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed report rejected: %s" e);
  (* the validator is not a rubber stamp *)
  match Json.of_string "{\"schema\":\"bogus\"}" with
  | Error e -> Alcotest.failf "test JSON does not parse: %s" e
  | Ok bogus -> (
    match Obs.Doc.validate Fuzz_report.doc bogus with
    | Ok () -> Alcotest.fail "bogus schema accepted"
    | Error _ -> ())

let test_corpus_entry_roundtrip () =
  let e =
    {
      Fuzz_report.ce_seed = 70;
      ce_gen_version = Gen.gen_version;
      ce_size = 24;
      ce_note = "nested-try region ids";
    }
  in
  match Fuzz_report.corpus_entry_of_json (Fuzz_report.corpus_entry_to_json e) with
  | Ok e' -> Alcotest.(check bool) "roundtrip" true (e = e')
  | Error m -> Alcotest.failf "roundtrip failed: %s" m

let test_corpus_version_refusal () =
  let e =
    {
      Fuzz_report.ce_seed = 1;
      ce_gen_version = Gen.gen_version + 1;
      ce_size = 24;
      ce_note = "future";
    }
  in
  match Fuzz_report.regenerate e with
  | Error m ->
    Alcotest.(check bool)
      "mentions gen_version" true
      (Helpers.contains m "gen_version")
  | Ok _ -> Alcotest.fail "stale corpus entry regenerated"

(* Replay every committed corpus entry through the full differential
   check.  Entries record (gen_version, seed, size) — regeneration is
   deterministic, so this re-runs the exact program that once failed. *)
let test_corpus_replay () =
  let entries = Helpers.corpus_entries () in
  Alcotest.(check bool)
    "corpus present" true
    (List.length entries >= 2);
  List.iter
    (fun (file, e) ->
      match Fuzz_report.regenerate e with
      | Error m -> Alcotest.failf "%s: %s" file m
      | Ok g -> (
        match Diff.check g.Gen.g_program with
        | Diff.Pass -> ()
        | Diff.Skip s -> Alcotest.failf "%s (seed %d) skipped: %s" file e.Fuzz_report.ce_seed s
        | Diff.Fail f ->
          Alcotest.failf "%s (seed %d): %a" file e.Fuzz_report.ce_seed
            Diff.pp_failure f))
    entries

let () =
  Alcotest.run "gen"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "weighted/choose" `Quick test_rng_weighted;
          Alcotest.test_case "fresh_seed positive" `Quick test_rng_fresh_seed;
        ] );
      ( "generator",
        [
          Alcotest.test_case "determinism" `Quick test_gen_determinism;
          Alcotest.test_case "strict validity (50 seeds)" `Quick
            test_gen_programs_strictly_valid;
          Alcotest.test_case "distribution (500 programs)" `Quick
            test_gen_distribution;
        ] );
      ( "strict-validate",
        [
          Alcotest.test_case "may-be-unassigned rejected" `Quick
            test_strict_rejects_unassigned;
          Alcotest.test_case "multi-entry region rejected" `Quick
            test_strict_rejects_multi_entry_region;
          Alcotest.test_case "handler inside own region rejected" `Quick
            test_strict_rejects_handler_in_region;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "drop_unreachable" `Quick test_drop_unreachable;
          Alcotest.test_case "soundness" `Quick test_shrink_soundness;
          Alcotest.test_case "injected bug caught and shrunk" `Slow
            test_mutation_detected_and_shrunk;
        ] );
      ( "differential",
        [
          Alcotest.test_case "200-program sweep" `Slow test_differential_sweep;
          Alcotest.test_case "serial = parallel artifacts" `Slow
            test_serial_parallel_identity;
          Alcotest.test_case "a caught mutation passes" `Slow
            test_mutation_run_verdict;
        ] );
      ( "report",
        [
          Alcotest.test_case "fuzz schema roundtrip" `Quick
            test_report_schema_roundtrip;
          Alcotest.test_case "corpus entry roundtrip" `Quick
            test_corpus_entry_roundtrip;
          Alcotest.test_case "gen_version refusal" `Quick
            test_corpus_version_refusal;
          Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
        ] );
    ]
