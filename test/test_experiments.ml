(** Shape tests for the experiment engine: the qualitative claims of the
    paper's evaluation (who wins, where, and why) are asserted here so
    the reproduction recorded in EXPERIMENTS.md cannot silently rot.

    These run at scale 1 to stay fast; the bench harness reproduces the
    full tables at larger scales. *)

module E = Nullelim_experiments.Experiments
open Nullelim

let scale = 1
let check_bool = Alcotest.(check bool)

let value rows w cfg =
  let row = List.find (fun (r : E.row) -> r.E.workload = w) rows in
  E.cell_value row cfg

(* Table 1 / Figure 8 *)
let t1 = lazy (E.table1 ~scale)

let test_assignment_story () =
  let t1 = Lazy.force t1 in
  let full = value t1 "assignment" "new-phase1+2" in
  let old = value t1 "assignment" "old-null-check" in
  let trap = value t1 "assignment" "no-null-opt-trap" in
  let base = value t1 "assignment" "no-null-opt-no-trap" in
  check_bool "full beats old by a clear margin" true (full > old *. 1.05);
  check_bool "old beats trap baseline" true (old > trap);
  check_bool "trap beats no-trap" true (trap > base)

let test_multidim_kernels_beat_old () =
  let t1 = Lazy.force t1 in
  List.iter
    (fun w ->
      let full = value t1 w "new-phase1+2" in
      let old = value t1 w "old-null-check" in
      check_bool (w ^ ": full > old") true (full > old *. 1.02))
    [ "assignment"; "idea-encryption"; "string-sort"; "huffman" ]

let test_fourier_flat () =
  let t1 = Lazy.force t1 in
  let full = value t1 "fourier" "new-phase1+2" in
  let base = value t1 "fourier" "no-null-opt-no-trap" in
  check_bool "fourier is the control: < 3% spread" true
    (full /. base < 1.03)

let test_monotonic_configs () =
  let t1 = Lazy.force t1 in
  List.iter
    (fun (r : E.row) ->
      let v c = E.cell_value r c in
      let full = v "new-phase1+2"
      and p1 = v "new-phase1-only"
      and old = v "old-null-check"
      and trap = v "no-null-opt-trap"
      and base = v "no-null-opt-no-trap" in
      (* allow half-a-percent noise in the simulated ordering *)
      let geq a b = a >= b *. 0.995 in
      check_bool (r.E.workload ^ ": full >= phase1") true (geq full p1);
      check_bool (r.E.workload ^ ": phase1 >= old") true (geq p1 old);
      check_bool (r.E.workload ^ ": old >= trap") true (geq old trap);
      check_bool (r.E.workload ^ ": trap >= no-trap") true (geq trap base))
    t1

(* Table 2 / Figure 9: the mtrt phase-2 story *)
let test_mtrt_phase2_wins () =
  let arch = Arch.ia32_windows in
  let w = Option.get (Nullelim_workloads.Registry.find "mtrt") in
  let cy cfg = E.run_cycles ~arch cfg w ~scale in
  let full = cy Config.new_full in
  let p1 = cy Config.new_phase1_only in
  let old = cy Config.old_null_check in
  check_bool
    (Printf.sprintf "phase2 (%d) strictly beats phase1-only (%d) on mtrt" full
       p1)
    true (full < p1);
  check_bool
    (Printf.sprintf "phase1-only (%d) beats old (%d) on mtrt" p1 old)
    true (p1 < old)

(* Figures 10/11 *)
let test_hotspot_comparison () =
  let ratios = E.versus_hotspot ~higher_better:true (Lazy.force t1) in
  let mean =
    List.fold_left
      (fun acc (r : E.row) -> acc +. E.cell_value r "ours/hotspot")
      0. ratios
    /. float_of_int (List.length ratios)
  in
  check_bool
    (Printf.sprintf "ours beats the hotspot model on jBYTEmark (mean %.3f)"
       mean)
    true (mean > 1.02)

(* Table 4 / Figure 13.  The columns are wall-clock times of compiles
   a tenth of a millisecond long, so each side is the best of three
   tables: one sample is at the mercy of whatever else the host runs. *)
let test_compile_breakdown () =
  let best (a : E.breakdown_row) (b : E.breakdown_row) =
    {
      a with
      E.new_nullcheck = Float.min a.E.new_nullcheck b.E.new_nullcheck;
      new_other = Float.min a.E.new_other b.E.new_other;
      old_nullcheck = Float.min a.E.old_nullcheck b.E.old_nullcheck;
      old_other = Float.min a.E.old_other b.E.old_other;
    }
  in
  let rows =
    List.fold_left (List.map2 best) (E.table4 ~scale)
      [ E.table4 ~scale; E.table4 ~scale ]
  in
  List.iter
    (fun (r : E.breakdown_row) ->
      check_bool
        (Printf.sprintf "%s: new null-check opt costs more than old (%f vs %f)"
           r.E.bw_name r.E.new_nullcheck r.E.old_nullcheck)
        true
        (r.E.new_nullcheck > r.E.old_nullcheck))
    rows

(* Table 3: the HotSpot model compiles slower *)
let test_hotspot_compiles_slower () =
  let ours = E.table3 ~cfg:Config.new_full ~scale () in
  let hs = E.table3 ~cfg:Config.hotspot_model ~scale () in
  let total rows =
    List.fold_left (fun a (r : E.compile_row) -> a +. r.E.compile_time) 0. rows
  in
  check_bool "hotspot-model compile time exceeds ours" true
    (total hs > total ours)

(* Table 6 / Figure 14: speculation *)
let test_speculation_story () =
  let t6 = E.table6 ~scale in
  (* the kernels with the Figure 6 shape gain from speculation *)
  List.iter
    (fun w ->
      let spec = value t6 w "aix-speculation" in
      let nospec = value t6 w "aix-no-speculation" in
      check_bool (w ^ ": speculation helps on AIX") true (spec > nospec *. 1.01))
    [ "fp-emulation"; "neural-net" ];
  (* and never hurts *)
  List.iter
    (fun (r : E.row) ->
      let spec = E.cell_value r "aix-speculation" in
      let nospec = E.cell_value r "aix-no-speculation" in
      check_bool (r.E.workload ^ ": speculation never hurts") true
        (spec >= nospec *. 0.995))
    t6

(* Illegal Implicit: performs like the full optimization but is rejected
   by the verifier on AIX *)
let test_illegal_implicit_story () =
  let t6 = E.table6 ~scale in
  List.iter
    (fun (r : E.row) ->
      let ill = E.cell_value r "aix-illegal-implicit" in
      let none = E.cell_value r "aix-no-null-opt" in
      check_bool (r.E.workload ^ ": illegal implicit >= no-opt") true
        (ill >= none *. 0.995))
    t6;
  (* at least one workload's illegal-implicit compilation is rejected *)
  let rejected = ref 0 in
  List.iter
    (fun (w : Nullelim_workloads.Workload.t) ->
      let prog = w.Nullelim_workloads.Workload.build ~scale in
      let c = Compiler.compile Config.aix_illegal_implicit ~arch:Arch.ppc_aix prog in
      if Verify.verify_program ~arch:Arch.ppc_aix c.Compiler.program <> [] then
        incr rejected)
    (Nullelim_workloads.Registry.all ());
  check_bool "verifier rejects illegal implicit somewhere" true (!rejected > 0)

(* Ablation: the Figure 2 iteration claim and the inlining dependency *)
let test_ablation () =
  let rows = E.ablation ~scale in
  let v w c =
    let row = List.find (fun (r : E.row) -> r.E.workload = w) rows in
    E.cell_value row c
  in
  (* iterating phase 1 with the helpers must beat a single round on the
     kernels whose hoists feed each other across rounds (LU's k1-indexed
     rows, neural-net's update pass); assignment loads its row outside
     the inner loops already, so one round suffices there *)
  check_bool "neural-net: 4 iters beat 1" true
    (v "neural-net" "full (4 iters)" < v "neural-net" "1 iteration");
  check_bool "lu: 4 iters beat 1" true
    (v "lu-decomposition" "full (4 iters)" < v "lu-decomposition" "1 iteration");
  (* the mtrt result depends on inlining *)
  check_bool "mtrt: no inlining is slower" true
    (v "mtrt" "full (4 iters)" < v "mtrt" "no inlining");
  (* disabling the array optimizations hurts the array kernels *)
  check_bool "lu: weak arrays slower" true
    (v "lu-decomposition" "full (4 iters)"
    < v "lu-decomposition" "no simplify/arrays")

let () =
  Alcotest.run "experiments"
    [
      ( "table1-fig8",
        [
          Alcotest.test_case "assignment story" `Quick test_assignment_story;
          Alcotest.test_case "multidim kernels beat old" `Quick
            test_multidim_kernels_beat_old;
          Alcotest.test_case "fourier flat" `Quick test_fourier_flat;
          Alcotest.test_case "config ordering" `Quick test_monotonic_configs;
        ] );
      ( "table2-fig9",
        [ Alcotest.test_case "mtrt phase2 win" `Quick test_mtrt_phase2_wins ] );
      ( "fig10-11",
        [ Alcotest.test_case "vs hotspot model" `Quick test_hotspot_comparison ]
      );
      ( "tables3-5",
        [
          Alcotest.test_case "null-check opt breakdown" `Quick
            test_compile_breakdown;
          Alcotest.test_case "hotspot compiles slower" `Quick
            test_hotspot_compiles_slower;
        ] );
      ( "ablation",
        [ Alcotest.test_case "iteration/inlining/arrays" `Quick test_ablation ]
      );
      ( "tables6-7",
        [
          Alcotest.test_case "speculation story" `Quick test_speculation_story;
          Alcotest.test_case "illegal implicit story" `Quick
            test_illegal_implicit_story;
        ] );
    ]
