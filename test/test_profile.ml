(** Per-site dynamic profiling: reconciliation, provenance lineage,
    schema round-trips and the baseline regression gate.

    The load-bearing property mirrors the decision log's: for every
    registry workload under every profile configuration, the per-site
    dynamic counts must sum exactly to the aggregate interpreter
    counters, and every executed check site must trace back to an
    original IR site or a decision-log event that minted it. *)

open Nullelim
module Obs = Nullelim.Obs
module PR = Nullelim_experiments.Profile_report
module Registry = Nullelim_workloads.Registry
module W = Nullelim_workloads.Workload

let arch = Arch.ia32_windows

(* ------------------------------------------------------------------ *)
(* Reconciliation over the whole workload x config matrix              *)
(* ------------------------------------------------------------------ *)

let test_reconciliation_matrix () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (cfg : Config.t) ->
          let r = PR.collect ~scale:1 ~arch cfg w in
          match PR.reconcile r with
          | Ok () -> ()
          | Error e -> Alcotest.failf "reconciliation: %s" e)
        PR.profile_configs)
    (Registry.all ())

(** The profile hooks must not perturb execution: counters of a run
    with the collector attached equal those of a run without. *)
let test_profile_observer_only () =
  let w = Option.get (Registry.find "huffman") in
  let prog = w.W.build ~scale:1 in
  let c = Compiler.compile Config.new_full ~arch prog in
  let plain = Interp.run ~arch c.Compiler.program [] in
  let p = Obs.Profile.create () in
  let profiled = Interp.run ~profile:p ~arch c.Compiler.program [] in
  Alcotest.(check bool) "same outcome" true
    (Interp.equivalent plain profiled);
  Alcotest.(check int) "same cycles" plain.Interp.counters.Interp.cycles
    profiled.Interp.counters.Interp.cycles;
  Alcotest.(check int) "same instrs" plain.Interp.counters.Interp.instrs
    profiled.Interp.counters.Interp.instrs

(* ------------------------------------------------------------------ *)
(* Elimination table shape                                             *)
(* ------------------------------------------------------------------ *)

let test_elim_rows () =
  let w = Option.get (Registry.find "assignment") in
  let runs =
    List.map (fun cfg -> PR.collect ~scale:1 ~arch cfg w) PR.profile_configs
  in
  let rows = PR.elim_rows runs in
  let base =
    List.find (fun (e : PR.elim_row) -> e.PR.er_config = PR.baseline_config) rows
  in
  Alcotest.(check int) "baseline has no implicit checks" 0 base.PR.er_implicit;
  Alcotest.(check (float 1e-9)) "baseline eliminates nothing" 0.
    base.PR.er_pct_eliminated;
  List.iter
    (fun (e : PR.elim_row) ->
      Alcotest.(check bool)
        (e.PR.er_config ^ ": elimination within [0,100]")
        true
        (e.PR.er_pct_eliminated >= 0. && e.PR.er_pct_eliminated <= 100.);
      Alcotest.(check bool)
        (e.PR.er_config ^ ": implicit share within [0,100]")
        true
        (e.PR.er_pct_implicit >= 0. && e.PR.er_pct_implicit <= 100.))
    rows;
  let full =
    List.find
      (fun (e : PR.elim_row) -> e.PR.er_config = Config.new_full.Config.name)
      rows
  in
  Alcotest.(check bool) "full config eliminates some checks" true
    (full.PR.er_pct_eliminated > 0.)

(* ------------------------------------------------------------------ *)
(* The dynamic document                                                *)
(* ------------------------------------------------------------------ *)

let test_dynamic_schema () =
  let w = Option.get (Registry.find "bitfield") in
  let runs =
    List.map (fun cfg -> PR.collect ~scale:1 ~arch cfg w) PR.profile_configs
  in
  let dyn = PR.dynamic_json ~scale:1 [ runs ] in
  (match Obs.Doc.validate PR.dynamic_doc dyn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dynamic document does not validate: %s" e);
  match Obs.Doc.validate PR.dynamic_doc (Json.Obj [ ("schema", Json.Str "nope") ]) with
  | Ok () -> Alcotest.fail "bad dynamic schema accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Baseline regression gate                                            *)
(* ------------------------------------------------------------------ *)

let test_baseline_gate () =
  let w = Option.get (Registry.find "numeric-sort") in
  let runs =
    List.map (fun cfg -> PR.collect ~scale:1 ~arch cfg w) PR.profile_configs
  in
  let all = [ runs ] in
  let exact = PR.dynamic_json ~scale:1 all in
  (* fresh counts against their own record: clean *)
  (match PR.check_against_baseline ~baseline:exact all with
  | Ok [] -> ()
  | Ok drift ->
    Alcotest.failf "unexpected drift: %s" (String.concat "; " drift)
  | Error regs ->
    Alcotest.failf "unexpected regressions: %s" (String.concat "; " regs));
  (* a baseline recording FEWER checks than we now execute: regression *)
  let tighten = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "explicit", Json.Int _ -> ("explicit", Json.Int 0)
             | "implicit", Json.Int _ -> ("implicit", Json.Int 0)
             | kv -> kv)
           fields)
    | j -> j
  in
  let tightened =
    match exact with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "rows", Json.List rows ->
               ("rows", Json.List (List.map tighten rows))
             | kv -> kv)
           fields)
    | j -> j
  in
  (match PR.check_against_baseline ~baseline:tightened all with
  | Error (_ :: _) -> ()
  | Error [] | Ok _ ->
    Alcotest.fail "regression not detected against a tightened baseline");
  (* a baseline recording MORE checks: drift, not failure *)
  let loosen = function
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "explicit", Json.Int n -> ("explicit", Json.Int (n + 1000))
             | kv -> kv)
           fields)
    | j -> j
  in
  let loosened =
    match exact with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (function
             | "rows", Json.List rows ->
               ("rows", Json.List (List.map loosen rows))
             | kv -> kv)
           fields)
    | j -> j
  in
  match PR.check_against_baseline ~baseline:loosened all with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "improvement should be reported as drift"
  | Error regs ->
    Alcotest.failf "improvement flagged as regression: %s"
      (String.concat "; " regs)

(* ------------------------------------------------------------------ *)
(* record_metrics run labels                                           *)
(* ------------------------------------------------------------------ *)

let test_record_metrics_labels () =
  let c1 = Interp.new_counters () in
  c1.Interp.instrs <- 10;
  c1.Interp.cycles <- 100;
  let c2 = Interp.new_counters () in
  c2.Interp.instrs <- 7;
  c2.Interp.cycles <- 70;
  (* distinct labels: two series side by side *)
  let m = Obs.Metrics.create () in
  Interp.record_metrics ~run:"first" m c1;
  Interp.record_metrics ~run:"second" m c2;
  let v labels name =
    Obs.Metrics.counter_value (Obs.Metrics.counter m ~labels name)
  in
  Alcotest.(check int) "first run instrs" 10
    (v [ ("run", "first") ] "interp_instrs");
  Alcotest.(check int) "second run instrs" 7
    (v [ ("run", "second") ] "interp_instrs");
  (* same label accumulates deliberately *)
  Interp.record_metrics ~run:"first" m c1;
  Alcotest.(check int) "same label accumulates" 20
    (v [ ("run", "first") ] "interp_instrs");
  (* unlabeled into a fresh registry is fine once... *)
  let m2 = Obs.Metrics.create () in
  Interp.record_metrics m2 c1;
  Alcotest.(check int) "unlabeled first dump" 10
    (Obs.Metrics.counter_value (Obs.Metrics.counter m2 "interp_instrs"));
  (* ...but a second unlabeled dump would silently merge runs: rejected *)
  (match Interp.record_metrics m2 c2 with
  | () -> Alcotest.fail "second unlabeled record_metrics accepted"
  | exception Invalid_argument _ -> ());
  (* labeled dumps into that registry remain fine *)
  Interp.record_metrics ~run:"third" m2 c2;
  Alcotest.(check int) "labeled after unlabeled" 7
    (Obs.Metrics.counter_value
       (Obs.Metrics.counter m2 ~labels:[ ("run", "third") ] "interp_instrs"))

(* ------------------------------------------------------------------ *)
(* Provenance lineage across passes                                    *)
(* ------------------------------------------------------------------ *)

(** Inlining must mint fresh sites for duplicated checks and record the
    parent site in the decision log. *)
let test_inline_lineage () =
  let w = Option.get (Registry.find "mtrt") in
  let r = PR.collect ~scale:1 ~arch Config.new_full w in
  let dups =
    List.filter
      (fun (e : Obs.Decision.event) ->
        e.Obs.Decision.action = Obs.Decision.Duplicated)
      r.PR.pr_decisions
  in
  Alcotest.(check bool) "mtrt inlines at least one check" true (dups <> []);
  List.iter
    (fun (e : Obs.Decision.event) ->
      Alcotest.(check bool) "duplicate has a fresh site" true
        (e.Obs.Decision.site >= 0);
      Alcotest.(check bool) "duplicate records its parent" true
        (e.Obs.Decision.parent >= 0);
      Alcotest.(check bool) "fresh site differs from parent" true
        (e.Obs.Decision.site <> e.Obs.Decision.parent))
    dups

let () =
  Alcotest.run "profile"
    [
      ( "reconciliation",
        [
          Alcotest.test_case "all workloads x configs" `Quick
            test_reconciliation_matrix;
          Alcotest.test_case "observer only" `Quick test_profile_observer_only;
        ] );
      ( "elimination",
        [ Alcotest.test_case "table shape" `Quick test_elim_rows ] );
      ( "schema",
        [
          Alcotest.test_case "dynamic document" `Quick test_dynamic_schema;
        ] );
      ( "baseline",
        [ Alcotest.test_case "regression gate" `Quick test_baseline_gate ] );
      ( "metrics",
        [
          Alcotest.test_case "run labels" `Quick test_record_metrics_labels;
        ] );
      ( "lineage",
        [ Alcotest.test_case "inline parents" `Quick test_inline_lineage ] );
    ]
