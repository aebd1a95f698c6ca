(** Tiered-execution manager tests: forced-promotion determinism, the
    promotion/deoptimization state machine, exact-site deoptimization
    with per-tier decision-log reconciliation, the no-lost-updates
    guarantee when a trap arrives while a promotion is in flight,
    end-to-end equivalence of tiered and untiered execution, and the
    steady-state collector driving a real pool. *)

open Nullelim
module H = Helpers
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry
module SS = Nullelim_experiments.Steady_state

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let arch = Arch.ia32_windows

(* Aggressive deterministic policy: promote on the first call, deopt on
   the first trap; no inlining so [helper] stays a dispatched call at
   every tier. *)
let cfg =
  {
    Config.new_full with
    Config.name = "tier-test";
    promote_calls = 1;
    deopt_traps = 1;
    inline = false;
  }

(* [helper a b] returns [a.x + b.y] behind one explicit check per
   parameter (the raw form); [main obj nullv ka kb n] calls it [n]
   times, substituting [nullv] for [a] on iteration [ka] and for [b] on
   iteration [kb], catching the NPE as -1.  Returns a checksum over all
   iterations.  Sites are reset first, so the check guarding [a] and
   the check guarding [b] get deterministic provenance ids. *)
let build_program () =
  Ir.reset_sites ();
  let open Builder in
  let helper =
    let b = create ~name:"helper" ~params:[ "a"; "b" ] () in
    let x = fresh b and y = fresh b and r = fresh b in
    getfield b ~dst:x ~obj:(param b 0) H.fld_x;
    getfield b ~dst:y ~obj:(param b 1) H.fld_y;
    emit b (Binop (r, Add, Var x, Var y));
    terminate b (Return (Some (Var r)));
    finish b
  in
  let main =
    let b = create ~name:"main" ~params:[ "obj"; "nullv"; "ka"; "kb"; "n" ] () in
    let acc = fresh b and i = fresh b in
    emit b (Move (acc, Cint 0));
    count_do b ~v:i ~from:(Cint 0) ~limit:(Var (param b 4)) (fun b ->
        let a = fresh b and bb = fresh b and r = fresh b in
        emit b (Move (a, Var (param b 0)));
        if_then b (Ir.Eq, Ir.Var i, Ir.Var (param b 2))
          ~then_:(fun b -> emit b (Move (a, Var (param b 1))))
          ();
        emit b (Move (bb, Var (param b 0)));
        if_then b (Ir.Eq, Ir.Var i, Ir.Var (param b 3))
          ~then_:(fun b -> emit b (Move (bb, Var (param b 1))))
          ();
        with_try b
          ~handler:(fun b -> emit b (Move (r, Cint (-1))))
          (fun b -> scall b ~dst:r "helper" [ Var a; Var bb ]);
        emit b (Binop (acc, Add, Var acc, Var r)));
    terminate b (Return (Some (Var acc)));
    finish b
  in
  H.program_of [ main; helper ] "main"

(* The provenance sites of helper's two raw checks, in parameter order:
   [getfield] mints them as it emits, so the first is [a]'s guard and
   the second is [b]'s. *)
let helper_sites p =
  let f = Ir.find_func p "helper" in
  let sites = ref [] in
  Array.iter
    (fun (blk : Ir.block) ->
      Array.iter
        (function
          | Ir.Null_check (_, _, s) -> sites := s :: !sites | _ -> ())
        blk.Ir.instrs)
    f.Ir.fn_blocks;
  match List.rev !sites with
  | [ sa; sb ] -> (sa, sb)
  | l -> Alcotest.failf "expected 2 helper sites, found %d" (List.length l)

let args ?(ka = -1) ?(kb = -1) n =
  [ H.new_point ~x:3 (); H.vnull; H.vint ka; H.vint kb; H.vint n ]

let reconcile_all t =
  List.iter
    (fun (tier, c) ->
      match Compiler.reconcile c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "tier-%d artifact does not reconcile: %s" tier e)
    (Tier.artifacts t)

(* ------------------------------------------------------------------ *)
(* Forced promotion: deterministic, installed at a call boundary       *)
(* ------------------------------------------------------------------ *)

let test_forced_promotion_deterministic () =
  let p = build_program () in
  let exec () =
    let t = Tier.create ~config:cfg ~arch p in
    let r = Tier.run t (args 12) in
    Tier.drain t;
    (r, Tier.stats t, Tier.tier_of t "helper", Tier.deopt_sites t "helper", t)
  in
  let r1, s1, tier1, d1, t1 = exec () in
  let r2, s2, tier2, d2, _ = exec () in
  check_bool "same observable result" true (Interp.equivalent r1 r2);
  (* identical counters; recompile wall time is the only nondeterminism *)
  check_bool "same stats" true
    ({ s1 with Tier.st_recompile_seconds = 0. }
    = { s2 with Tier.st_recompile_seconds = 0. });
  check_int "helper promoted" 2 tier1;
  check_int "same tier" tier1 tier2;
  check_bool "no deopts" true (d1 = [] && d2 = []);
  (* promotion of helper and of main, each submitted exactly once *)
  check_int "two submissions" 2 s1.Tier.st_submitted;
  check_int "two promotions" 2 s1.Tier.st_promotions;
  check_int "two installs" 2 s1.Tier.st_installs;
  check_int "no demotions" 0 s1.Tier.st_demotions;
  reconcile_all t1;
  (* tiered execution is observably the untiered program *)
  let plain = Interp.run ~arch p (args 12) in
  check_bool "equivalent to untiered" true (Interp.equivalent r1 plain)

let test_promotion_needs_threshold () =
  let p = build_program () in
  let lazy_cfg = { cfg with Config.promote_calls = 100 } in
  let t = Tier.create ~config:lazy_cfg ~arch p in
  let _ = Tier.run t (args 12) in
  Tier.drain t;
  check_int "helper stays at tier 0" 0 (Tier.tier_of t "helper");
  check_int "nothing submitted" 0 (Tier.stats t).Tier.st_submitted

(* ------------------------------------------------------------------ *)
(* Deoptimization re-materializes exactly the trapping site            *)
(* ------------------------------------------------------------------ *)

let run_trap_scenario ~ka ~kb =
  let p = build_program () in
  let sa, sb = helper_sites p in
  let t = Tier.create ~config:cfg ~arch p in
  let r = Tier.run t (args ~ka ~kb 12) in
  Tier.drain t;
  reconcile_all t;
  (p, sa, sb, t, r)

let test_deopt_exact_site () =
  (* null arrives in parameter [b] on iteration 5, after the promotion
     to tier 2 installed: the hardware trap fires at [b]'s site and
     only that site is deoptimized *)
  let p, sa, sb, t, r = run_trap_scenario ~ka:(-1) ~kb:5 in
  let s = Tier.stats t in
  check_bool "a trap fired" true (s.Tier.st_traps >= 1);
  check_int "one deopt" 1 s.Tier.st_deopts;
  check_int "one demotion" 1 s.Tier.st_demotions;
  check_bool "exactly b's site deoptimized" true
    (Tier.deopt_sites t "helper" = [ sb ]);
  check_bool "not a's site" true (sa <> sb);
  check_int "ends back at tier 2" 2 (Tier.tier_of t "helper");
  (* the installed deopt variant records exactly one Deoptimized event,
     at the trapping site, and has one more explicit check than the
     clean tier-2 compile *)
  let deopt_art =
    match
      List.filter
        (fun (tier, (c : Compiler.compiled)) ->
          tier = 2
          && List.exists
               (fun (e : Obs.Decision.event) ->
                 e.Obs.Decision.action = Obs.Decision.Deoptimized)
               c.Compiler.decisions)
        (Tier.artifacts t)
    with
    | [ (_, c) ] -> c
    | l -> Alcotest.failf "expected 1 deopt artifact, found %d" (List.length l)
  in
  let deopt_events =
    List.filter
      (fun (e : Obs.Decision.event) ->
        e.Obs.Decision.action = Obs.Decision.Deoptimized)
      deopt_art.Compiler.decisions
  in
  check_int "one Deoptimized event" 1 (List.length deopt_events);
  let ev = List.hd deopt_events in
  check_int "at the trapping site" sb ev.Obs.Decision.site;
  check_bool "justified by the trap" true
    (ev.Obs.Decision.just = Obs.Decision.Trap_fired);
  check_int "tagged tier 2" 2 ev.Obs.Decision.tier;
  let clean = Compiler.compile ~tier:2 cfg ~arch p in
  check_int "one check re-materialized"
    (clean.Compiler.checks.Compiler.explicit_after + 1)
    deopt_art.Compiler.checks.Compiler.explicit_after;
  check_int "one implicit fewer"
    (clean.Compiler.checks.Compiler.implicit_after - 1)
    deopt_art.Compiler.checks.Compiler.implicit_after;
  (* the NPE itself still surfaced to main's handler *)
  let plain = Interp.run ~arch p (args ~ka:(-1) ~kb:5 12) in
  check_bool "equivalent to untiered" true (Interp.equivalent r plain)

let test_deopt_site_follows_trap () =
  (* the mirrored scenario traps in parameter [a]: the deopt set is the
     other singleton — the manager reacts to the site, not the function *)
  let _, sa, _, t, _ = run_trap_scenario ~ka:5 ~kb:(-1) in
  check_bool "exactly a's site deoptimized" true
    (Tier.deopt_sites t "helper" = [ sa ])

let test_deopt_accumulates () =
  (* traps at both parameters across the run: the final variant keeps
     both sites explicit *)
  let p = build_program () in
  let sa, sb = helper_sites p in
  let t = Tier.create ~config:cfg ~arch p in
  let _ = Tier.run t (args ~ka:4 ~kb:8 12) in
  Tier.drain t;
  reconcile_all t;
  check_bool "both sites deoptimized" true
    (Tier.deopt_sites t "helper" = List.sort compare [ sa; sb ]);
  check_int "two deopts" 2 (Tier.stats t).Tier.st_deopts;
  check_int "ends at tier 2" 2 (Tier.tier_of t "helper")

(* ------------------------------------------------------------------ *)
(* No lost updates: trap while the promotion is in flight              *)
(* ------------------------------------------------------------------ *)

let test_stale_promotion_dropped () =
  let p = build_program () in
  let _, sb = helper_sites p in
  let cache = Svc.create_cache () in
  let t = Tier.create ~cache ~config:cfg ~arch p in
  (* first call boundary: crosses the threshold, promotion submitted *)
  let _, tier = Tier.dispatch t "helper" in
  check_int "still executing tier 0" 0 tier;
  check_int "promotion submitted" 1 (Tier.stats t).Tier.st_submitted;
  (* a trap arrives before the artifact is installed: the in-flight
     clean tier-2 version is now stale *)
  Tier.on_trap t ~func:"helper" ~site:sb;
  (* next boundary drops the stale artifact and submits the deopt
     variant instead of installing the stale one *)
  let _, tier = Tier.dispatch t "helper" in
  check_int "still tier 0 while deopt compiles" 0 tier;
  (* next boundary installs the deopt variant *)
  let _, tier = Tier.dispatch t "helper" in
  check_int "deopt variant installed" 2 tier;
  check_bool "with the trap's site" true (Tier.deopt_sites t "helper" = [ sb ]);
  let s = Tier.stats t in
  check_int "stale version never installed" 1 s.Tier.st_installs;
  check_int "both compiles submitted" 2 s.Tier.st_submitted;
  check_int "one deopt" 1 s.Tier.st_deopts;
  check_int "no demotion (tier 2 never ran)" 0 s.Tier.st_demotions;
  (* versioning: the installed key is resident, the stale clean tier-2
     key was invalidated out of the cache *)
  (match Tier.installed_key t "helper" with
  | None -> Alcotest.fail "installed version must have a cache key"
  | Some k ->
    check_bool "installed artifact resident" true
      (Codecache.find cache k <> None);
    let stale_key = Svc.job_key (Svc.job ~tier:2 ~config:cfg ~arch p) in
    check_bool "distinct version keys" true (stale_key <> k);
    check_bool "stale version invalidated" true
      (Codecache.find cache stale_key = None));
  check_bool "invalidation counted" true
    ((Codecache.stats cache).Codecache.invalidations >= 1)

(* ------------------------------------------------------------------ *)
(* End-to-end equivalence on real workloads                            *)
(* ------------------------------------------------------------------ *)

let test_workload_equivalence () =
  List.iter
    (fun name ->
      let w = Option.get (Registry.find name) in
      Ir.reset_sites ();
      let p = w.W.build ~scale:1 in
      let expected = w.W.expected ~scale:1 in
      let t =
        Tier.create ~config:{ Config.new_full with Config.promote_calls = 1 }
          ~arch p
      in
      (* two runs: the first promotes, the second is steady state *)
      let _ = Tier.run t [] in
      let r = Tier.run t [] in
      Tier.drain t;
      reconcile_all t;
      (match r.Interp.outcome with
      | Interp.Returned (Some (Value.Vint c)) ->
        check_int (name ^ ": checksum") expected c
      | o -> Alcotest.failf "%s: %a" name Interp.pp_outcome o);
      let plain = Interp.run ~arch p [] in
      check_bool (name ^ ": equivalent to untiered") true
        (Interp.equivalent r plain))
    [ "assignment"; "huffman" ]

(* ------------------------------------------------------------------ *)
(* Tier 0 is the instant compile                                       *)
(* ------------------------------------------------------------------ *)

(* On every workload under both archs the tier-0 compile runs one pass,
   [other:normalize], and behaves as the input program with the same
   dynamic explicit checks.  Tier 0 is [Compiler.compile ~tier:0], the
   compile the fuzzer's tier oracle makes: the manager's tier-0 program
   is that program, and the steady-state collector's tier-0 column
   counts its checks. *)
let test_tier0_contract () =
  let digest (p : Ir.program) = Ir.structural_digest (Ir.funcs_projection p) in
  List.iter
    (fun (config, arch) ->
      List.iter
        (fun (w : W.t) ->
          let what = w.W.name ^ " " ^ arch.Arch.name in
          Ir.reset_sites ();
          let p = w.W.build ~scale:1 in
          let c0 = Compiler.compile ~tier:0 config ~arch p in
          Alcotest.(check (list string))
            (what ^ ": passes") [ "other:normalize" ]
            (List.map (fun r -> r.Pipeline.r_pass) c0.Compiler.records);
          let raw = Interp.run ~arch p [] in
          let r0 = Interp.run ~arch c0.Compiler.program [] in
          check_bool (what ^ ": outcome") true (Interp.equivalent raw r0);
          let explicit (r : Interp.result) =
            r.Interp.counters.Interp.explicit_checks
          in
          check_int (what ^ ": explicit checks") (explicit raw) (explicit r0);
          (match Tier.artifacts (Tier.create ~config ~arch p) with
          | (0, m) :: _ ->
            Alcotest.(check string)
              (what ^ ": the manager's tier 0")
              (digest c0.Compiler.program) (digest m.Compiler.program)
          | _ -> Alcotest.failf "%s: no tier-0 artifact" what);
          check_int
            (what ^ ": the collector's tier-0 column")
            (explicit raw) (SS.collect ~config ~runs:2 ~arch w).SS.ss_tier0)
        (Registry.all ()))
    [ (Config.new_full, Arch.ia32_windows);
      (Config.aix_speculation, Arch.ppc_aix) ]

(* ------------------------------------------------------------------ *)
(* Decoded code: dispatch returns the installed version, decoded once  *)
(* ------------------------------------------------------------------ *)

let test_dispatch_decoded () =
  let p = build_program () in
  let sa, _ = helper_sites p in
  let t = Tier.create ~config:cfg ~arch p in
  let latest () =
    Ir.find_func (snd (List.hd (List.rev (Tier.artifacts t)))).Compiler.program
      "helper"
  in
  let code0, tier = Tier.dispatch t "helper" in
  check_int "first call runs tier 0" 0 tier;
  check_bool "tier-0 code is the tier-0 body" true
    (Interp.decoded_func code0 == latest ());
  let code2, tier = Tier.dispatch t "helper" in
  check_int "promotion installed" 2 tier;
  check_bool "decoded from the installed artifact" true
    (Interp.decoded_func code2 == latest ());
  let again, _ = Tier.dispatch t "helper" in
  check_bool "decoded once, at install" true (again == code2);
  (* the deopt variant replaces it at the next boundary *)
  Tier.on_trap t ~func:"helper" ~site:sa;
  let code3, tier = Tier.dispatch t "helper" in
  check_int "deopt variant installed" 2 tier;
  check_bool "a new version, decoded at its install" true
    (code3 != code2 && Interp.decoded_func code3 == latest ());
  (* decoded for the manager's arch: another arch refuses to run it *)
  match
    Interp.run ~dispatch:(fun _ -> (code3, 2)) ~arch:Arch.ppc_aix p
      [ H.new_point (); H.new_point (); H.vint 0; H.vint 0; H.vint 1 ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tier code decoded for IA32 ran under AIX"

(* ------------------------------------------------------------------ *)
(* Async steady state: the serving path installs the pool's compiles   *)
(* ------------------------------------------------------------------ *)

let test_async_steady_state () =
  let w = Option.get (Registry.find "assignment") in
  let config = { Config.new_full with Config.promote_calls = 3 } in
  let row =
    Svc.with_service ~domains:2 (fun svc ->
        SS.collect ~svc ~config ~runs:4 ~arch w)
  in
  (match SS.check_rows [ row ] with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  check_bool "promotions installed" true (row.SS.ss_promotions > 0);
  (* installs by the collector's final drain are not counted: these
     landed at call boundaries of the serving path *)
  check_bool "installs through the serving path" true
    (match row.SS.ss_served_installs with Some n -> n > 0 | None -> false)

let () =
  Alcotest.run "tier"
    [
      ( "promotion",
        [
          Alcotest.test_case "forced promotion is deterministic" `Quick
            test_forced_promotion_deterministic;
          Alcotest.test_case "below threshold stays tier 0" `Quick
            test_promotion_needs_threshold;
        ] );
      ( "deopt",
        [
          Alcotest.test_case "re-materializes exactly the trapping site"
            `Quick test_deopt_exact_site;
          Alcotest.test_case "site follows the trap" `Quick
            test_deopt_site_follows_trap;
          Alcotest.test_case "sites accumulate" `Quick test_deopt_accumulates;
        ] );
      ( "state machine",
        [
          Alcotest.test_case "stale promotion dropped, not installed" `Quick
            test_stale_promotion_dropped;
          Alcotest.test_case "dispatch returns decoded installed code" `Quick
            test_dispatch_decoded;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "tier 0 is the instant compile" `Quick
            test_tier0_contract;
          Alcotest.test_case "workloads match untiered" `Slow
            test_workload_equivalence;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "async collect reaches tiered code" `Quick
            test_async_steady_state;
        ] );
    ]
