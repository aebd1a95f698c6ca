(** Property-based tests (qcheck): random IR programs are pushed through
    every JIT configuration on every architecture and must remain
    observationally equivalent to their unoptimized selves — the precise
    exception semantics of Java is the property under test.  Additional
    algebraic properties cover the bit-set implementation and the
    idempotence of the optimization phases. *)

open Nullelim
module H = Helpers

(* ------------------------------------------------------------------ *)
(* Random program generator                                            *)
(*                                                                     *)
(* A generated function takes (ref a, ref b, int arr, int n).  A fixed  *)
(* pool of variables is pre-initialized at entry so that every use is   *)
(* defined on every path; statements then mutate the pool randomly.     *)
(* Null checks, field and array accesses, branches on nullness, loops,  *)
(* try regions, prints, divisions and redefinitions are all in the mix. *)
(* ------------------------------------------------------------------ *)

type pools = {
  ints : Ir.var list;
  refs : Ir.var list;
  arrs : Ir.var list;
}

let gen_program : Ir.program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let fld = oneofl [ H.fld_x; H.fld_y ] in
  (* Builder emission is a side effect, so a nested statement list is
     generated eagerly, inside its parent's generator, by [run]: the
     case's [generate1 ~rand:st], which keeps every random choice on the
     case's own state and lets QCHECK_SEED reproduce it. *)
  let rec stmts b pools ~run ~depth ~in_try n =
    if n <= 0 then return ()
    else stmt b pools ~run ~depth ~in_try >>= fun () ->
      stmts b pools ~run ~depth ~in_try (n - 1)
  and stmt b pools ~run ~depth ~in_try =
    let int_var = oneofl pools.ints in
    let ref_var = oneofl pools.refs in
    let arr_var = oneofl pools.arrs in
    let int_operand =
      oneof [ map (fun v -> Ir.Var v) int_var;
              map (fun n -> Ir.Cint n) (int_range (-3) 9) ]
    in
    let base =
      [
        (* arithmetic *)
        ( 4,
          int_var >>= fun d ->
          oneofl [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Band; Ir.Bxor ] >>= fun op ->
          int_operand >>= fun x ->
          int_operand >>= fun y ->
          return (Builder.emit b (Ir.Binop (d, op, x, y))) );
        (* division: may raise ArithmeticException — a barrier *)
        ( 1,
          int_var >>= fun d ->
          int_operand >>= fun x ->
          int_operand >>= fun y ->
          return (Builder.emit b (Ir.Binop (d, Div, x, y))) );
        (* explicit null check *)
        ( 2,
          ref_var >>= fun r ->
          return (Builder.emit b (Ir.Null_check (Explicit, r, Ir.fresh_site ()))) );
        (* field access through a possibly-null ref *)
        ( 3,
          int_var >>= fun d ->
          ref_var >>= fun r ->
          fld >>= fun f ->
          return (Builder.getfield b ~dst:d ~obj:r f) );
        ( 2,
          ref_var >>= fun r ->
          fld >>= fun f ->
          int_operand >>= fun x ->
          return (Builder.putfield b ~obj:r f x) );
        (* array access: the index may be out of bounds *)
        ( 2,
          int_var >>= fun d ->
          arr_var >>= fun a ->
          int_operand >>= fun idx ->
          return (Builder.aload b ~kind:Ir.Kint ~dst:d ~arr:a idx) );
        ( 2,
          arr_var >>= fun a ->
          int_operand >>= fun idx ->
          int_operand >>= fun x ->
          return (Builder.astore b ~kind:Ir.Kint ~arr:a idx x) );
        (* observable output *)
        (1, int_var >>= fun x -> return (Builder.emit b (Ir.Print (Var x))));
        (* redefinition of a ref (kills facts) *)
        ( 1,
          ref_var >>= fun d ->
          oneof [ map (fun s -> Ir.Var s) ref_var; return Ir.Cnull ]
          >>= fun s -> return (Builder.emit b (Ir.Move (d, s))) );
        (* fresh allocation *)
        ( 1,
          ref_var >>= fun d ->
          return (Builder.emit b (Ir.New_object (d, "Point"))) );
      ]
    in
    let nested =
      if depth <= 0 then []
      else
        [
          ( 2,
            int_var >>= fun x ->
            int_operand >>= fun y ->
            nat_split ~size:3 2 >>= fun sizes ->
            return
              (Builder.if_then b (Ir.Lt, Ir.Var x, y)
                 ~then_:(fun _ ->
                   run (stmts b pools ~run ~depth:(depth - 1) ~in_try sizes.(0)))
                 ~else_:(fun _ ->
                   run (stmts b pools ~run ~depth:(depth - 1) ~in_try sizes.(1)))
                 ()) );
          ( 1,
            ref_var >>= fun r ->
            nat_split ~size:3 2 >>= fun sizes ->
            return
              (Builder.if_null b r
                 ~null:(fun _ ->
                   run (stmts b pools ~run ~depth:(depth - 1) ~in_try sizes.(0)))
                 ~nonnull:(fun _ ->
                   run (stmts b pools ~run ~depth:(depth - 1) ~in_try sizes.(1)))) );
          ( 1,
            int_range 1 3 >>= fun iters ->
            int_range 1 4 >>= fun body ->
            return
              (let i = Builder.fresh b in
               Builder.count_do b ~v:i ~from:(Ir.Cint 0)
                 ~limit:(Ir.Cint iters) (fun _ ->
                   run (stmts b pools ~run ~depth:(depth - 1) ~in_try body))) );
        ]
        @
        if in_try then []
        else
          [
            ( 1,
              int_range 1 4 >>= fun body ->
              int_var >>= fun flag ->
              return
                (Builder.with_try b
                   ~handler:(fun b ->
                     Builder.emit b (Ir.Move (flag, Ir.Cint 99)))
                   (fun _ ->
                     run
                       (stmts b pools ~run ~depth:(depth - 1) ~in_try:true body))) );
          ]
    in
    frequency (base @ nested)
  and nat_split ~size n =
    array_repeat n (int_range 0 size)
  in
  (* One [int] seed per case: all the statement generators below draw
     from the state it makes. *)
  int >>= fun seed ->
  sized_size (int_range 4 14) @@ fun size ->
  return
    (let st = Random.State.make [| seed; size |] in
     let module G = QCheck2.Gen in
     let gen1 g = G.generate1 ~rand:st g in
     let b = Builder.create ~name:"f" ~params:[ "a"; "b"; "arr"; "n" ] () in
     (* variable pools, all pre-initialized *)
     let ints =
       3 :: List.init 3 (fun k ->
               let v = Builder.fresh ~name:(Printf.sprintf "t%d" k) b in
               Builder.emit b (Ir.Move (v, Ir.Cint k));
               v)
     in
     let refs =
       [ 0; 1 ]
       @ [ (let v = Builder.fresh ~name:"r" b in
            Builder.emit b (Ir.Move (v, Ir.Var 0));
            v) ]
     in
     let arrs = [ 2 ] in
     let pools = { ints; refs; arrs } in
     gen1 (stmts b pools ~run:gen1 ~depth:2 ~in_try:false size);
     (* return something observable *)
     Builder.terminate b (Ir.Return (Some (Ir.Var (List.hd ints))));
     Builder.program ~classes:[ H.point_cls ] ~main:"f" [ Builder.finish b ])

(* input vectors: all null/non-null combinations *)
let inputs () =
  let pt () = H.new_point ~x:5 () in
  let arr n = Value.Vref (Value.Arr (Value.new_array Ir.Kint n)) in
  [
    [ pt (); pt (); arr 6; H.vint 4 ];
    [ H.vnull; pt (); arr 6; H.vint 4 ];
    [ pt (); H.vnull; arr 2; H.vint 4 ];
    [ H.vnull; H.vnull; arr 0; H.vint 4 ];
  ]

let all_legal_configs =
  List.filter
    (fun c -> c.Config.phase2_arch_override = None)
    (Config.windows_suite @ Config.aix_suite)

let archs = [ Arch.ia32_windows; Arch.ppc_aix; Arch.no_trap ]

let prop_equivalence prog =
  match Ir_validate.validate_program prog with
  | _ :: _ -> QCheck2.Test.fail_report "generator produced invalid IR"
  | [] ->
    List.for_all
      (fun args ->
        let fresh () = Value.deep_copy_all args in
        let reference =
          Interp.run ~fuel:300_000 ~arch:Arch.ia32_windows prog (fresh ())
        in
        match reference.Interp.outcome with
        | Interp.Sim_error m ->
          QCheck2.Test.fail_report ("reference run broken: " ^ m)
        | _ ->
          List.for_all
            (fun arch ->
              let ref_arch = Interp.run ~fuel:300_000 ~arch prog (fresh ()) in
              List.for_all
                (fun cfg ->
                  let c = Compiler.compile cfg ~arch prog in
                  (match Verify.verify_program ~arch c.Compiler.program with
                  | [] -> ()
                  | vs ->
                    QCheck2.Test.fail_reportf
                      "%s/%s: implicit-check violation: %a" arch.Arch.name
                      cfg.Config.name Verify.pp_violation (List.hd vs));
                  let r =
                    Interp.run ~fuel:300_000 ~arch c.Compiler.program (fresh ())
                  in
                  Interp.equivalent ref_arch r
                  || QCheck2.Test.fail_reportf
                       "%s/%s changed behaviour:@.raw: %a@.opt: %a@.program:@.%a"
                       arch.Arch.name cfg.Config.name Interp.pp_outcome
                       ref_arch.Interp.outcome Interp.pp_outcome
                       r.Interp.outcome Ir_pp.pp_func (Ir.find_func prog "f"))
                all_legal_configs)
            archs)
      (inputs ())

let test_equivalence =
  QCheck2.Test.make ~count:60 ~name:"optimized ≍ raw on random programs"
    gen_program prop_equivalence

(* phase 1 is idempotent on random programs *)
let test_phase1_idempotent =
  QCheck2.Test.make ~count:40 ~name:"phase1 idempotent"
    ~print:(Fmt.str "%a" Ir_pp.pp_program)
    gen_program (fun prog ->
      let p = Ir.copy_program prog in
      Ir.iter_funcs (fun f -> ignore (Phase1.run f)) p;
      let once = Fmt.str "%a" Ir_pp.pp_program p in
      Ir.iter_funcs (fun f -> ignore (Phase1.run f)) p;
      let twice = Fmt.str "%a" Ir_pp.pp_program p in
      once = twice)

(* compilation is deterministic: compiling the same program twice under
   the same configuration yields byte-identical IR.  (Note that phase 2
   executing strictly fewer explicit checks than the naive conversion is
   NOT an invariant — forward motion may materialize a check inside a
   loop on adversarial shapes; it is a profitability heuristic that the
   workload tests check empirically.) *)
let test_deterministic =
  QCheck2.Test.make ~count:40 ~name:"compilation is deterministic"
    gen_program (fun prog ->
      List.for_all
        (fun cfg ->
          let a = Compiler.compile cfg ~arch:Arch.ia32_windows prog in
          let b = Compiler.compile cfg ~arch:Arch.ia32_windows prog in
          Fmt.str "%a" Ir_pp.pp_program a.Compiler.program
          = Fmt.str "%a" Ir_pp.pp_program b.Compiler.program)
        [ Config.new_full; Config.old_null_check ])

(* ------------------------------------------------------------------ *)
(* Bit-set algebra                                                     *)
(* ------------------------------------------------------------------ *)

let gen_bitset =
  QCheck2.Gen.(
    int_range 1 130 >>= fun size ->
    list_size (int_range 0 40) (int_range 0 (size - 1)) >>= fun elts ->
    return (size, elts))

let bs (size, elts) = Bitset.of_list size elts

let test_bitset_laws =
  let open QCheck2 in
  [
    Test.make ~count:200 ~name:"bitset: union/inter absorption"
      Gen.(pair gen_bitset (list_size (int_range 0 40) (int_range 0 1000)))
      (fun ((size, elts), other) ->
        let a = bs (size, elts) in
        let b = bs (size, List.map (fun x -> x mod size) other) in
        Bitset.equal (Bitset.inter a (Bitset.union a b)) a
        && Bitset.equal (Bitset.union a (Bitset.inter a b)) a);
    Test.make ~count:200 ~name:"bitset: complement involution"
      gen_bitset (fun se ->
        let a = bs se in
        Bitset.equal (Bitset.complement (Bitset.complement a)) a);
    Test.make ~count:200 ~name:"bitset: de morgan" gen_bitset (fun (size, elts) ->
        let a = bs (size, elts) in
        let b = bs (size, List.map (fun x -> (x * 7) mod size) elts) in
        Bitset.equal
          (Bitset.complement (Bitset.union a b))
          (Bitset.inter (Bitset.complement a) (Bitset.complement b)));
    Test.make ~count:200 ~name:"bitset: cardinal = |elements|" gen_bitset
      (fun se ->
        let a = bs se in
        Bitset.cardinal a = List.length (Bitset.elements a));
    Test.make ~count:200 ~name:"bitset: diff and mem" gen_bitset
      (fun (size, elts) ->
        let a = bs (size, elts) in
        let b = bs (size, List.filteri (fun i _ -> i mod 2 = 0) elts) in
        let d = Bitset.diff a b in
        List.for_all (fun x -> not (Bitset.mem x b) || not (Bitset.mem x d))
          (Bitset.elements a));
  ]

(* ------------------------------------------------------------------ *)
(* In-place bit-set kernels                                            *)
(* ------------------------------------------------------------------ *)

(* sizes straddling the word boundary exercise tail-word masking *)
let gen_kernel_case =
  QCheck2.Gen.(
    oneofl [ 1; 62; 63; 64; 65; 126; 127; 130 ] >>= fun size ->
    list_size (int_range 0 40) (int_range 0 (size - 1)) >>= fun xs ->
    list_size (int_range 0 40) (int_range 0 (size - 1)) >>= fun ys ->
    return (size, xs, ys))

let test_bitset_kernels =
  let open QCheck2 in
  [
    Test.make ~count:300 ~name:"kernels: _into agrees with functional ops"
      gen_kernel_case (fun (size, xs, ys) ->
        let a = Bitset.of_list size xs and b = Bitset.of_list size ys in
        let via op_into =
          let d = Bitset.copy a in
          op_into d b;
          d
        in
        Bitset.equal (via Bitset.union_into) (Bitset.union a b)
        && Bitset.equal (via Bitset.inter_into) (Bitset.inter a b)
        && Bitset.equal (via Bitset.diff_into) (Bitset.diff a b)
        &&
        let d = Bitset.empty size in
        Bitset.copy_into d a;
        Bitset.equal d a);
    Test.make ~count:300 ~name:"kernels: alias-safe when dst == src"
      gen_kernel_case (fun (size, xs, _) ->
        let a = Bitset.of_list size xs in
        let u = Bitset.copy a in
        Bitset.union_into u u;
        let i = Bitset.copy a in
        Bitset.inter_into i i;
        let d = Bitset.copy a in
        Bitset.diff_into d d;
        Bitset.equal u a && Bitset.equal i a
        && Bitset.equal d (Bitset.empty size));
    Test.make ~count:300 ~name:"kernels: word-scan iter/fold match elements"
      gen_kernel_case (fun (size, xs, _) ->
        let a = Bitset.of_list size xs in
        let seen = ref [] in
        Bitset.iter (fun x -> seen := x :: !seen) a;
        List.rev !seen = Bitset.elements a
        && Bitset.fold (fun x acc -> x :: acc) a [] = !seen
        && Bitset.fold (fun _ c -> c + 1) a 0 = Bitset.cardinal a);
    Test.make ~count:100 ~name:"kernels: full masks the tail word"
      Gen.(oneofl [ 1; 62; 63; 64; 65; 126; 127; 130 ])
      (fun size ->
        let f = Bitset.full size in
        Bitset.cardinal f = size
        && Bitset.equal (Bitset.complement (Bitset.empty size)) f
        && Bitset.subset (Bitset.of_list size [ size - 1 ]) f
        &&
        (* diffing everything out must clear the tail bits too *)
        let d = Bitset.copy f in
        Bitset.diff_into d f;
        Bitset.equal d (Bitset.empty size));
  ]

(* ------------------------------------------------------------------ *)
(* Solver engines: worklist ≍ reference round-robin                    *)
(* ------------------------------------------------------------------ *)

(* Both engines run chaotic iteration of monotone gen/kill transfers
   from the same initialization, so they must reach bit-identical
   fixpoints — on every direction/meet combination, with per-edge
   transfers and with handler blocks pinned to the boundary value.  The
   random programs include try regions, so handler-entry boundary
   forcing and region-crossing edges are exercised.  Then every real
   client runs under both engines: liveness, nullness (plain, with
   [deref_gen] as Whaley runs it, and with phase 1's [extra_exit]), the
   bound-check availability, phase 1's backward problem and phase 2's
   two solves. *)
let engines_agree prog =
  let f = Ir.find_func prog "f" in
  let cfg = Cfg.make f in
  let n = Ir.nblocks f in
  let nv = max 2 f.Ir.fn_nvars in
  (* gen = defs of the block; kill = a deterministic pseudo-random
     pair of variables, so kills differ from gens *)
  let gen_ =
    Array.init n (fun l ->
        let s = Bitset.empty nv in
        Array.iter
          (fun i ->
            let d = Ir.def_of_instr i in
            if d <> Ir.no_var then Bitset.add_mut s d)
          (Ir.block f l).instrs;
        s)
  in
  let kill =
    Array.init n (fun l ->
        Bitset.of_list nv [ (l * 5 + 1) mod nv; (l * 3 + 2) mod nv ])
  in
  let edge_kill = Bitset.of_list nv [ 1 ] in
  let handlers = List.sort_uniq compare (List.map snd f.Ir.fn_handlers) in
  let transfer l s =
    Bitset.diff_into s kill.(l);
    Bitset.union_into s gen_.(l)
  in
  (* the paper's Edge_try shape: crossing into a different try region
     kills facts (Section 4.1.1) *)
  let edge ~src ~dst s =
    if (Ir.block f src).Ir.breg <> (Ir.block f dst).Ir.breg then
      Bitset.diff_into s edge_kill
  in
  let rows_equal a b =
    List.for_all (fun l -> Bitset.equal (Bitset.row a l) (Bitset.row b l))
      (List.init n Fun.id)
  in
  let synthetic (dir, meet) =
    let boundary, top =
      match meet with
      | Solver.Inter -> (Bitset.of_list nv [ 0 ], Bitset.full nv)
      | Solver.Union -> (Bitset.of_list nv [ 0 ], Bitset.empty nv)
    in
    let solve engine =
      engine ~dir ~cfg ~boundary ~top ~meet ?edge:(Some edge)
        ?boundary_blocks:(Some handlers) ~transfer ()
    in
    let a = solve Solver.solve_worklist and b = solve Solver.solve_reference in
    rows_equal a.Solver.inb b.Solver.inb && rows_equal a.Solver.outb b.Solver.outb
  in
  (* [observe] under each engine, from the same site counter *)
  let agree what observe =
    let sites = Domain.DLS.get Ir.site_counter in
    let s0 = !sites in
    let a = Solver.with_reference false observe in
    sites := s0;
    let b = Solver.with_reference true observe in
    a = b || QCheck2.Test.fail_reportf "engines disagree on %s" what
  in
  let facts mem =
    List.init n (fun l -> List.filter (mem l) (List.init f.Ir.fn_nvars Fun.id))
  in
  let nullness ?deref_gen ?extra_exit () =
    let t = Nullness.solve ?deref_gen ?extra_exit cfg in
    facts (Nullness.nonnull_at_exit t)
  in
  (* a pass's output on a copy of the function *)
  let pass run () =
    let g = Ir.copy_func f in
    let r = run g in
    (r, g.Ir.fn_blocks)
  in
  List.for_all
    (fun dm ->
      synthetic dm
      || QCheck2.Test.fail_reportf "engines disagree (%s, %s)"
           (match fst dm with Solver.Forward -> "fwd" | Backward -> "bwd")
           (match snd dm with Solver.Inter -> "inter" | Union -> "union"))
    [
      (Solver.Forward, Solver.Inter);
      (Solver.Forward, Solver.Union);
      (Solver.Backward, Solver.Inter);
      (Solver.Backward, Solver.Union);
    ]
  && agree "liveness" (fun () ->
         let t = Liveness.solve cfg in
         let out = Bitset.empty f.Ir.fn_nvars in
         ( facts (Liveness.live_in t),
           List.init n (fun l ->
               Liveness.live_out_into t l out;
               Bitset.elements out) ))
  && agree "nullness" (fun () -> nullness ())
  && agree "nullness deref_gen" (fun () -> nullness ~deref_gen:true ())
  && agree "nullness extra_exit" (fun () -> nullness ~extra_exit:gen_ ())
  && agree "phase1 analysis" (fun () ->
         let a = Phase1.analyse cfg in
         List.map Bitset.elements
           (Array.to_list a.Phase1.out_bwd @ Array.to_list a.Phase1.earliest))
  && agree "boundcheck availability" (pass Boundcheck.eliminate_redundant)
  && agree "phase1" (pass Phase1.run)
  && agree "phase2" (pass (fun g ->
         let s = Phase2.run ~arch:Arch.ia32_windows g in
         (s.Phase2.made_implicit, s.made_explicit, s.eliminated)))

let test_solver_differential =
  QCheck2.Test.make ~count:60 ~name:"solver: worklist ≍ round-robin"
    gen_program engines_agree

(* dominance sanity on random programs *)
let test_dominance =
  QCheck2.Test.make ~count:40 ~name:"dominators: entry dominates reachable"
    gen_program (fun prog ->
      let f = Ir.find_func prog "f" in
      let cfg = Cfg.make f in
      let dom = Dominance.compute cfg in
      let ok = ref true in
      for l = 0 to Ir.nblocks f - 1 do
        (* handler blocks (and blocks reachable only through them) have
           no normal-edge dominators; the property applies to the
           normally-dominated subgraph *)
        if Cfg.is_reachable cfg l && Dominance.idom dom l >= 0 then begin
          if not (Dominance.dominates dom 0 l) then ok := false;
          if not (Dominance.dominates dom l l) then ok := false
        end
      done;
      !ok)

let () =
  let q = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "properties"
    [
      ( "differential",
        q [ test_equivalence; test_deterministic ] );
      ("idempotence", q [ test_phase1_idempotent ]);
      ("bitset", q test_bitset_laws);
      ("bitset-kernels", q test_bitset_kernels);
      ("solver", q [ test_solver_differential ]);
      ("cfg", q [ test_dominance ]);
    ]
