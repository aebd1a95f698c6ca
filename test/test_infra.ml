(** Unit tests for the infrastructure: builder, validator, CFG queries,
    dominators, loop detection, preheaders and the data-flow solver. *)

open Nullelim
module H = Helpers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Builder and validator                                               *)
(* ------------------------------------------------------------------ *)

let test_builder_shapes () =
  let open Builder in
  let b = create ~name:"f" ~params:[ "x" ] () in
  let r = fresh b in
  emit b (Move (r, Cint 0));
  if_then b (Ir.Lt, Var (param b 0), Cint 10)
    ~then_:(fun b -> emit b (Move (r, Cint 1)))
    ~else_:(fun b -> emit b (Move (r, Cint 2)))
    ();
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint 3) (fun b ->
      emit b (Binop (r, Add, Var r, Var i)));
  while_ b
    ~cond:(fun _ -> (Ir.Gt, Ir.Var r, Ir.Cint 100))
    ~body:(fun b -> emit b (Binop (r, Sub, Var r, Cint 1)))
    ();
  terminate b (Return (Some (Var r)));
  let f = finish b in
  let p = H.program_of [ f ] "f" in
  Alcotest.(check (list string)) "validates" [] (Ir_validate.validate_program p);
  (* zero-trip while: body may never run *)
  let r = H.run p [ H.vint 5 ] in
  match r.Interp.outcome with
  | Interp.Returned (Some (Value.Vint 4)) -> () (* 1 + 0+1+2 = 4, <= 100 *)
  | o -> Alcotest.failf "unexpected %a" Interp.pp_outcome o

let test_validator_catches () =
  (* bad label *)
  let f : Ir.func =
    {
      fn_name = "bad";
      fn_nparams = 0;
      fn_is_method = false;
      fn_nvars = 1;
      fn_blocks = [| { instrs = [||]; term = Goto 7; breg = 0 } |];
      fn_handlers = [];
      fn_var_names = Hashtbl.create 1;
    }
  in
  check_bool "bad label flagged" true (Ir_validate.validate_func None f <> []);
  (* bad variable *)
  let f2 =
    { f with
      fn_blocks =
        [| { Ir.instrs = [| Ir.Move (5, Cint 0) |]; term = Return None; breg = 0 } |]
    }
  in
  check_bool "bad var flagged" true (Ir_validate.validate_func None f2 <> []);
  (* missing handler *)
  let f3 =
    { f with
      fn_blocks = [| { Ir.instrs = [||]; term = Return None; breg = 3 } |] }
  in
  check_bool "missing handler flagged" true
    (Ir_validate.validate_func None f3 <> [])

(* ------------------------------------------------------------------ *)
(* CFG, dominators, loops                                              *)
(* ------------------------------------------------------------------ *)

(* a diamond with a loop on one arm *)
let shape () =
  let open Builder in
  let b = create ~name:"g" ~params:[ "n" ] () in
  let r = fresh b in
  emit b (Move (r, Cint 0));
  if_then b (Ir.Lt, Var (param b 0), Cint 0)
    ~then_:(fun b -> emit b (Move (r, Cint (-1))))
    ~else_:(fun b ->
      let i = fresh b in
      count_do b ~v:i ~from:(Cint 0) ~limit:(Var (param b 0)) (fun b ->
          emit b (Binop (r, Add, Var r, Var i))))
    ();
  terminate b (Return (Some (Var r)));
  finish b

let test_cfg_edges () =
  let f = shape () in
  let cfg = Cfg.make f in
  (* entry has two successors, each with entry as predecessor *)
  let succs0 = Cfg.succs cfg 0 in
  check_int "entry successors" 2 (List.length succs0);
  List.iter
    (fun s -> check_bool "pred link" true (List.mem 0 (Cfg.preds cfg s)))
    succs0;
  (* every reachable block appears exactly once in RPO *)
  let rpo = Cfg.reverse_postorder cfg in
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun l ->
      check_bool "no duplicates in RPO" false (Hashtbl.mem seen l);
      Hashtbl.replace seen l ())
    rpo;
  check_int "entry first in RPO" 0 rpo.(0)

let test_dominators () =
  let f = shape () in
  let cfg = Cfg.make f in
  let dom = Dominance.compute cfg in
  for l = 0 to Ir.nblocks f - 1 do
    if Cfg.is_reachable cfg l then begin
      check_bool "entry dominates" true (Dominance.dominates dom 0 l);
      check_bool "self-domination" true (Dominance.dominates dom l l)
    end
  done;
  (* idom of entry is entry *)
  check_int "idom(entry)" 0 (Dominance.idom dom 0)

let test_loops () =
  let f = shape () in
  let cfg = Cfg.make f in
  let dom = Dominance.compute cfg in
  let loops = Loops.detect cfg dom in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check_bool "header in body" true (Loops.in_loop l l.Loops.header);
  check_bool "has a latch" true (l.Loops.latches <> []);
  List.iter
    (fun latch ->
      check_bool "latch in body" true (Loops.in_loop l latch);
      check_bool "header dominates latch" true
        (Dominance.dominates dom l.Loops.header latch))
    l.Loops.latches

let test_preheader () =
  let f = shape () in
  let cfg = Cfg.make f in
  let dom = Dominance.compute cfg in
  let loops = Loops.detect cfg dom in
  let l = List.hd loops in
  let ph = Loops.ensure_preheader f cfg l in
  (* rebuild and verify: the preheader's only successor is the header,
     and it is the only out-of-loop predecessor *)
  let cfg2 = Cfg.make f in
  (match (Ir.block f ph).term with
  | Ir.Goto h -> check_int "preheader jumps to header" l.Loops.header h
  | _ -> Alcotest.fail "preheader terminator");
  let outside =
    List.filter (fun p -> not (Loops.in_loop l p)) (Cfg.preds cfg2 l.Loops.header)
  in
  check_int "single outside pred" 1 (List.length outside);
  check_int "which is the preheader" ph (List.hd outside);
  (* idempotent *)
  let ph2 = Loops.ensure_preheader f cfg2 l in
  check_int "stable" ph ph2

(* ------------------------------------------------------------------ *)
(* Self-validating analysis context                                    *)
(* ------------------------------------------------------------------ *)

let loop_shape (l : Loops.loop) =
  (l.Loops.header, Array.to_list l.Loops.body, List.sort compare l.Loops.latches)

(* The context's structures equal ones computed from scratch. *)
let agrees what ctx (f : Ir.func) =
  let a = Context.cfg ctx and b = Cfg.make f in
  check_int (what ^ ": blocks") (Cfg.nblocks b) (Cfg.nblocks a);
  for l = 0 to Cfg.nblocks b - 1 do
    Alcotest.(check (list int)) (what ^ ": succs") (Cfg.succs b l) (Cfg.succs a l);
    Alcotest.(check (list int)) (what ^ ": preds") (Cfg.preds b l) (Cfg.preds a l);
    check_bool (what ^ ": handler") (Cfg.is_handler b l) (Cfg.is_handler a l)
  done;
  Alcotest.(check (array int)) (what ^ ": rpo") (Cfg.reverse_postorder b)
    (Cfg.reverse_postorder a);
  let dom = Dominance.compute b in
  for l = 0 to Cfg.nblocks b - 1 do
    check_int (what ^ ": idom") (Dominance.idom dom l)
      (Dominance.idom (Context.dom ctx) l)
  done;
  check_bool (what ^ ": loops") true
    (List.map loop_shape (Loops.detect b dom)
    = List.map loop_shape (Context.loops ctx))

(* Each structural edit below is made without telling the context; its
   next query must build a fresh snapshot that agrees with a scratch
   computation.  An instruction-only rewrite must keep the cached one. *)
let test_context_record () =
  (* a loop whose header has two outside predecessors, so it needs a
     fresh preheader *)
  let blk instrs term : Ir.block = { instrs; term; breg = Ir.no_region } in
  let f : Ir.func =
    {
      fn_name = "ctx";
      fn_nparams = 1;
      fn_is_method = false;
      fn_nvars = 2;
      fn_blocks =
        [|
          blk [| Ir.Move (1, Ir.Cint 0) |] (Ir.If (Ir.Lt, Ir.Var 0, Ir.Cint 0, 1, 2));
          blk [||] (Ir.Goto 2);
          blk [||] (Ir.If (Ir.Lt, Ir.Var 1, Ir.Var 0, 3, 4));
          blk [| Ir.Binop (1, Ir.Add, Ir.Var 1, Ir.Cint 1) |] (Ir.Goto 2);
          blk [||] (Ir.Return (Some (Ir.Var 1)));
        |];
      fn_handlers = [];
      fn_var_names = Hashtbl.create 1;
    }
  in
  let ctx = Context.make f in
  let structural what edit =
    let before = Context.cfg ctx in
    ignore (Context.loops ctx);
    edit ();
    check_bool (what ^ ": fresh snapshot") false (Context.cfg ctx == before);
    agrees what ctx f
  in
  agrees "initial" ctx f;
  let c0 = Context.cfg ctx and d0 = Context.dom ctx and l0 = Context.loops ctx in
  let b0 = Ir.block f 0 in
  b0.instrs <- Array.append b0.instrs [| Ir.Move (1, Ir.Cint 7) |];
  b0.instrs.(0) <- Ir.Move (1, Ir.Cint 8);
  check_bool "instruction rewrite: cached cfg" true (Context.cfg ctx == c0);
  check_bool "instruction rewrite: cached dominators" true (Context.dom ctx == d0);
  check_bool "instruction rewrite: cached loops" true (Context.loops ctx == l0);
  let n = Ir.nblocks f in
  structural "appended preheader" (fun () ->
      ignore
        (Loops.ensure_preheader f (Context.cfg ctx) (List.hd (Context.loops ctx))));
  check_int "a block was appended" (n + 1) (Ir.nblocks f);
  structural "appended unreachable block" (fun () ->
      f.fn_blocks <- Array.append f.fn_blocks [| blk [||] (Ir.Return None) |]);
  let last = Ir.nblocks f - 1 in
  structural "retargeted terminator" (fun () ->
      let b = Ir.block f n in
      match b.term with
      | Ir.Goto h -> b.term <- Ir.If (Ir.Lt, Ir.Var 0, Ir.Cint 0, h, 0)
      | _ -> Alcotest.fail "preheader ends in a goto");
  structural "new fn_handlers" (fun () -> f.fn_handlers <- [ (7, last) ]);
  check_bool "handler seen" true (Cfg.is_handler (Context.cfg ctx) last);
  structural "changed breg" (fun () -> (Ir.block f 0).breg <- 7);
  (* same terminator and region: only the block's identity changed *)
  structural "replaced fn_blocks slot" (fun () ->
      let b = Ir.block f 0 in
      f.fn_blocks.(0) <- { b with Ir.instrs = [||] })

(* ------------------------------------------------------------------ *)
(* Data-flow solver on a textbook problem                              *)
(* ------------------------------------------------------------------ *)

(* reaching "definitely assigned" analysis: a variable is definitely
   assigned at exit if assigned on every path — a forward must problem,
   checked against manual expectations on the diamond *)
let test_solver_must () =
  let open Builder in
  let b = create ~name:"h" ~params:[ "c" ] () in
  let x = fresh b and y = fresh b in
  if_then b (Ir.Ne, Var (param b 0), Cint 0)
    ~then_:(fun b ->
      emit b (Move (x, Cint 1));
      emit b (Move (y, Cint 1)))
    ~else_:(fun b -> emit b (Move (x, Cint 2)))
    ();
  emit b (Binop (x, Add, Var x, Cint 0));
  terminate b (Return (Some (Var x)));
  let f = finish b in
  let cfg = Cfg.make f in
  let nv = f.fn_nvars in
  let r =
    Solver.solve ~dir:Solver.Forward ~cfg ~boundary:(Bitset.empty nv)
      ~top:(Bitset.full nv) ~meet:Solver.Inter
      ~transfer:(fun l s ->
        Array.iter
          (fun i ->
            let d = Ir.def_of_instr i in
            if d <> Ir.no_var then Bitset.add_mut s d)
          (Ir.block f l).instrs)
      ()
  in
  (* find the join block: the one ending in Return *)
  let join = ref (-1) in
  Array.iteri
    (fun l (blk : Ir.block) ->
      match blk.term with Ir.Return _ -> join := l | _ -> ())
    f.fn_blocks;
  check_bool "x assigned on both paths" true (Bitset.row_mem r.Solver.inb !join x);
  check_bool "y only on one path" false (Bitset.row_mem r.Solver.inb !join y)

let test_solver_loop_fixpoint () =
  (* on the loop shape, a must-fact generated before the loop survives
     around the back edge *)
  let f = shape () in
  let cfg = Cfg.make f in
  let nv = f.fn_nvars in
  let gen_entry = Bitset.of_list nv [ 1 ] (* r := defined at entry *) in
  let r =
    Solver.solve ~dir:Solver.Forward ~cfg ~boundary:(Bitset.empty nv)
      ~top:(Bitset.full nv) ~meet:Solver.Inter
      ~transfer:(fun l s -> if l = 0 then Bitset.union_into s gen_entry)
      ()
  in
  Array.iteri
    (fun l (_ : Ir.block) ->
      if Cfg.is_reachable cfg l && l <> 0 then
        check_bool "fact reaches everywhere" true
          (Bitset.row_mem r.Solver.inb l 1))
    f.fn_blocks

(* Two functions with the same blocks and instructions: a chain of
   copies [v_j := v_(j+1)] that backward liveness settles in one sweep,
   and the same chain whose last block branches back to its first, so
   that liveness must re-visit the whole chain. *)
let copy_chain ~loop =
  let open Builder in
  let b = create ~name:"chain" ~params:[ "c" ] () in
  let k = 12 in
  let vs = Array.init (k + 1) (fun _ -> fresh b) in
  let blocks = Array.init k (fun _ -> new_block b) in
  let exit = new_block b in
  terminate b (Goto blocks.(0));
  for j = 0 to k - 1 do
    switch_to b blocks.(j);
    emit b (Move (vs.(j), Var vs.(j + 1)));
    if j < k - 1 then terminate b (Goto blocks.(j + 1))
    else
      terminate b
        (If (Ne, Var (param b 0), Cint 0, (if loop then blocks.(0) else exit), exit))
  done;
  switch_to b exit;
  terminate b (Return (Some (Var vs.(0))));
  finish b

(* A solve allocates its fact storage once: its minor words do not grow
   with the number of visits, under either engine, for liveness and for
   nullness. *)
let test_solver_words_per_visit () =
  let measure reference f =
    let cfg = Cfg.make f in
    Solver.with_reference reference (fun () ->
        let s0 = Solver.snapshot () in
        let w0 = Gc.minor_words () in
        ignore (Liveness.solve cfg);
        ignore (Nullness.solve ~deref_gen:true cfg);
        let w = Gc.minor_words () -. w0 in
        ((Solver.diff (Solver.snapshot ()) s0).Solver.visits, w))
  in
  List.iter
    (fun reference ->
      let straight = copy_chain ~loop:false and looped = copy_chain ~loop:true in
      ignore (measure reference straight);
      let v1, w1 = measure reference straight and v2, w2 = measure reference looped in
      check_bool "the loop forces re-visits" true (v2 > v1);
      Alcotest.(check (float 0.)) "same words, more visits" w1 w2)
    [ false; true ]

let test_remove_unreachable () =
  let open Builder in
  let b = create ~name:"u" ~params:[] () in
  terminate b (Return (Some (Cint 1)));
  let dead = new_block b in
  switch_to b dead;
  terminate b (Return (Some (Cint 2)));
  let f = finish b in
  check_int "two blocks" 2 (Ir.nblocks f);
  Opt_util.remove_unreachable f;
  check_int "one block" 1 (Ir.nblocks f)

let () =
  Alcotest.run "infra"
    [
      ( "builder",
        [
          Alcotest.test_case "structured shapes" `Quick test_builder_shapes;
          Alcotest.test_case "validator catches" `Quick test_validator_catches;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "edges and rpo" `Quick test_cfg_edges;
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "preheader" `Quick test_preheader;
          Alcotest.test_case "remove unreachable" `Quick test_remove_unreachable;
          Alcotest.test_case "context record" `Quick test_context_record;
        ] );
      ( "solver",
        [
          Alcotest.test_case "must problem on diamond" `Quick test_solver_must;
          Alcotest.test_case "loop fixpoint" `Quick test_solver_loop_fixpoint;
          Alcotest.test_case "words do not grow with visits" `Quick
            test_solver_words_per_visit;
        ] );
    ]
