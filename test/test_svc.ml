(* Compile-service tests: the bounded channel's blocking/close
   semantics, the content-addressed cache's hit/evict behaviour, and
   the service-level guarantees the bench and batch driver rely on —
   parallel output byte-identical to serial, cache hit equivalent to a
   recompile, decision-log reconciliation under 4 domains, clean
   shutdown edge cases, and admission: one key and one lookup per
   request, with hits served on the submitting thread. *)

open Nullelim
module W = Nullelim_workloads.Workload
module Registry = Nullelim_workloads.Registry

let program_bytes (p : Ir.program) = Fmt.str "%a" Ir_pp.pp_program p

let job w cfg : Svc.job =
  Svc.job ~config:cfg ~arch:Arch.ia32_windows w

(* a small but non-trivial job mix reused by several tests *)
let sample_jobs () =
  let build name = (Option.get (Registry.find name)).W.build ~scale:1 in
  let progs = List.map build [ "assignment"; "huffman"; "jess" ] in
  List.concat_map
    (fun p -> [ job p Config.new_full; job p Config.old_null_check ])
    progs

(* ------------------------------------------------------------------ *)
(* Chan                                                                *)
(* ------------------------------------------------------------------ *)

let test_chan_fifo () =
  let c = Chan.create ~capacity:4 () in
  List.iter (Chan.push c) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Chan.length c);
  Alcotest.(check (list int))
    "fifo order" [ 1; 2; 3 ]
    (List.filter_map (fun () -> Chan.pop c) [ (); (); () ]);
  Chan.close c;
  Alcotest.(check bool) "closed" true
    (match Chan.try_push c 4 with _ -> false | exception Chan.Closed -> true);
  Alcotest.(check bool) "drained pop is None" true (Chan.pop c = None)

let test_chan_close_semantics () =
  let c = Chan.create ~capacity:2 () in
  Chan.push c 1;
  Chan.close c;
  Chan.close c (* idempotent *);
  (match Chan.push c 2 with
  | () -> Alcotest.fail "push after close must raise"
  | exception Chan.Closed -> ());
  (* items queued before the close still drain *)
  Alcotest.(check bool) "drains queued item" true (Chan.pop c = Some 1);
  Alcotest.(check bool) "then None" true (Chan.pop c = None)

let test_chan_try_push () =
  let c = Chan.create ~capacity:2 () in
  Alcotest.(check bool) "accepts 1st" true (Chan.try_push c 1);
  Alcotest.(check bool) "accepts 2nd" true (Chan.try_push c 2);
  Alcotest.(check bool) "refuses when full" false (Chan.try_push c 3);
  Alcotest.(check bool) "pop" true (Chan.pop c = Some 1);
  Alcotest.(check bool) "accepts after pop" true (Chan.try_push c 4);
  Chan.close c;
  match Chan.try_push c 5 with
  | (_ : bool) -> Alcotest.fail "try_push after close must raise"
  | exception Chan.Closed -> ()

(* Cross-domain: a consumer blocks on an empty channel, a bounded
   producer blocks on a full one; all items arrive in order. *)
let test_chan_cross_domain () =
  let c = Chan.create ~capacity:2 () in
  let n = 500 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          match Chan.pop c with None -> List.rev acc | Some x -> go (x :: acc)
        in
        go [])
  in
  for i = 1 to n do
    Chan.push c i
  done;
  Chan.close c;
  let got = Domain.join consumer in
  Alcotest.(check int) "all delivered" n (List.length got);
  Alcotest.(check (list int)) "in order" (List.init n (fun i -> i + 1)) got

(* [on_enqueue] sees every accepted item with the depth after its push,
   and never a refused one. *)
let test_chan_length_capacity () =
  let seen = ref [] in
  let c =
    Chan.create ~on_enqueue:(fun x d -> seen := (x, d) :: !seen) ~capacity:3 ()
  in
  Alcotest.(check int) "empty length" 0 (Chan.length c);
  Alcotest.(check int) "capacity" 3 (Chan.capacity c);
  Alcotest.(check int) "capacity is clamped" 1
    (Chan.capacity (Chan.create ~capacity:0 ()));
  Chan.push c 1;
  Chan.push c 2;
  Alcotest.(check int) "length 2" 2 (Chan.length c);
  ignore (Chan.pop c);
  Alcotest.(check int) "length falls" 1 (Chan.length c);
  Chan.push c 3;
  Chan.push c 4;
  Alcotest.(check bool) "refused when full" false (Chan.try_push c 5);
  Alcotest.(check int) "length at capacity" 3 (Chan.length c);
  Alcotest.(check (list (pair int int)))
    "hook: item and post-push depth"
    [ (1, 1); (2, 2); (3, 2); (4, 3) ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Codecache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru_eviction () =
  (* each entry "costs" its int value; budget fits two of them *)
  let c =
    Codecache.create ~budget_bytes:25 ~size:(fun v -> v) ()
  in
  Codecache.add c ~key:"a" 10;
  Codecache.add c ~key:"b" 10;
  ignore (Codecache.find c "a");
  (* "a" is now more recent than "b" *)
  Codecache.add c ~key:"c" 10;
  (* over budget: "b" is the LRU victim *)
  Alcotest.(check bool) "b evicted" true (Codecache.find c "b" = None);
  Alcotest.(check bool) "a kept" true (Codecache.find c "a" = Some 10);
  Alcotest.(check bool) "c kept" true (Codecache.find c "c" = Some 10);
  let s = Codecache.stats c in
  Alcotest.(check int) "evictions" 1 s.Codecache.evictions;
  Alcotest.(check int) "entries" 2 s.Codecache.entries;
  Alcotest.(check int) "bytes" 20 s.Codecache.bytes;
  (* replacement under the same key is not an eviction *)
  Codecache.add c ~key:"c" 12;
  Alcotest.(check int) "replace, no evict" 1
    (Codecache.stats c).Codecache.evictions

let test_cache_oversized_rejected () =
  (* an artifact larger than the whole budget is rejected outright —
     it must never displace the resident working set *)
  let c =
    Codecache.create ~budget_bytes:25 ~size:(fun v -> v) ()
  in
  Codecache.add c ~key:"a" 10;
  Codecache.add c ~key:"b" 10;
  Codecache.add c ~key:"big" 100;
  Alcotest.(check bool) "big not cached" true (Codecache.find c "big" = None);
  Alcotest.(check bool) "a survives" true (Codecache.find c "a" = Some 10);
  Alcotest.(check bool) "b survives" true (Codecache.find c "b" = Some 10);
  let s = Codecache.stats c in
  Alcotest.(check int) "rejections" 1 s.Codecache.rejections;
  Alcotest.(check int) "no evictions" 0 s.Codecache.evictions;
  Alcotest.(check int) "entries intact" 2 s.Codecache.entries;
  (* re-adding an existing key with an oversized value drops the old
     entry too: the key must not serve a stale artifact *)
  Codecache.add c ~key:"a" 100;
  Alcotest.(check bool) "stale a dropped" true (Codecache.find c "a" = None);
  Alcotest.(check int) "second rejection" 2
    (Codecache.stats c).Codecache.rejections

let test_cache_zero_budget_passthrough () =
  (* budget_bytes:0 = a pass-through cache: everything is rejected,
     nothing is resident, finds always miss *)
  let c = Codecache.create ~budget_bytes:0 ~size:(fun v -> v) () in
  Codecache.add c ~key:"a" 1;
  Codecache.add c ~key:"b" 0;
  Alcotest.(check bool) "a not cached" true (Codecache.find c "a" = None);
  Alcotest.(check bool) "b not cached" true (Codecache.find c "b" = None);
  let s = Codecache.stats c in
  Alcotest.(check int) "entries" 0 s.Codecache.entries;
  Alcotest.(check int) "bytes" 0 s.Codecache.bytes;
  Alcotest.(check int) "rejections" 2 s.Codecache.rejections;
  Alcotest.(check int) "misses" 2 s.Codecache.misses;
  Alcotest.(check int) "no evictions" 0 s.Codecache.evictions

let test_cache_remove () =
  let c = Codecache.create ~size:(fun _ -> 1) () in
  Codecache.add c ~key:"k" 7;
  Alcotest.(check bool) "present" true (Codecache.find c "k" = Some 7);
  Alcotest.(check bool) "removed" true (Codecache.remove c "k");
  Alcotest.(check bool) "gone" true (Codecache.find c "k" = None);
  Alcotest.(check bool) "second remove is false" false
    (Codecache.remove c "k");
  let s = Codecache.stats c in
  Alcotest.(check int) "one invalidation" 1 s.Codecache.invalidations;
  Alcotest.(check int) "entries" 0 s.Codecache.entries;
  Alcotest.(check int) "bytes" 0 s.Codecache.bytes

let test_cache_aggregate_stats () =
  (* digest keys, as the service uses: all resident, every hit counted,
     the reported budget is the configured one, [clear] empties *)
  let n = 64 in
  let c =
    Codecache.create ~budget_bytes:(1024 * 1024) ~size:(fun _ -> 1) ()
  in
  for i = 1 to n do
    Codecache.add c ~key:(Digest.to_hex (Digest.string (string_of_int i))) i
  done;
  for i = 1 to n do
    let k = Digest.to_hex (Digest.string (string_of_int i)) in
    Alcotest.(check bool) "resident" true (Codecache.find c k = Some i)
  done;
  let s = Codecache.stats c in
  Alcotest.(check int) "entries" n s.Codecache.entries;
  Alcotest.(check int) "bytes" n s.Codecache.bytes;
  Alcotest.(check int) "hits" n s.Codecache.hits;
  Alcotest.(check int) "budget" (1024 * 1024) s.Codecache.budget_bytes;
  Codecache.clear c;
  Alcotest.(check int) "cleared" 0 (Codecache.stats c).Codecache.entries

let test_cache_default_global_lru () =
  (* the default cache is one LRU over the whole budget: three
     artifacts of a third of it each are all resident, and the fourth
     evicts the globally least recently used one, whichever keys they
     are *)
  let c = Codecache.create ~size:(fun v -> v) () in
  let third = (Codecache.stats c).Codecache.budget_bytes / 3 in
  let key i = Digest.to_hex (Digest.string (string_of_int i)) in
  List.iter (fun i -> Codecache.add c ~key:(key i) third) [ 1; 2; 3 ];
  Alcotest.(check int) "three thirds fit" 3
    (Codecache.stats c).Codecache.entries;
  Alcotest.(check int) "no eviction yet" 0
    (Codecache.stats c).Codecache.evictions;
  ignore (Codecache.find c (key 1));
  ignore (Codecache.find c (key 3));
  Codecache.add c ~key:(key 4) third;
  Alcotest.(check bool) "2 is the LRU victim" true
    (Codecache.find c (key 2) = None);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "%d kept" i) true
        (Codecache.find c (key i) = Some third))
    [ 1; 3; 4 ];
  Alcotest.(check int) "one eviction" 1
    (Codecache.stats c).Codecache.evictions

let test_cache_counters () =
  let c = Codecache.create ~size:(fun _ -> 1) () in
  Alcotest.(check bool) "miss" true (Codecache.find c "k" = None);
  Codecache.add c ~key:"k" 0;
  Alcotest.(check bool) "hit" true (Codecache.find c "k" = Some 0);
  let s = Codecache.stats c in
  Alcotest.(check int) "hits" 1 s.Codecache.hits;
  Alcotest.(check int) "misses" 1 s.Codecache.misses;
  Codecache.clear c;
  Alcotest.(check int) "cleared" 0 (Codecache.stats c).Codecache.entries

(* A cache filled past its budget, with finds interleaved, evicts
   exactly the least recently used keys, one per add, in order: a
   reference list (most recent first) predicts every victim.  A miss
   does not touch recency, so each victim is checked absent without
   disturbing the order. *)
let test_cache_lru_order () =
  let budget = 8 in
  let c = Codecache.create ~budget_bytes:budget ~size:(fun _ -> 1) () in
  let rng = Random.State.make [| 25 |] in
  let model = ref [] (* resident keys, most recently used first *) in
  let next = ref 0 in
  let victims = ref 0 in
  for _ = 1 to 400 do
    if !model <> [] && Random.State.int rng 3 > 0 then begin
      let k = List.nth !model (Random.State.int rng (List.length !model)) in
      Alcotest.(check bool) ("hit " ^ k) true (Codecache.find c k <> None);
      model := k :: List.filter (( <> ) k) !model
    end
    else begin
      let k = string_of_int !next in
      incr next;
      Codecache.add c ~key:k 0;
      model := k :: !model;
      if List.length !model > budget then begin
        let victim = List.nth !model budget in
        model := List.filteri (fun i _ -> i < budget) !model;
        incr victims;
        Alcotest.(check bool) ("evicted " ^ victim) true
          (Codecache.find c victim = None)
      end
    end;
    let s = Codecache.stats c in
    Alcotest.(check int) "evictions" !victims s.Codecache.evictions;
    Alcotest.(check int) "entries" (List.length !model) s.Codecache.entries
  done;
  Alcotest.(check bool) "the budget was passed" true (!victims > 50);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("resident " ^ k) true (Codecache.find c k <> None))
    !model

(* ------------------------------------------------------------------ *)
(* Job keys                                                            *)
(* ------------------------------------------------------------------ *)

let test_job_key_sensitivity () =
  let w = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  let j = job w Config.new_full in
  Alcotest.(check string) "stable" (Svc.job_key j) (Svc.job_key j);
  Alcotest.(check bool) "config changes the key" true
    (Svc.job_key j <> Svc.job_key (job w Config.old_null_check));
  Alcotest.(check bool) "arch changes the key" true
    (Svc.job_key j
    <> Svc.job_key { j with Svc.jb_arch = Arch.ppc_aix });
  let w2 = (Option.get (Registry.find "huffman")).W.build ~scale:1 in
  Alcotest.(check bool) "program changes the key" true
    (Svc.job_key j <> Svc.job_key (job w2 Config.new_full));
  (* structurally identical rebuild hashes identically even though the
     site ids minted differ unless reset — so reset to make them equal *)
  Ir.reset_sites ();
  let a = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  Ir.reset_sites ();
  let b = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  Alcotest.(check string) "identical rebuild, identical key"
    (Svc.job_key (job a Config.new_full))
    (Svc.job_key (job b Config.new_full))

(* The key's previous payload, kept here as the reference it must
   refine: the pretty-printed functions plus their check sites, the
   class tables, the semantic configuration fields, the architecture
   name, the tier and the sorted deopt sites. *)
let printed_payload (j : Svc.job) =
  let b = Buffer.create 4096 in
  let p = j.Svc.jb_program and cfg = j.Svc.jb_config in
  Buffer.add_string b j.Svc.jb_arch.Arch.name;
  Buffer.add_char b '\x00';
  Buffer.add_string b
    (Printf.sprintf "%s|%b|%b|%s|%d|%b|%d|%b\x00"
       (match cfg.Config.null_opt with
       | Config.No_null_opt -> "none"
       | Config.Old_whaley -> "whaley"
       | Config.New_phase1 -> "phase1"
       | Config.New_full -> "full")
       cfg.Config.use_trap cfg.Config.speculate
       (match cfg.Config.phase2_arch_override with
       | None -> "-"
       | Some a -> a.Arch.name)
       cfg.Config.iterations cfg.Config.inline cfg.Config.heavy_factor
       cfg.Config.weak_arrays);
  Buffer.add_string b (Printf.sprintf "t%d[" j.Svc.jb_tier);
  List.iter
    (fun s -> Buffer.add_string b (string_of_int s ^ ","))
    (List.sort_uniq compare j.Svc.jb_deopt);
  Buffer.add_string b "]\x00";
  Buffer.add_string b p.Ir.prog_main;
  Buffer.add_char b '\x00';
  let sorted_keys tbl =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  List.iter
    (fun cname ->
      let c = Hashtbl.find p.Ir.classes cname in
      Buffer.add_string b c.Ir.cname;
      Buffer.add_string b (Option.value ~default:"" c.Ir.csuper);
      List.iter
        (fun (f : Ir.field) ->
          Buffer.add_string b
            (Printf.sprintf "%s@%d:%s" f.Ir.fname f.Ir.foffset
               (match f.Ir.fkind with
               | Ir.Kint -> "i"
               | Ir.Kfloat -> "f"
               | Ir.Kref -> "r")))
        c.Ir.cfields;
      List.iter
        (fun (m, fn) ->
          Buffer.add_string b m;
          Buffer.add_char b '>';
          Buffer.add_string b fn)
        c.Ir.cmethods;
      Buffer.add_char b '\x00')
    (sorted_keys p.Ir.classes);
  List.iter
    (fun fname ->
      let f = Hashtbl.find p.Ir.funcs fname in
      Buffer.add_string b (Ir_pp.func_to_string f);
      List.iter
        (fun s -> Buffer.add_string b (string_of_int s ^ ","))
        (Ir.sites_of_func f);
      Buffer.add_char b '\x00')
    (sorted_keys p.Ir.funcs);
  Buffer.contents b

(* Wherever the printed payloads differ, the keys differ: every key
   collision over the pool is a payload collision too.  The pool is the
   registry (built twice from reset sites, so equal keys do occur) and
   100 generated programs, each under every Windows configuration, with
   a tier and a deopt variant per program. *)
let test_key_refines_printed_payload () =
  let registry () =
    Ir.reset_sites ();
    List.map (fun (w : W.t) -> w.W.build ~scale:1) (Registry.all ())
  in
  let generated =
    List.init 100 (fun seed -> (Gen.generate ~seed ()).Gen.g_program)
  in
  let programs = registry () @ registry () @ generated in
  let jobs =
    List.concat_map
      (fun p ->
        let sites =
          List.concat_map Ir.sites_of_func
            (Hashtbl.fold (fun _ f acc -> f :: acc) p.Ir.funcs [])
        in
        let deopt = match sites with s :: _ -> [ s ] | [] -> [] in
        Svc.job ~tier:2 ~deopt ~config:Config.new_full ~arch:Arch.ia32_windows p
        :: List.map (job p) Config.windows_suite)
      programs
  in
  let seen = Hashtbl.create 1024 in
  let collisions = ref 0 in
  List.iter
    (fun j ->
      let key = Svc.job_key j and payload = printed_payload j in
      match Hashtbl.find_opt seen key with
      | None -> Hashtbl.add seen key payload
      | Some p ->
        incr collisions;
        if p <> payload then
          Alcotest.failf "two jobs with different printed payloads share key %s"
            key)
    jobs;
  Alcotest.(check bool) "the pool has key collisions to check" true
    (!collisions > 0)

(* Mutating one thing at a time changes the key; re-filling the hash
   tables in another order, or permuting the deopt list, does not. *)
let test_key_mutations () =
  Ir.reset_sites ();
  let p = (Option.get (Registry.find "jess")).W.build ~scale:1 in
  let key ?(tier = -1) ?(deopt = []) q =
    Svc.job_key (Svc.job ~tier ~deopt ~config:Config.new_full
                   ~arch:Arch.ia32_windows q)
  in
  let base = key p in
  let funcs q = Hashtbl.fold (fun _ f acc -> f :: acc) q.Ir.funcs [] in
  let find_func q pred what =
    match List.find_opt pred (funcs q) with
    | Some f -> f
    | None -> Alcotest.failf "jess has no function with %s" what
  in
  let mutated what mutate =
    let q = Ir.copy_program p in
    mutate q;
    Alcotest.(check bool) (what ^ " changes the key") true (key q <> base)
  in
  Alcotest.(check string) "a copy keeps the key" base (key (Ir.copy_program p));
  let refilled = Ir.copy_program p in
  let reorder tbl =
    let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    let t = Hashtbl.create 1 in
    List.iter (fun (k, v) -> Hashtbl.add t k v) (List.rev bindings);
    t
  in
  let refilled =
    {
      refilled with
      Ir.funcs = reorder refilled.Ir.funcs;
      classes = reorder refilled.Ir.classes;
    }
  in
  Alcotest.(check string) "table insertion order is not keyed" base
    (key refilled);
  mutated "one site id" (fun q ->
      let f =
        find_func q (fun f -> Ir.sites_of_func f <> []) "a check site"
      in
      let b =
        List.find
          (fun (b : Ir.block) ->
            Array.exists (fun i -> Ir.site_of_instr i <> Ir.no_site) b.Ir.instrs)
          (Array.to_list f.Ir.fn_blocks)
      in
      let i =
        Option.get
          (Array.find_index (fun i -> Ir.site_of_instr i <> Ir.no_site)
             b.Ir.instrs)
      in
      b.Ir.instrs.(i) <-
        (match b.Ir.instrs.(i) with
        | Ir.Null_check (k, v, s) -> Ir.Null_check (k, v, s + 100_000)
        | Ir.Bound_check (x, l, s) -> Ir.Bound_check (x, l, s + 100_000)
        | other -> other));
  mutated "one debug var name" (fun q ->
      let f =
        find_func q (fun f -> Hashtbl.length f.Ir.fn_var_names > 0) "var names"
      in
      let v, name =
        List.hd (Hashtbl.fold (fun v n acc -> (v, n) :: acc) f.Ir.fn_var_names [])
      in
      Hashtbl.replace f.Ir.fn_var_names v (name ^ "'"));
  mutated "one field offset" (fun q ->
      let c =
        List.find
          (fun c -> c.Ir.cfields <> [])
          (Hashtbl.fold (fun _ c acc -> c :: acc) q.Ir.classes [])
      in
      let cfields =
        match c.Ir.cfields with
        | f :: rest -> { f with Ir.foffset = f.Ir.foffset + 8 } :: rest
        | [] -> assert false
      in
      Hashtbl.replace q.Ir.classes c.Ir.cname { c with Ir.cfields });
  mutated "one handler entry" (fun q ->
      let f = find_func q (fun f -> f.Ir.fn_handlers <> []) "handlers" in
      f.Ir.fn_handlers <-
        (match f.Ir.fn_handlers with
        | (r, l) :: rest -> (r, (l + 1) mod Ir.nblocks f) :: rest
        | [] -> assert false));
  mutated "one block region" (fun q ->
      let f = find_func q (fun f -> f.Ir.fn_handlers <> []) "handlers" in
      let b = f.Ir.fn_blocks.(0) in
      b.Ir.breg <- b.Ir.breg + 1);
  let sites =
    List.sort_uniq compare (List.concat_map Ir.sites_of_func (funcs p))
  in
  let s1, s2 =
    match sites with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "jess has fewer than two check sites"
  in
  Alcotest.(check bool) "the tier changes the key" true
    (key ~tier:2 p <> base);
  Alcotest.(check bool) "the deopt set changes the key" true
    (key ~deopt:[ s1 ] p <> key ~deopt:[ s2 ] p
    && key ~deopt:[ s1 ] p <> base);
  Alcotest.(check string) "a permuted deopt list keeps the key"
    (key ~deopt:[ s1; s2 ] p) (key ~deopt:[ s2; s1 ] p);
  (* the miss benchmark's premise: without a site reset, a rebuild
     mints fresh sites and so gets a fresh key *)
  let w = Option.get (Registry.find "assignment") in
  let a = w.W.build ~scale:1 in
  let b = w.W.build ~scale:1 in
  Alcotest.(check bool) "fresh builds get fresh keys" true
    (key a <> key b)

(* Every [Config.t] field either changes the key or is listed as policy.
   The field count comes from the record itself, so adding a field to
   [Config.t] fails this test until the field is placed in one list. *)
let test_key_config_sensitivity () =
  let p = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  let base = Config.new_full in
  let key cfg = Svc.job_key (job p cfg) in
  let semantic =
    [
      ("null_opt", { base with Config.null_opt = Config.New_phase1 });
      ("use_trap", { base with Config.use_trap = not base.Config.use_trap });
      ("speculate", { base with Config.speculate = not base.Config.speculate });
      ( "phase2_arch_override",
        { base with Config.phase2_arch_override = Some Arch.ppc_aix } );
      ("iterations", { base with Config.iterations = base.Config.iterations + 1 });
      ("inline", { base with Config.inline = not base.Config.inline });
      ( "heavy_factor",
        { base with Config.heavy_factor = base.Config.heavy_factor + 1 } );
      ( "weak_arrays",
        { base with Config.weak_arrays = not base.Config.weak_arrays } );
    ]
  in
  let policy =
    [
      ("name", { base with Config.name = base.Config.name ^ "-renamed" });
      ( "promote_calls",
        { base with Config.promote_calls = base.Config.promote_calls + 1 } );
      ( "deopt_traps",
        { base with Config.deopt_traps = base.Config.deopt_traps + 1 } );
    ]
  in
  Alcotest.(check int) "every Config.t field is listed"
    (Obj.size (Obj.repr base))
    (List.length semantic + List.length policy);
  List.iter
    (fun (field, cfg) ->
      Alcotest.(check bool) (field ^ " changes the key") true
        (key cfg <> key base))
    semantic;
  Alcotest.(check bool) "the override architecture is keyed by name" true
    (key { base with Config.phase2_arch_override = Some Arch.ia32_windows }
    <> key { base with Config.phase2_arch_override = Some Arch.ppc_aix });
  List.iter
    (fun (field, cfg) ->
      Alcotest.(check string) (field ^ " leaves the key") (key base) (key cfg))
    policy

(* The key's previous digest, kept here as the reference it must
   agree with: MD5 over [Marshal.to_string ... [No_sharing]] of the
   same canonical projection the service builds. *)
let marshalled_key (j : Svc.job) =
  let sorted_bindings cmp tbl =
    List.sort
      (fun (a, _) (b, _) -> cmp a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  let func_projection (f : Ir.func) =
    let names =
      Array.init
        (List.fold_left max f.Ir.fn_nvars
           (Hashtbl.fold (fun v _ acc -> (v + 1) :: acc) f.Ir.fn_var_names []))
        (Hashtbl.find_opt f.Ir.fn_var_names)
    in
    ( f.Ir.fn_name,
      f.Ir.fn_nparams,
      f.Ir.fn_is_method,
      f.Ir.fn_nvars,
      f.Ir.fn_blocks,
      f.Ir.fn_handlers,
      names )
  in
  let p = j.Svc.jb_program in
  let projection =
    ( j.Svc.jb_arch.Arch.name,
      Config.semantic j.Svc.jb_config,
      j.Svc.jb_tier,
      List.sort_uniq Int.compare j.Svc.jb_deopt,
      p.Ir.prog_main,
      sorted_bindings String.compare p.Ir.classes,
      List.map
        (fun (name, f) -> (name, func_projection f))
        (sorted_bindings String.compare p.Ir.funcs) )
  in
  Digest.to_hex
    (Digest.string (Marshal.to_string projection [ Marshal.No_sharing ]))

(* Two jobs' keys are equal exactly when their marshalled keys are:
   each key maps to one reference key and back.  The pool is the
   registry (built twice from reset sites, so equal keys do occur) and
   100 generated programs, each under every Windows configuration at
   tier -1, at tier 0 and at tier 2 with one deopt site. *)
let test_key_agrees_with_marshal () =
  let registry () =
    Ir.reset_sites ();
    List.map (fun (w : W.t) -> w.W.build ~scale:1) (Registry.all ())
  in
  let generated =
    List.init 100 (fun seed -> (Gen.generate ~seed ()).Gen.g_program)
  in
  let jobs =
    List.concat_map
      (fun p ->
        let site =
          List.concat_map Ir.sites_of_func
            (Hashtbl.fold (fun _ f acc -> f :: acc) p.Ir.funcs [])
          |> List.sort compare
        in
        let deopt = match site with s :: _ -> [ s ] | [] -> [] in
        List.concat_map
          (fun config ->
            [
              Svc.job ~config ~arch:Arch.ia32_windows p;
              Svc.job ~tier:0 ~config ~arch:Arch.ia32_windows p;
              Svc.job ~tier:2 ~deopt ~config ~arch:Arch.ia32_windows p;
            ])
          Config.windows_suite)
      (registry () @ registry () @ generated)
  in
  let to_ref = Hashtbl.create 4096 and of_ref = Hashtbl.create 4096 in
  let equal = ref 0 in
  let bind tbl a b what =
    match Hashtbl.find_opt tbl a with
    | None -> Hashtbl.add tbl a b
    | Some b' when b' = b -> ()
    | Some b' -> Alcotest.failf "%s %s maps to both %s and %s" what a b b'
  in
  List.iter
    (fun j ->
      let key = Svc.job_key j and reference = marshalled_key j in
      if Hashtbl.mem to_ref key then incr equal;
      bind to_ref key reference "key";
      bind of_ref reference key "marshalled key")
    jobs;
  Alcotest.(check bool) "the pool has equal keys to check" true (!equal > 0);
  Alcotest.(check bool) "the pool has distinct keys" true
    (Hashtbl.length to_ref > List.length jobs / 3)

(* nesting in the first field, which the walk cannot loop on *)
type nested = Leaf | Deeper of nested * int

let test_structural_digest_edges () =
  let d = Ir.structural_digest in
  let raises what v =
    match d v with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let differ what a b =
    Alcotest.(check bool) (what ^ " differ") true (d a <> d b)
  in
  raises "a closure" (fun x -> x + 1);
  raises "a closure inside a list" [ Fun.id ];
  raises "an Int64" 42L;
  raises "an Int64 inside a tuple" (1, 42L);
  raises "a lazy value" (lazy (print_string ""));
  raises "a mutex" (Mutex.create ());
  differ "(\"ab\",\"c\") and (\"a\",\"bc\")" ("ab", "c") ("a", "bc");
  differ "\"a\" and \"a\\000\"" "a" "a\000";
  differ "\"\" and \"\\000\"" "" "\000";
  differ "0.0 and -0.0" 0.0 (-0.0);
  differ "[0.0] and [-0.0]" [| 0.0 |] [| -0.0 |];
  differ "a float array and a tuple of the same floats" [| 1.5; 2.5 |]
    (1.5, 2.5);
  differ "Ok 1 and Error 1" (Ok 1 : (int, int) result) (Error 1);
  differ "[1; 2] and [2; 1]" [ 1; 2 ] [ 2; 1 ];
  differ "1 and \"\"" 1 "";
  Alcotest.(check int) "32 hex characters" 32 (String.length (d (1, "x")));
  Alcotest.(check bool) "lowercase hex" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (d (1, "x")));
  let shared = "s" in
  Alcotest.(check string) "sharing is not seen"
    (d (shared, shared))
    (d ("s", String.make 1 's'));
  let long = List.init 1_000_000 Fun.id in
  Alcotest.(check string) "a 1,000,000-element list" (d long)
    (d (List.init 1_000_000 Fun.id));
  let rec nest n acc = if n = 0 then acc else nest (n - 1) (Deeper (acc, n)) in
  Alcotest.(check bool) "100,000 levels nested before a last field" true
    (d (nest 100_000 Leaf) <> d (nest 99_999 Leaf))

(* The node-count size estimate stays close to the printed size the
   64 MiB budget was sized against, on every registry artifact. *)
let test_artifact_bytes_scale () =
  let printed (c : Compiler.compiled) =
    let n = ref 0 in
    Ir.iter_funcs
      (fun f -> n := !n + String.length (Ir_pp.func_to_string f))
      c.Compiler.program;
    !n + (64 * List.length c.Compiler.decisions) + 1024
  in
  List.iter
    (fun (w : W.t) ->
      let p = w.W.build ~scale:1 in
      List.iter
        (fun cfg ->
          let c = Compiler.compile cfg ~arch:Arch.ia32_windows p in
          let ratio =
            float_of_int (Svc.artifact_bytes c) /. float_of_int (printed c)
          in
          if ratio < 0.5 || ratio > 2. then
            Alcotest.failf "%s/%s: estimate is %.2fx the printed size"
              w.W.name cfg.Config.name ratio)
        Config.windows_suite)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Determinism: parallel ≡ serial                                      *)
(* ------------------------------------------------------------------ *)

let check_same_outcome ~what (serial : Svc.outcome) (parallel : Svc.outcome) =
  let s = serial.Svc.oc_compiled and p = parallel.Svc.oc_compiled in
  Alcotest.(check string)
    (what ^ ": optimized program bytes")
    (program_bytes s.Compiler.program)
    (program_bytes p.Compiler.program);
  Alcotest.(check bool)
    (what ^ ": check stats") true
    (s.Compiler.checks = p.Compiler.checks);
  Alcotest.(check int)
    (what ^ ": decision count")
    (List.length s.Compiler.decisions)
    (List.length p.Compiler.decisions);
  Alcotest.(check bool)
    (what ^ ": decision events") true
    (s.Compiler.decisions = p.Compiler.decisions)

let test_parallel_matches_serial () =
  let jobs = sample_jobs () in
  let serial = Svc.compile_serial jobs in
  Svc.with_service ~domains:4 (fun t ->
      let parallel = Svc.compile_all t jobs in
      Alcotest.(check int)
        "same number of outcomes"
        (List.length serial) (List.length parallel);
      List.iteri
        (fun i (s, p) ->
          Alcotest.(check bool)
            "order preserved: same job" true
            (p.Svc.oc_job == List.nth jobs i);
          check_same_outcome ~what:(Printf.sprintf "job %d" i) s p)
        (List.combine serial parallel))

(* The reference-solver switch is domain-local: flipping it on the
   calling domain must not reach any request's compile — neither a
   pool worker's nor one the caller runs itself while it waits — which
   keeps the worklist engine's solver counts. *)
let test_solver_switch_domain_local () =
  let prog = (Option.get (Registry.find "javac")).W.build ~scale:1 in
  let solver_counts reference =
    Solver.with_reference reference (fun () ->
        (Compiler.compile Config.new_full ~arch:Arch.ia32_windows prog)
          .Compiler.solver)
  in
  let worklist = solver_counts false and reference = solver_counts true in
  Alcotest.(check bool) "the engines count differently" true (worklist <> reference);
  let pooled =
    Solver.with_reference true (fun () ->
        Svc.with_service ~domains:1 (fun t ->
            match Svc.compile_all t [ job prog Config.new_full ] with
            | [ o ] -> o.Svc.oc_compiled.Compiler.solver
            | _ -> Alcotest.fail "one job, one outcome"))
  in
  Alcotest.(check bool) "worker used the worklist engine" true (pooled = worklist)

(* ------------------------------------------------------------------ *)
(* Cache correctness: a hit is indistinguishable from a recompile      *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_equals_recompile () =
  let jobs = sample_jobs () in
  let cache = Svc.create_cache () in
  Svc.with_service ~domains:2 ~cache (fun t ->
      let cold = Svc.compile_all t jobs in
      Alcotest.(check bool)
        "cold pass has no hit" true
        (List.for_all (fun o -> not o.Svc.oc_cache_hit) cold);
      let warm = Svc.compile_all t jobs in
      Alcotest.(check bool)
        "warm pass is all hits" true
        (List.for_all (fun o -> o.Svc.oc_cache_hit) warm);
      let recompiled = Svc.compile_serial jobs in
      List.iter2
        (fun (c : Svc.outcome) (w : Svc.outcome) ->
          Alcotest.(check string) "the outcome carries the job's key"
            (Svc.job_key w.Svc.oc_job) w.Svc.oc_key;
          Alcotest.(check string) "hit and miss agree on the key" c.Svc.oc_key
            w.Svc.oc_key)
        cold warm;
      List.iteri
        (fun i (w, r) ->
          check_same_outcome ~what:(Printf.sprintf "warm job %d" i) r w)
        (List.combine warm recompiled);
      let s = Option.get (Option.map Codecache.stats (Svc.cache t)) in
      Alcotest.(check int) "hits" (List.length jobs) s.Codecache.hits;
      Alcotest.(check int) "misses" (List.length jobs) s.Codecache.misses)

(* ------------------------------------------------------------------ *)
(* Reconciliation sweep under 4 domains                                *)
(* ------------------------------------------------------------------ *)

let test_reconciliation_parallel () =
  let configs =
    [
      Config.no_null_opt_no_trap;
      Config.old_null_check;
      Config.new_phase1_only;
      Config.new_full;
    ]
  in
  let jobs =
    List.concat_map
      (fun (w : W.t) ->
        let p = w.W.build ~scale:1 in
        List.map (job p) configs)
      (Registry.all ())
  in
  Svc.with_service ~domains:4 ~cache:(Svc.create_cache ()) (fun t ->
      let outcomes = Svc.compile_all t jobs in
      List.iter
        (fun (o : Svc.outcome) ->
          match Compiler.reconcile o.Svc.oc_compiled with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "decision log does not reconcile under domains: %s"
              e)
        outcomes)

(* ------------------------------------------------------------------ *)
(* Service lifecycle edge cases                                        *)
(* ------------------------------------------------------------------ *)

let test_empty_batch () =
  Svc.with_service ~domains:2 (fun t ->
      Alcotest.(check int) "empty batch" 0 (List.length (Svc.compile_all t [])))

let test_shutdown_semantics () =
  let t = Svc.create ~domains:2 () in
  Svc.shutdown t;
  Svc.shutdown t (* idempotent *);
  match Svc.compile_all t (sample_jobs ()) with
  | _ -> Alcotest.fail "compile_all after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_queue_smaller_than_batch () =
  (* the bounded queue must not deadlock when the batch exceeds it *)
  let w = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  let jobs = List.init 16 (fun _ -> job w Config.new_full) in
  Svc.with_service ~domains:2 ~queue_capacity:2 (fun t ->
      Alcotest.(check int)
        "all jobs complete" 16
        (List.length (Svc.compile_all t jobs)))

(* The service's request counters, read from the registry it accounts
   into: each test passes its own, so no other traffic is counted. *)
let requests metrics what =
  Obs.Metrics.counter_total_any metrics ("svc_requests_" ^ what ^ "_total")

let events recorder kind =
  List.filter
    (fun e -> e.Obs.Recorder.ev_kind = kind)
    (Obs.Recorder.dump recorder)

(* Closed accounting from the registry, and the queue-depth series from
   the flight events: each Req_enqueue carries the depth after its
   push. *)
let test_closed_accounting () =
  let w = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  let jobs = List.init 12 (fun _ -> job w Config.new_full) in
  let metrics = Obs.Metrics.create () and recorder = Obs.Recorder.create () in
  Svc.with_service ~domains:2 ~queue_capacity:4 ~metrics ~recorder (fun t ->
      let outcomes = Svc.compile_all t jobs in
      Alcotest.(check int) "domains" 2 (Svc.domains t);
      Alcotest.(check int) "submitted" 12 (requests metrics "submitted");
      Alcotest.(check int) "completed after batch" 12
        (requests metrics "completed");
      Alcotest.(check int) "nothing shed" 0 (requests metrics "shed");
      let depths =
        List.map
          (fun e -> e.Obs.Recorder.ev_b)
          (events recorder Obs.Recorder.Req_enqueue)
      in
      Alcotest.(check int) "one enqueue per job" 12 (List.length depths);
      Alcotest.(check int) "every queued job started" 12
        (List.length (events recorder Obs.Recorder.Req_start));
      Alcotest.(check bool) "depth after a push is positive" true
        (List.for_all (fun d -> d > 0) depths);
      Alcotest.(check bool) "depth within capacity" true
        (List.for_all (fun d -> d <= 4) depths);
      (* outcome timing fields the load generator builds on *)
      List.iter
        (fun (o : Svc.outcome) ->
          Alcotest.(check bool) "queued_seconds >= 0" true
            (o.Svc.oc_queued_seconds >= 0.);
          Alcotest.(check bool) "done_at covers the compile" true
            (o.Svc.oc_done_at >= 0.))
        outcomes)

(* A job whose compile raises: one block that jumps to a label the
   function does not have. *)
let failing_job () =
  let p = (Option.get (Registry.find "assignment")).W.build ~scale:1 in
  let f = Hashtbl.find p.Ir.funcs p.Ir.prog_main in
  f.Ir.fn_blocks.(0).Ir.term <- Ir.Goto (Array.length f.Ir.fn_blocks + 7);
  job p Config.new_full

let test_failing_job () =
  let bad = failing_job () in
  let expected =
    match Svc.compile_serial [ bad ] with
    | _ -> Alcotest.fail "the broken job must not compile"
    | exception e -> e
  in
  let raises_expected what f =
    match f () with
    | _ -> Alcotest.failf "%s: returned instead of raising" what
    | exception e ->
      Alcotest.(check string) what (Printexc.to_string expected)
        (Printexc.to_string e)
  in
  let good = sample_jobs () in
  let metrics = Obs.Metrics.create () in
  Svc.with_service ~domains:2 ~queue_capacity:2 ~metrics (fun t ->
      raises_expected "batch re-raises the failing job's exception" (fun () ->
          Svc.compile_all t (good @ [ bad ] @ good));
      Alcotest.(check int) "the whole batch was submitted"
        ((2 * List.length good) + 1)
        (requests metrics "submitted");
      Alcotest.(check int) "every submitted job completed"
        (requests metrics "submitted")
        (requests metrics "completed");
      Alcotest.(check int) "the next batch succeeds" (List.length good)
        (List.length (Svc.compile_all t good));
      match Svc.recompile_async t bad with
      | None -> Alcotest.fail "an idle queue must accept the job"
      | Some f ->
        raises_expected "await re-raises" (fun () -> Svc.await f);
        raises_expected "poll re-raises once done" (fun () -> Svc.poll f))

(* ------------------------------------------------------------------ *)
(* A waiting caller compiles queued requests                           *)
(* ------------------------------------------------------------------ *)

(* Everything of an artifact but its measurements: the start and
   seconds of the compile and of each pass record, and each pass's
   minor words, which depend on the domain's history (they were seen to
   differ between a worker's compile and a serial one). *)
let check_same_artifact ~what (a : Compiler.compiled) (b : Compiler.compiled) =
  Alcotest.(check string) (what ^ ": program bytes")
    (program_bytes a.Compiler.program) (program_bytes b.Compiler.program);
  Alcotest.(check bool) (what ^ ": config") true (a.Compiler.config = b.Compiler.config);
  Alcotest.(check bool) (what ^ ": arch") true (a.Compiler.arch == b.Compiler.arch);
  let untimed (c : Compiler.compiled) =
    List.map
      (fun (r : Pipeline.record) ->
        (r.Pipeline.r_pass, r.Pipeline.r_solver))
      c.Compiler.records
  in
  Alcotest.(check bool) (what ^ ": pass records") true (untimed a = untimed b);
  Alcotest.(check bool) (what ^ ": solver") true (a.Compiler.solver = b.Compiler.solver);
  Alcotest.(check bool) (what ^ ": checks") true (a.Compiler.checks = b.Compiler.checks);
  Alcotest.(check bool) (what ^ ": decisions") true
    (a.Compiler.decisions = b.Compiler.decisions)

(* Submit [jobs] to a one-worker service and await the last: while the
   worker compiles one, the caller runs the rest off the queue.  Which
   requests the caller gets depends on scheduling (the worker may take
   them all if the caller is descheduled), so this retries a few rounds
   until the caller has helped with at least one of them. *)
let helped_round jobs =
  let rec round k =
    let futures, helper =
      Svc.with_service ~domains:1 (fun t ->
          let fs =
            List.map (fun j -> Option.get (Svc.recompile_async t j)) jobs
          in
          ignore (Svc.await (List.nth fs (List.length fs - 1)));
          (fs, Svc.domains t))
    in
    let helped =
      List.exists
        (fun f ->
          match Svc.poll f with
          | Some o -> o.Svc.oc_worker = helper
          | None | (exception _) -> false)
        futures
    in
    if helped || k = 0 then (futures, helper, helped) else round (k - 1)
  in
  round 20

let test_helped_equals_serial () =
  let jobs = sample_jobs () in
  let serial = Svc.compile_serial jobs in
  let futures, helper, helped = helped_round jobs in
  Alcotest.(check bool) "the waiting caller compiled a request" true helped;
  List.iteri
    (fun i (s, f) ->
      let o = Option.get (Svc.poll f) in
      Alcotest.(check bool) "worker 0 or the helper" true
        (o.Svc.oc_worker = 0 || o.Svc.oc_worker = helper);
      check_same_artifact ~what:(Printf.sprintf "job %d" i)
        s.Svc.oc_compiled o.Svc.oc_compiled)
    (List.combine serial futures)

(* A helped request that fails fails its own future only: the caller
   that ran it goes on waiting for its own request, which succeeds. *)
let test_helped_failure () =
  let good = sample_jobs () in
  let jobs = (List.hd good :: failing_job () :: List.tl good) in
  let futures, _, helped = helped_round jobs in
  Alcotest.(check bool) "the waiting caller compiled a request" true helped;
  List.iteri
    (fun i f ->
      match Svc.poll f with
      | Some o when i <> 1 ->
        Alcotest.(check bool) "a good job's own artifact" true
          (o.Svc.oc_job == List.nth jobs i)
      | Some _ -> Alcotest.fail "the broken job compiled"
      | None -> Alcotest.failf "job %d never completed" i
      | exception _ when i = 1 -> ()
      | exception e ->
        Alcotest.failf "job %d failed: %s" i (Printexc.to_string e))
    futures

(* With its request already on the worker and nothing queued, [await]
   blocks on the request's condition and wakes when the worker is done;
   the caller compiles nothing.  The request is the service's only one,
   so its Req_start says the worker took it.  Whether the compile is
   still running when [await] starts waiting depends on scheduling
   (javac makes it likely); the result is the worker's either way. *)
let test_await_blocks_when_queue_empty () =
  let prog = (Option.get (Registry.find "javac")).W.build ~scale:1 in
  let metrics = Obs.Metrics.create () and recorder = Obs.Recorder.create () in
  Svc.with_service ~domains:1 ~metrics ~recorder (fun t ->
      let f = Option.get (Svc.recompile_async t (job prog Config.new_full)) in
      while events recorder Obs.Recorder.Req_start = [] do
        Domain.cpu_relax ()
      done;
      let o = Svc.await f in
      Alcotest.(check int) "the worker compiled it" 0 o.Svc.oc_worker;
      Alcotest.(check int) "everything completed" 1
        (requests metrics "completed"))

(* [poll] never runs queued work, so the serving thread never blocks:
   polled to completion, every request is compiled by the pool. *)
let test_poll_never_helps () =
  let jobs = sample_jobs () in
  let outcomes =
    Svc.with_service ~domains:1 (fun t ->
        let fs = List.map (fun j -> Option.get (Svc.recompile_async t j)) jobs in
        List.map
          (fun f ->
            let rec spin () =
              match Svc.poll f with
              | Some o -> o
              | None -> Domain.cpu_relax (); spin ()
            in
            spin ())
          fs)
  in
  Alcotest.(check bool) "every request ran on worker 0" true
    (List.for_all (fun o -> o.Svc.oc_worker = 0) outcomes)

(* ------------------------------------------------------------------ *)
(* Admission: a cache hit is served on the submitting thread           *)
(* ------------------------------------------------------------------ *)

let lookups cache =
  let s = Codecache.stats cache in
  s.Codecache.hits + s.Codecache.misses

(* Each request does exactly one counted lookup, whether it hits or
   misses and whichever entry point admitted it; a hit through
   [recompile_async] is complete before the call returns, so no worker
   took part; and every artifact equals the serial compile's. *)
let test_one_lookup_per_request () =
  let jobs = sample_jobs () in
  let serial = Svc.compile_serial jobs in
  let check_against_serial what outcomes =
    List.iteri
      (fun i (s, o) -> check_same_outcome ~what:(Printf.sprintf "%s %d" what i) s o)
      (List.combine serial outcomes)
  in
  let n = List.length jobs in
  (* recompile_async: a cold pass, then a warm one *)
  let cache = Svc.create_cache () in
  let metrics = Obs.Metrics.create () in
  Svc.with_service ~domains:1 ~cache ~metrics (fun t ->
      let cold =
        List.map
          (fun j -> Svc.await (Option.get (Svc.recompile_async t j)))
          jobs
      in
      Alcotest.(check int) "cold async: one lookup per request" n (lookups cache);
      Alcotest.(check int) "cold async: every request missed" n
        (Codecache.stats cache).Codecache.misses;
      check_against_serial "cold async" cold;
      let warm =
        List.map
          (fun j ->
            match Svc.recompile_async t j with
            | None -> Alcotest.fail "a hit must not be shed"
            | Some f -> (
              match Svc.poll f with
              | Some o -> o
              | None -> Alcotest.fail "a hit is complete when recompile_async returns"))
          jobs
      in
      Alcotest.(check int) "warm async: one lookup per request" (2 * n)
        (lookups cache);
      Alcotest.(check int) "warm async: every request hit" n
        (Codecache.stats cache).Codecache.hits;
      List.iter
        (fun (o : Svc.outcome) ->
          Alcotest.(check bool) "served at admission" true o.Svc.oc_cache_hit;
          Alcotest.(check int) "no worker" (-1) o.Svc.oc_worker;
          Alcotest.(check (float 0.)) "no queue wait" 0. o.Svc.oc_queued_seconds;
          Alcotest.(check string) "the outcome carries the job's key"
            (Svc.job_key o.Svc.oc_job) o.Svc.oc_key)
        warm;
      check_against_serial "warm async" warm;
      Alcotest.(check int) "submitted = completed"
        (requests metrics "submitted")
        (requests metrics "completed");
      Alcotest.(check int) "every request submitted" (2 * n)
        (requests metrics "submitted"));
  (* compile_all: the same on a fresh cache *)
  let cache = Svc.create_cache () in
  Svc.with_service ~domains:2 ~cache (fun t ->
      let cold = Svc.compile_all t jobs in
      Alcotest.(check int) "cold batch: one lookup per request" n (lookups cache);
      check_against_serial "cold batch" cold;
      let warm = Svc.compile_all t jobs in
      Alcotest.(check int) "warm batch: one lookup per request" (2 * n)
        (lookups cache);
      Alcotest.(check int) "warm batch: every request hit" n
        (Codecache.stats cache).Codecache.hits;
      Alcotest.(check bool) "warm batch: no worker" true
        (List.for_all (fun o -> o.Svc.oc_worker = -1) warm);
      check_against_serial "warm batch" warm);
  (* compile_serial admits the same way *)
  let cache = Svc.create_cache () in
  ignore (Svc.compile_serial ~cache jobs);
  ignore (Svc.compile_serial ~cache jobs);
  Alcotest.(check int) "serial: one lookup per request" (2 * n) (lookups cache);
  Alcotest.(check int) "serial: warm pass hit" n (Codecache.stats cache).Codecache.hits

(* A shut-down service refuses a request before its lookup, even one
   whose key would hit. *)
let test_shutdown_before_lookup () =
  let jobs = sample_jobs () in
  let cache = Svc.create_cache () in
  ignore (Svc.compile_serial ~cache jobs);
  let metrics = Obs.Metrics.create () in
  let t = Svc.create ~domains:1 ~cache ~metrics () in
  Svc.shutdown t;
  let before = lookups cache in
  (match Svc.recompile_async t (List.hd jobs) with
  | _ -> Alcotest.fail "recompile_async after shutdown must raise"
  | exception Invalid_argument _ -> ());
  (match Svc.compile_all t jobs with
  | _ -> Alcotest.fail "compile_all after shutdown must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "no lookup after shutdown" before (lookups cache);
  Alcotest.(check int) "nothing submitted" 0 (requests metrics "submitted")

(* The tenant cap guards queue slots, and a hit never takes one: a burst
   of hits from a capped tenant is never shed, and the queue never sees
   any of it. *)
let test_hits_bypass_queue_and_cap () =
  let jobs = sample_jobs () in
  let cache = Svc.create_cache () in
  ignore (Svc.compile_serial ~cache jobs);
  let metrics = Obs.Metrics.create () and recorder = Obs.Recorder.create () in
  let n = 60 in
  Svc.with_service ~domains:1 ~queue_capacity:1 ~cache ~metrics ~recorder
    ~tenant_cap:1 (fun t ->
      for i = 0 to n - 1 do
        match Svc.recompile_async t ~tenant:0 (List.nth jobs (i mod List.length jobs)) with
        | Some f -> ignore (Svc.await f)
        | None -> Alcotest.failf "hit %d was shed" i
      done;
      Alcotest.(check int) "nothing shed" 0 (requests metrics "shed");
      Alcotest.(check int) "submitted = completed"
        (requests metrics "submitted")
        (requests metrics "completed");
      Alcotest.(check int) "all submitted" n (requests metrics "submitted");
      Alcotest.(check bool) "the queue was never used" true
        (List.for_all
           (fun e -> e.Obs.Recorder.ev_b = 0)
           (events recorder Obs.Recorder.Req_enqueue)
        && List.for_all
             (fun e -> e.Obs.Recorder.ev_b = -1)
             (events recorder Obs.Recorder.Req_start));
      let count name =
        Obs.Metrics.counter_total metrics ~labels:[ ("tenant", "0") ] name
      in
      Alcotest.(check int) "tenant submitted" n
        (count "svc_requests_submitted_total");
      Alcotest.(check int) "tenant completed" n
        (count "svc_requests_completed_total");
      Alcotest.(check int) "queue-wait samples" n
        (Obs.Metrics.histogram_total_count metrics ~labels:[ ("tenant", "0") ]
           "svc_queue_wait_seconds"))

(* A burst from one capped tenant that mixes hits with cold misses:
   misses beyond the cap are shed, hits never are, and the accounting
   stays closed — submitted + shed = offered, and once every accepted
   request has been awaited, submitted = completed. *)
let test_mixed_hit_shed_accounting () =
  let warm = sample_jobs () in
  let cache = Svc.create_cache () in
  ignore (Svc.compile_serial ~cache warm);
  let warm_keys = List.map Svc.job_key warm in
  let cold =
    List.concat_map
      (fun (w : W.t) ->
        let p = w.W.build ~scale:1 in
        List.map (job p) Config.windows_suite)
      (Registry.all ())
    |> List.filter (fun j -> not (List.mem (Svc.job_key j) warm_keys))
  in
  let nwarm = List.length warm in
  let metrics = Obs.Metrics.create () in
  Svc.with_service ~domains:1 ~cache ~metrics ~tenant_cap:1 (fun t ->
      let offered = ref 0 and shed_misses = ref 0 and futures = ref [] in
      let offer j =
        incr offered;
        Svc.recompile_async t ~tenant:0 j
      in
      List.iteri
        (fun i miss ->
          (match offer (List.nth warm (i mod nwarm)) with
          | Some f ->
            Alcotest.(check bool) "a hit is complete at once" true
              (Option.is_some (Svc.poll f))
          | None -> Alcotest.failf "hit %d was shed" i);
          match offer miss with
          | Some f -> futures := f :: !futures
          | None -> incr shed_misses)
        cold;
      List.iter (fun f -> ignore (Svc.await f)) !futures;
      let submitted = requests metrics "submitted"
      and shed = requests metrics "shed" in
      Alcotest.(check bool) "a burst of misses against cap 1 sheds" true
        (shed > 0);
      Alcotest.(check int) "only misses were shed" !shed_misses shed;
      Alcotest.(check int) "submitted + shed = offered" !offered
        (submitted + shed);
      Alcotest.(check int) "submitted = completed" submitted
        (requests metrics "completed"))

(* With a cache, a batch that repeats its jobs compiles each key once:
   the later copies wait for the first and then hit, each still with
   one lookup, and every artifact equals the serial compile's. *)
let test_batch_single_flight () =
  let jobs = sample_jobs () in
  let n = List.length jobs in
  let serial = Svc.compile_serial jobs in
  let cache = Svc.create_cache () in
  let outcomes =
    Svc.with_service ~domains:2 ~cache (fun t -> Svc.compile_all t (jobs @ jobs))
  in
  let s = Codecache.stats cache in
  Alcotest.(check int) "one lookup per request" (2 * n) (lookups cache);
  Alcotest.(check int) "each key compiled once" n s.Codecache.misses;
  Alcotest.(check int) "every repeat hit" n s.Codecache.hits;
  List.iteri
    (fun i (o : Svc.outcome) ->
      if i < n then
        Alcotest.(check bool) "a first copy misses" false o.Svc.oc_cache_hit
      else begin
        Alcotest.(check bool) "a repeat hits" true o.Svc.oc_cache_hit;
        Alcotest.(check int) "a repeat is served at admission" (-1)
          o.Svc.oc_worker
      end)
    outcomes;
  List.iteri
    (fun i (s, o) -> check_same_outcome ~what:(Printf.sprintf "job %d" i) s o)
    (List.combine (serial @ serial) outcomes)

(* On a mixed hit/miss/shed run every completed request has a complete
   causal timeline and each request records one event per step: a hit
   reads enqueue <= start <= Cache_hit <= done on worker -1, a miss
   starts with its Cache_miss, a shed request is its Cache_miss and its
   Req_shed; and the trace export keeps one lane.  The sheds come from a
   burst of cold misses by one tenant capped at one queued request: two
   domains compile far slower than the caller admits (the same bet as
   "mixed hit/shed accounting"). *)
let test_admission_timelines () =
  let module Recorder = Obs.Recorder in
  let module Timeline = Obs.Timeline in
  let recorder = Recorder.create ~capacity:8192 () in
  let cache = Svc.create_cache ~recorder () in
  let jobs = sample_jobs () in
  let cold =
    List.filter_map
      (fun (w : W.t) ->
        if List.mem w.W.name [ "assignment"; "huffman"; "jess" ] then None
        else Some (job (w.W.build ~scale:1) Config.new_full))
      (Registry.all ())
  in
  let first = List.filteri (fun i _ -> i mod 2 = 0) jobs in
  let hit_ids = ref [] and miss_ids = ref [] and shed = ref 0 in
  Svc.with_service ~domains:2 ~cache ~recorder ~tenant_cap:1 (fun t ->
      ignore (Svc.compile_all t first);
      List.iter
        (fun j ->
          let o = Svc.await (Option.get (Svc.recompile_async t ~tenant:3 j)) in
          let id = o.Svc.oc_ctx.Obs.Ctx.cx_request in
          if o.Svc.oc_cache_hit then hit_ids := id :: !hit_ids
          else miss_ids := id :: !miss_ids)
        jobs;
      List.filter_map
        (fun j ->
          let f = Svc.recompile_async t ~tenant:4 j in
          if f = None then incr shed;
          f)
        cold
      |> List.iter (fun f -> ignore (Svc.await f)));
  Alcotest.(check int) "hits" 3 (List.length !hit_ids);
  Alcotest.(check int) "misses" 3 (List.length !miss_ids);
  Alcotest.(check bool) "the capped burst shed" true (!shed > 0);
  Alcotest.(check int) "nothing dropped" 0 (Recorder.dropped recorder);
  let tls = Timeline.of_events (Recorder.dump recorder) in
  (match Timeline.check_complete tls with
  | Ok () -> ()
  | Error e -> Alcotest.failf "timelines incomplete: %s" e);
  Alcotest.(check int) "one timeline per request"
    (List.length first + List.length jobs + List.length cold)
    (List.length tls);
  List.iter
    (fun (tl : Timeline.t) ->
      let expected =
        if Timeline.phase tl = Timeline.Shed then
          Recorder.[ Cache_miss; Req_shed ]
        else if List.mem tl.Timeline.tl_request !hit_ids then
          Recorder.[ Req_enqueue; Req_start; Cache_hit; Req_done ]
        else Recorder.[ Cache_miss; Req_enqueue; Req_start; Req_done ]
      in
      Alcotest.(check (list string))
        (Printf.sprintf "request %d's events" tl.Timeline.tl_request)
        (List.map Recorder.kind_name expected)
        (List.map
           (fun e -> Recorder.kind_name e.Recorder.ev_kind)
           tl.Timeline.tl_events))
    tls;
  let timeline id = List.find (fun tl -> tl.Timeline.tl_request = id) tls in
  let ts kind (tl : Timeline.t) =
    match
      List.find_opt (fun e -> e.Recorder.ev_kind = kind) tl.Timeline.tl_events
    with
    | Some e -> e
    | None -> Alcotest.failf "request %d has no %s" tl.Timeline.tl_request
                (Recorder.kind_name kind)
  in
  List.iter
    (fun id ->
      let tl = timeline id in
      let e = ts Recorder.Req_enqueue tl and s = ts Recorder.Req_start tl
      and h = ts Recorder.Cache_hit tl and d = ts Recorder.Req_done tl in
      Alcotest.(check bool) "enqueue <= start <= cache hit <= done" true
        (e.Recorder.ev_ts <= s.Recorder.ev_ts
        && s.Recorder.ev_ts <= h.Recorder.ev_ts
        && h.Recorder.ev_ts <= d.Recorder.ev_ts);
      Alcotest.(check int) "start on worker -1" (-1) s.Recorder.ev_b;
      Alcotest.(check int) "done on worker -1" (-1) d.Recorder.ev_b;
      Alcotest.(check int) "tenant" 3 tl.Timeline.tl_tenant;
      Alcotest.(check (option (float 0.))) "no queue wait" (Some 0.)
        (Timeline.queue_wait tl))
    !hit_ids;
  List.iter
    (fun id ->
      let tl = timeline id in
      ignore (ts Recorder.Cache_miss tl);
      Alcotest.(check bool) "a miss starts on a worker" true
        ((ts Recorder.Req_start tl).Recorder.ev_b >= 0))
    !miss_ids;
  let trace = Obs.Trace.to_json (Recorder.to_trace recorder) in
  match Json.member "traceEvents" trace with
  | Some (Json.List evs) ->
    Alcotest.(check bool) "one trace lane" true
      (List.for_all (fun e -> Json.member "tid" e = Some (Json.Int 1)) evs)
  | _ -> Alcotest.fail "trace has no traceEvents"

(* The lifecycle events carry the clock readings the outcome is built
   from: a timeline's wait is the outcome's queue wait and its done the
   outcome's completion time, exactly, for a queued miss and for a hit
   served at admission. *)
let test_stamps_are_outcome_readings () =
  let module Timeline = Obs.Timeline in
  let recorder = Obs.Recorder.create () in
  let cache = Svc.create_cache ~recorder () in
  let j = List.hd (sample_jobs ()) in
  let miss, hit =
    Svc.with_service ~domains:1 ~cache ~recorder (fun t ->
        let request () = Svc.await (Option.get (Svc.recompile_async t j)) in
        let miss = request () in
        (miss, request ()))
  in
  Alcotest.(check (pair bool bool)) "a miss, then a hit" (false, true)
    (miss.Svc.oc_cache_hit, hit.Svc.oc_cache_hit);
  let tls = Timeline.of_events (Obs.Recorder.dump recorder) in
  List.iter
    (fun (what, (o : Svc.outcome)) ->
      let tl =
        List.find
          (fun tl -> tl.Timeline.tl_request = o.Svc.oc_ctx.Obs.Ctx.cx_request)
          tls
      in
      let same field expected got =
        Alcotest.(check (option (float 0.))) (what ^ ": " ^ field)
          (Some expected) got
      in
      same "wait = oc_queued_seconds" o.Svc.oc_queued_seconds
        (Timeline.queue_wait tl);
      same "done = oc_done_at" o.Svc.oc_done_at tl.Timeline.tl_done)
    [ ("queued miss", miss); ("hit", hit) ]

(* ------------------------------------------------------------------ *)
(* The batch command's single-flight gate                              *)
(* ------------------------------------------------------------------ *)

module Batch = Nullelim_experiments.Batch

let stats ~misses ~evictions =
  {
    Codecache.hits = 0;
    misses;
    evictions;
    rejections = 0;
    invalidations = 0;
    entries = misses;
    bytes = 0;
    budget_bytes = 1;
  }

let test_batch_single_flight_gate () =
  Alcotest.(check bool) "misses = keys passes" true
    (Batch.single_flight (stats ~misses:5 ~evictions:0) ~keys:5 = Ok ());
  (match Batch.single_flight (stats ~misses:6 ~evictions:0) ~keys:5 with
  | Ok () -> Alcotest.fail "a key compiled twice passed"
  | Error e ->
    Alcotest.(check bool) ("names the counts: " ^ e) true
      (Helpers.contains e "6 misses for 5 distinct keys"));
  Alcotest.(check bool) "evictions excuse a second miss" true
    (Batch.single_flight (stats ~misses:6 ~evictions:1) ~keys:5 = Ok ());
  (* the batch itself: a repeated matrix is half served from the cache
     and passes the gate *)
  let b = Batch.run ~jobs:2 ~repeat:2 ~arch:Arch.ia32_windows () in
  let n = List.length b.Batch.b_outcomes in
  Alcotest.(check int) "half the jobs hit" (n / 2)
    (List.length (List.filter (fun o -> o.Svc.oc_cache_hit) b.Batch.b_outcomes));
  match Batch.check b with
  | Ok () -> ()
  | Error e -> Alcotest.failf "batch gate: %s" e

(* ------------------------------------------------------------------ *)
(* Config.semantic: the projection the cache key reads                 *)
(* ------------------------------------------------------------------ *)

(* Configs differing only in a policy field: same key, and the same
   compiled code and decision log. *)
let policy_variants (c : Config.t) =
  [
    { c with Config.name = c.Config.name ^ "-renamed" };
    { c with Config.promote_calls = c.Config.promote_calls + 7 };
    { c with Config.deopt_traps = c.Config.deopt_traps + 3 };
  ]

(* One variant per remaining field, each differing from [c] there only;
   the field count is pinned so a new field must join a list. *)
let semantic_variants (c : Config.t) =
  let flip_opt = function Config.New_full -> Config.New_phase1 | _ -> Config.New_full in
  let vs =
    [
      { c with Config.null_opt = flip_opt c.Config.null_opt };
      { c with Config.use_trap = not c.Config.use_trap };
      { c with Config.speculate = not c.Config.speculate };
      {
        c with
        Config.phase2_arch_override =
          (match c.Config.phase2_arch_override with
          | None -> Some Arch.ppc_aix
          | Some _ -> None);
      };
      { c with Config.iterations = c.Config.iterations + 1 };
      { c with Config.inline = not c.Config.inline };
      { c with Config.heavy_factor = c.Config.heavy_factor + 1 };
      { c with Config.weak_arrays = not c.Config.weak_arrays };
    ]
  in
  assert (List.length vs + 3 = Obj.size (Obj.repr c));
  vs

let suite = Array.of_list (Config.windows_suite @ Config.aix_suite)

let arch_of (c : Config.t) =
  if List.memq c Config.aix_suite then Arch.ppc_aix else Arch.ia32_windows

let artifact (o : Svc.outcome) =
  program_bytes o.Svc.oc_compiled.Compiler.program
  ^ Json.to_string (Obs.Decision.to_json o.Svc.oc_compiled.Compiler.decisions)

(* [Some reason] when the projection property fails for [p] under [c] *)
let projection_failure (p : Ir.program) (c : Config.t) =
  let arch = arch_of c in
  let jobs = List.map (fun v -> Svc.job ~config:v ~arch p) (c :: policy_variants c) in
  match Svc.compile_serial jobs with
  | [] -> Some "no outcomes"
  | base :: rest -> (
    match
      List.find_opt
        (fun o -> o.Svc.oc_key <> base.Svc.oc_key || artifact o <> artifact base)
        rest
    with
    | Some o ->
      Some
        (Printf.sprintf "%s: policy variant %S changed the key or the artifact"
           c.Config.name o.Svc.oc_job.Svc.jb_config.Config.name)
    | None ->
      List.find_map
        (fun v ->
          if Svc.job_key (Svc.job ~config:v ~arch p) = base.Svc.oc_key then
            Some (Printf.sprintf "%s: a semantic field left the key" c.Config.name)
          else None)
        (semantic_variants c))

let test_projection_registry () =
  List.iteri
    (fun i (w : W.t) ->
      let c = suite.(i mod Array.length suite) in
      match projection_failure (w.W.build ~scale:1) c with
      | None -> ()
      | Some e -> Alcotest.failf "%s: %s" w.W.name e)
    (Registry.all ())

let test_projection_generated =
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck2.Test.make ~count:40 ~name:"generated programs"
       ~print:(fun (seed, i) -> Printf.sprintf "seed %d, config %s" seed suite.(i).Config.name)
       QCheck2.Gen.(pair (int_range 1 1_000_000) (int_bound (Array.length suite - 1)))
       (fun (seed, i) ->
         match projection_failure (Gen.generate ~seed ()).Gen.g_program suite.(i) with
         | None -> true
         | Some e -> QCheck2.Test.fail_report e))

let () =
  Alcotest.run "svc"
    [
      ( "chan",
        [
          Alcotest.test_case "fifo + drain" `Quick test_chan_fifo;
          Alcotest.test_case "close semantics" `Quick
            test_chan_close_semantics;
          Alcotest.test_case "try_push backpressure" `Quick
            test_chan_try_push;
          Alcotest.test_case "cross-domain" `Quick test_chan_cross_domain;
          Alcotest.test_case "length + capacity" `Quick
            test_chan_length_capacity;
        ] );
      ( "codecache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "oversized artifact rejected" `Quick
            test_cache_oversized_rejected;
          Alcotest.test_case "zero budget = pass-through" `Quick
            test_cache_zero_budget_passthrough;
          Alcotest.test_case "remove / invalidations" `Quick
            test_cache_remove;
          Alcotest.test_case "aggregate stats" `Quick
            test_cache_aggregate_stats;
          Alcotest.test_case "default is one global lru" `Quick
            test_cache_default_global_lru;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "past the budget, lru order" `Quick
            test_cache_lru_order;
        ] );
      ( "keys",
        [
          Alcotest.test_case "sensitivity" `Quick test_job_key_sensitivity;
          Alcotest.test_case "refines the printed payload" `Quick
            test_key_refines_printed_payload;
          Alcotest.test_case "one mutation at a time" `Quick
            test_key_mutations;
          Alcotest.test_case "config field sensitivity" `Quick
            test_key_config_sensitivity;
          Alcotest.test_case "artifact size estimate scale" `Quick
            test_artifact_bytes_scale;
          Alcotest.test_case "equal exactly when marshalled keys are" `Quick
            test_key_agrees_with_marshal;
          Alcotest.test_case "structural digest edge cases" `Quick
            test_structural_digest_edges;
        ] );
      ( "service",
        [
          Alcotest.test_case "parallel = serial (byte-identical)" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "cache hit = recompile" `Quick
            test_cache_hit_equals_recompile;
          Alcotest.test_case "reconciliation sweep under 4 domains" `Slow
            test_reconciliation_parallel;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "shutdown" `Quick test_shutdown_semantics;
          Alcotest.test_case "queue smaller than batch" `Quick
            test_queue_smaller_than_batch;
          Alcotest.test_case "closed accounting + queue depth" `Quick
            test_closed_accounting;
          Alcotest.test_case "solver switch stays on its domain" `Quick
            test_solver_switch_domain_local;
          Alcotest.test_case "a failing job fails only its request" `Quick
            test_failing_job;
          Alcotest.test_case "a helped artifact = serial" `Quick
            test_helped_equals_serial;
          Alcotest.test_case "a failing helped job fails only its request"
            `Quick test_helped_failure;
          Alcotest.test_case "await blocks on an empty queue" `Quick
            test_await_blocks_when_queue_empty;
          Alcotest.test_case "poll never helps" `Quick test_poll_never_helps;
        ] );
      ( "admission",
        [
          Alcotest.test_case "one lookup per request" `Quick
            test_one_lookup_per_request;
          Alcotest.test_case "shutdown refuses before the lookup" `Quick
            test_shutdown_before_lookup;
          Alcotest.test_case "hits bypass the queue and the tenant cap" `Quick
            test_hits_bypass_queue_and_cap;
          Alcotest.test_case "mixed hit/shed accounting" `Quick
            test_mixed_hit_shed_accounting;
          Alcotest.test_case "a batch compiles each key once" `Quick
            test_batch_single_flight;
          Alcotest.test_case "timelines on a mixed hit/miss run" `Quick
            test_admission_timelines;
          Alcotest.test_case "stamps are the outcome's readings"
            `Quick test_stamps_are_outcome_readings;
        ] );
      ( "batch",
        [
          Alcotest.test_case "single-flight gate" `Quick
            test_batch_single_flight_gate;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "registry programs" `Quick
            test_projection_registry;
          test_projection_generated;
        ] );
    ]
