(** Cost-accounting interpreter with hardware-trap simulation.

    The interpreter executes IR programs and plays the role of the CPU and
    operating system in the paper's evaluation:

    - every instruction is charged cycles from the architecture's cost
      model; explicit null checks cost real cycles, implicit ones are
      free;
    - dereferencing a null pointer raises a NullPointerException {e only}
      when the architecture traps for that access kind and the accessed
      byte offset falls inside the protected trap area — otherwise the
      access silently reads zero-page garbage or discards the write,
      exactly the behaviour that makes the "Illegal Implicit"
      configuration of Section 5.4 violate the Java semantics.  Such
      silent events are counted: [implicit_miss] when the compiler had
      designated the access as an implicit-check exception site (a real
      soundness violation), [spec_null_reads] for speculative reads
      hoisted above their null check (benign by construction, Section
      3.3.1);
    - exceptions dispatch to the try-region handler of the raising block,
      unwinding call frames as needed;
    - all observable behaviour (prints, caught exceptions, the final
      outcome) is recorded in a trace so that differential tests can
      compare program variants. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Metrics = Nullelim_obs.Metrics
module Log = Nullelim_obs.Log
module Profile = Nullelim_obs.Profile
open Value

type event = Eprint of string | Ecaught of Ir.exn_kind

type outcome =
  | Returned of value option
  | Uncaught of Ir.exn_kind
  | Sim_error of string (** the program or the compiler is broken *)

type counters = {
  mutable instrs : int;
  mutable cycles : int;
  mutable explicit_checks : int;
  mutable implicit_checks : int;
  mutable bound_checks : int;
  mutable loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable allocs : int;
  mutable npe_trap : int;
  mutable npe_explicit : int;
  mutable implicit_miss : int;
  mutable spec_null_reads : int;
}

let new_counters () =
  {
    instrs = 0; cycles = 0; explicit_checks = 0; implicit_checks = 0;
    bound_checks = 0; loads = 0; stores = 0; calls = 0; allocs = 0;
    npe_trap = 0; npe_explicit = 0; implicit_miss = 0; spec_null_reads = 0;
  }

type result = { outcome : outcome; trace : event list; counters : counters }

exception Jexn of Ir.exn_kind
exception Sim of string
exception Out_of_fuel

type state = {
  prog : Ir.program;
  arch : Arch.t;
  c : counters;
  mutable fuel : int;
      (** every instruction ticks it down once, so [c.instrs] is the
          fuel spent; both it and [cycles] land in [c] when the run
          ends, which keeps the per-instruction work off [c] *)
  mutable cycles : int;
  mutable trace_rev : event list;
  mutable depth : int;
  profile : Profile.t option;
      (** per-site/per-block collection; [None] keeps every hook down to
          one option match so disabled profiling costs nothing
          measurable *)
  resolve : resolver;
  on_trap : (func:string -> site:int -> unit) option;
      (** runtime feedback: called when a hardware trap fires at an
          implicit check site, before the NPE propagates — the tiered
          manager's deoptimization trigger *)
  layouts : (string, Value.layout) Hashtbl.t;
      (** object layout per class name, built on the class's first
          allocation in this run *)
}

(** Call-boundary dispatch: maps a (resolved) function name to the code
    version to execute and its tier.  The tiered manager installs newly
    compiled versions behind it, which is why promotion never needs to
    patch running frames.  [Reference] runs the IR-walking loop. *)
and resolver =
  | Decoded of (string -> decoded * int)
  | Reference of (string -> Ir.func * int)

and decoded = {
  d_func : Ir.func;
  d_arch : Arch.t;  (** the arch whose cost model the charges came from *)
  d_blocks : dblock array;  (** indexed by label *)
}

and dblock = {
  db_ir : Ir.block;
  db_ops : op array;  (** one per instruction, in order *)
  db_leaf : bool;
      (** no [Call]: nothing the block runs can tick, so its ticks can
          be taken at once *)
  db_term : state -> value array -> Ir.label;
      (** the terminator, after its tick: the label to continue at, or
          [returned] *)
}

(** One pre-decoded instruction: [op st tier vars], after its tick. *)
and op = state -> int -> value array -> unit

let record st e = st.trace_rev <- e :: st.trace_rev

let charge st n = st.cycles <- st.cycles + n

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

let as_int = function
  | Vint n -> n
  | Vundef -> raise (Sim "use of undefined variable (int)")
  | v -> raise (Sim (Fmt.str "expected int, got %a" Value.pp v))

let as_float = function
  | Vfloat x -> x
  | Vundef -> raise (Sim "use of undefined variable (float)")
  | v -> raise (Sim (Fmt.str "expected float, got %a" Value.pp v))

let as_ref = function
  | Vref r -> r
  | Vundef -> raise (Sim "use of undefined variable (ref)")
  | v -> raise (Sim (Fmt.str "expected ref, got %a" Value.pp v))

let eval vars = function
  | Ir.Var v ->
    (match vars.(v) with
    | Vundef -> raise (Sim (Printf.sprintf "use of undefined variable v%d" v))
    | x -> x)
  | Ir.Cint n -> Vint n
  | Ir.Cfloat x -> Vfloat x
  | Ir.Cnull -> Vref Null

(** An integer operand, unboxed.  Anything but a defined int raises the
    same [Sim] error as [as_int (eval vars o)]. *)
let eval_int vars = function
  | Ir.Var v as o -> (match vars.(v) with Vint n -> n | _ -> as_int (eval vars o))
  | Ir.Cint n -> n
  | o -> as_int (eval vars o)

(** Whether [eval_int] would succeed.  Two-operand instructions take the
    unboxed path only when both operands are ints, so that an ill-typed
    operand still raises the boxed path's error in the boxed path's
    order. *)
let is_int vars = function
  | Ir.Var v -> (match vars.(v) with Vint _ -> true | _ -> false)
  | Ir.Cint _ -> true
  | Ir.Cfloat _ | Ir.Cnull -> false

(** Handle a dereference through a null pointer: hardware trap (NPE) or a
    silent zero-page access.  The access is [instrs.(ix)] of block [blk];
    the instruction before it classifies a miss as an implicit-check
    soundness violation and attributes the event to the implicit
    check's provenance site.  [fname]/[blk] locate the access for the
    profile. *)
let null_deref st ~fname ~tier ~blk ~(instrs : Ir.instr array) ~ix
    ~(base : Ir.var) ~offset ~access : value =
  (* the site of the implicit check guarding this access, if any *)
  let guard_site =
    if ix = 0 then None
    else
      match instrs.(ix - 1) with
      | Ir.Null_check (Implicit, v, s) when v = base -> Some s
      | _ -> None
  in
  if Arch.trap_covers st.arch ~offset:(Some offset) ~access then begin
    st.c.npe_trap <- st.c.npe_trap + 1;
    (match st.profile with
    | Some p -> (
      match guard_site with
      | Some s -> Profile.record_trap ~tier p ~func:fname ~site:s
      | None -> Profile.record_other_trap p)
    | None -> ());
    (match (st.on_trap, guard_site) with
    | Some h, Some s -> h ~func:fname ~site:s
    | _ -> ());
    raise (Jexn Ir.Npe)
  end
  else begin
    (match guard_site with
    | Some s ->
      st.c.implicit_miss <- st.c.implicit_miss + 1;
      (match st.profile with
      | Some p -> Profile.record_miss ~tier p ~func:fname ~site:s
      | None -> ());
      Log.debug
        "implicit check missed: null deref of v%d at offset %d not trapped"
        base offset
    | None ->
      st.c.spec_null_reads <- st.c.spec_null_reads + 1;
      (match st.profile with
      | Some p -> Profile.record_spec_read p ~func:fname ~block:blk
      | None -> ()));
    Value.null_page_garbage
  end

let cmp_int c (x : int) y =
  match c with
  | Ir.Eq -> x = y | Ir.Ne -> x <> y | Ir.Lt -> x < y
  | Ir.Le -> x <= y | Ir.Gt -> x > y | Ir.Ge -> x >= y

let cmp_float c (x : float) y =
  match c with
  | Ir.Eq -> x = y | Ir.Ne -> x <> y | Ir.Lt -> x < y
  | Ir.Le -> x <= y | Ir.Gt -> x > y | Ir.Ge -> x >= y

let cmp_values c a b =
  match (a, b) with
  | Vint x, Vint y -> cmp_int c x y
  | Vfloat x, Vfloat y -> cmp_float c x y
  | Vref x, Vref y ->
    (match c with
    | Ir.Eq -> x == y || (x = Null && y = Null)
    | Ir.Ne -> not (x == y || (x = Null && y = Null))
    | _ -> raise (Sim "ordered comparison on references"))
  | _ -> raise (Sim "comparison on mismatched values")

let intrinsic_of_name = Ir.intrinsic_of_name

let apply_intrinsic u x =
  match u with
  | Ir.Fsqrt -> sqrt x
  | Ir.Fexp -> exp x
  | Ir.Flog -> log x
  | Ir.Fsin -> sin x
  | Ir.Fcos -> cos x
  | Ir.Neg | Ir.Fneg | Ir.I2f | Ir.F2i -> assert false

let int_binop (op : Ir.binop) x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then raise (Jexn Arith) else x / y
  | Rem -> if y = 0 then raise (Jexn Arith) else x mod y
  | Band -> x land y
  | Bor -> x lor y
  | Bxor -> x lxor y
  | Shl -> x lsl (y land 63)
  | Shr -> x asr (y land 63)
  | Icmp c -> if cmp_int c x y then 1 else 0
  | Fadd | Fsub | Fmul | Fdiv | Fcmp _ -> assert false

(* The label a terminator returns for [Return]. *)
let returned : Ir.label = -1

(* The terminator of [b], after its tick. *)
let exec_term st vars (b : Ir.block) : Ir.label =
  let cost = st.arch.cost in
  match b.term with
  | Goto l ->
    charge st cost.c_branch;
    l
  | If (c, x, y, l1, l2) ->
    charge st cost.c_branch;
    let taken =
      if is_int vars x && is_int vars y then
        cmp_int c (eval_int vars x) (eval_int vars y)
      else cmp_values c (eval vars x) (eval vars y)
    in
    if taken then l1 else l2
  | Ifnull (v, l1, l2) ->
    charge st cost.c_branch;
    (match as_ref vars.(v) with Null -> l1 | Obj _ | Arr _ -> l2)
  | Return _ ->
    charge st cost.c_branch;
    returned
  | Throw s -> raise (Jexn (User s))

(* A block's ticks, one per operation and one for the terminator.  A
   block without calls that cannot run out of fuel takes them all
   before it starts, and an operation that raises gives back the ticks
   of the operations after it and of the terminator, so the fuel left
   is what ticking one by one leaves.  Any other block ticks per
   operation: a call spends fuel in between, and the block that runs
   out must stop at the exact operation. *)
let run_dblock st ~tier (f : Ir.func) vars l (b : dblock) : Ir.label =
  (match st.profile with
  | Some p -> Profile.hit_block p ~func:f.fn_name ~block:l
  | None -> ());
  let ops = b.db_ops in
  let n = Array.length ops in
  if b.db_leaf && st.fuel > n + 1 then begin
    st.fuel <- st.fuel - (n + 1);
    let i = ref 0 in
    try
      while !i < n do
        (Array.unsafe_get ops !i) st tier vars;
        incr i
      done
    with e ->
      st.fuel <- st.fuel + (n - !i);
      raise e
  end
  else begin
    for i = 0 to n - 1 do
      tick st;
      (Array.unsafe_get ops i) st tier vars
    done;
    tick st
  end;
  b.db_term st vars

(* The reference loop ([exec_func], [exec_block]) walks the IR; the run
   path ([exec_decoded]) runs decoded operations, each of which falls
   back to [step] for anything but its common case.  [tier] is the tier
   of the code version being executed; it only flows into profile
   events (and stays 0 for untiered runs). *)
(* A new frame of [f]: one call deeper, its variables with [args]
   bound.  Every exit, an exception unwinding it included, restores the
   depth. *)
let enter st (f : Ir.func) (args : value list) : value array =
  st.depth <- st.depth + 1;
  if st.depth > 2000 then raise (Sim "call depth exceeded");
  let vars = Array.make (max f.fn_nvars 1) Vundef in
  List.iteri
    (fun i a -> if i < f.fn_nvars then vars.(i) <- a)
    args;
  vars

let rec exec_func st ~tier (f : Ir.func) (args : value list) : value option =
  let vars = enter st f args in
  let rec run l =
    let b = Ir.block f l in
    match exec_block st ~tier f vars l b with
    | l' when l' <> returned -> run l'
    | _ -> (
      match b.term with Return (Some o) -> Some (eval vars o) | _ -> None)
    | exception Jexn k -> (
      match Ir.handler_of f b.breg with
      | Some h ->
        record st (Ecaught k);
        run h
      | None -> raise (Jexn k))
  in
  match run 0 with
  | r ->
    st.depth <- st.depth - 1;
    r
  | exception e ->
    (* an exception the caller catches resumes at this depth *)
    st.depth <- st.depth - 1;
    raise e

(* Runs the block and returns the label to continue at, or [returned];
   the caller reads a returned value from [b.term]. *)
and exec_block st ~tier f vars (l : Ir.label) (b : Ir.block) : Ir.label =
  (match st.profile with
  | Some p -> Profile.hit_block p ~func:f.Ir.fn_name ~block:l
  | None -> ());
  let instrs = b.instrs in
  for ix = 0 to Array.length instrs - 1 do
    tick st;
    step st ~tier f vars ~blk:l instrs ix
  done;
  tick st;
  exec_term st vars b

(* The generic step: instruction [ix] of block [blk], after its tick. *)
and step st ~tier f vars ~blk (instrs : Ir.instr array) ix : unit =
  let cost = st.arch.cost in
  let fname = f.Ir.fn_name in
  match instrs.(ix) with
  | Move (d, o) ->
    charge st cost.c_alu;
    vars.(d) <- eval vars o
  | Unop (d, u, o) -> (
    match u with
    | Neg ->
      charge st cost.c_alu;
      vars.(d) <- Vint (-eval_int vars o)
    | Fneg ->
      charge st cost.c_fpu;
      vars.(d) <- Vfloat (-.as_float (eval vars o))
    | I2f ->
      charge st cost.c_fpu;
      vars.(d) <- Vfloat (float_of_int (eval_int vars o))
    | F2i ->
      charge st cost.c_fpu;
      vars.(d) <- Vint (int_of_float (as_float (eval vars o)))
    | (Fsqrt | Fexp | Flog | Fsin | Fcos) as u ->
      charge st cost.c_intrinsic;
      vars.(d) <- Vfloat (apply_intrinsic u (as_float (eval vars o))))
  | Binop
      ( d,
        ((Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr | Icmp _)
         as op),
        a,
        b )
    when is_int vars a && is_int vars b ->
    charge st cost.c_alu;
    vars.(d) <- Vint (int_binop op (eval_int vars a) (eval_int vars b))
  | Binop (d, op, a, b) -> (
    let va = eval vars a and vb = eval vars b in
    match op with
    | Fadd -> charge st cost.c_fpu; vars.(d) <- Vfloat (as_float va +. as_float vb)
    | Fsub -> charge st cost.c_fpu; vars.(d) <- Vfloat (as_float va -. as_float vb)
    | Fmul -> charge st cost.c_fpu; vars.(d) <- Vfloat (as_float va *. as_float vb)
    | Fdiv -> charge st cost.c_fpu; vars.(d) <- Vfloat (as_float va /. as_float vb)
    | Icmp c | Fcmp c ->
      charge st cost.c_alu;
      vars.(d) <- Vint (if cmp_values c va vb then 1 else 0)
    | Add | Sub | Mul | Div | Rem | Band | Bor | Bxor | Shl | Shr -> (
      (* a non-int operand: the right one is converted first, and a zero
         divisor raises before the left one is converted *)
      charge st cost.c_alu;
      match (op, as_int vb) with
      | (Div | Rem), 0 -> raise (Jexn Arith)
      | _, y -> vars.(d) <- Vint (int_binop op (as_int va) y)))
  | Null_check (Explicit, v, s) -> (
    charge st cost.c_explicit_check;
    st.c.explicit_checks <- st.c.explicit_checks + 1;
    (match st.profile with
    | Some p ->
      Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cexplicit
    | None -> ());
    match as_ref vars.(v) with
    | Null ->
      st.c.npe_explicit <- st.c.npe_explicit + 1;
      (match st.profile with
      | Some p -> Profile.record_npe ~tier p ~func:fname ~site:s
      | None -> ());
      raise (Jexn Npe)
    | Obj _ | Arr _ -> ())
  | Null_check (Implicit, v, s) ->
    (* free: the following instruction is the exception site *)
    st.c.implicit_checks <- st.c.implicit_checks + 1;
    (match st.profile with
    | Some p ->
      Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cimplicit
    | None -> ());
    ignore (as_ref vars.(v))
  | Bound_check (io, lo, s) ->
    charge st cost.c_bound_check;
    st.c.bound_checks <- st.c.bound_checks + 1;
    (match st.profile with
    | Some p ->
      Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cbound
    | None -> ());
    let idx = eval_int vars io in
    let len = eval_int vars lo in
    if idx < 0 || idx >= len then raise (Jexn Oob)
  | Get_field (d, o, fld) -> (
    charge st cost.c_load;
    st.c.loads <- st.c.loads + 1;
    match as_ref vars.(o) with
    | Obj obj -> (
      match Value.slot_of obj fld.foffset with
      | -1 -> raise (Sim ("field " ^ fld.fname ^ " missing from object"))
      | k -> vars.(d) <- obj.o_slots.(k))
    | Null ->
      vars.(d) <-
        null_deref st ~fname ~tier ~blk ~instrs ~ix ~base:o ~offset:fld.foffset
          ~access:Arch.Read
    | Arr _ -> raise (Sim "field access on array"))
  | Put_field (o, fld, s) -> (
    charge st cost.c_store;
    st.c.stores <- st.c.stores + 1;
    let v = eval vars s in
    match as_ref vars.(o) with
    | Obj obj -> Value.set_field obj fld v
    | Null ->
      ignore
        (null_deref st ~fname ~tier ~blk ~instrs ~ix ~base:o ~offset:fld.foffset
           ~access:Arch.Write)
    | Arr _ -> raise (Sim "field store on array"))
  | Array_load (d, a, io, k) -> (
    charge st cost.c_load;
    st.c.loads <- st.c.loads + 1;
    let idx = eval_int vars io in
    match as_ref vars.(a) with
    | Arr arr ->
      if arr.a_kind <> k then raise (Sim "array load with wrong element kind");
      if idx < 0 || idx >= Array.length arr.a_elems then
        raise (Sim "unchecked out-of-bounds array read")
      else vars.(d) <- arr.a_elems.(idx)
    | Null ->
      let offset = Ir.array_elem_base + (idx * Ir.slot_size) in
      vars.(d) <-
        null_deref st ~fname ~tier ~blk ~instrs ~ix ~base:a ~offset ~access:Arch.Read
    | Obj _ -> raise (Sim "array read on object"))
  | Array_store (a, io, s, k) -> (
    charge st cost.c_store;
    st.c.stores <- st.c.stores + 1;
    let idx = eval_int vars io in
    let v = eval vars s in
    match as_ref vars.(a) with
    | Arr arr ->
      if arr.a_kind <> k then raise (Sim "array store with wrong element kind");
      if idx < 0 || idx >= Array.length arr.a_elems then
        raise (Sim "unchecked out-of-bounds array write")
      else arr.a_elems.(idx) <- v
    | Null ->
      let offset = Ir.array_elem_base + (idx * Ir.slot_size) in
      ignore
        (null_deref st ~fname ~tier ~blk ~instrs ~ix ~base:a ~offset ~access:Arch.Write)
    | Obj _ -> raise (Sim "array write on object"))
  | Array_length (d, a) -> (
    charge st cost.c_load;
    st.c.loads <- st.c.loads + 1;
    match as_ref vars.(a) with
    | Arr arr -> vars.(d) <- Vint (Array.length arr.a_elems)
    | Null ->
      vars.(d) <-
        null_deref st ~fname ~tier ~blk ~instrs ~ix ~base:a
          ~offset:Ir.array_length_offset ~access:Arch.Read
    | Obj _ -> raise (Sim "arraylength on object"))
  | New_object (d, cname) ->
    charge st cost.c_alloc;
    st.c.allocs <- st.c.allocs + 1;
    let l =
      match Hashtbl.find st.layouts cname with
      | l -> l
      | exception Not_found ->
        let l = Value.layout st.prog.classes (Ir.find_class st.prog cname) in
        Hashtbl.add st.layouts cname l;
        l
    in
    vars.(d) <- Vref (Obj (Value.instantiate l))
  | New_array (d, k, n) ->
    let len = eval_int vars n in
    if len < 0 then raise (Jexn (User "NegativeArraySize"));
    charge st (cost.c_alloc + (len / 16));
    st.c.allocs <- st.c.allocs + 1;
    vars.(d) <- Vref (Arr (Value.new_array k len))
  | Call (d, target, args) -> (
    let argv = List.map (eval vars) args in
    let fname =
      match target with
      | Static s -> s
      | Virtual mname -> (
        match argv with
        | Vref (Obj o) :: _ -> (
          match Ir.resolve_method st.prog o.o_cls mname with
          | Some fn -> fn
          | None -> raise (Sim ("no method " ^ mname ^ " on " ^ o.o_cls.cname)))
        | Vref Null :: _ ->
          (* method-table load through null: a trap with no check site *)
          if Arch.trap_covers st.arch ~offset:(Some 0) ~access:Arch.Read
          then begin
            st.c.npe_trap <- st.c.npe_trap + 1;
            (match st.profile with
            | Some p -> Profile.record_other_trap p
            | None -> ());
            raise (Jexn Npe)
          end
          else raise (Sim "virtual dispatch through null without trap")
        | _ -> raise (Sim "virtual dispatch on non-object"))
    in
    call st vars d fname (intrinsic_of_name fname) argv)
  | Print o ->
    charge st cost.c_print;
    let v = eval vars o in
    record st (Eprint (Fmt.str "%a" Value.pp v))

(* A call to [fname] (an intrinsic when [intrinsic] is set) whose
   arguments are evaluated. *)
and call st vars d fname intrinsic argv =
  let cost = st.arch.cost in
  match intrinsic with
  | Some u ->
    (* out-of-line math routine *)
    charge st cost.c_intrinsic_call;
    st.c.calls <- st.c.calls + 1;
    let x = match argv with [ v ] -> as_float v | _ -> raise (Sim "bad intrinsic arity") in
    (match d with
    | Some d -> vars.(d) <- Vfloat (apply_intrinsic u x)
    | None -> ())
  | None -> (
    charge st cost.c_call;
    st.c.calls <- st.c.calls + 1;
    match (d, invoke st fname argv) with
    | Some d, Some v -> vars.(d) <- v
    | Some _, None -> raise (Sim ("call to void function " ^ fname ^ " expects a value"))
    | None, _ -> ())

and invoke st fname argv =
  match st.resolve with
  | Decoded r ->
    let code, tier = r fname in
    exec_decoded st ~tier code argv
  | Reference r ->
    let f, tier = r fname in
    exec_func st ~tier f argv

(* [exec_func] over decoded blocks. *)
and exec_decoded st ~tier (d : decoded) (args : value list) : value option =
  if d.d_arch != st.arch then
    invalid_arg
      (Printf.sprintf "Interp: %s was decoded for %s but runs under %s"
         d.d_func.fn_name d.d_arch.name st.arch.name);
  let f = d.d_func in
  let vars = enter st f args in
  let rec run l =
    let b = d.d_blocks.(l) in
    match run_dblock st ~tier f vars l b with
    | l' when l' <> returned -> run l'
    | _ -> (
      match b.db_ir.term with Return (Some o) -> Some (eval vars o) | _ -> None)
    | exception Jexn k -> (
      match Ir.handler_of f b.db_ir.breg with
      | Some h ->
        record st (Ecaught k);
        run h
      | None -> raise (Jexn k))
  in
  match run 0 with
  | r ->
    st.depth <- st.depth - 1;
    r
  | exception e ->
    st.depth <- st.depth - 1;
    raise e

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* A decoded operation handles only its common case — operands of the
   expected type, a non-null base, an index in range — and hands
   anything else to [step], so every counter, charge, error, hook and
   event happens as in the reference loop.  Operations do not tick:
   [run_dblock] ticks for them.  Operand
   reads check [ox >= 0]: a variable's index, or -1 and the constant,
   boxed once here. *)

let operand = function
  | Ir.Var v -> (v, Vundef)
  | Ir.Cint n -> (-1, Vint n)
  | Ir.Cfloat x -> (-1, Vfloat x)
  | Ir.Cnull -> (-1, Vref Null)

let[@inline] read vars ox ok = if ox >= 0 then vars.(ox) else ok

(* The common operators directly, the rest through [int_binop]. *)
let int_fn (op : Ir.binop) : int -> int -> int =
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | op -> int_binop op

let float_fn (op : Ir.binop) : float -> float -> value =
  match op with
  | Fadd -> fun x y -> Vfloat (x +. y)
  | Fsub -> fun x y -> Vfloat (x -. y)
  | Fmul -> fun x y -> Vfloat (x *. y)
  | Fdiv -> fun x y -> Vfloat (x /. y)
  | Fcmp c -> fun x y -> Vint (if cmp_float c x y then 1 else 0)
  | _ -> assert false

(* The slot of offset [off], memoised per operation on the object's
   offset array: a store that adds a slot replaces the array (never
   writes it), so the same array gives the same slot.  One immutable
   pair behind one reference keeps the memo consistent. *)
type slot_memo = { sm_offsets : int array; sm_slot : int }

let slot_memo () = ref { sm_offsets = [||]; sm_slot = -1 }

let memo_slot memo (obj : obj) off =
  let m = !memo in
  if m.sm_offsets == obj.o_offsets then m.sm_slot
  else begin
    let k = Value.slot_of obj off in
    memo := { sm_offsets = obj.o_offsets; sm_slot = k };
    k
  end

let decode_int_binop ~slow c d op a b : op =
  let fn = int_fn op and ax, ak = operand a and bx, bk = operand b in
  fun st tier vars ->
    match (read vars ax ak, read vars bx bk) with
    | Vint p, Vint q -> charge st c; vars.(d) <- Vint (fn p q)
    | _ -> slow st tier vars

let decode_float_binop ~slow c d op a b : op =
  let fn = float_fn op and ax, ak = operand a and bx, bk = operand b in
  fun st tier vars ->
    match (read vars ax ak, read vars bx bk) with
    | Vfloat p, Vfloat q -> charge st c; vars.(d) <- fn p q
    | _ -> slow st tier vars

let decode_instr (cost : Arch.cost_model) (f : Ir.func) ~blk
    (instrs : Ir.instr array) ix : op =
  let fname = f.fn_name in
  let slow st tier vars = step st ~tier f vars ~blk instrs ix in
  match instrs.(ix) with
  | Move (d, o) ->
    let c = cost.c_alu and ox, ok = operand o in
    fun st tier vars ->
      (match read vars ox ok with
      | Vundef -> slow st tier vars
      | v -> charge st c; vars.(d) <- v)
  | Unop (d, u, o) -> (
    let ox, ok = operand o in
    let c =
      match u with
      | Neg -> cost.c_alu
      | Fneg | I2f | F2i -> cost.c_fpu
      | Fsqrt | Fexp | Flog | Fsin | Fcos -> cost.c_intrinsic
    in
    match u with
    | Neg | I2f ->
      let fn =
        if u = Neg then fun n -> Vint (-n) else fun n -> Vfloat (float_of_int n)
      in
      fun st tier vars ->
        (match read vars ox ok with
        | Vint n -> charge st c; vars.(d) <- fn n
        | _ -> slow st tier vars)
    | Fneg | F2i | Fsqrt | Fexp | Flog | Fsin | Fcos ->
      let fn =
        match u with
        | Fneg -> fun x -> Vfloat (-.x)
        | F2i -> fun x -> Vint (int_of_float x)
        | u -> fun x -> Vfloat (apply_intrinsic u x)
      in
      fun st tier vars ->
        (match read vars ox ok with
        | Vfloat x -> charge st c; vars.(d) <- fn x
        | _ -> slow st tier vars))
  | Binop (d, ((Fadd | Fsub | Fmul | Fdiv) as op), a, b) ->
    decode_float_binop ~slow cost.c_fpu d op a b
  | Binop (d, (Fcmp _ as op), a, b) -> decode_float_binop ~slow cost.c_alu d op a b
  | Binop (d, op, a, b) -> decode_int_binop ~slow cost.c_alu d op a b
  | Null_check (Explicit, v, s) ->
    let c = cost.c_explicit_check in
    fun st tier vars ->
      (match vars.(v) with
      | Vref (Obj _ | Arr _) -> (
        charge st c;
        st.c.explicit_checks <- st.c.explicit_checks + 1;
        match st.profile with
        | Some p ->
          Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cexplicit
        | None -> ())
      | _ -> slow st tier vars)
  | Null_check (Implicit, v, s) ->
    fun st tier vars ->
      (match vars.(v) with
      | Vref _ -> (
        st.c.implicit_checks <- st.c.implicit_checks + 1;
        match st.profile with
        | Some p ->
          Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cimplicit
        | None -> ())
      | _ -> slow st tier vars)
  | Bound_check (io, lo, s) ->
    let c = cost.c_bound_check and ix, ik = operand io and lx, lk = operand lo in
    fun st tier vars ->
      (match (read vars ix ik, read vars lx lk) with
      | Vint i, Vint n when i >= 0 && i < n -> (
        charge st c;
        st.c.bound_checks <- st.c.bound_checks + 1;
        match st.profile with
        | Some p ->
          Profile.hit_check ~tier p ~func:fname ~site:s ~kind:Profile.Cbound
        | None -> ())
      | _ -> slow st tier vars)
  | Get_field (d, o, fld) ->
    let c = cost.c_load and off = fld.foffset and memo = slot_memo () in
    fun st tier vars ->
      (match vars.(o) with
      | Vref (Obj obj) ->
        let k = memo_slot memo obj off in
        if k < 0 then slow st tier vars
        else begin
          charge st c;
          st.c.loads <- st.c.loads + 1;
          vars.(d) <- obj.o_slots.(k)
        end
      | _ -> slow st tier vars)
  | Put_field (o, fld, s) ->
    let c = cost.c_store and off = fld.foffset and memo = slot_memo () in
    let sx, sk = operand s in
    fun st tier vars ->
      (match (vars.(o), read vars sx sk) with
      | Vref (Obj obj), v when v != Vundef ->
        let k = memo_slot memo obj off in
        if k < 0 then slow st tier vars
        else begin
          charge st c;
          st.c.stores <- st.c.stores + 1;
          obj.o_slots.(k) <- v
        end
      | _ -> slow st tier vars)
  | Array_load (d, a, io, k) ->
    let c = cost.c_load and ix, ik = operand io in
    fun st tier vars ->
      (match (vars.(a), read vars ix ik) with
      | Vref (Arr arr), Vint i
        when arr.a_kind == k && i >= 0 && i < Array.length arr.a_elems ->
        charge st c;
        st.c.loads <- st.c.loads + 1;
        vars.(d) <- Array.unsafe_get arr.a_elems i
      | _ -> slow st tier vars)
  | Array_store (a, io, s, k) ->
    let c = cost.c_store and ix, ik = operand io and sx, sk = operand s in
    fun st tier vars ->
      (match (vars.(a), read vars ix ik, read vars sx sk) with
      | Vref (Arr arr), Vint i, v
        when v != Vundef && arr.a_kind == k && i >= 0
             && i < Array.length arr.a_elems ->
        charge st c;
        st.c.stores <- st.c.stores + 1;
        Array.unsafe_set arr.a_elems i v
      | _ -> slow st tier vars)
  | Array_length (d, a) ->
    let c = cost.c_load in
    fun st tier vars ->
      (match vars.(a) with
      | Vref (Arr arr) ->
        charge st c;
        st.c.loads <- st.c.loads + 1;
        vars.(d) <- Vint (Array.length arr.a_elems)
      | _ -> slow st tier vars)
  | Call (d, Static callee, args) ->
    let intrinsic = intrinsic_of_name callee in
    fun st _ vars -> call st vars d callee intrinsic (List.map (eval vars) args)
  | New_object _ | New_array _ | Call (_, Virtual _, _) | Print _ ->
    slow

(* [If] as [x < y] or [x = y], swapping operands or labels: the
   rewrite only ever sees two ints. *)
let decode_if ~slow cb c x y l1 l2 =
  let lt, x, y, t, e =
    match (c : Ir.cmp) with
    | Lt -> (true, x, y, l1, l2)
    | Gt -> (true, y, x, l1, l2)
    | Ge -> (true, x, y, l2, l1)
    | Le -> (true, y, x, l2, l1)
    | Eq -> (false, x, y, l1, l2)
    | Ne -> (false, x, y, l2, l1)
  in
  let xx, xk = operand x and yx, yk = operand y in
  if lt then fun st vars ->
    match (read vars xx xk, read vars yx yk) with
    | Vint p, Vint q -> charge st cb; if p < q then t else e
    | _ -> slow st vars
  else fun st vars ->
    match (read vars xx xk, read vars yx yk) with
    | Vint p, Vint q -> charge st cb; if p = q then t else e
    | _ -> slow st vars

let decode_term (cost : Arch.cost_model) (b : Ir.block) =
  let cb = cost.c_branch in
  let slow st vars = exec_term st vars b in
  match b.term with
  | Goto l ->
    fun st _ ->
      charge st cb;
      l
  | Return _ ->
    fun st _ ->
      charge st cb;
      returned
  | Ifnull (v, l1, l2) ->
    fun st vars ->
      (match vars.(v) with
      | Vref Null -> charge st cb; l1
      | Vref _ -> charge st cb; l2
      | _ -> slow st vars)
  | If (c, x, y, l1, l2) -> decode_if ~slow cb c x y l1 l2
  | Throw _ -> slow

let decode ~(arch : Arch.t) (f : Ir.func) : decoded =
  let block blk (b : Ir.block) =
    {
      db_ir = b;
      db_ops = Array.mapi (fun ix _ -> decode_instr arch.cost f ~blk b.instrs ix) b.instrs;
      db_leaf =
        Array.for_all (function Ir.Call _ -> false | _ -> true) b.instrs;
      db_term = decode_term arch.cost b;
    }
  in
  { d_func = f; d_arch = arch; d_blocks = Array.mapi block f.fn_blocks }

let decoded_func d = d.d_func

(** Dump a run's dynamic counters into a metrics registry as
    [interp_*]-prefixed counters.  Each run must be distinguishable in
    the registry: pass [~run] to label the counters with the run's name
    (repeated runs with distinct labels accumulate side by side, and
    identical labels accumulate into one series, both explicitly
    chosen).  Without a label, a second dump into a registry that
    already holds unlabeled [interp_*] counters would silently merge two
    unrelated runs — that case is rejected. *)
let record_metrics ?run (m : Metrics.t) (c : counters) : unit =
  let labels =
    match run with Some r -> [ ("run", r) ] | None -> []
  in
  (if run = None && Metrics.counter_total m "interp_instrs" <> 0
  then
     invalid_arg
       "Interp.record_metrics: registry already holds unlabeled interp_* \
        counters; pass ~run to distinguish repeated runs");
  let add name v =
    Metrics.inc (Metrics.counter m ~labels ("interp_" ^ name)) v
  in
  add "instrs" c.instrs;
  add "cycles" c.cycles;
  add "explicit_checks" c.explicit_checks;
  add "implicit_checks" c.implicit_checks;
  add "bound_checks" c.bound_checks;
  add "loads" c.loads;
  add "stores" c.stores;
  add "calls" c.calls;
  add "allocs" c.allocs;
  add "npe_trap" c.npe_trap;
  add "npe_explicit" c.npe_explicit;
  add "implicit_miss" c.implicit_miss;
  add "spec_null_reads" c.spec_null_reads

let start ~fuel ?metrics ?profile ?on_trap ~(arch : Arch.t) (p : Ir.program)
    (args : value list) resolve : result =
  let st =
    {
      prog = p;
      arch;
      c = new_counters ();
      fuel;
      cycles = 0;
      trace_rev = [];
      depth = 0;
      profile;
      resolve;
      on_trap;
      layouts = Hashtbl.create 8;
    }
  in
  let outcome =
    try Returned (invoke st p.prog_main args) with
    | Jexn k -> Uncaught k
    | Sim msg -> Sim_error msg
    | Out_of_fuel -> Sim_error "out of fuel"
    | Division_by_zero -> Sim_error "host division by zero"
  in
  st.c.instrs <- fuel - st.fuel;
  st.c.cycles <- st.cycles;
  (match metrics with Some m -> record_metrics m st.c | None -> ());
  { outcome; trace = List.rev st.trace_rev; counters = st.c }

(** Run a program's main function on decoded code. *)
let run ?(fuel = 400_000_000) ?metrics ?profile ?dispatch ?on_trap
    ~(arch : Arch.t) (p : Ir.program) (args : value list) : result =
  let resolve =
    match dispatch with
    | Some d -> d
    | None ->
      (* each function is decoded at its first call in this run *)
      let codes = Hashtbl.create 16 in
      fun n ->
        match Hashtbl.find_opt codes n with
        | Some d -> (d, 0)
        | None ->
          let d = decode ~arch (Ir.find_func p n) in
          Hashtbl.add codes n d;
          (d, 0)
  in
  start ~fuel ?metrics ?profile ?on_trap ~arch p args (Decoded resolve)

(** [run] on the IR-walking loop: the oracle the decoded engine is
    compared against. *)
let run_reference ?(fuel = 400_000_000) ?metrics ?profile ?dispatch ?on_trap
    ~(arch : Arch.t) (p : Ir.program) (args : value list) : result =
  let resolve =
    match dispatch with
    | Some d ->
      fun n ->
        let code, tier = d n in
        (code.d_func, tier)
    | None -> fun n -> (Ir.find_func p n, 0)
  in
  start ~fuel ?metrics ?profile ?on_trap ~arch p args (Reference resolve)

let pp_exn_kind ppf = function
  | Ir.Npe -> Fmt.string ppf "NullPointerException"
  | Ir.Oob -> Fmt.string ppf "ArrayIndexOutOfBoundsException"
  | Ir.Arith -> Fmt.string ppf "ArithmeticException"
  | Ir.User s -> Fmt.string ppf s

let pp_outcome ppf = function
  | Returned None -> Fmt.string ppf "returned"
  | Returned (Some v) -> Fmt.pf ppf "returned %a" Value.pp v
  | Uncaught k -> Fmt.pf ppf "uncaught %a" pp_exn_kind k
  | Sim_error m -> Fmt.pf ppf "simulation error: %s" m

let pp_event ppf = function
  | Eprint s -> Fmt.pf ppf "print %s" s
  | Ecaught k -> Fmt.pf ppf "caught %a" pp_exn_kind k

(** Observable equivalence for differential testing: same trace of prints
    and caught exceptions, same outcome (values compared structurally for
    ints/floats, by kind for exceptions). *)
let equivalent (a : result) (b : result) : bool =
  let ev_eq x y =
    match (x, y) with
    | Eprint s, Eprint t -> s = t
    | Ecaught k, Ecaught l -> k = l
    | Eprint _, Ecaught _ | Ecaught _, Eprint _ -> false
  in
  let out_eq x y =
    match (x, y) with
    | Returned None, Returned None -> true
    | Returned (Some (Vint a)), Returned (Some (Vint b)) -> a = b
    | Returned (Some (Vfloat a)), Returned (Some (Vfloat b)) ->
      a = b || (Float.is_nan a && Float.is_nan b)
    | Returned (Some (Vref Null)), Returned (Some (Vref Null)) -> true
    | Returned (Some (Vref _)), Returned (Some (Vref _)) -> true
    | Uncaught k, Uncaught l -> k = l
    | _ -> false
  in
  List.length a.trace = List.length b.trace
  && List.for_all2 ev_eq a.trace b.trace
  && out_eq a.outcome b.outcome
