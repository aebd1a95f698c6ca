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
module Trace = Nullelim_obs.Trace
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
  mutable trace_rev : event list;
  mutable depth : int;
  profile : Profile.t option;
      (** per-site/per-block collection; [None] keeps every hook down to
          one option match so disabled profiling costs nothing
          measurable *)
  resolve : string -> Ir.func * int;
      (** call-boundary dispatch: maps a (resolved) function name to the
          code version to execute and its tier.  The default looks the
          function up in [prog] at tier 0; the tiered manager installs
          newly compiled versions here, which is why promotion never
          needs to patch running frames *)
  on_trap : (func:string -> site:int -> unit) option;
      (** runtime feedback: called when a hardware trap fires at an
          implicit check site, before the NPE propagates — the tiered
          manager's deoptimization trigger *)
  layouts : (string, Value.layout) Hashtbl.t;
      (** object layout per class name, built on the class's first
          allocation in this run *)
}

let record st e = st.trace_rev <- e :: st.trace_rev

let charge st n = st.c.cycles <- st.c.cycles + n

let tick st =
  st.c.instrs <- st.c.instrs + 1;
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

let cmp_values c a b =
  match (a, b) with
  | Vint x, Vint y -> cmp_int c x y
  | Vfloat x, Vfloat y ->
    (match c with
    | Ir.Eq -> x = y | Ir.Ne -> x <> y | Ir.Lt -> x < y
    | Ir.Le -> x <= y | Ir.Gt -> x > y | Ir.Ge -> x >= y)
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

(* The label [exec_block] returns for a block that ends in [Return]. *)
let returned : Ir.label = -1

(* [tier] is the tier of the code version being executed; it only
   flows into profile events (and stays 0 for untiered runs). *)
let rec exec_func st ~tier (f : Ir.func) (args : value list) : value option =
  st.depth <- st.depth + 1;
  if st.depth > 2000 then raise (Sim "call depth exceeded");
  let vars = Array.make (max f.fn_nvars 1) Vundef in
  List.iteri
    (fun i a -> if i < f.fn_nvars then vars.(i) <- a)
    args;
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
  let cost = st.arch.cost in
  (match st.profile with
  | Some p -> Profile.hit_block p ~func:f.Ir.fn_name ~block:l
  | None -> ());
  let instrs = b.instrs in
  for ix = 0 to Array.length instrs - 1 do
    exec_instr st ~tier f vars ~blk:l instrs ix
  done;
  tick st;
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

and exec_instr st ~tier f vars ~blk (instrs : Ir.instr array) ix : unit =
  let cost = st.arch.cost in
  let fname = f.Ir.fn_name in
  tick st;
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
    match intrinsic_of_name fname with
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
      let callee, ctier = st.resolve fname in
      let r = exec_func st ~tier:ctier callee argv in
      match (d, r) with
      | Some d, Some v -> vars.(d) <- v
      | Some _, None -> raise (Sim ("call to void function " ^ fname ^ " expects a value"))
      | None, _ -> ()))
  | Print o ->
    charge st cost.c_print;
    let v = eval vars o in
    record st (Eprint (Fmt.str "%a" Value.pp v))

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

(** Run a program's main function. *)
let run ?(fuel = 400_000_000) ?metrics ?profile ?dispatch ?on_trap
    ~(arch : Arch.t) (p : Ir.program) (args : value list) : result =
  let resolve =
    match dispatch with
    | Some d -> d
    | None -> fun n -> (Ir.find_func p n, 0)
  in
  let st =
    {
      prog = p;
      arch;
      c = new_counters ();
      fuel;
      trace_rev = [];
      depth = 0;
      profile;
      resolve;
      on_trap;
      layouts = Hashtbl.create 8;
    }
  in
  let execute () =
    try
      let mainf, mtier = st.resolve p.prog_main in
      Returned (exec_func st ~tier:mtier mainf args)
    with
    | Jexn k -> Uncaught k
    | Sim msg -> Sim_error msg
    | Out_of_fuel -> Sim_error "out of fuel"
    | Division_by_zero -> Sim_error "host division by zero"
  in
  let outcome =
    if Trace.enabled () then
      Trace.span ~cat:"interp"
        ~args:[ ("main", Nullelim_obs.Obs_json.Str p.prog_main) ]
        "run" execute
    else execute ()
  in
  (match metrics with Some m -> record_metrics m st.c | None -> ());
  { outcome; trace = List.rev st.trace_rev; counters = st.c }

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
