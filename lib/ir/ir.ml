(** Intermediate representation for the null-check-elimination JIT.

    The IR models the subset of a Java JIT's internal representation that the
    Kawahito-Komatsu-Nakatani algorithms inspect: a register-based
    three-address code over basic blocks, where every potentially-trapping
    operation has been split into an explicit [Null_check]/[Bound_check]
    pseudo-instruction plus the raw memory operation (Section 1 of the
    paper: "we split it into a null check and the original operation to
    allow us to move the null check separately from its original location").

    Functions are control-flow graphs: an array of {!block}s whose index is
    the block {!label}; block [0] is the entry.  Exception regions ("try
    regions") are modelled by tagging each block with a region id and
    mapping region ids to handler labels. *)

(** {1 Basic identifiers} *)

type var = int
(** A local variable (virtual register).  Null checks are identified by the
    variable they guard, exactly as in the paper's bit-vector sets. *)

type label = int
(** A basic-block label: the index of the block in [fn_blocks]. *)

type region = int
(** A try-region id; region [0] means "not inside any try region". *)

let no_region : region = 0

type site = int
(** A provenance id for a check pseudo-instruction.  Sites are assigned
    once, at IR-build time, and survive optimization: a check that is
    moved, converted between explicit and implicit form, or copy-propagated
    keeps its site, so every dynamic check execution can be attributed back
    to the front-end instruction that introduced it.  Passes that
    materialize genuinely new checks (phase 1 insertions, phase 2
    compensation code, inlined copies) allocate a fresh site and record the
    lineage in the decision log. *)

let no_site : site = -1

(* Domain-local: concurrent compilations (the [Nullelim.Svc] domain
   pool) mint sites independently, and determinism within one compile
   comes from [seed_sites] re-seeding the minting domain's counter from
   the input program. *)
let site_counter : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(** Allocate a fresh provenance id.  The counter is per-domain and
    monotonic, so sites are unique across all programs built in one
    domain; ids are meaningful only as opaque keys.  Compilation
    re-seeds the counter from its input program ({!seed_sites}), so the
    ids minted while optimizing do not depend on what the domain
    compiled before. *)
let fresh_site () : site =
  let c = Domain.DLS.get site_counter in
  let s = !c in
  incr c;
  s

(** {1 Types and operands} *)

type kind =
  | Kint   (** 64-bit integer *)
  | Kfloat (** double-precision float *)
  | Kref   (** reference to an object or array (possibly null) *)

type operand =
  | Var of var
  | Cint of int
  | Cfloat of float
  | Cnull

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type binop =
  | Add | Sub | Mul | Div | Rem
  | Band | Bor | Bxor | Shl | Shr
  | Fadd | Fsub | Fmul | Fdiv
  | Icmp of cmp (** integer comparison producing 0/1 *)
  | Fcmp of cmp (** float comparison producing 0/1 *)

type unop =
  | Neg | Fneg
  | I2f | F2i
  | Fsqrt | Fexp | Flog | Fsin | Fcos
      (** Math intrinsics: the paper notes that [java.lang.Math.exp] is an
          inlined instruction on IA32 but an out-of-line call on PowerPC;
          the cost model charges them differently per architecture. *)

(** {1 Object model} *)

type field = {
  fname : string;
  foffset : int; (** byte offset of the field from the object base *)
  fkind : kind;
}

(** A class: fields (with fixed offsets) and a method table mapping method
    names to implementation function names.  Single inheritance. *)
type cls = {
  cname : string;
  csuper : string option;
  cfields : field list;
  cmethods : (string * string) list; (** method name -> function name *)
}

(** {1 Instructions} *)

(** Whether a null check must be materialized as machine code or may rely on
    the OS/hardware page-protection trap (Section 3.3.1). *)
type check_kind =
  | Explicit (** compare-and-branch (IA32) or conditional trap (PowerPC) *)
  | Implicit
      (** no code; the instruction that follows is the designated exception
          site and must dereference the checked variable inside the
          protected trap area *)

type call_target =
  | Static of string  (** direct call to a named function *)
  | Virtual of string (** dynamic dispatch on the first argument's class *)

type instr =
  | Move of var * operand
  | Unop of var * unop * operand
  | Binop of var * binop * operand * operand
  | Null_check of check_kind * var * site
      (** guard: raises NullPointerException if the variable is null *)
  | Bound_check of operand * operand * site
      (** [Bound_check (index, length, site)]: raises an
          index-out-of-bounds exception unless [0 <= index < length] *)
  | Get_field of var * var * field    (** [dst = obj.field] *)
  | Put_field of var * field * operand(** [obj.field = src] *)
  | Array_load of var * var * operand * kind
      (** [dst = arr[idx]]; the [kind] is the static element type, used for
          type-based alias analysis in scalar replacement *)
  | Array_store of var * operand * operand * kind (** [arr[idx] = src] *)
  | Array_length of var * var         (** [dst = arr.length] *)
  | New_object of var * string        (** allocate instance of a class *)
  | New_array of var * kind * operand (** allocate array of given length *)
  | Call of var option * call_target * operand list
  | Print of operand
      (** observable output; used as the event trace for differential
          testing and as a memory-write barrier *)

type terminator =
  | Goto of label
  | If of cmp * operand * operand * label * label
      (** [If (c, a, b, l_then, l_else)] *)
  | Ifnull of var * label * label
      (** [Ifnull (v, l_null, l_nonnull)]; contributes the non-null edge
          facts of the paper's Edge(m,n) *)
  | Return of operand option
  | Throw of string (** user-level throw of a named exception *)

(** {1 Functions and programs} *)

type block = {
  mutable instrs : instr array;
  mutable term : terminator;
  mutable breg : region;
}

type func = {
  fn_name : string;
  fn_nparams : int; (** parameters occupy variables [0 .. fn_nparams-1] *)
  fn_is_method : bool; (** when true, variable 0 is [this] and is non-null *)
  mutable fn_nvars : int;
  mutable fn_blocks : block array;
  mutable fn_handlers : (region * label) list;
      (** handler block for each try region; an exception raised in a block
          whose region has a handler transfers control to that label *)
  fn_var_names : (var, string) Hashtbl.t; (** debug names, best effort *)
}

type program = {
  classes : (string, cls) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  prog_main : string;
}

(** {1 Exceptions (runtime event kinds)} *)

type exn_kind =
  | Npe          (** NullPointerException *)
  | Oob          (** ArrayIndexOutOfBoundsException *)
  | Arith        (** ArithmeticException (integer division by zero) *)
  | User of string

(** {1 Structural constants}

    Object layout, shared with the VM and the architecture trap model:
    arrays store their length in a header slot at byte offset
    [array_length_offset], and element [i] lives at
    [array_elem_base + i * slot_size].  The paper relies on the length slot
    sitting at a small offset ("For any array access, the array length is
    required for bounds checking and its offset is typically zero from the
    top of the object"). *)

let slot_size = 8
let array_length_offset = 8
let array_elem_base = 16

(** {1 Accessors} *)

let block f l = f.fn_blocks.(l)
let nblocks f = Array.length f.fn_blocks

let handler_of f (r : region) =
  if r = no_region then None else List.assoc_opt r f.fn_handlers

(** The variable {!def_of_instr} returns for an instruction that defines
    none. *)
let no_var : var = -1

(** Variable defined by an instruction, or {!no_var}.  Allocates
    nothing: the data-flow transfers call it on every instruction of
    every block they visit. *)
let def_of_instr = function
  | Move (d, _) | Unop (d, _, _) | Binop (d, _, _, _)
  | Get_field (d, _, _) | Array_load (d, _, _, _) | Array_length (d, _)
  | New_object (d, _) | New_array (d, _, _) | Call (Some d, _, _) ->
    d
  | Call (None, _, _) | Null_check _ | Bound_check _ | Put_field _
  | Array_store _ | Print _ ->
    no_var

let vars_of_operand = function Var v -> [ v ] | Cint _ | Cfloat _ | Cnull -> []

let iter_operand (g : var -> unit) = function
  | Var v -> g v
  | Cint _ | Cfloat _ | Cnull -> ()

(** [iter_uses g i] applies [g] to each variable the instruction reads,
    in operand order. *)
let iter_uses (g : var -> unit) i =
  match i with
  | Move (_, o) | Unop (_, _, o) | Print o | New_array (_, _, o) ->
    iter_operand g o
  | Binop (_, _, a, b) | Bound_check (a, b, _) ->
    iter_operand g a;
    iter_operand g b
  | Null_check (_, v, _) | Array_length (_, v) | Get_field (_, v, _) -> g v
  | Put_field (o, _, s) ->
    g o;
    iter_operand g s
  | Array_load (_, a, i, _) ->
    g a;
    iter_operand g i
  | Array_store (a, i, s, _) ->
    g a;
    iter_operand g i;
    iter_operand g s
  | New_object _ -> ()
  | Call (_, _, args) -> List.iter (iter_operand g) args

(** {!iter_uses} for a terminator. *)
let iter_term_uses (g : var -> unit) = function
  | If (_, a, b, _, _) ->
    iter_operand g a;
    iter_operand g b
  | Ifnull (v, _, _) -> g v
  | Return (Some o) -> iter_operand g o
  | Goto _ | Return None | Throw _ -> ()

let succs_of_term = function
  | Goto l -> [ l ]
  | If (_, _, _, a, b) -> [ a; b ]
  | Ifnull (_, a, b) -> [ a; b ]
  | Return _ | Throw _ -> []

(** Substitute target labels of a terminator. *)
let map_term_labels g = function
  | Goto l -> Goto (g l)
  | If (c, a, b, l1, l2) -> If (c, a, b, g l1, g l2)
  | Ifnull (v, l1, l2) -> Ifnull (v, g l1, g l2)
  | (Return _ | Throw _) as t -> t

(** {1 Instruction classification}

    These predicates encode the paper's Kill conditions (Sections 4.1.1 and
    4.2.1).  They are shared by phase 1, phase 2, Whaley's baseline and the
    auxiliary optimizations so that every pass agrees on what constitutes a
    code-motion barrier. *)

(** [writes_memory i]: the instruction stores to the heap or produces
    observable output. *)
let writes_memory = function
  | Put_field _ | Array_store _ | Print _ -> true
  | Call _ -> true (* conservatively: callee may write *)
  | Move _ | Unop _ | Binop _ | Null_check _ | Bound_check _ | Get_field _
  | Array_load _ | Array_length _ | New_object _ | New_array _ ->
    false

(** [may_throw_other i]: the instruction can raise an exception that is not
    a NullPointerException originating from its own (already split-off)
    null check.  Integer division/remainder by a non-constant or zero
    divisor can raise ArithmeticException; allocation can raise
    OutOfMemoryError; a bound check raises OOB; calls can raise anything. *)
let may_throw_other = function
  | Binop (_, (Div | Rem), _, Cint k) -> k = 0
  | Binop (_, (Div | Rem), _, _) -> true
  | Bound_check _ -> true
  | New_object _ | New_array _ -> true
  | Call _ -> true
  | Move _ | Unop _ | Binop _ | Null_check _ | Get_field _ | Put_field _
  | Array_load _ | Array_store _ | Array_length _ | Print _ ->
    false

(** The paper's side-effect barrier: "a side-effecting instruction, which
    can potentially throw an exception other than a null pointer exception
    or perform a memory write (including a local variable write in a try
    region)". *)
let is_side_effecting ~in_try i =
  writes_memory i || may_throw_other i
  || (in_try && def_of_instr i <> no_var)

(** [deref_site i]: if [i] dereferences an object slot, returns
    [(base_var, byte_offset, access)] where [access] is [`Read] or
    [`Write].  The offset is [None] when it is not known at compile time
    (array element access with a non-constant index).  Used to decide
    whether a hardware trap is guaranteed (Section 3.3.1). *)
let deref_site = function
  | Get_field (_, o, f) -> Some (o, Some f.foffset, `Read)
  | Put_field (o, f, _) -> Some (o, Some f.foffset, `Write)
  | Array_length (_, a) -> Some (a, Some array_length_offset, `Read)
  | Array_load (_, a, Cint i, _) ->
    Some (a, Some (array_elem_base + (i * slot_size)), `Read)
  | Array_load (_, a, _, _) -> Some (a, None, `Read)
  | Array_store (a, Cint i, _, _) ->
    Some (a, Some (array_elem_base + (i * slot_size)), `Write)
  | Array_store (a, _, _, _) -> Some (a, None, `Write)
  | Move _ | Unop _ | Binop _ | Null_check _ | Bound_check _ | New_object _
  | New_array _ | Call _ | Print _ ->
    None

(** The base variable {!deref_site} would return, or {!no_var}; unlike
    it, allocates nothing. *)
let deref_base = function
  | Get_field (_, o, _) | Put_field (o, _, _) | Array_length (_, o)
  | Array_load (_, o, _, _) | Array_store (o, _, _, _) ->
    o
  | Move _ | Unop _ | Binop _ | Null_check _ | Bound_check _ | New_object _
  | New_array _ | Call _ | Print _ ->
    no_var

(** {1 Small utilities} *)

let var_name f v =
  match Hashtbl.find_opt f.fn_var_names v with
  | Some s -> s
  | None -> if v < f.fn_nparams then Printf.sprintf "p%d" v
            else Printf.sprintf "v%d" v

let fresh_var ?name f =
  let v = f.fn_nvars in
  f.fn_nvars <- v + 1;
  (match name with Some s -> Hashtbl.replace f.fn_var_names v s | None -> ());
  v

(** Deep copy of a function (blocks are mutable). *)
let copy_func f =
  {
    f with
    fn_blocks =
      Array.map
        (fun b -> { instrs = Array.copy b.instrs; term = b.term; breg = b.breg })
        f.fn_blocks;
    fn_handlers = f.fn_handlers;
    fn_var_names = Hashtbl.copy f.fn_var_names;
  }

let copy_program p =
  let funcs = Hashtbl.create (Hashtbl.length p.funcs) in
  Hashtbl.iter (fun k f -> Hashtbl.replace funcs k (copy_func f)) p.funcs;
  { classes = Hashtbl.copy p.classes; funcs; prog_main = p.prog_main }

let iter_funcs g p = Hashtbl.iter (fun _ f -> g f) p.funcs

let find_func p name =
  match Hashtbl.find_opt p.funcs name with
  | Some f -> f
  | None -> invalid_arg ("Ir.find_func: unknown function " ^ name)

let find_class p name =
  match Hashtbl.find_opt p.classes name with
  | Some c -> c
  | None -> invalid_arg ("Ir.find_class: unknown class " ^ name)

(** Look a field up in a class, walking the superclass chain. *)
let rec find_field p cls fname =
  match List.find_opt (fun fd -> fd.fname = fname) cls.cfields with
  | Some fd -> fd
  | None -> (
    match cls.csuper with
    | Some s -> find_field p (find_class p s) fname
    | None ->
      invalid_arg (Printf.sprintf "Ir.find_field: %s has no field %s"
                     cls.cname fname))

(** Resolve a virtual method on a class, walking the superclass chain. *)
let rec resolve_method p cls mname =
  match List.assoc_opt mname cls.cmethods with
  | Some fn -> Some fn
  | None -> (
    match cls.csuper with
    | Some s -> resolve_method p (find_class p s) mname
    | None -> None)

(** All implementations of a method name across the whole class hierarchy
    (used by class-hierarchy-analysis devirtualization). *)
let method_impls p mname =
  Hashtbl.fold
    (fun _ c acc ->
      match List.assoc_opt mname c.cmethods with
      | Some fn when not (List.mem fn acc) -> fn :: acc
      | _ -> acc)
    p.classes []

(** Built-in math routines: callable by name (out-of-line) and
    convertible to single instructions on architectures with FP
    intrinsics. *)
let intrinsics =
  [ ("Math.sqrt", Fsqrt); ("Math.exp", Fexp); ("Math.log", Flog);
    ("Math.sin", Fsin); ("Math.cos", Fcos) ]

let intrinsic_of_name n = List.assoc_opt n intrinsics

(** Total number of instructions in a function (terminators excluded). *)
let instr_count f =
  Array.fold_left (fun n b -> n + Array.length b.instrs) 0 f.fn_blocks

(** Count instructions matching a predicate across a function. *)
let count_instrs pred f =
  Array.fold_left
    (fun n b ->
      Array.fold_left (fun n i -> if pred i then n + 1 else n) n b.instrs)
    0 f.fn_blocks

let count_checks ?kind f =
  count_instrs
    (function
      | Null_check (k, _, _) -> (
        match kind with None -> true | Some k' -> k = k')
      | _ -> false)
    f

(** Provenance id of a check instruction ([no_site] for non-checks). *)
let site_of_instr = function
  | Null_check (_, _, s) | Bound_check (_, _, s) -> s
  | _ -> no_site

(** Reset the calling domain's provenance counter.  Call before
    building a program when site ids must be reproducible across
    process runs (the profiler's baseline depends on this); ids are
    only required to be unique within one program. *)
let reset_sites () = Domain.DLS.get site_counter := 0

(** Re-seed the calling domain's provenance counter to one past the
    largest site in [p], so that sites allocated while optimizing [p]
    depend only on [p] — compiling the same program twice, on any
    domain, yields identical provenance. *)
let seed_sites (p : program) =
  let m = ref (-1) in
  Hashtbl.iter
    (fun _ f ->
      Array.iter
        (fun (b : block) ->
          Array.iter (fun i -> m := max !m (site_of_instr i)) b.instrs)
        f.fn_blocks)
    p.funcs;
  Domain.DLS.get site_counter := !m + 1

(** All check sites present in a function. *)
let sites_of_func f =
  Array.fold_left
    (fun acc (b : block) ->
      Array.fold_left
        (fun acc i ->
          match i with
          | Null_check (_, _, s) | Bound_check (_, _, s) -> s :: acc
          | _ -> acc)
        acc b.instrs)
    [] f.fn_blocks

(** {1 Content digest} *)

(** [structural_digest v] is a 128-bit digest of [v]'s structure, as
    32 lowercase hex characters: one walk over the value
    ([digest_stubs.c]) feeds MurmurHash3 x64-128 with a word per
    immediate, a word per block built from its tag and size, a string's
    length and bytes, and a float's bits, visiting every field depth
    first.  Two values get the same digest exactly when they are
    structurally equal (up to the hash's collisions), over the values
    [Marshal] accepts without [Closures]: physical sharing is not seen,
    [0.0] and [-0.0] differ, and cycles do not terminate.  The hash is
    not cryptographic, and it reads the runtime's value representation,
    so a digest must never be persisted or compared across processes.
    It allocates nothing but its result and does not recurse on the C
    stack, so any list length or nesting depth is fine.
    @raise Invalid_argument on a closure, custom (e.g. [Int64.t]),
    abstract, lazy, forward, object or continuation block. *)
external structural_digest : 'a -> string = "ne_structural_digest"

(** A hash table's bindings sorted by key: a [Hashtbl]'s layout depends
    on its insertion history, its content does not. *)
let sorted_bindings cmp tbl =
  List.sort
    (fun (a, _) (b, _) -> cmp a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** A function's debug names as an array indexed by variable, [None]
    where a variable has no name.  Its length is [fn_nvars], or one
    past the highest named variable if that is larger, so the table's
    content fixes it and no sort is needed. *)
let var_names_by_id (f : func) =
  let n = Hashtbl.fold (fun v _ n -> max n (v + 1)) f.fn_var_names f.fn_nvars in
  let names = Array.make n None in
  Hashtbl.iter (fun v s -> names.(v) <- Some s) f.fn_var_names;
  names

(** A function's content in canonical form: name, arity, method flag,
    variable count, blocks (instructions with their check sites,
    terminators, regions), handler table and {!var_names_by_id}.  Read
    straight off the record, so a new instruction constructor is
    covered without editing this. *)
let func_projection (f : func) =
  ( f.fn_name,
    f.fn_nparams,
    f.fn_is_method,
    f.fn_nvars,
    f.fn_blocks,
    f.fn_handlers,
    var_names_by_id f )

(** Every function's {!func_projection}, sorted by name.  The compile
    service's cache key digests it with the job's other parts, and the
    optimizer's rounds compare its digest alone. *)
let funcs_projection (p : program) =
  List.map
    (fun (name, f) -> (name, func_projection f))
    (sorted_bindings String.compare p.funcs)
