(* C code emitter: lowers IR to self-contained C translation units.

   The output contract is the whole point of the backend (DESIGN.md
   section 16): explicit null checks become a compare-and-branch to the
   block's NPE dispatch; implicit null checks emit NOTHING — the
   guarded dereference compiles to a bare load/store whose operand
   address lands inside the mmap(PROT_NONE) guard region when the base
   is null, and a pair of global asm labels brackets the access so the
   SIGSEGV handler can map the faulting PC back to the check's
   provenance site.

   Value representation: every IR value is an int64_t.  Integers carry
   OCaml's 63-bit semantics (NE_NORM re-normalizes after arithmetic,
   and the kernels are compiled with -fwrapv so intermediate overflow
   wraps); floats are IEEE doubles bit-cast through int64; references
   are addresses, with null represented as the guard-region base so
   that dereferencing null at emitted offset [o + 8] faults exactly
   when the simulated architecture's trap area covers IR offset [o].

   Heap layout (emitted offsets are IR offsets + 8; slot 0 is the
   header):  objects   [0] = (class_id << 3) | 1, fields at
                        IR offset + 8;
             arrays    [0] = 2, [16] = length, elements at 24 + 8*i.
   The virtual-dispatch method-table load reads the header at offset 0
   and therefore faults on a null receiver exactly like the
   interpreter's "method-table load through null" model. *)

module Ir = Nullelim_ir.Ir

type stats = {
  ec_functions : int;
  ec_blocks : int;
  ec_instrs : int;
  ec_explicit_branches : int;
  ec_implicit_sites : int;
  ec_implicit_check_instrs : int;
  ec_trap_entries : int;
  ec_c_bytes : int;
}

type emitted = {
  em_files : (string * string) list;
  em_entry : string;
  em_class_names : string array;
  em_user_exns : string array;
  em_stats : stats;
}

exception Unsupported of string

(* ------------------------------------------------------------------ *)
(* Variable-kind inference                                            *)
(* ------------------------------------------------------------------ *)

type vk = KU | KI | KF | KR | KC

let join a b =
  match (a, b) with
  | KU, x | x, KU -> x
  | KI, KI -> KI
  | KF, KF -> KF
  | KR, KR -> KR
  | _ -> KC

let vk_of_kind = function Ir.Kint -> KI | Ir.Kfloat -> KF | Ir.Kref -> KR

type fkinds = { vks : vk array; mutable ret : vk }

let infer_kinds (p : Ir.program) : (string, fkinds) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (f : Ir.func) ->
      Hashtbl.replace tbl name
        { vks = Array.make (max f.fn_nvars 1) KU; ret = KU })
    p.funcs;
  let changed = ref true in
  let setv fk v k =
    if v >= 0 && v < Array.length fk.vks then begin
      let j = join fk.vks.(v) k in
      if j <> fk.vks.(v) then begin
        fk.vks.(v) <- j;
        changed := true
      end
    end
  in
  let okind fk = function
    | Ir.Var v -> if v >= 0 && v < Array.length fk.vks then fk.vks.(v) else KU
    | Ir.Cint _ -> KI
    | Ir.Cfloat _ -> KF
    | Ir.Cnull -> KR
  in
  let vtargets mname =
    Hashtbl.fold
      (fun _ (c : Ir.cls) acc ->
        match List.assoc_opt mname c.cmethods with
        | Some fn when not (List.mem fn acc) -> fn :: acc
        | _ -> acc)
      p.classes []
  in
  let constrain_call fk d target args =
    match target with
    | Ir.Static s when Ir.intrinsic_of_name s <> None -> (
      match d with Some d -> setv fk d KF | None -> ())
    | Ir.Static _ | Ir.Virtual _ ->
      let tgts =
        match target with
        | Ir.Static s -> [ s ]
        | Ir.Virtual m -> vtargets m
      in
      List.iter
        (fun t ->
          match (Hashtbl.find_opt tbl t, Hashtbl.find_opt p.funcs t) with
          | Some cfk, Some callee ->
            List.iteri
              (fun i a ->
                if i < callee.Ir.fn_nparams then setv cfk i (okind fk a))
              args;
            (match d with Some d -> setv fk d cfk.ret | None -> ())
          | _ -> ())
        tgts
  in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun name (f : Ir.func) ->
        let fk = Hashtbl.find tbl name in
        Array.iter
          (fun (b : Ir.block) ->
            Array.iter
              (fun i ->
                match i with
                | Ir.Move (d, o) -> setv fk d (okind fk o)
                | Ir.Unop (d, u, _) ->
                  setv fk d
                    (match u with
                    | Ir.Neg | Ir.F2i -> KI
                    | Ir.Fneg | Ir.I2f | Ir.Fsqrt | Ir.Fexp | Ir.Flog
                    | Ir.Fsin | Ir.Fcos ->
                      KF)
                | Ir.Binop (d, op, _, _) ->
                  setv fk d
                    (match op with
                    | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> KF
                    | _ -> KI)
                | Ir.Null_check _ | Ir.Bound_check _ | Ir.Print _
                | Ir.Put_field _ | Ir.Array_store _ ->
                  ()
                | Ir.Get_field (d, _, fld) -> setv fk d (vk_of_kind fld.fkind)
                | Ir.Array_load (d, _, _, k) -> setv fk d (vk_of_kind k)
                | Ir.Array_length (d, _) -> setv fk d KI
                | Ir.New_object (d, _) | Ir.New_array (d, _, _) ->
                  setv fk d KR
                | Ir.Call (d, t, args) -> constrain_call fk d t args)
              b.instrs;
            match b.term with
            | Ir.Return (Some o) ->
              let j = join fk.ret (okind fk o) in
              if j <> fk.ret then begin
                fk.ret <- j;
                changed := true
              end
            | _ -> ())
          f.fn_blocks)
      p.funcs
  done;
  tbl

(* ------------------------------------------------------------------ *)
(* Naming                                                             *)
(* ------------------------------------------------------------------ *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* ------------------------------------------------------------------ *)
(* Emission context                                                   *)
(* ------------------------------------------------------------------ *)

type ectx = {
  p : Ir.program;
  trap_area : int;
  fuel_checks : bool;
  kinds : (string, fkinds) Hashtbl.t;
  cfn : (string, string) Hashtbl.t; (* IR function name -> C name *)
  cls_ids : (string * int) list;
  mids : (string * int) list; (* method name -> vtable column *)
  user_exns : string array;
  mutable tix : int; (* program-dense trap index *)
  table : (int * int) list ref; (* (idx, site), reversed *)
  mutable s_explicit : int;
  mutable s_implicit_sites : int;
  mutable s_instrs : int;
  mutable s_blocks : int;
}

let user_code ctx name =
  let rec go i =
    if i >= Array.length ctx.user_exns then
      raise (Unsupported ("unknown user exception " ^ name))
    else if ctx.user_exns.(i) = name then 16 + i
    else go (i + 1)
  in
  go 0

let cls_id ctx cname =
  match List.assoc_opt cname ctx.cls_ids with
  | Some i -> i
  | None -> raise (Unsupported ("unknown class " ^ cname))

let method_id ctx m =
  match List.assoc_opt m ctx.mids with
  | Some i -> i
  | None -> raise (Unsupported ("unknown method " ^ m))

let cfn_of ctx name =
  match Hashtbl.find_opt ctx.cfn name with
  | Some c -> c
  | None -> raise (Unsupported ("unknown function " ^ name))

let bpf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let var_str v = Printf.sprintf "v%d" v

let op_str = function
  | Ir.Var v -> var_str v
  | Ir.Cint n -> Printf.sprintf "INT64_C(%d)" n
  | Ir.Cfloat x ->
    Printf.sprintf "(int64_t)UINT64_C(0x%Lx) /* %s */"
      (Int64.bits_of_float x)
      (string_of_float x)
  | Ir.Cnull -> "NE_NULL"

let op_vk fk = function
  | Ir.Var v -> if v >= 0 && v < Array.length fk.vks then fk.vks.(v) else KU
  | Ir.Cint _ -> KI
  | Ir.Cfloat _ -> KF
  | Ir.Cnull -> KR

let cmp_op = function
  | Ir.Eq -> "=="
  | Ir.Ne -> "!="
  | Ir.Lt -> "<"
  | Ir.Le -> "<="
  | Ir.Gt -> ">"
  | Ir.Ge -> ">="

(* A comparison dispatches on the runtime kind of its operands in the
   interpreter; here the inferred static kinds decide.  [Error] means
   the interpreter would raise a simulation error. *)
let cmp_expr c ka kb ea eb =
  let mismatch =
    match (ka, kb) with
    | KI, (KF | KR) | KF, (KI | KR) | KR, (KI | KF) -> true
    | _ -> false
  in
  if mismatch then Error "comparison on mismatched values"
  else
    match (ka, kb) with
    | KF, _ | _, KF ->
      Ok (Printf.sprintf "(ne_f(%s) %s ne_f(%s))" ea (cmp_op c) eb)
    | KR, _ | _, KR -> (
      match c with
      | Ir.Eq -> Ok (Printf.sprintf "(%s == %s)" ea eb)
      | Ir.Ne -> Ok (Printf.sprintf "(%s != %s)" ea eb)
      | _ -> Error "ordered comparison on references")
    | _ -> Ok (Printf.sprintf "(%s %s %s)" ea (cmp_op c) eb)

(* ------------------------------------------------------------------ *)
(* Per-function emission                                              *)
(* ------------------------------------------------------------------ *)

(* Does this block contain an access that can legitimately trap (a
   known-offset dereference inside the trap area, or a virtual
   dispatch's method-table load)? *)
let block_can_trap ctx (b : Ir.block) =
  Array.exists
    (fun i ->
      (match Ir.deref_site i with
      | Some (_, Some o, _) -> o >= 0 && o < ctx.trap_area
      | _ -> false)
      ||
      match i with Ir.Call (_, Ir.Virtual _, _) -> true | _ -> false)
    b.instrs

let func_recovers_locally ctx (f : Ir.func) =
  Array.exists
    (fun b -> Ir.handler_of f b.Ir.breg <> None && block_can_trap ctx b)
    f.fn_blocks

let func_has_traps ctx (f : Ir.func) =
  Array.exists (block_can_trap ctx) f.fn_blocks

let emit_func ctx (f : Ir.func) : string =
  let fk = Hashtbl.find ctx.kinds f.fn_name in
  let is_main = f.fn_name = ctx.p.prog_main in
  let has_frame = func_has_traps ctx f in
  (* Variables live at a handler label can be reached by siglongjmp
     (the trap recovery path); the C standard makes non-volatile
     automatic objects indeterminate after that, so when any trap in
     this function recovers to an in-function handler every IR
     variable is declared volatile. *)
  let vol = if func_recovers_locally ctx f then "volatile " else "" in
  let cases = ref [] in (* (trap idx, dispatch statement) *)
  let alloc_trap b site =
    let idx = ctx.tix in
    ctx.tix <- idx + 1;
    ctx.table := (idx, site) :: !(ctx.table);
    let action =
      match Ir.handler_of f b.Ir.breg with
      | Some h -> Printf.sprintf "NE_EVF(5, 1); goto L%d;" h
      | None -> "NE_ST->pending = 1; goto L_ret_exn;"
    in
    cases := (idx, action) :: !cases;
    idx
  in
  let body = Buffer.create 1024 in
  let raise_code b code =
    match Ir.handler_of f b.Ir.breg with
    | Some h -> bpf body "{ NE_EVF(5, %d); goto L%d; }\n" code h
    | None -> bpf body "{ NE_ST->pending = %d; goto L_ret_exn; }\n" code
  in
  let dispatch_pending b =
    match Ir.handler_of f b.Ir.breg with
    | Some h ->
      bpf body
        "  if (NE_ST->pending) { if (NE_ST->pending > 0) { int64_t k_ = \
         NE_ST->pending; NE_ST->pending = 0; NE_EVF(5, k_); goto L%d; } goto \
         L_ret_exn; }\n"
        h
    | None -> bpf body "  if (NE_ST->pending) goto L_ret_exn;\n"
  in
  (* A load or store of [*(base + ir_off)].  Bracketed with trap labels
     when the simulated trap area covers the IR offset: the access
     itself is the null check, zero instructions are spent on it. *)
  let emit_access b ~prev ~base ~ir_off ~(dst : string option)
      ~(src : string option) =
    let covered = ir_off >= 0 && ir_off < ctx.trap_area in
    let addr = Printf.sprintf "(uintptr_t)(%s + %d)" (var_str base) (ir_off + 8) in
    if covered then begin
      let site =
        match prev with
        | Some (Ir.Null_check (Ir.Implicit, v, s)) when v = base -> s
        | _ -> -1
      in
      let idx = alloc_trap b site in
      match (dst, src) with
      | Some d, None ->
        bpf body
          "  NE_TLAB(%d_lo); %s = *(volatile int64_t *)%s; NE_TLAB(%d_hi);\n"
          idx d addr idx
      | None, Some s ->
        bpf body
          "  NE_TLAB(%d_lo); *(volatile int64_t *)%s = %s; NE_TLAB(%d_hi);\n"
          idx addr s idx
      | _ -> assert false
    end
    else
      match (dst, src) with
      | Some d, None -> bpf body "  %s = *(int64_t *)%s;\n" d addr
      | None, Some s -> bpf body "  *(int64_t *)%s = %s;\n" addr s
      | _ -> assert false
  in
  let sim_error () = bpf body "  { NE_ST->pending = -1; goto L_ret_exn; }\n" in
  let emit_instr b ~prev i =
    ctx.s_instrs <- ctx.s_instrs + 1;
    match i with
    | Ir.Move (d, o) -> bpf body "  %s = %s;\n" (var_str d) (op_str o)
    | Ir.Unop (d, u, o) -> (
      let e = op_str o in
      let d = var_str d in
      match u with
      | Ir.Neg -> bpf body "  %s = NE_NORM(-(%s));\n" d e
      | Ir.Fneg -> bpf body "  %s = ne_b(-ne_f(%s));\n" d e
      | Ir.I2f -> bpf body "  %s = ne_b((double)(%s));\n" d e
      | Ir.F2i -> bpf body "  %s = NE_NORM((int64_t)ne_f(%s));\n" d e
      | Ir.Fsqrt -> bpf body "  %s = ne_b(sqrt(ne_f(%s)));\n" d e
      | Ir.Fexp -> bpf body "  %s = ne_b(exp(ne_f(%s)));\n" d e
      | Ir.Flog -> bpf body "  %s = ne_b(log(ne_f(%s)));\n" d e
      | Ir.Fsin -> bpf body "  %s = ne_b(sin(ne_f(%s)));\n" d e
      | Ir.Fcos -> bpf body "  %s = ne_b(cos(ne_f(%s)));\n" d e)
    | Ir.Binop (d, op, a, b') -> (
      let ea = op_str a and eb = op_str b' in
      let d = var_str d in
      let ib fmt = bpf body fmt d ea eb in
      match op with
      | Ir.Add -> ib "  %s = NE_NORM(%s + %s);\n"
      | Ir.Sub -> ib "  %s = NE_NORM(%s - %s);\n"
      | Ir.Mul -> ib "  %s = NE_NORM(%s * %s);\n"
      | Ir.Div ->
        bpf body "  if ((%s) == 0) " eb;
        raise_code b 3;
        bpf body "  %s = NE_NORM(%s / %s);\n" d ea eb
      | Ir.Rem ->
        bpf body "  if ((%s) == 0) " eb;
        raise_code b 3;
        bpf body "  %s = NE_NORM(%s %% %s);\n" d ea eb
      | Ir.Band -> ib "  %s = (%s & %s);\n"
      | Ir.Bor -> ib "  %s = (%s | %s);\n"
      | Ir.Bxor -> ib "  %s = (%s ^ %s);\n"
      | Ir.Shl ->
        bpf body "  %s = NE_NORM((int64_t)((uint64_t)(%s) << ((%s) & 63)));\n"
          d ea eb
      | Ir.Shr -> bpf body "  %s = ((%s) >> ((%s) & 63));\n" d ea eb
      | Ir.Fadd -> ib "  %s = ne_b(ne_f(%s) + ne_f(%s));\n"
      | Ir.Fsub -> ib "  %s = ne_b(ne_f(%s) - ne_f(%s));\n"
      | Ir.Fmul -> ib "  %s = ne_b(ne_f(%s) * ne_f(%s));\n"
      | Ir.Fdiv -> ib "  %s = ne_b(ne_f(%s) / ne_f(%s));\n"
      | Ir.Icmp c | Ir.Fcmp c -> (
        match cmp_expr c (op_vk fk a) (op_vk fk b') ea eb with
        | Ok e -> bpf body "  %s = %s ? 1 : 0;\n" d e
        | Error _ -> sim_error ()))
    | Ir.Null_check (Ir.Explicit, v, _) ->
      ctx.s_explicit <- ctx.s_explicit + 1;
      bpf body "  if (%s == NE_NULL) " (var_str v);
      raise_code b 1
    | Ir.Null_check (Ir.Implicit, _, _) ->
      (* Zero instructions: the guarded dereference that follows is the
         check.  Only the stats and the trap-site attribution below
         remember this pseudo-instruction existed. *)
      ctx.s_implicit_sites <- ctx.s_implicit_sites + 1;
      bpf body "  /* implicit null check: no code */\n"
    | Ir.Bound_check (io, lo, _) ->
      bpf body "  if ((%s) < 0 || (%s) >= (%s)) " (op_str io) (op_str io)
        (op_str lo);
      raise_code b 2
    | Ir.Get_field (d, o, fld) ->
      emit_access b ~prev ~base:o ~ir_off:fld.foffset
        ~dst:(Some (var_str d)) ~src:None
    | Ir.Put_field (o, fld, src) ->
      emit_access b ~prev ~base:o ~ir_off:fld.foffset ~dst:None
        ~src:(Some (op_str src))
    | Ir.Array_load (d, a, io, _) -> (
      match io with
      | Ir.Cint i ->
        emit_access b ~prev ~base:a
          ~ir_off:(Ir.array_elem_base + (i * Ir.slot_size))
          ~dst:(Some (var_str d)) ~src:None
      | _ ->
        bpf body
          "  %s = *(int64_t *)(uintptr_t)(%s + 24 + ((%s) << 3));\n"
          (var_str d) (var_str a) (op_str io))
    | Ir.Array_store (a, io, src, _) -> (
      match io with
      | Ir.Cint i ->
        emit_access b ~prev ~base:a
          ~ir_off:(Ir.array_elem_base + (i * Ir.slot_size))
          ~dst:None ~src:(Some (op_str src))
      | _ ->
        bpf body
          "  *(int64_t *)(uintptr_t)(%s + 24 + ((%s) << 3)) = %s;\n"
          (var_str a) (op_str io) (op_str src))
    | Ir.Array_length (d, a) ->
      emit_access b ~prev ~base:a ~ir_off:Ir.array_length_offset
        ~dst:(Some (var_str d)) ~src:None
    | Ir.New_object (d, cname) ->
      bpf body "  %s = ne_new_c%d();\n" (var_str d) (cls_id ctx cname);
      bpf body "  if (NE_ST->pending) goto L_ret_exn;\n"
    | Ir.New_array (d, k, n) ->
      bpf body "  %s = ne_new_arr(%d, %s);\n" (var_str d)
        (match k with Ir.Kref -> 1 | Ir.Kint | Ir.Kfloat -> 0)
        (op_str n);
      dispatch_pending b
    | Ir.Call (d, Ir.Static s, args) when Ir.intrinsic_of_name s <> None -> (
      match args with
      | [ a ] -> (
        let fn =
          match Ir.intrinsic_of_name s with
          | Some Ir.Fsqrt -> "sqrt"
          | Some Ir.Fexp -> "exp"
          | Some Ir.Flog -> "log"
          | Some Ir.Fsin -> "sin"
          | Some Ir.Fcos -> "cos"
          | _ -> assert false
        in
        match d with
        | Some d ->
          bpf body "  %s = ne_b(%s(ne_f(%s)));\n" (var_str d) fn (op_str a)
        | None -> ())
      | _ -> sim_error () (* interp: "bad intrinsic arity" *))
    | Ir.Call (d, Ir.Static s, args) ->
      let callee =
        match Hashtbl.find_opt ctx.p.funcs s with
        | Some c -> c
        | None -> raise (Unsupported ("call to unknown function " ^ s))
      in
      let actuals =
        List.init callee.fn_nparams (fun i ->
            match List.nth_opt args i with
            | Some a -> op_str a
            | None -> "0")
      in
      bpf body "  { int64_t t_ = %s(%s);\n" (cfn_of ctx s)
        (String.concat ", " actuals);
      dispatch_pending b;
      (match d with
      | Some d -> bpf body "  %s = t_; }\n" (var_str d)
      | None -> bpf body "  (void)t_; }\n")
    | Ir.Call (d, Ir.Virtual m, args) -> (
      match args with
      | [] -> sim_error ()
      | recv :: _ ->
        let mid = method_id ctx m in
        bpf body "  { int64_t r_ = %s;\n" (op_str recv);
        (* The method-table load: faults on a null receiver, which is
           the paper's check-free virtual dispatch. *)
        let idx = alloc_trap b (-1) in
        bpf body
          "    NE_TLAB(%d_lo); int64_t h_ = *(volatile int64_t \
           *)(uintptr_t)r_; NE_TLAB(%d_hi);\n"
          idx idx;
        bpf body "    if ((h_ & 7) != 1) { NE_ST->pending = -1; goto L_ret_exn; }\n";
        bpf body "    void *f_ = ne_vt[h_ >> 3][%d];\n" mid;
        bpf body "    if (!f_) { NE_ST->pending = -1; goto L_ret_exn; }\n";
        bpf body
          "    int64_t t_ = ((int64_t (*)(const int64_t *, int64_t))f_)\
           ((int64_t[]){%s}, %d);\n"
          (String.concat ", " (List.map op_str args))
          (List.length args);
        dispatch_pending b;
        (match d with
        | Some d -> bpf body "  %s = t_; }\n" (var_str d)
        | None -> bpf body "  (void)t_; }\n"))
    | Ir.Print o -> (
      match op_vk fk o with
      | KF -> bpf body "  NE_EVF(1, %s);\n" (op_str o)
      | KR -> bpf body "  ne_print_ref(%s);\n" (op_str o)
      | KI | KU | KC -> bpf body "  NE_EVF(0, %s);\n" (op_str o))
  in
  Array.iteri
    (fun l (b : Ir.block) ->
      ctx.s_blocks <- ctx.s_blocks + 1;
      bpf body "L%d: ;\n" l;
      if ctx.fuel_checks then
        bpf body
          "  if ((NE_ST->fuel -= %d) <= 0) { NE_ST->pending = -2; goto L_ret_exn; \
           }\n"
          (Array.length b.instrs + 1);
      let prev = ref None in
      Array.iter
        (fun i ->
          emit_instr b ~prev:!prev i;
          prev := Some i)
        b.instrs;
      (match b.term with
      | Ir.Goto l' -> bpf body "  goto L%d;\n" l'
      | Ir.If (c, x, y, l1, l2) -> (
        match cmp_expr c (op_vk fk x) (op_vk fk y) (op_str x) (op_str y) with
        | Ok e -> bpf body "  if %s goto L%d; else goto L%d;\n" e l1 l2
        | Error _ -> bpf body "  { NE_ST->pending = -1; goto L_ret_exn; }\n")
      | Ir.Ifnull (v, l1, l2) ->
        bpf body "  if (%s == NE_NULL) goto L%d; else goto L%d;\n" (var_str v)
          l1 l2
      | Ir.Return o ->
        (if is_main then
           let k =
             match o with
             | None -> 0
             | Some o -> (
               match op_vk fk o with
               | KF -> 2
               | KR -> 3
               | KI | KU | KC -> 1)
           in
           bpf body "  NE_ST->ret_kind = %d;\n" k);
        (match o with
        | Some o -> bpf body "  ne_retv_ = %s;\n" (op_str o)
        | None -> ());
        bpf body "  goto L_done;\n"
      | Ir.Throw s ->
        bpf body "  ";
        raise_code b (user_code ctx s)))
    f.fn_blocks;
  (* Assemble: prologue + recovery switch + body + epilogue. *)
  let out = Buffer.create (Buffer.length body + 1024) in
  let params =
    List.init f.fn_nparams (fun i -> Printf.sprintf "int64_t p%d" i)
  in
  bpf out "__attribute__((noinline, noclone, used))\nint64_t %s(%s)\n{\n"
    (cfn_of ctx f.fn_name)
    (if params = [] then "void" else String.concat ", " params);
  bpf out
    "  if (++NE_ST->depth > 2000) { NE_ST->pending = -3; --NE_ST->depth; \
     return 0; }\n";
  for v = 0 to f.fn_nvars - 1 do
    if v < f.fn_nparams then bpf out "  %sint64_t v%d = p%d;\n" vol v v
    else bpf out "  %sint64_t v%d = 0;\n" vol v
  done;
  bpf out "  %sint64_t ne_retv_ = 0;\n" (if has_frame then "volatile " else "");
  if has_frame then begin
    bpf out "  ne_frame fr_;\n";
    bpf out "  fr_.trap_idx = -1;\n";
    bpf out "  fr_.prev = NE_ST->top;\n";
    bpf out "  NE_ST->top = &fr_;\n";
    bpf out "  if (sigsetjmp(fr_.env, 0)) {\n";
    bpf out "    NE_ST->in_recovery = 0;\n";
    bpf out "    switch (fr_.trap_idx) {\n";
    List.iter
      (fun (idx, action) -> bpf out "    case %d: %s break;\n" idx action)
      (List.rev !cases);
    bpf out "    default: NE_ST->pending = -1; goto L_ret_exn;\n";
    bpf out "    }\n  }\n"
  end;
  bpf out "  goto L0;\n";
  Buffer.add_buffer out body;
  bpf out "L_ret_exn: ;\n  ne_retv_ = 0;\nL_done: ;\n";
  if has_frame then bpf out "  NE_ST->top = fr_.prev;\n";
  bpf out "  --NE_ST->depth;\n  return ne_retv_;\n}\n";
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Module-level pieces                                                *)
(* ------------------------------------------------------------------ *)

(* The ABI block is lib/backend/ne_abi.h, embedded verbatim; ne_bind
   checks NE_ABI_VERSION at load time. *)
let runtime_header ~ncls ~nmeth =
  let b = Buffer.create 4096 in
  bpf b "#ifndef NE_PROG_H\n#define NE_PROG_H\n";
  bpf b "#include <string.h>\n#include <math.h>\n\n";
  Buffer.add_string b Ne_abi_h.text;
  bpf b "\nextern int64_t NE_NULL;\n";
  bpf b "extern ne_state *NE_ST;\n";
  bpf b "extern void *(*NE_ALLOC)(int64_t);\n";
  bpf b "extern void (*NE_EVP)(int64_t, int64_t);\n\n";
  bpf b "#define NE_EVF(t, a) (NE_EVP((int64_t)(t), (int64_t)(a)))\n";
  (* OCaml's 63-bit integer semantics: re-normalize after arithmetic. *)
  bpf b "#define NE_NORM(x) ((int64_t)((uint64_t)(x) << 1) >> 1)\n";
  (* Global asm labels bracketing a trap-eligible access; the labels
     land in the fault-PC -> site table. *)
  bpf b
    "#define NE_TLAB(sym) __asm__ volatile (\".globl ne_t\" #sym \"\\nne_t\" \
     #sym \":\")\n\n";
  bpf b "static inline double ne_f(int64_t v)\n";
  bpf b "{ double d; memcpy(&d, &v, 8); return d; }\n";
  bpf b "static inline int64_t ne_b(double d)\n";
  bpf b "{ int64_t v; memcpy(&v, &d, 8); return v; }\n\n";
  bpf b "int64_t ne_new_arr(int64_t is_ref, int64_t len);\n";
  bpf b "void ne_print_ref(int64_t v);\n";
  if ncls > 0 then bpf b "int64_t ne_new_c%s(void);\n"
      (String.concat "(void);\nint64_t ne_new_c"
         (List.init ncls string_of_int));
  if ncls > 0 && nmeth > 0 then
    bpf b "extern void *ne_vt[%d][%d];\n" ncls nmeth;
  Buffer.contents b

let all_fields_of (p : Ir.program) (c : Ir.cls) : Ir.field list =
  let rec go (c : Ir.cls) acc =
    let acc = c.cfields @ acc in
    match c.csuper with
    | Some s -> (
      match Hashtbl.find_opt p.classes s with
      | Some sc -> go sc acc
      | None -> acc)
    | None -> acc
  in
  go c []

let emit_mod ctx ~negarr_code ~cls_sorted ~meth_names ~entry_cfn : string =
  let b = Buffer.create 4096 in
  bpf b "#include \"prog.h\"\n\n";
  bpf b "int64_t NE_NULL;\n";
  bpf b "ne_state *NE_ST;\n";
  bpf b "void *(*NE_ALLOC)(int64_t);\n";
  bpf b "void (*NE_EVP)(int64_t, int64_t);\n\n";
  bpf b "int ne_bind(const ne_rt *rt)\n{\n";
  bpf b "  if (rt->abi != NE_ABI_VERSION) return -1;\n";
  bpf b "  NE_NULL = rt->null_v;\n  NE_ST = rt->st;\n";
  bpf b "  NE_ALLOC = rt->alloc;\n";
  bpf b "  NE_EVP = rt->ev;\n  return NE_ABI_VERSION;\n}\n\n";
  (* Array allocation: calloc-zeroed slots are already the interpreter's
     defaults for ints and floats; reference slots must be null, which
     is the guard base, not zero. *)
  bpf b "int64_t ne_new_arr(int64_t is_ref, int64_t len)\n{\n";
  bpf b "  if (len < 0) { NE_ST->pending = %d; return NE_NULL; }\n" negarr_code;
  bpf b "  if (len > (INT64_C(1) << 40)) { NE_ST->pending = -1; return NE_NULL; }\n";
  bpf b "  char *p = NE_ALLOC(24 + len * 8);\n";
  bpf b "  if (!p) { NE_ST->pending = -1; return NE_NULL; }\n";
  bpf b "  *(int64_t *)p = 2;\n";
  bpf b "  *(int64_t *)(p + 16) = len;\n";
  bpf b "  if (is_ref)\n";
  bpf b "    for (int64_t i = 0; i < len; i++)\n";
  bpf b "      *(int64_t *)(p + 24 + i * 8) = NE_NULL;\n";
  bpf b "  return (int64_t)(uintptr_t)p;\n}\n\n";
  bpf b "void ne_print_ref(int64_t v)\n{\n";
  bpf b "  if (v == NE_NULL) { NE_EVF(2, 0); return; }\n";
  bpf b "  int64_t h = *(int64_t *)(uintptr_t)v;\n";
  bpf b "  if ((h & 7) == 1) NE_EVF(3, h >> 3);\n";
  bpf b "  else NE_EVF(4, *(int64_t *)(uintptr_t)(v + 16));\n}\n\n";
  (* Per-class allocators. *)
  List.iteri
    (fun i (c : Ir.cls) ->
      let fields = all_fields_of ctx.p c in
      let sz =
        List.fold_left (fun m (f : Ir.field) -> max m (f.foffset + 16)) 16
          fields
      in
      bpf b "int64_t ne_new_c%d(void) /* %s */\n{\n" i c.cname;
      bpf b "  char *p = NE_ALLOC(%d);\n" sz;
      bpf b "  if (!p) { NE_ST->pending = -1; return NE_NULL; }\n";
      bpf b "  *(int64_t *)p = (INT64_C(%d) << 3) | 1;\n" i;
      List.iter
        (fun (f : Ir.field) ->
          if f.fkind = Ir.Kref then
            bpf b "  *(int64_t *)(p + %d) = NE_NULL;\n" (f.foffset + 8))
        fields;
      bpf b "  return (int64_t)(uintptr_t)p;\n}\n\n")
    cls_sorted;
  (* Virtual dispatch: uniform-arity wrappers + a class x method table
     of wrapper pointers (0 = method not understood). *)
  let nmeth = List.length meth_names in
  if cls_sorted <> [] && nmeth > 0 then begin
    let wrappers = Hashtbl.create 8 in
    let wrapper_of fname =
      match Hashtbl.find_opt wrappers fname with
      | Some w -> w
      | None ->
        let w = Printf.sprintf "ne_vw_%s" (sanitize fname) in
        Hashtbl.replace wrappers fname w;
        (match Hashtbl.find_opt ctx.p.funcs fname with
        | None -> raise (Unsupported ("method maps to unknown function " ^ fname))
        | Some (callee : Ir.func) ->
          bpf b "static int64_t %s(const int64_t *a_, int64_t n_)\n{\n" w;
          if callee.fn_nparams = 0 then
            bpf b "  (void)a_; (void)n_;\n  return %s();\n}\n\n"
              (cfn_of ctx fname)
          else begin
            let actuals =
              List.init callee.fn_nparams (fun i ->
                  Printf.sprintf "(n_ > %d ? a_[%d] : 0)" i i)
            in
            bpf b "  return %s(%s);\n}\n\n" (cfn_of ctx fname)
              (String.concat ", " actuals)
          end);
        w
    in
    let rows =
      List.map
        (fun (c : Ir.cls) ->
          List.map
            (fun m ->
              match Ir.resolve_method ctx.p c m with
              | Some fname -> Printf.sprintf "(void *)%s" (wrapper_of fname)
              | None | (exception Invalid_argument _) -> "0")
            meth_names)
        cls_sorted
    in
    bpf b "void *ne_vt[%d][%d] = {\n" (List.length cls_sorted) nmeth;
    List.iter (fun row -> bpf b "  { %s },\n" (String.concat ", " row)) rows;
    bpf b "};\n\n"
  end;
  (* The fault-PC -> site table.  dlsym needs the symbols present even
     when the program has no trap-eligible access. *)
  let entries = List.rev !(ctx.table) in
  (* weak: the C compiler may delete a provably-unreachable block along
     with its bracket labels; the entry then resolves to NULL and never
     matches a fault PC, instead of breaking dlopen *)
  List.iter
    (fun (idx, _) ->
      bpf b
        "extern const char ne_t%d_lo[] __attribute__((weak)), ne_t%d_hi[] \
         __attribute__((weak));\n"
        idx idx)
    entries;
  if entries = [] then
    bpf b "const ne_site_ent ne_site_table[1] = { { 0, 0, -1, -1 } };\n"
  else begin
    bpf b "const ne_site_ent ne_site_table[%d] = {\n" (List.length entries);
    List.iter
      (fun (idx, site) ->
        bpf b "  { ne_t%d_lo, ne_t%d_hi, %d, %d },\n" idx idx idx site)
      entries;
    bpf b "};\n"
  end;
  bpf b "const int32_t ne_site_count = %d;\n\n" (List.length entries);
  bpf b "int64_t ne_run_main(void)\n{\n  return %s();\n}\n" entry_cfn;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let emit ?(trap_area = 4096) ?(fuel_checks = true) (p : Ir.program) :
    (emitted, string) result =
  try
    let kinds = infer_kinds p in
    (* Deterministic orderings for classes, methods, exceptions, funcs. *)
    let cls_sorted =
      Hashtbl.fold (fun _ c acc -> c :: acc) p.classes []
      |> List.sort (fun (a : Ir.cls) b -> compare a.cname b.cname)
    in
    let cls_ids = List.mapi (fun i (c : Ir.cls) -> (c.cname, i)) cls_sorted in
    let meth_names =
      List.concat_map (fun (c : Ir.cls) -> List.map fst c.cmethods) cls_sorted
      |> List.sort_uniq compare
    in
    let mids = List.mapi (fun i m -> (m, i)) meth_names in
    let user_exns =
      let names = ref [ "NegativeArraySize" ] in
      Hashtbl.iter
        (fun _ (f : Ir.func) ->
          Array.iter
            (fun (b : Ir.block) ->
              match b.term with
              | Ir.Throw s -> if not (List.mem s !names) then names := s :: !names
              | _ -> ())
            f.fn_blocks)
        p.funcs;
      Array.of_list (List.sort compare !names)
    in
    let funcs_sorted =
      Hashtbl.fold (fun _ f acc -> f :: acc) p.funcs []
      |> List.sort (fun (a : Ir.func) b -> compare a.fn_name b.fn_name)
    in
    let cfn = Hashtbl.create 16 in
    let taken = Hashtbl.create 16 in
    List.iter
      (fun (f : Ir.func) ->
        let base = "ne_fn_" ^ sanitize f.fn_name in
        let name =
          if not (Hashtbl.mem taken base) then base
          else
            let rec go i =
              let cand = Printf.sprintf "%s_%d" base i in
              if Hashtbl.mem taken cand then go (i + 1) else cand
            in
            go 2
        in
        Hashtbl.replace taken name ();
        Hashtbl.replace cfn f.fn_name name)
      funcs_sorted;
    let main =
      match Hashtbl.find_opt p.funcs p.prog_main with
      | Some f -> f
      | None -> raise (Unsupported ("unknown main " ^ p.prog_main))
    in
    if main.fn_nparams <> 0 then
      raise (Unsupported "main with parameters cannot run natively");
    let ctx =
      {
        p;
        trap_area;
        fuel_checks;
        kinds;
        cfn;
        cls_ids;
        mids;
        user_exns;
        tix = 0;
        table = ref [];
        s_explicit = 0;
        s_implicit_sites = 0;
        s_instrs = 0;
        s_blocks = 0;
      }
    in
    let negarr_code =
      let rec go i =
        if ctx.user_exns.(i) = "NegativeArraySize" then 16 + i else go (i + 1)
      in
      go 0
    in
    let fn_files =
      List.mapi
        (fun i (f : Ir.func) ->
          let src =
            Printf.sprintf "#include \"prog.h\"\n\n%s" (emit_func ctx f)
          in
          (Printf.sprintf "f%d_%s.c" i (sanitize f.fn_name), src))
        funcs_sorted
    in
    (* Function prototypes go into the header after emission so mod.c
       and every per-function TU see the same signatures. *)
    let protos = Buffer.create 256 in
    List.iter
      (fun (f : Ir.func) ->
        let params =
          if f.fn_nparams = 0 then "void"
          else
            String.concat ", "
              (List.init f.fn_nparams (fun i -> Printf.sprintf "int64_t p%d" i))
        in
        bpf protos "int64_t %s(%s);\n" (cfn_of ctx f.fn_name) params)
      funcs_sorted;
    let header =
      runtime_header ~ncls:(List.length cls_sorted)
        ~nmeth:(List.length meth_names)
      ^ Buffer.contents protos ^ "\n#endif /* NE_PROG_H */\n"
    in
    let modc =
      emit_mod ctx ~negarr_code ~cls_sorted ~meth_names
        ~entry_cfn:(cfn_of ctx p.prog_main)
    in
    let files = (("prog.h", header) :: ("mod.c", modc) :: fn_files) in
    let stats =
      {
        ec_functions = List.length funcs_sorted;
        ec_blocks = ctx.s_blocks;
        ec_instrs = ctx.s_instrs;
        ec_explicit_branches = ctx.s_explicit;
        ec_implicit_sites = ctx.s_implicit_sites;
        ec_implicit_check_instrs = 0;
        ec_trap_entries = ctx.tix;
        ec_c_bytes =
          List.fold_left (fun a (_, s) -> a + String.length s) 0 files;
      }
    in
    Ok
      {
        em_files = files;
        em_entry = "ne_run_main";
        em_class_names =
          Array.of_list (List.map (fun (c : Ir.cls) -> c.cname) cls_sorted);
        em_user_exns = ctx.user_exns;
        em_stats = stats;
      }
  with Unsupported msg -> Error msg
