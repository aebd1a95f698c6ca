(** Measured trap costs through the native backend (the paper's
    Figures 7–8 cost assumptions, turned from model constants into
    wall-clock measurements).

    Three pointer-chasing microkernels share one code shape — a cyclic
    two-node list walked [8 * iters] times — and differ only in how the
    null check of each step is represented:

    - {b explicit}: a [Null_check (Explicit, _)] before every
      dereference — compiled to a real compare-and-branch;
    - {b implicit}: the same checks as [Implicit] — compiled to zero
      instructions, the guard page is the check;
    - {b baseline}: no checks at all — the floor.

    Every kernel contains trap-eligible dereferences, so all three pay
    the identical per-call [sigsetjmp] frame cost and the deltas
    isolate the per-check cost.  The chase is data-dependent (each load
    feeds the next address), pinning the loads on the critical path so
    the compiler can neither batch nor hoist them; emitted trap-
    bracketed loads are volatile on top of that.

    The {b recovery} kernel forces a real SIGSEGV per iteration (null
    dereference inside a try region) and measures the full
    trap → handler → PC lookup → [siglongjmp] → dispatch cycle — the
    cost the paper bounds trap conversion by.

    Kernels are emitted without fuel checks and timed with the
    monotonic clock; each measurement is the best of [repeats] runs. *)

module Ir = Nullelim_ir.Ir
module B = Nullelim_ir.Ir_builder
module Arch = Nullelim_arch.Arch
module Native = Nullelim_backend.Native
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc

type result = {
  nb_arch : string;
  nb_checks : int;  (** dereference steps (= checks) per kernel run *)
  nb_traps : int;  (** recoveries driven by the recovery kernel *)
  nb_explicit_ns : float;  (** whole-kernel wall time *)
  nb_implicit_ns : float;
  nb_baseline_ns : float;
  nb_explicit_check_ns : float;  (** (explicit - implicit) / checks *)
  nb_implicit_check_ns : float;  (** (implicit - baseline) / checks *)
  nb_recovery_ns : float;  (** per recovered trap *)
  nb_model_explicit_check_ns : float;
      (** what the simulator charges: [c_explicit_check / clock] *)
  nb_implicit_check_instrs : int;  (** emitted instructions: always 0 *)
}

let fld_next = { Ir.fname = "next"; foffset = 8; fkind = Ir.Kref }
let fld_x = { Ir.fname = "x"; foffset = 16; fkind = Ir.Kint }

let node_cls =
  {
    Ir.cname = "Node";
    csuper = None;
    cfields = [ fld_next; fld_x ];
    cmethods = [];
  }

let unroll = 8

type checkness = Cexplicit | Cimplicit | Cnone

(* [p = p.next] chased [unroll * iters] times over a 2-cycle. *)
let chase_kernel ~iters checkness : Ir.program =
  let open B in
  let b = create ~name:"main" ~params:[] () in
  let n1 = fresh b and n2 = fresh b in
  emit b (New_object (n1, "Node"));
  emit b (New_object (n2, "Node"));
  emit b (Put_field (n1, fld_next, Var n2));
  emit b (Put_field (n2, fld_next, Var n1));
  emit b (Put_field (n1, fld_x, Cint 7));
  emit b (Put_field (n2, fld_x, Cint 7));
  let p = fresh b in
  emit b (Move (p, Var n1));
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint iters) (fun b ->
      for _ = 1 to unroll do
        (match checkness with
        | Cexplicit -> emit b (Null_check (Explicit, p, Ir.fresh_site ()))
        | Cimplicit -> emit b (Null_check (Implicit, p, Ir.fresh_site ()))
        | Cnone -> ());
        emit b (Get_field (p, p, fld_next))
      done);
  let t = fresh b in
  emit b (Get_field (t, p, fld_x));
  terminate b (Return (Some (Var t)));
  B.program ~classes:[ node_cls ] ~main:"main" [ finish b ]

(* One real SIGSEGV recovery per iteration: null deref in a try region,
   caught, counted. *)
let recovery_kernel ~traps : Ir.program =
  let open B in
  let b = create ~name:"main" ~params:[] () in
  let acc = fresh b in
  emit b (Move (acc, Cint 0));
  let i = fresh b in
  count_do b ~v:i ~from:(Cint 0) ~limit:(Cint traps) (fun b ->
      with_try b
        ~handler:(fun b -> emit b (Binop (acc, Add, Var acc, Cint 1)))
        (fun b ->
          let x = fresh b in
          emit b (Move (x, Cnull));
          emit b (Null_check (Implicit, x, Ir.fresh_site ()));
          let t = fresh b in
          emit b (Get_field (t, x, fld_x));
          (* unreachable: the load above always traps *)
          emit b (Binop (acc, Add, Var acc, Var t))));
  terminate b (Return (Some (Var acc)));
  B.program ~classes:[ node_cls ] ~main:"main" [ finish b ]

let time_best ~repeats ~expect (c : Native.compiled) : (float, string) Stdlib.result =
  let best = ref infinity in
  let err = ref None in
  for _ = 1 to repeats do
    let r = Native.run c in
    (match r.Native.r_result.Nullelim_vm.Interp.outcome with
    | Nullelim_vm.Interp.Returned (Some (Nullelim_vm.Value.Vint v))
      when v = expect ->
      ()
    | o ->
      err :=
        Some
          (Fmt.str "kernel returned %a (expected %d)"
             Nullelim_vm.Interp.pp_outcome o expect));
    best := Float.min !best (Int64.to_float r.Native.r_wall_ns)
  done;
  match !err with Some m -> Error m | None -> Ok !best

let available = Native.available

let collect ?(iters = 500_000) ?(traps = 2_000) ?(repeats = 3)
    ~(arch : Arch.t) () : (result, string) Stdlib.result =
  let checks = unroll * iters in
  let kernel ?(expect = 7) p k =
    match Native.compile ~fuel_checks:false ~arch p with
    | Error m -> Error m
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Native.close c)
        (fun () ->
          match time_best ~repeats ~expect c with
          | Error m -> Error m
          | Ok ns -> Ok (k c ns))
  in
  match
    kernel (chase_kernel ~iters Cexplicit) (fun _ ns -> ns)
  with
  | Error m -> Error m
  | Ok explicit_ns -> (
    match
      kernel (chase_kernel ~iters Cimplicit) (fun c ns ->
          ((Native.stats c).Nullelim_backend.Emit_c.ec_implicit_check_instrs, ns))
    with
    | Error m -> Error m
    | Ok (implicit_instrs, implicit_ns) -> (
      match kernel (chase_kernel ~iters Cnone) (fun _ ns -> ns) with
      | Error m -> Error m
      | Ok baseline_ns -> (
        match
          kernel ~expect:traps (recovery_kernel ~traps) (fun _ ns -> ns)
        with
        | Error m -> Error m
        | Ok recovery_ns ->
          let per n = n /. float_of_int checks in
          Ok
            {
              nb_arch = arch.Arch.name;
              nb_checks = checks;
              nb_traps = traps;
              nb_explicit_ns = explicit_ns;
              nb_implicit_ns = implicit_ns;
              nb_baseline_ns = baseline_ns;
              nb_explicit_check_ns = per (explicit_ns -. implicit_ns);
              nb_implicit_check_ns = per (implicit_ns -. baseline_ns);
              nb_recovery_ns = recovery_ns /. float_of_int traps;
              nb_model_explicit_check_ns =
                (float_of_int arch.Arch.cost.Arch.c_explicit_check
                *. 1000. /. arch.Arch.clock_mhz);
              nb_implicit_check_instrs = implicit_instrs;
            })))

let measured_fields =
  Doc.
    [
      field "arch" str (fun r -> r.nb_arch);
      field "checks" int (fun r -> r.nb_checks);
      field "traps" int (fun r -> r.nb_traps);
      field "explicit_kernel_ns" num (fun r -> r.nb_explicit_ns);
      field "implicit_kernel_ns" num (fun r -> r.nb_implicit_ns);
      field "baseline_kernel_ns" num (fun r -> r.nb_baseline_ns);
      field "explicit_check_ns" num (fun r -> r.nb_explicit_check_ns);
      field "implicit_check_ns" num (fun r -> r.nb_implicit_check_ns);
      field "trap_recovery_ns" num (fun r -> r.nb_recovery_ns);
      field "model_explicit_check_ns" num (fun r ->
          r.nb_model_explicit_check_ns);
      field "implicit_check_instrs" int (fun r -> r.nb_implicit_check_instrs);
    ]

(* The document describes a measurement, or why there is none. *)
let fields =
  Doc.
    [
      field "available" bool Result.is_ok;
      group Result.to_option measured_fields;
      opt "reason" str (function Error m -> Some m | Ok _ -> None);
    ]

let rules j =
  let has name = Json.member name j <> None in
  match Json.member "available" j with
  | Some (Json.Bool true) when has "arch" && not (has "reason") -> Ok ()
  | Some (Json.Bool false) when has "reason" && not (has "arch") -> Ok ()
  | _ -> Error "\"available\" does not match the members present"

let doc = Doc.v ~name:"native" ~rules "nullelim-native-bench/1" fields
let to_json (r : result) : Json.t = Doc.obj doc (Doc.record fields (Ok r))
let unavailable_json reason : Json.t =
  Doc.obj doc (Doc.record fields (Error reason))

let pp ppf (r : result) =
  Fmt.pf ppf
    "@[<v>native trap costs (%s, %d checks, %d traps)@,\
     explicit check:        %8.3f ns/check@,\
     implicit check:        %8.3f ns/check (emitted instructions: %d)@,\
     trap recovery:         %8.1f ns/trap@,\
     model explicit check:  %8.3f ns/check@]"
    r.nb_arch r.nb_checks r.nb_traps r.nb_explicit_check_ns
    r.nb_implicit_check_ns r.nb_implicit_check_instrs r.nb_recovery_ns
    r.nb_model_explicit_check_ns
