(** Local conversion of explicit null checks into implicit (hardware-trap)
    checks, without any code motion.

    This models how JITs used hardware traps before the paper's
    architecture-dependent optimization: when an explicit check is
    followed — within the same block, with no intervening barrier,
    other-exception source or redefinition — by an instruction that
    dereferences the checked variable inside the protected trap area with
    a faulting access kind, the check instruction can be dropped and the
    dereference marked as the exception site (Section 2.1).  The
    "No Null Opt. (Hardware Trap)" baseline is exactly this pass. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Decision = Nullelim_obs.Decision

(** Returns the number of checks converted. *)
let run ~(arch : Arch.t) (f : Ir.func) : int =
  let converted = ref 0 in
  Array.iteri
    (fun l (b : Ir.block) ->
      let instrs = b.instrs in
      let n = Array.length instrs in
      (* For each explicit check, find the dereference that can subsume it.
         [implicit_before.(j)] holds the provenance site of the implicit
         check to insert before instruction [j] ([Ir.no_site] when none):
         the converted check keeps the site of the first explicit check
         the dereference subsumed. *)
      let drop = Array.make n false in
      let implicit_before = Array.make n Ir.no_site in
      for k = 0 to n - 1 do
        match instrs.(k) with
        | Ir.Null_check (Explicit, v, s) ->
          let rec scan j =
            if j >= n then ()
            else begin
              let i = instrs.(j) in
              if Arch.instr_traps_for arch i v then begin
                (* j becomes the exception site; a duplicate check whose
                   dereference is already an exception site adds no new
                   implicit check — it is simply redundant *)
                drop.(k) <- true;
                incr converted;
                let off =
                  match Ir.deref_site i with
                  | Some (_, off, _) -> off
                  | None -> None
                in
                if implicit_before.(j) <> Ir.no_site then
                  Decision.record ~d_explicit:(-1) ~block:l ~var:v ~site:s
                    ~kind:Decision.Kexplicit
                    ~action:Decision.Eliminated_redundant
                    ~just:(Decision.Trap_covered off) ()
                else begin
                  implicit_before.(j) <- s;
                  Decision.record ~d_explicit:(-1) ~d_implicit:1 ~block:l
                    ~var:v ~site:s ~kind:Decision.Kimplicit
                    ~action:Decision.Converted_implicit
                    ~just:(Decision.Trap_covered off) ()
                end
              end
              else if
                Opt_util.barrier f l i
                || Ir.may_throw_other i
                || Ir.def_of_instr i = v
                || (match Ir.deref_site i with
                   | Some (base, _, _) -> base = v (* non-trapping deref *)
                   | None -> false)
              then ()
              else scan (j + 1)
            end
          in
          scan (k + 1)
        | _ -> ()
      done;
      let out = ref [] in
      for k = n - 1 downto 0 do
        if not drop.(k) then out := instrs.(k) :: !out;
        if implicit_before.(k) <> Ir.no_site then begin
          match Ir.deref_site instrs.(k) with
          | Some (base, _, _) ->
            out :=
              Ir.Null_check (Implicit, base, implicit_before.(k)) :: !out
          | None -> assert false
        end
      done;
      Opt_util.set_instrs f l !out)
    f.fn_blocks;
  !converted
