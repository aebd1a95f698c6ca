(** Shared fixtures for the test suites. *)

open Nullelim

let fld_x = { Ir.fname = "x"; foffset = 16; fkind = Ir.Kint }
let fld_y = { Ir.fname = "y"; foffset = 24; fkind = Ir.Kint }
let fld_next = { Ir.fname = "next"; foffset = 32; fkind = Ir.Kref }

(** A field whose offset lies beyond every architecture's trap area — the
    "BigOffset" case of the paper's Figure 5(1).  The JVM spec allows
    offsets up to 512 KB. *)
let fld_big = { Ir.fname = "big"; foffset = 524272; fkind = Ir.Kint }

let point_cls =
  {
    Ir.cname = "Point";
    csuper = None;
    cfields = [ fld_x; fld_y; fld_next; fld_big ];
    cmethods = [];
  }

let program_of ?(classes = [ point_cls ]) funcs main =
  let p = Builder.program ~classes ~main funcs in
  Ir_validate.check_exn p;
  p

(** Allocate a Point with field [x] set. *)
let new_point ?(x = 0) () : Value.value =
  let obj = Value.new_object (Hashtbl.create 1) point_cls in
  Value.set_field obj fld_x (Value.Vint x);
  Value.Vref (Value.Obj obj)

let vint n = Value.Vint n
let vnull = Value.Vref Value.Null

(** Substring test for asserting on error-message content. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(** Compile with a config and check the result still validates and (for
    non-override configs) passes the implicit-check verifier. *)
let compile ?(arch = Arch.ia32_windows) cfg prog =
  let c = Compiler.compile cfg ~arch prog in
  (match Ir_validate.validate_program c.Compiler.program with
  | [] -> ()
  | errs -> Alcotest.failf "invalid IR after %s: %s" cfg.Config.name
              (String.concat "; " errs));
  (if cfg.Config.phase2_arch_override = None then
   match Verify.verify_program ~arch c.Compiler.program with
   | [] -> ()
   | vs ->
     Alcotest.failf "implicit-check violations after %s: %a" cfg.Config.name
       Fmt.(list ~sep:comma Verify.pp_violation)
       vs);
  c

(** Run a program and return the interpreter result.  Arguments are
    deep-copied so that programs mutating their inputs cannot leak state
    into later runs. *)
let run ?(arch = Arch.ia32_windows) ?(fuel = 50_000_000) prog args =
  Interp.run ~fuel ~arch prog (Value.deep_copy_all args)

(** Differential check: the optimized program must be observationally
    equivalent to the raw program on the given inputs, for every listed
    configuration. *)
let assert_equiv ?(arch = Arch.ia32_windows) ?(configs = Config.windows_suite)
    prog (inputs : Value.value list list) =
  List.iter
    (fun args ->
      let reference = run ~arch prog args in
      (match reference.Interp.outcome with
      | Interp.Sim_error m ->
        Alcotest.failf "reference run is broken (%s) — fix the test" m
      | _ -> ());
      List.iter
        (fun cfg ->
          if cfg.Config.phase2_arch_override = None then begin
            let c = compile ~arch cfg prog in
            let r = run ~arch c.Compiler.program args in
            if not (Interp.equivalent reference r) then
              Alcotest.failf
                "config %s changed behaviour: raw=%a got=%a (args %a)"
                cfg.Config.name Interp.pp_outcome reference.Interp.outcome
                Interp.pp_outcome r.Interp.outcome
                Fmt.(list ~sep:sp Value.pp)
                args
          end)
        configs)
    inputs

(** Count checks of a kind in one function of a program. *)
let checks ?kind prog fname =
  Ir.count_checks ?kind (Ir.find_func prog fname)

let total_checks ?kind prog =
  let n = ref 0 in
  Ir.iter_funcs (fun f -> n := !n + Ir.count_checks ?kind f) prog;
  !n

(** Checks appearing in blocks that belong to some loop of [fname]. *)
let checks_in_loops prog fname =
  let f = Ir.find_func prog fname in
  let cfg = Cfg.make f in
  let dom = Dominance.compute cfg in
  let loops = Loops.detect cfg dom in
  let count = ref 0 in
  List.iter
    (fun l ->
      List.iter
        (fun m ->
          Array.iter
            (fun i ->
              match i with Ir.Null_check _ -> incr count | _ -> ())
            (Ir.block f m).instrs)
        (Loops.members l))
    loops;
  !count

(** {1 Fuzz corpus}

    Regression entries live in [test/corpus/*.json] (schema
    [nullelim-corpus/1]); each records [(gen_version, seed, size)] and a
    human note.  The differential replay in [test_gen] regenerates and
    re-checks every entry. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus_entries () : (string * Fuzz_report.corpus_entry) list =
  let dir = "corpus" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           match Json.of_string (read_file path) with
           | Error e -> Alcotest.failf "%s: JSON parse error: %s" path e
           | Ok j -> (
             match Fuzz_report.corpus_entry_of_json j with
             | Error e -> Alcotest.failf "%s: %s" path e
             | Ok entry -> (f, entry)))
