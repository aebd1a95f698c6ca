(* Native execution: compile emitted C to a shared object, dlopen it,
   and run it under the SIGSEGV-recovery runtime in native_stubs.c.

   Everything stateful in the stubs (guard region, signal handlers,
   runtime cells, event buffer, module registry) is process-global, so
   load/run/unload are serialized under one mutex.  Results are mapped
   back into [Interp.result] so the differential oracle and the CLI can
   treat both backends uniformly. *)

module Ir = Nullelim_ir.Ir
module Arch = Nullelim_arch.Arch
module Value = Nullelim_vm.Value
module Interp = Nullelim_vm.Interp

(* ------------------------------------------------------------------ *)
(* C stubs                                                            *)
(* ------------------------------------------------------------------ *)

external stub_platform_ok : unit -> bool = "ne_stub_platform_ok"
external stub_init : int -> int64 = "ne_stub_init"
external stub_guard_len : unit -> int = "ne_stub_guard_len"
external stub_load : string -> int64 = "ne_stub_load"
external stub_unload : int64 -> unit = "ne_stub_unload"
external stub_sym : int64 -> string -> int64 = "ne_stub_sym"
external stub_exec : int64 -> int64 -> int * int * int64 = "ne_stub_exec"
external stub_events : unit -> (int * int64) array = "ne_stub_events"
external stub_trap_count : unit -> int = "ne_stub_trap_count"
external stub_trap_sites : unit -> int array = "ne_stub_trap_sites"
external stub_heap_reset : unit -> unit = "ne_stub_heap_reset"
external stub_probe : unit -> bool = "ne_stub_probe"
external stub_fork_unknown_pc : unit -> int = "ne_stub_fork_unknown_pc"
external stub_fork_nested : unit -> int = "ne_stub_fork_nested"

let now_ns = Nullelim_obs.Clock.now_ns
let probe_guard = stub_probe
let fork_unknown_pc = stub_fork_unknown_pc
let fork_nested_trap = stub_fork_nested

let lock = Mutex.create ()
let with_lock f = Mutex.protect lock f

(* ------------------------------------------------------------------ *)
(* Availability                                                       *)
(* ------------------------------------------------------------------ *)

let cc () = Option.value (Sys.getenv_opt "NULLELIM_CC") ~default:"cc"

(* Large enough for every modeled architecture (sparc uses 8192). *)
let init_trap_area = 8192

let make_temp_dir () =
  let base = Filename.temp_file "nullelim_native_" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let cc_flags = "-O2 -fPIC -shared -fwrapv -fno-strict-aliasing"

let run_cc ~dir ~out cfiles : (unit, string) result =
  let errf = Filename.concat dir "cc.err" in
  let cmd =
    Printf.sprintf "%s %s -o %s %s 2>%s" (Filename.quote (cc ())) cc_flags
      (Filename.quote out)
      (String.concat " " (List.map Filename.quote cfiles))
      (Filename.quote errf)
  in
  if Sys.command cmd = 0 then Ok ()
  else
    let err =
      try
        let ic = open_in errf in
        let n = min (in_channel_length ic) 2000 in
        let s = really_input_string ic n in
        close_in ic;
        s
      with _ -> ""
    in
    Error (Printf.sprintf "cc failed (%s): %s" (cc ()) err)

(* One trial compile decides availability for the whole process; the
   result is cached so fallback paths stay cheap. *)
let cc_works = ref None

let trial_compile () =
  match !cc_works with
  | Some b -> b
  | None ->
    let b =
      try
        let dir = make_temp_dir () in
        let src = Filename.concat dir "t.c" in
        let oc = open_out src in
        output_string oc "int ne_trial(void) { return 42; }\n";
        close_out oc;
        let r = run_cc ~dir ~out:(Filename.concat dir "t.so") [ src ] in
        rm_rf dir;
        r = Ok ()
      with _ -> false
    in
    cc_works := Some b;
    b

let available () =
  stub_platform_ok ()
  && stub_init init_trap_area <> 0L
  && trial_compile ()

(* ------------------------------------------------------------------ *)
(* Compile                                                            *)
(* ------------------------------------------------------------------ *)

type compiled = {
  nc_emitted : Emit_c.emitted;
  nc_dir : string;
  nc_dl : int64;
  nc_entry : int64;
  mutable nc_open : bool;
}

let stats c = c.nc_emitted.Emit_c.em_stats

let arch_supported (a : Arch.t) =
  (* The real guard page faults on every access kind; only model
     architectures with the same contract can be executed natively
     without changing observable behavior. *)
  a.Arch.traps_on Arch.Read && a.Arch.traps_on Arch.Write
  && a.Arch.trap_area > 0

let compile ?(fuel_checks = true) ~(arch : Arch.t) (p : Ir.program) :
    (compiled, string) result =
  if not (stub_platform_ok ()) then
    Error "native backend unavailable: not linux/x86-64"
  else if not (arch_supported arch) then
    Error
      (Printf.sprintf
         "native backend cannot reproduce arch %s (needs read+write traps)"
         arch.Arch.name)
  else if stub_init init_trap_area = 0L then
    Error "native backend unavailable: guard page mmap or sigaction failed"
  else if 8 + arch.Arch.trap_area > stub_guard_len () then
    Error "native backend unavailable: guard region smaller than trap area"
  else if not (trial_compile ()) then
    Error (Printf.sprintf "native backend unavailable: %s not usable" (cc ()))
  else
    match Emit_c.emit ~trap_area:arch.Arch.trap_area ~fuel_checks p with
    | Error msg -> Error ("emission unsupported: " ^ msg)
    | Ok em -> (
      let dir = make_temp_dir () in
      List.iter
        (fun (name, content) ->
          let oc = open_out (Filename.concat dir name) in
          output_string oc content;
          close_out oc)
        em.Emit_c.em_files;
      let cfiles =
        List.filter_map
          (fun (name, _) ->
            if Filename.check_suffix name ".c" then
              Some (Filename.concat dir name)
            else None)
          em.Emit_c.em_files
      in
      let so = Filename.concat dir "mod.so" in
      match run_cc ~dir ~out:so cfiles with
      | Error e ->
        rm_rf dir;
        Error e
      | Ok () ->
        with_lock (fun () ->
            match stub_load so with
            | exception Failure msg ->
              rm_rf dir;
              Error ("dlopen failed: " ^ msg)
            | dl ->
              let entry = stub_sym dl em.Emit_c.em_entry in
              Ok
                {
                  nc_emitted = em;
                  nc_dir = dir;
                  nc_dl = dl;
                  nc_entry = entry;
                  nc_open = true;
                }))

let close c =
  with_lock (fun () ->
      if c.nc_open then begin
        c.nc_open <- false;
        stub_unload c.nc_dl;
        rm_rf c.nc_dir
      end)

(* ------------------------------------------------------------------ *)
(* Run                                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  r_result : Interp.result;
  r_traps : int;
  r_trap_sites : int array;
  r_wall_ns : int64;
}

let dummy_obj : Value.obj =
  Value.new_object (Hashtbl.create 1)
    { Ir.cname = "<native>"; csuper = None; cfields = []; cmethods = [] }

let exn_of_code (em : Emit_c.emitted) code : Ir.exn_kind =
  if code = 1 then Ir.Npe
  else if code = 2 then Ir.Oob
  else if code = 3 then Ir.Arith
  else
    let i = code - 16 in
    let names = em.Emit_c.em_user_exns in
    if i >= 0 && i < Array.length names then Ir.User names.(i)
    else Ir.User (Printf.sprintf "<unknown exn %d>" code)

let event_of em null_v (tag, a) : Interp.event =
  match tag with
  | 0 -> Interp.Eprint (string_of_int (Int64.to_int a))
  | 1 -> Interp.Eprint (Fmt.str "%g" (Int64.float_of_bits a))
  | 2 -> Interp.Eprint "null"
  | 3 ->
    let names = em.Emit_c.em_class_names in
    let i = Int64.to_int a in
    let cname =
      if i >= 0 && i < Array.length names then names.(i) else "<class>"
    in
    Interp.Eprint (Fmt.str "<%s>" cname)
  | 4 -> Interp.Eprint (Fmt.str "<array[%Ld]>" a)
  | 5 -> Interp.Ecaught (exn_of_code em (Int64.to_int a))
  | _ ->
    ignore null_v;
    Interp.Eprint "<event?>"

let run ?(fuel = 400_000_000) (c : compiled) : run =
  if not c.nc_open then invalid_arg "Native.run: module is closed";
  with_lock (fun () ->
      stub_heap_reset ();
      let null_v = stub_init init_trap_area in
      let t0 = now_ns () in
      let pending, retk, ret = stub_exec c.nc_entry (Int64.of_int fuel) in
      let t1 = now_ns () in
      let trace =
        stub_events () |> Array.to_list
        |> List.map (event_of c.nc_emitted null_v)
      in
      let outcome =
        if pending = 0 then
          Interp.Returned
            (match retk with
            | 0 -> None
            | 1 -> Some (Value.Vint (Int64.to_int ret))
            | 2 -> Some (Value.Vfloat (Int64.float_of_bits ret))
            | _ ->
              Some
                (Value.Vref
                   (if ret = null_v then Value.Null else Value.Obj dummy_obj)))
        else if pending > 0 then Interp.Uncaught (exn_of_code c.nc_emitted pending)
        else if pending = -2 then Interp.Sim_error "out of fuel"
        else if pending = -3 then Interp.Sim_error "call depth exceeded"
        else Interp.Sim_error "native: untypeable operation or allocation failure"
      in
      let counters = Interp.new_counters () in
      counters.Interp.npe_trap <- stub_trap_count ();
      {
        r_result = { Interp.outcome; trace; counters };
        r_traps = stub_trap_count ();
        r_trap_sites = stub_trap_sites ();
        r_wall_ns = Int64.sub t1 t0;
      })

let run_program ?fuel_checks ?fuel ~arch p : (run, string) result =
  match compile ?fuel_checks ~arch p with
  | Error e -> Error e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () -> Ok (run ?fuel c))
