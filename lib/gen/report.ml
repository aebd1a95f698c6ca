(** Fuzz-run report ([nullelim-fuzz/1]) and corpus entries
    ([nullelim-corpus/1]).

    A corpus entry does not store IR — there is no IR parser in this
    repo and none is needed: generation is deterministic, so recording
    [(gen_version, seed, size)] regenerates the exact program.  This is
    also why {!Gen.gen_version} discipline matters: an entry recorded
    against another generator version names a different program, so
    replay refuses it loudly instead of silently testing nothing
    (DESIGN.md §12). *)

module Ir_pp = Nullelim_ir.Ir_pp
module Json = Nullelim_obs.Obs_json
module Doc = Nullelim_obs.Doc

type failure_row = {
  fr_seed : int;             (** per-program seed — regenerates the input *)
  fr_oracle : string;
  fr_config : string;
  fr_detail : string;
  fr_shrunk : (int * int * string) option;
      (** [(instrs, shrink steps tried, printed reproducer)] *)
}

type distribution = {
  ds_programs : int;
  ds_with_try : int;      (** programs with at least one try-region block *)
  ds_with_alias : int;
  ds_with_null : int;     (** programs with runtime-null moves/arguments *)
  ds_with_loop : int;
  ds_recursive : int;
  ds_instrs_total : int;
}

let empty_distribution =
  {
    ds_programs = 0;
    ds_with_try = 0;
    ds_with_alias = 0;
    ds_with_null = 0;
    ds_with_loop = 0;
    ds_recursive = 0;
    ds_instrs_total = 0;
  }

let add_features (d : distribution) (ft : Gen.features) : distribution =
  let bump b n = if b then n + 1 else n in
  {
    ds_programs = d.ds_programs + 1;
    ds_with_try = bump (ft.Gen.f_try_blocks > 0) d.ds_with_try;
    ds_with_alias = bump (ft.Gen.f_aliases > 0) d.ds_with_alias;
    ds_with_null = bump (ft.Gen.f_nulls > 0) d.ds_with_null;
    ds_with_loop = bump (ft.Gen.f_loops > 0) d.ds_with_loop;
    ds_recursive = bump ft.Gen.f_recursive d.ds_recursive;
    ds_instrs_total = d.ds_instrs_total + ft.Gen.f_instrs;
  }

type t = {
  fz_seed : int;           (** master corpus seed *)
  fz_count : int;
  fz_gen_version : int;
  fz_size : int;           (** generator size parameter *)
  fz_arch : string;
  fz_jobs : int;           (** pool worker domains (0 = no pool) *)
  fz_mutate : bool;        (** the phase-2 mutation self-test was active *)
  fz_passed : int;
  fz_skipped : int;
  fz_failed : int;
  fz_pool_compiles : int;  (** jobs that went through the service *)
  fz_cache_hits : int;
  fz_seconds : float;
  fz_distribution : distribution;
  fz_failures : failure_row list;
}

let program_to_string (p : Nullelim_ir.Ir.program) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun name ->
      Buffer.add_string b
        (Ir_pp.func_to_string (Nullelim_ir.Ir.find_func p name)))
    (List.sort compare
       (Hashtbl.fold (fun k _ acc -> k :: acc) p.Nullelim_ir.Ir.funcs []));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let failure_fields =
  Doc.
    [
      field "seed" int (fun r -> r.fr_seed);
      field "oracle" str (fun r -> r.fr_oracle);
      field "config" str (fun r -> r.fr_config);
      field "detail" str (fun r -> r.fr_detail);
      group
        (fun r -> r.fr_shrunk)
        [
          field "shrunk_instrs" int (fun (i, _, _) -> i);
          field "shrunk_steps" int (fun (_, s, _) -> s);
          field "shrunk_program" str (fun (_, _, p) -> p);
        ];
    ]

let distribution_fields =
  Doc.
    [
      field "programs" int (fun d -> d.ds_programs);
      field "with_try" int (fun d -> d.ds_with_try);
      field "with_alias" int (fun d -> d.ds_with_alias);
      field "with_null" int (fun d -> d.ds_with_null);
      field "with_loop" int (fun d -> d.ds_with_loop);
      field "recursive" int (fun d -> d.ds_recursive);
      field "instrs_total" int (fun d -> d.ds_instrs_total);
    ]

let fields =
  Doc.
    [
      field "seed" int (fun t -> t.fz_seed);
      field "count" int (fun t -> t.fz_count);
      field "gen_version" int (fun t -> t.fz_gen_version);
      field "size" int (fun t -> t.fz_size);
      field "arch" str (fun t -> t.fz_arch);
      field "jobs" int (fun t -> t.fz_jobs);
      field "mutate" bool (fun t -> t.fz_mutate);
      field "passed" int (fun t -> t.fz_passed);
      field "skipped" int (fun t -> t.fz_skipped);
      field "failed" int (fun t -> t.fz_failed);
      field "pool_compiles" int (fun t -> t.fz_pool_compiles);
      field "cache_hits" int (fun t -> t.fz_cache_hits);
      field "seconds" num (fun t -> t.fz_seconds);
      field "distribution" (nested distribution_fields) (fun t ->
          t.fz_distribution);
      field "failures" (list (nested failure_fields)) (fun t -> t.fz_failures);
    ]

let doc = Doc.v ~name:"fuzz" "nullelim-fuzz/1" fields
let to_json (t : t) : Json.t = Doc.obj doc (Doc.record fields t)

(* ------------------------------------------------------------------ *)
(* Corpus entries                                                      *)
(* ------------------------------------------------------------------ *)

let corpus_schema = "nullelim-corpus/1"

type corpus_entry = {
  ce_seed : int;
  ce_gen_version : int;
  ce_size : int;
  ce_note : string;  (** what bug this entry regressed, for humans *)
}

let corpus_entry_to_json (e : corpus_entry) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str corpus_schema);
      ("gen_version", Json.Int e.ce_gen_version);
      ("seed", Json.Int e.ce_seed);
      ("size", Json.Int e.ce_size);
      ("note", Json.Str e.ce_note);
    ]

let corpus_entry_of_json (j : Json.t) : (corpus_entry, string) result =
  match
    ( Json.member "schema" j,
      Json.member "gen_version" j,
      Json.member "seed" j,
      Json.member "size" j,
      Json.member "note" j )
  with
  | Some (Json.Str s), _, _, _, _ when s <> corpus_schema ->
    Error (Printf.sprintf "unknown corpus schema %S" s)
  | ( Some (Json.Str _),
      Some (Json.Int gv),
      Some (Json.Int seed),
      Some (Json.Int size),
      note ) ->
    Ok
      {
        ce_seed = seed;
        ce_gen_version = gv;
        ce_size = size;
        ce_note =
          (match note with Some (Json.Str s) -> s | _ -> "");
      }
  | _ ->
    Error "corpus entry needs schema, gen_version, seed and size fields"

(** Regenerate the entry's program.  Refuses an entry recorded against
    another generator version — it would name a different program. *)
let regenerate (e : corpus_entry) : (Gen.t, string) result =
  if e.ce_gen_version <> Gen.gen_version then
    Error
      (Printf.sprintf
         "corpus entry has gen_version %d but the generator is at %d — \
          re-record the entry (DESIGN.md §12)"
         e.ce_gen_version Gen.gen_version)
  else
    Ok
      (Gen.generate
         ~params:{ Gen.default_params with p_size = e.ce_size }
         ~seed:e.ce_seed ())
