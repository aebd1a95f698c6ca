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

let failure_row_json (r : failure_row) : Json.t =
  Json.Obj
    ([
       ("seed", Json.Int r.fr_seed);
       ("oracle", Json.Str r.fr_oracle);
       ("config", Json.Str r.fr_config);
       ("detail", Json.Str r.fr_detail);
     ]
    @
    match r.fr_shrunk with
    | None -> []
    | Some (instrs, steps, printed) ->
      [
        ("shrunk_instrs", Json.Int instrs);
        ("shrunk_steps", Json.Int steps);
        ("shrunk_program", Json.Str printed);
      ])

let doc =
  Doc.v ~name:"fuzz" "nullelim-fuzz/1" @@ fun j ->
  let ( let* ) = Result.bind in
  let* () =
    Doc.fields Int
      [
        "seed"; "count"; "gen_version"; "size"; "jobs"; "passed"; "skipped";
        "failed"; "pool_compiles"; "cache_hits";
      ]
      j
  in
  let* () = Doc.fields Str [ "arch" ] j in
  let* () = Doc.fields Bool [ "mutate" ] j in
  let* () = Doc.fields Num [ "seconds" ] j in
  let* () =
    match Json.member "distribution" j with
    | Some d ->
      Doc.fields Int
        [
          "programs"; "with_try"; "with_alias"; "with_null"; "with_loop";
          "recursive"; "instrs_total";
        ]
        d
    | None -> Error "missing object field \"distribution\""
  in
  Doc.each "failures"
    (fun row ->
      let* () = Doc.fields Int [ "seed" ] row in
      Doc.fields Str [ "oracle"; "config"; "detail" ] row)
    j

let to_json (t : t) : Json.t =
  let d = t.fz_distribution in
  Doc.obj doc
    [
      ("seed", Json.Int t.fz_seed);
      ("count", Json.Int t.fz_count);
      ("gen_version", Json.Int t.fz_gen_version);
      ("size", Json.Int t.fz_size);
      ("arch", Json.Str t.fz_arch);
      ("jobs", Json.Int t.fz_jobs);
      ("mutate", Json.Bool t.fz_mutate);
      ("passed", Json.Int t.fz_passed);
      ("skipped", Json.Int t.fz_skipped);
      ("failed", Json.Int t.fz_failed);
      ("pool_compiles", Json.Int t.fz_pool_compiles);
      ("cache_hits", Json.Int t.fz_cache_hits);
      ("seconds", Json.Float t.fz_seconds);
      ( "distribution",
        Json.Obj
          [
            ("programs", Json.Int d.ds_programs);
            ("with_try", Json.Int d.ds_with_try);
            ("with_alias", Json.Int d.ds_with_alias);
            ("with_null", Json.Int d.ds_with_null);
            ("with_loop", Json.Int d.ds_with_loop);
            ("recursive", Json.Int d.ds_recursive);
            ("instrs_total", Json.Int d.ds_instrs_total);
          ] );
      ("failures", Json.List (List.map failure_row_json t.fz_failures));
    ]


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
