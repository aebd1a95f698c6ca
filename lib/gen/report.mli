(** Fuzz-run report ([nullelim-fuzz/1]) and replayable corpus entries
    ([nullelim-corpus/1]).  Corpus entries record [(gen_version, seed,
    size)] — generation is deterministic, so that regenerates the exact
    program; no IR serialization exists or is needed. *)

module Json = Nullelim_obs.Obs_json

val doc : Nullelim_obs.Doc.t
(** ["nullelim-fuzz/1"], member ["fuzz"]. *)

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
  ds_with_try : int;
  ds_with_alias : int;
  ds_with_null : int;
  ds_with_loop : int;
  ds_recursive : int;
  ds_instrs_total : int;
}

val empty_distribution : distribution
val add_features : distribution -> Gen.features -> distribution

type t = {
  fz_seed : int;
  fz_count : int;
  fz_gen_version : int;
  fz_size : int;
  fz_arch : string;
  fz_jobs : int;
  fz_mutate : bool;
  fz_passed : int;
  fz_skipped : int;
  fz_failed : int;
  fz_pool_compiles : int;
  fz_cache_hits : int;
  fz_seconds : float;
  fz_distribution : distribution;
  fz_failures : failure_row list;
}

val program_to_string : Nullelim_ir.Ir.program -> string
(** Deterministic pretty-print (functions in sorted name order) — the
    shrunk-reproducer payload of a failure row. *)

val to_json : t -> Json.t

(** {1 Corpus entries} *)

type corpus_entry = {
  ce_seed : int;
  ce_gen_version : int;
  ce_size : int;
  ce_note : string;
}

val corpus_entry_to_json : corpus_entry -> Json.t
val corpus_entry_of_json : Json.t -> (corpus_entry, string) result

val regenerate : corpus_entry -> (Gen.t, string) result
(** Regenerate the entry's program; refuses entries recorded against a
    different {!Gen.gen_version}. *)
