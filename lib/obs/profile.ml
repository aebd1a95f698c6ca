(** Per-site dynamic execution profile collector.  See the interface for
    the model.  Implementation notes: the hot paths ([hit_block],
    [hit_check]) run once per executed block / check, so cells are
    cached in hash tables keyed by [(func, block)] and
    [(site, kind, tier)] and bumped in place; everything else is
    event-rate (exceptions). *)

type check_kind = Cexplicit | Cimplicit | Cbound

type site_row = {
  sr_site : int;
  sr_func : string;
  sr_kind : check_kind;
  sr_tier : int;
  sr_hits : int;
  sr_npe : int;
  sr_traps : int;
  sr_misses : int;
}

type block_row = {
  br_func : string;
  br_block : int;
  br_count : int;
  br_spec_reads : int;
}

type site_cell = {
  func : string;
  mutable hits : int;
  mutable npe : int;
  mutable traps : int;
  mutable misses : int;
}

type block_cell = { mutable count : int; mutable spec_reads : int }

type t = {
  site_tbl : (int * check_kind * int, site_cell) Hashtbl.t;
  block_tbl : (string * int, block_cell) Hashtbl.t;
  mutable other : int;
}

let create () =
  { site_tbl = Hashtbl.create 256; block_tbl = Hashtbl.create 256; other = 0 }

let block_cell t ~func ~block =
  let key = (func, block) in
  match Hashtbl.find_opt t.block_tbl key with
  | Some c -> c
  | None ->
    let c = { count = 0; spec_reads = 0 } in
    Hashtbl.add t.block_tbl key c;
    c

(* [tier] defaults to 0 at the recording entry points so untiered
   callers (the plain `run`/`profile` paths) keep working unchanged;
   the tiered manager passes the executing variant's tier. *)
let site_cell t ~func ~site ~kind ~tier =
  let key = (site, kind, tier) in
  match Hashtbl.find_opt t.site_tbl key with
  | Some c -> c
  | None ->
    let c = { func; hits = 0; npe = 0; traps = 0; misses = 0 } in
    Hashtbl.add t.site_tbl key c;
    c

let hit_block t ~func ~block =
  let c = block_cell t ~func ~block in
  c.count <- c.count + 1

let hit_check ?(tier = 0) t ~func ~site ~kind =
  let c = site_cell t ~func ~site ~kind ~tier in
  c.hits <- c.hits + 1

let record_npe ?(tier = 0) t ~func ~site =
  let c = site_cell t ~func ~site ~kind:Cexplicit ~tier in
  c.npe <- c.npe + 1

let record_trap ?(tier = 0) t ~func ~site =
  let c = site_cell t ~func ~site ~kind:Cimplicit ~tier in
  c.traps <- c.traps + 1

let record_miss ?(tier = 0) t ~func ~site =
  let c = site_cell t ~func ~site ~kind:Cimplicit ~tier in
  c.misses <- c.misses + 1

let record_spec_read t ~func ~block =
  let c = block_cell t ~func ~block in
  c.spec_reads <- c.spec_reads + 1

let record_other_trap t = t.other <- t.other + 1

let kind_order = function Cexplicit -> 0 | Cimplicit -> 1 | Cbound -> 2

let kind_to_string = function
  | Cexplicit -> "explicit"
  | Cimplicit -> "implicit"
  | Cbound -> "bound"

let sites t =
  Hashtbl.fold
    (fun (site, kind, tier) (c : site_cell) acc ->
      {
        sr_site = site;
        sr_func = c.func;
        sr_kind = kind;
        sr_tier = tier;
        sr_hits = c.hits;
        sr_npe = c.npe;
        sr_traps = c.traps;
        sr_misses = c.misses;
      }
      :: acc)
    t.site_tbl []
  |> List.sort (fun a b ->
         compare
           (a.sr_func, a.sr_site, kind_order a.sr_kind, a.sr_tier)
           (b.sr_func, b.sr_site, kind_order b.sr_kind, b.sr_tier))

let blocks t =
  Hashtbl.fold
    (fun (func, block) (c : block_cell) acc ->
      {
        br_func = func;
        br_block = block;
        br_count = c.count;
        br_spec_reads = c.spec_reads;
      }
      :: acc)
    t.block_tbl []
  |> List.sort (fun a b ->
         compare (a.br_func, a.br_block) (b.br_func, b.br_block))

let other_traps t = t.other

let total_hits t kind =
  Hashtbl.fold
    (fun (_, k, _) (c : site_cell) acc -> if k = kind then acc + c.hits else acc)
    t.site_tbl 0
