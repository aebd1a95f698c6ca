(** Pass manager: named passes over whole programs.  [run] appends one
    {!record} per executed pass to a single sink: the pass name, its
    start stamp and monotonic wall time, the words it allocated on the
    minor heap and the data-flow solver work it did.  Every per-pass
    view is derived from those records: the compilation-time breakdown
    of the paper's Tables 4 and 5 (null-check optimization vs.
    everything else, new vs. old algorithm), the solver-work counters
    the benchmark harness reports, the per-compile metrics registry and
    the Chrome trace of a compile ([Compiler.trace]).

    [rounds] iterates a group of passes up to a bound and retires the
    remaining rounds once one leaves the program unchanged.

    The decision log's pass/function context is maintained here so
    individual passes only state what they did. *)

module Ir = Nullelim_ir.Ir
module Solver = Nullelim_dataflow.Solver
module Clock = Nullelim_obs.Clock
module Metrics = Nullelim_obs.Metrics
module Decision = Nullelim_obs.Decision

type pass = { name : string; run : Ir.program -> unit }

type record = {
  r_pass : string;
  r_start : float;
  r_seconds : float;
  r_minor_words : int;
  r_solver : Solver.stats;
}

type sink = record list ref

let sink () : sink = ref []
let records (s : sink) = List.rev !s

(** Lift a per-function transformation to a program pass.  Maintains the
    decision log's function context. *)
let per_func name (g : Ir.func -> unit) : pass =
  {
    name;
    run =
      (fun p ->
        Ir.iter_funcs
          (fun f ->
            Decision.set_func f.Ir.fn_name;
            g f)
          p);
  }

let program_pass name (g : Ir.program -> unit) : pass = { name; run = g }

(* Raised by a pass of a round that [rounds] has retired; [run] drops
   the pass without a record. *)
exception Skipped

let run ?sink (passes : pass list) (p : Ir.program) : unit =
  List.iter
    (fun pass ->
      Decision.set_pass pass.name;
      Decision.set_func "";
      match sink with
      | None -> ( try pass.run p with Skipped -> ())
      | Some s -> (
        let s0 = Solver.snapshot () in
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        match pass.run p with
        | () ->
          let t1 = Clock.now_ns () in
          let w1 = Gc.minor_words () in
          s :=
            {
              r_pass = pass.name;
              r_start = Int64.to_float t0 *. 1e-9;
              r_seconds = Int64.to_float (Int64.sub t1 t0) *. 1e-9;
              r_minor_words = int_of_float (w1 -. w0);
              r_solver = Solver.diff (Solver.snapshot ()) s0;
            }
            :: !s
        | exception Skipped -> ()))
    passes;
  Decision.set_pass "";
  Decision.set_func ""

(* ------------------------------------------------------------------ *)
(* Rounds to a fixpoint                                                *)
(* ------------------------------------------------------------------ *)

(* Everything a round of per-function passes can change: the
   functions' content, the domain's site counter and the number of
   decision-log events. *)
let snapshot (p : Ir.program) =
  ( Ir.structural_digest (Ir.funcs_projection p),
    !(Domain.DLS.get Ir.site_counter),
    Decision.count () )

(* The round state lives in the closures of the returned passes, so
   running them one at a time through [run] skips the same rounds as
   running the whole list.  The first pass of round 1 resets it, which
   makes the list reusable.  The rounds are consecutive passes, so the
   snapshot that closes one round is the one the next round opens
   with. *)
let rounds ~max (round : pass list) : pass list =
  let last = List.length round - 1 in
  let stopped = ref false and before = ref ("", 0, 0) in
  List.concat
    (List.init max (fun r ->
         List.mapi
           (fun i (pass : pass) ->
             {
               pass with
               run =
                 (fun p ->
                   if r = 0 && i = 0 then begin
                     stopped := false;
                     if max > 1 then before := snapshot p
                   end;
                   if !stopped then raise Skipped;
                   pass.run p;
                   if r < max - 1 && i = last then begin
                     let after = snapshot p in
                     stopped := !before = after;
                     before := after
                   end);
             })
           round))

(* ------------------------------------------------------------------ *)
(* Views derived from the records                                      *)
(* ------------------------------------------------------------------ *)

let zero_stats () : Solver.stats =
  { Solver.solves = 0; visits = 0; transfers = 0; pushes = 0 }

let add_stats (a : Solver.stats) (b : Solver.stats) : Solver.stats =
  {
    Solver.solves = a.solves + b.solves;
    visits = a.visits + b.visits;
    transfers = a.transfers + b.transfers;
    pushes = a.pushes + b.pushes;
  }

let total recs = List.fold_left (fun acc r -> acc +. r.r_seconds) 0. recs

let solver_total recs =
  List.fold_left (fun acc r -> add_stats acc r.r_solver) (zero_stats ()) recs

let total_matching recs pred =
  List.fold_left
    (fun acc r -> if pred r.r_pass then acc +. r.r_seconds else acc)
    0. recs

type pass_total = {
  p_pass : string;
  p_runs : int;
  p_seconds : float;
  p_minor_words : int;
  p_solver : Solver.stats;
}

let by_pass recs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let p =
        Option.value
          ~default:
            { p_pass = r.r_pass; p_runs = 0; p_seconds = 0.;
              p_minor_words = 0; p_solver = zero_stats () }
          (Hashtbl.find_opt tbl r.r_pass)
      in
      Hashtbl.replace tbl r.r_pass
        {
          p with
          p_runs = p.p_runs + 1;
          p_seconds = p.p_seconds +. r.r_seconds;
          p_minor_words = p.p_minor_words + r.r_minor_words;
          p_solver = add_stats p.p_solver r.r_solver;
        })
    recs;
  List.sort
    (fun a b -> compare a.p_pass b.p_pass)
    (Hashtbl.fold (fun _ p acc -> p :: acc) tbl [])

let counter_kinds =
  [
    ("solves", fun (s : Solver.stats) -> s.solves);
    ("visits", fun s -> s.visits);
    ("transfers", fun s -> s.transfers);
    ("pushes", fun s -> s.pushes);
  ]

let counters recs =
  List.sort compare
    (List.concat_map
       (fun p ->
         List.filter_map
           (fun (kind, get) ->
             let v = get p.p_solver in
             if v = 0 then None else Some (p.p_pass ^ "#" ^ kind, v))
           counter_kinds)
       (by_pass recs))

let record_metrics (m : Metrics.t) recs =
  List.iter
    (fun r ->
      let labels = [ ("pass", r.r_pass) ] in
      Metrics.observe (Metrics.histogram m ~labels "pass_seconds") r.r_seconds;
      Metrics.inc (Metrics.counter m ~labels "pass_runs") 1;
      Metrics.inc (Metrics.counter m ~labels "pass_minor_words") r.r_minor_words;
      List.iter
        (fun (kind, get) ->
          Metrics.inc (Metrics.counter m ~labels ("solver_" ^ kind)) (get r.r_solver))
        counter_kinds)
    recs
