(** The differential fuzz run behind [nullelim fuzz]: generate [count]
    programs from a master seed, run every {!Diff} oracle over each,
    shrink each failure to a reproducer, and summarise the run as a
    {!Report.t}.

    Each program gets its own seed, derived in order from the master
    seed and recorded in its failure row, so one program can be
    regenerated in isolation.  With [jobs > 0] the programs are also
    compiled on a pool of that many domains, eight programs per flight
    (only one flight's artifacts are resident), through a code cache,
    and each pool artifact must be byte-identical to the serial one. *)

val run :
  ?arch:Nullelim_arch.Arch.t ->
  ?jobs:int ->
  ?mutate:bool ->
  seed:int ->
  count:int ->
  unit ->
  Report.t
(** [arch] defaults to IA32/Windows, [jobs] to 0 (serial oracles
    only).  [mutate] (default false) weakens the phase-2 kill rule for
    the whole run ({!Nullelim_opt.Phase2.mutate_kill_barrier}) and
    restores it afterwards: a self-test in which the oracles are
    expected to fail. *)

val verdict : Report.t -> (string option, string) result
(** Whether the run passed.  Without mutation, any failure fails the
    run.  With mutation the verdict is inverted: the run passes, with a
    note, only if the oracles caught it on at least one program. *)

val pp : Report.t Fmt.t
(** The summary: programs, verdict counts, feature distribution, pool
    traffic (with [jobs > 0]) and wall time. *)

val pp_failures : Report.t Fmt.t
(** One line per failure row, each followed by its shrunk reproducer. *)
