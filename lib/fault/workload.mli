(** Deterministic transactional workload for the crash campaigns.

    The same [spec] always produces the same transaction plans
    ({!Ipl_txn.Session.draw_plans}, without a read phase) and therefore,
    for a given driver, the same stream of flash operations — which is
    what lets {!Campaign} count operations once and then crash at each
    index. Two drivers consume the plans: {!run}, the serial engine loop,
    and {!run_sessions}, the {!Ipl_txn.Session} scheduler. Both mirror
    every successful write, commit and abort into the {!Oracle}. *)

type spec = {
  seed : int;
  transactions : int;
  pages : int;
  slots_per_page : int;  (** records pre-loaded per page during setup *)
  payload : int;  (** record size in bytes *)
  abort_fraction : float;
}

val default : spec

val max_slots : spec -> int
(** Upper bound on slot numbers the run can create; the oracle's sweep
    range. *)

val setup : Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> int array
(** Allocate the pages, load the initial records (mirrored into the
    oracle as already durable), commit and checkpoint. Returns the page
    ids the run will use. *)

type resilient_outcome = {
  committed : int;
  aborted : int;  (** includes transactions aborted by device errors *)
  degraded_at : int option;  (** 1-based transaction index, if degraded *)
  read_failures : int;  (** transactions lost to [Read_failed] *)
}

val run : Ipl_core.Ipl_engine.t -> Oracle.t -> spec -> pages:int array -> resilient_outcome
(** Execute the plans one transaction at a time through the engine's
    result API. Each commit forces the log, so the oracle's durable
    watermark rises to the commit count as soon as [commit] returns. A
    transaction hitting [Device_degraded]/[Read_failed] is aborted, and
    degradation ends the run — the remaining transactions could only be
    refused. {!Flash_sim.Flash_chip.Power_loss} escapes, for plans that
    crash the chip. *)

val run_sessions :
  Ipl_core.Ipl_engine.t ->
  Oracle.t ->
  spec ->
  sessions:int ->
  pages:int array ->
  Ipl_txn.Session.outcome
(** The same plans through {!Ipl_txn.Session.run} with [sessions]
    clients and a group-commit window of [sessions]; its observer feeds
    the oracle, and the durable watermark follows the group barriers.
    Deterministic for a fixed [(spec, sessions)]. Raises whatever the
    engine raises — under a fault plan, typically
    {!Flash_sim.Flash_chip.Power_loss}. *)
