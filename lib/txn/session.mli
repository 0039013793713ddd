(** A multi-client session front-end over one engine.

    Simulated client sessions execute pre-drawn transaction plans through
    the {!Mvcc} layer on a deterministic round-robin scheduler: every
    rotation advances each session by exactly one step (begin, one record
    operation, commit/abort, or one read), so the interleaving — and with
    it every conflict, batch boundary and read result — is a pure
    function of [(plans, sessions, group_window)]. One session degrades
    to the serial loop: same operation order, same logical outcome.

    Sessions park between their commit and the group barrier that makes
    it durable. When a rotation makes no progress (every live session is
    parked), the pending batch is settled even if the window isn't full —
    that is what turns N concurrent commits into one device barrier. *)

type op =
  | Update of { page : int; slot : int; data : bytes }
  | Insert of { page : int; data : bytes }
  | Delete of { page : int; slot : int }

type plan = {
  ops : op list;
  aborting : bool;  (** voluntarily abort instead of committing *)
  reads : (int * int) list;  (** post-commit read phase: (page, slot) *)
}

val draw_plans :
  Ipl_util.Rng.t ->
  pages:int array ->
  slots_per_page:int ->
  payload:int ->
  abort_fraction:float ->
  reads_per_txn:int ->
  int ->
  plan array
(** [draw_plans rng ~pages ... n] draws [n] transactions of the record
    mix: 1-4 operations each on pages picked uniformly from [pages] and
    slots below [2 * slots_per_page] (so a share of updates and deletes
    target dead slots), 55/30/15 update/insert/delete, a quarter of the
    updates changing the record's length (1 to [2 * payload] bytes,
    otherwise [payload]), inserts of [payload] bytes, [abort_fraction]
    of the transactions aborting voluntarily, and [reads_per_txn]
    post-commit point reads. The draws come from [rng] in plan order, so
    the same generator state always yields the same plans. *)

type event =
  | Begin of int  (** transaction id ({!Mvcc.txn_id}) *)
  | Write of { txn : int; page : int; slot : int; value : bytes option }
      (** a successful write: [Some data] for an update or an insert (with
          the slot the insert got), [None] for a delete *)
  | Commit_start of int  (** [Mvcc.commit] is about to run *)
  | Commit_return of int
      (** [Mvcc.commit] returned: the commit holds the next position in
          commit order; durability waits for a barrier *)
  | Abort of int  (** voluntary or conflict-doomed rollback *)
  | Durable of int
      (** a group barrier raised {!Mvcc.flushed_commits} to this count *)
(** What {!run} reports to its observer, in schedule order. *)

type session_stats = {
  session : int;  (** session index, [0 .. sessions-1] *)
  commits : int;  (** transactions this session saw through to durable *)
  sim_latencies : float list;
      (** begin->durable commit latency in {e simulated} device seconds,
          one per commit in completion order — a pure function of the
          schedule, identical across job counts *)
  host_latency_s : float;
      (** total begin->durable {e host} time — wall clock, machine
          dependent, reported only in machine-dependent sections *)
}

type outcome = {
  committed : int;
  aborted : int;  (** voluntary aborts (the plan said so) *)
  conflict_aborts : int;  (** transactions doomed by write-write conflicts *)
  mvcc : Mvcc.stats;
  per_session : session_stats list;  (** one entry per session, in order *)
}

val run :
  ?group_window:int ->
  ?compact_every:int ->
  ?note_read:(bytes option -> unit) ->
  ?pool:Par.Domain_pool.t ->
  ?observe:(event -> unit) ->
  sessions:int ->
  plans:plan array ->
  Ipl_core.Ipl_engine.t ->
  outcome
(** Multiplex [plans] over [sessions] clients (plan [i] goes to session
    [i mod sessions], preserving per-session order). [group_window]
    defaults to [sessions]. [compact_every] > 0 runs a {!Mvcc.compact}
    with one merge after every that-many finished transactions, like the
    serial benchmark loop. [note_read] sees every read result in
    deterministic schedule order. The final batch is flushed before
    returning; the engine is left checkpoint-ready.

    [pool] moves the post-commit read phase's {e resolution} onto a
    {!Par.Domain_pool}: each read is pinned at its original schedule
    step with {!Mvcc.read_committed_deferred} (so the answer is defined
    by exactly the same state as the serial path) and the pure snapshot
    walks are evaluated in chunks on the pool, with [note_read] invoked
    in the original order. Outcome and read values are identical with
    and without a pool, for any job count.

    [observe] sees every transaction boundary, successful write and
    durable-watermark rise as it happens — what a crash checker needs to
    model the history. It is read-only: the schedule is the same with or
    without it, and without it no event is built. *)
