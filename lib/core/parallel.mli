(** Parallel CFG construction (paper Section 5).

    The expansion phase of the analysis: starting from the symbol table's
    function entries (plus the program entry point), blocks are discovered,
    linearly parsed and registered under the five invariants of
    Section 5.2, functions traverse the evolving graph to learn their
    return status, call-fall-through edges are released eagerly as return
    instructions are found, and jump tables are resolved to a fixed point
    in quiescent rounds (each round's input graph is deterministic, so the
    final CFG is identical under any schedule — including the serial
    one). The correction phase is {!Finalize.run}.

    Work is scheduled on a work-stealing task pool; one task parses one
    block, walks one function fragment, or analyzes one jump table. When a
    trace is supplied, every task records its cost and dependencies for
    {!Pbca_simsched.Replay}. When an [?otrace] ({!Pbca_obs.Trace}) is
    supplied, every task, region, jump-table round and durable-I/O step
    additionally records a real wall-time span (per-domain buffers,
    drained at each quiescent point), and the run's scheduler activity is
    snapshot-diffed into [stats.sched_*].

    {2 Durability}

    With [?persist], the parse journals every construction op and commits
    at quiescent points (after init, after every jump-table round, and
    once more before returning), checkpointing the graph every
    [p_every] rounds plus once at the very start and once at the end.
    With [?resume], the worklist is seeded from a {!Recover.plan}: the
    durable op stream is replayed first, then every candidate block
    re-parses, every function re-walks, and every resolved call terminator
    re-fires its noreturn bookkeeping (idempotently, behind the
    fall-through guard). A {!Pbca_concurrent.Fault} [Crash] fault aborts
    the parse with [Fault.Crashed] at the next quiescent point, {e before}
    that round commits — the on-disk artifacts then look exactly like a
    process kill. *)

type persist = {
  p_journal : string;  (** journal path (created/truncated) *)
  p_checkpoint : string;  (** checkpoint path (atomically replaced) *)
  p_every : int;  (** checkpoint every N rounds; [<= 1] = every round *)
}

val parse :
  ?config:Config.t ->
  ?trace:Pbca_simsched.Trace.t ->
  ?otrace:Pbca_obs.Trace.t ->
  ?persist:persist ->
  ?resume:Recover.plan ->
  pool:Pbca_concurrent.Task_pool.t ->
  Pbca_binfmt.Image.t ->
  Cfg.t
(** Expansion phase only; call {!Finalize.run} afterwards for the full
    pipeline (or use {!parse_and_finalize}). May raise
    [Pbca_concurrent.Fault.Crashed] when a simulated crash is armed. *)

val parse_and_finalize :
  ?config:Config.t ->
  ?trace:Pbca_simsched.Trace.t ->
  ?otrace:Pbca_obs.Trace.t ->
  ?persist:persist ->
  ?resume:Recover.plan ->
  pool:Pbca_concurrent.Task_pool.t ->
  Pbca_binfmt.Image.t ->
  Cfg.t
(** {!parse} followed by {!Finalize.run}, the finalize step traced under
    the [finalize] span phase. *)
