(** Crash recovery: rebuild a quiescent CFG from checkpoint + journal.

    Recovery has two layers with different trust models:

    - the {!Checkpoint} is authoritative — if a path is given and the file
      is damaged, {!load} returns the structured error (exit 2 at the CLI:
      the operator must decide; a caller may deliberately retry with
      [src_checkpoint = None] to fall back to journal-only replay);
    - the {!Journal} is advisory — its committed prefix extends the
      snapshot, its torn tail is discarded silently, and a missing or
      corrupt journal merely means "nothing after the snapshot survived".

    Replay is idempotent thanks to the construction algebra's monotonicity
    (the paper's Section 5.2 invariants): re-applying a block/edge/function
    creation that already took effect converges, block ends only ever
    shrink, and the few destructive ops (split-protocol edge kills/moves)
    are resolved against an explicit edge registry. *)

type source = {
  src_checkpoint : string option;
  src_journal : string option;
}

type plan = {
  pl_ops : Journal.op list;
      (** checkpoint stream followed by the committed journal ops above the
          snapshot's sequence floor, in application order *)
  pl_round : int;  (** last durable construction round, [-1] if none *)
  pl_resume_count : int;  (** resumes before this one *)
  pl_progress_s : float;  (** parse progress the snapshot preserves *)
  pl_counters : int array;  (** {!Checkpoint.counter_names} values *)
  pl_seq_max : int;
      (** highest durable journal seq — the fresh journal's sequence floor,
          so seqs stay monotone across resumes *)
  pl_journal_torn : bool;  (** a torn journal tail was discarded *)
}

val load : source -> (plan, Pbca_binfmt.Parse_error.t) result

val apply :
  Cfg.t -> plan -> on_jt_pending:(end_:int -> reg:int -> unit) -> int
(** Replay the plan into a freshly created graph (no journal attached —
    asserted), then reconstruct the derived state: the ends map (from
    final block states — Invariant 2 makes this exact at a commit point),
    the fall-through guards (from existing [Call_fallthrough] edges), and
    stats counters. Deadline-degraded degenerate blocks are reset to
    candidates and their marks dropped — the resumed run re-does that lost
    work under its renewed deadline. Returns the number of replayed ops
    (also added to [stats.replayed_ops]; [stats.resume_count] becomes
    [pl_resume_count + 1]).

    Watcher lists, waiter lists and visited sets are deliberately {e not}
    persisted: the resumed parse re-seeds every function's traversal,
    which rebuilds them from the recovered graph. [Returns] statuses
    resolved at the checkpoint's quiescent point {e are} replayed
    (checkpoint v2, [Op_ret]) — a decoded return point is a monotone
    fact, so re-seeding merely confirms it, and a complete artifact (no
    pending frontier, no candidates) can skip the re-walk altogether and
    go straight to finalization.
    [Noreturn] stays derived: under a cut deadline it may only mean "not
    found yet", and a replayed Noreturn would pin set_returns shut. *)
