(** Consistent CFG snapshots for crash-durable parsing.

    A checkpoint is the quiescent graph compacted to a {!Journal.op}
    stream: blocks, resolved ends and terminators, live edges, functions,
    confidence tags (v3), degradation marks and the pending jump-table
    frontier, preceded by a
    CRC-framed versioned header (round, resume count, journal sequence
    floor, elapsed progress, stats counters) and terminated by an
    [Op_commit] footer. Op records share the journal's CRC framing, and
    the file is written atomically (tmp + rename), so a reader sees either
    the old checkpoint or the new one — never a blend.

    Trust model: a checkpoint is {e authoritative} state, so unlike the
    journal (whose torn tail is silently discarded) any damage here is a
    hard {!Pbca_binfmt.Parse_error} — the caller may then retry recovery
    from the journal alone, which rebuilds the same graph from scratch. *)

val magic : string
(** ["PBCK"]. *)

val version : int

val counter_names : string array
(** Names of the header counters, in wire order: each is a counter of the
    graph's metrics registry, saved and restored by that name. *)

type snapshot = {
  cp_round : int;  (** construction round the snapshot was taken at *)
  cp_resume_count : int;  (** resumes performed before this snapshot *)
  cp_seq_floor : int;
      (** highest journal seq already folded into this snapshot; journal
          ops at or below it are skipped during replay *)
  cp_progress_s : float;
      (** wall seconds of parse progress the snapshot preserves — the work
          a resume does {e not} have to redo *)
  cp_counters : int array;  (** values for {!counter_names} *)
  cp_ops : Journal.op list;  (** the compacted construction stream *)
}

val materialize_ops : pending:(int * int) list -> Cfg.t -> Journal.op list
(** The compacted op stream for a quiescent graph; [pending] is the
    jump-table frontier as [(end address, register code)]. Exposed for
    tests. *)

val save :
  path:string ->
  round:int ->
  pending:(int * int) list ->
  seq_floor:int ->
  progress_s:float ->
  Cfg.t ->
  unit
(** Write atomically. Quiescent points only. *)

val load :
  path:string -> (snapshot, Pbca_binfmt.Parse_error.t) result
(** Total: every failure mode (missing file, bad magic, unsupported
    version, CRC mismatch, truncation, missing footer) is a structured
    error, never an exception. *)
