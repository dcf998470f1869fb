(** Append-only operation journal for crash-durable CFG construction.

    The paper's construction algebra is monotonic — blocks, edges and
    functions only accumulate while parsing runs (removals are confined to
    finalization) — so a log of the constructive operations can be replayed
    idempotently: re-applying an op that already took effect converges to
    the same graph. {!Cfg} emits one {!op} per structural mutation; ops are
    buffered per-domain ({!Pbca_concurrent.Thread_local}) so the hot paths
    never contend on the log, and the whole buffer set is drained by the
    master at quiescent points (round barriers), terminated by an
    [Op_commit] marker and an [fsync]-style channel flush.

    Durability contract: everything up to the last [Op_commit] whose CRC
    checks out is trusted; anything after it — a torn tail from a crash
    mid-write, flipped bits from a dying disk — is silently discarded.
    A journal can therefore never make recovery {e fail}; at worst it
    contributes nothing (checkpoint corruption, by contrast, is a hard
    {!Pbca_binfmt.Parse_error} — see {!Checkpoint}).

    Record framing (little-endian):
    {v [u32 len][u32 crc32][payload]   payload = [u64 seq][u8 tag][fields] v}
    where [crc32] covers the payload and [len] is the payload length. The
    global sequence number is assigned at emit time {e inside} the critical
    section performing the mutation, so for any two conflicting ops (same
    block, same ends-map entry) seq order respects their real order; replay
    applies ops in ascending seq. *)

type op =
  | Op_block of int  (** block created at start address *)
  | Op_end of { start : int; end_ : int; ninsns : int }
      (** block end resolved (or shrunk by a split); [end_ = start] is the
          degenerate empty block, which owns no ends-map entry *)
  | Op_term of { start : int; insn : Pbca_isa.Insn.t option }
      (** terminator instruction set (or cleared, when a split moves it) *)
  | Op_edge of { src : int; dst : int; kind : int; jt : (int * int) option }
      (** edge created; [kind] is {!Cfg.edge_kind_code} *)
  | Op_edge_dead of { src : int; dst : int; kind : int }
      (** edge killed by the split protocol (duplicate drop) *)
  | Op_edge_move of { src : int; dst : int; kind : int; new_src : int }
      (** edge re-sourced by the split protocol (upper fragment takes it) *)
  | Op_func of { entry : int; name : string; from_symtab : bool }
  | Op_jt_pending of { end_ : int; reg : int }
      (** indirect jump discovered: (end address, operand register) joined
          the jump-table frontier *)
  | Op_degraded of { addr : int; deadline : bool }
      (** degradation mark; [deadline] marks are dropped on resume because
          the lost work is re-done under the renewed deadline *)
  | Op_ret of { entry : int; status : int }
      (** function return status at a quiescent point; only 1 = [Returns]
          is ever emitted (checkpoint materialization, never live
          journaling). [Returns] is the one monotone status — a return
          point was decoded, which no amount of further work un-decodes —
          so replaying it is always safe; [Noreturn] is a quiescence
          default that a resumed traversal may legitimately overturn, so
          it stays derived *)
  | Op_conf of { addr : int; conf : int }
      (** function-entry confidence tag ({!Cfg.conf_code}: 0 symbol, 1
          call target, 2 heuristic). Emitted when a tag is first stored —
          notably for every gap-parse proposal — so resumed parses carry
          the same provenance the uninterrupted run recorded. Tags are
          write-once (first writer wins), making replay idempotent. *)
  | Op_commit of int  (** round barrier: everything before this is durable *)

val magic : string
(** ["PBCJ"] — journal file magic. *)

val version : int

(** {2 Writing} *)

type writer

val create_writer : path:string -> writer
(** Truncate/create [path] and write the header. The writer starts with
    sequence numbers at [0]; pass [?seq_floor] via {!set_seq_floor} when
    appending after a checkpoint so journal seqs stay above it. *)

val set_seq_floor : writer -> int -> unit
(** Force the next assigned seq to be at least [floor + 1]. *)

val emit : writer -> op -> unit
(** Buffer one op in the calling domain's buffer, assigning its global
    seq now. Wait-free except for one [fetch_and_add]. *)

val flush : writer -> round:int -> unit
(** Quiescent-point drain: collect every domain's buffered ops, write them
    in seq order, terminate with [Op_commit round], flush the channel.
    Must only run while no emitter is active (round barrier). *)

val last_seq : writer -> int
(** Highest sequence number assigned so far ([-1] if none). At a quiescent
    point this is the checkpoint's sequence floor. *)

val close : writer -> unit
(** Close the file. Buffered-but-unflushed ops are {e dropped} — exactly
    the crash semantics: uncommitted work never reaches the disk. *)

(** {2 Record-level IO (shared with {!Checkpoint})} *)

val append_record : Buffer.t -> seq:int -> op -> unit
(** Append one framed record to a buffer. *)

type read_outcome =
  | Rec of int * op  (** (seq, op) *)
  | End_clean  (** exact end of file *)
  | End_torn of string  (** torn tail / CRC mismatch / garbage — reason *)

val read_record : in_channel -> read_outcome

(** {2 Reading a journal} *)

type tail = {
  t_ops : (int * op) list;
      (** committed ops in ascending seq order, [Op_commit]s excluded *)
  t_last_round : int;  (** round of the last commit, [-1] if none *)
  t_max_seq : int;  (** highest committed seq, [-1] if none *)
  t_torn : bool;  (** the file had a discarded torn/corrupt tail *)
}

val read_committed : string -> tail
(** Total: a missing file, bad header, torn tail or CRC failure can only
    shrink the result, never raise. Records after the last valid
    [Op_commit] are discarded (they were in flight at the crash). *)

val empty_tail : torn:bool -> tail

(** {2 Checksums} *)

val crc32 : Bytes.t -> int -> int -> int
(** [crc32 b off len] — IEEE 802.3 polynomial, as in zlib. *)
