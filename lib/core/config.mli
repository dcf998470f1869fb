(** Parser configuration knobs.

    The defaults reproduce the paper's final design; the switches exist for
    the ablation benchmarks (which design decision buys what). *)

type t = {
  eager_noreturn : bool;
      (** notify callers the moment a return instruction is found in the
          callee, instead of waiting for the callee's analysis to finish
          (paper Section 5.3) *)
  decode_cache : bool;
      (** per-thread cache of block starts to cut redundant decoding
          (paper Section 6.3) *)
  jt_union : bool;
      (** take the union of jump-table targets over analyzable paths instead
          of failing the whole table when one path resists analysis
          (paper Section 5.3) *)
  jt_max_scan : int;
      (** over-approximation cap when no bound is recoverable *)
  shards : int;  (** shard count for the concurrent maps *)
  max_block_bytes : int;
      (** decode-byte budget per block scan; a block that keeps decoding
          past this many bytes (hostile input: no terminator in sight) is
          cut there and marked degraded. 0 disables. *)
  max_slice_steps : int;
      (** instruction-visit budget for one jump-table backward slice; on
          exhaustion the table degrades to unresolved. 0 disables. *)
  max_table_entries : int;
      (** cap on materialized entries per jump table, below which
          [jt_max_scan] and recovered bounds operate normally; a table cut
          by this cap degrades to unresolved. 0 disables. *)
  deadline_s : float;
      (** global work-unit deadline in seconds, measured from [Cfg.create];
          once past, remaining parse/traversal/table work is skipped and
          the affected sites marked degraded. 0 disables. *)
  deadline_poll_every : int;
      (** poll the real clock only every N deadline checks (the verdict is
          latched once true, so coarsening only delays detection by at most
          N-1 work units); [Cfg.stats] counts checks vs. polls so
          [Summary.pp_stats] can report the syscalls saved *)
  csr_compact_threshold : float;
      (** dead fraction of the finalize CSR snapshot above which delta
          kills trigger a compaction (a fresh {!Csr.build}) instead of
          letting readers keep skipping dead entries; [1.0] effectively
          disables compaction, [0.0] compacts after any kill *)
  gap_parse : bool;
      (** after the symbol-seeded parse reaches its fixed point, scan the
          unclaimed [.text] gaps for function entries (prologue,
          call-target and alignment heuristics) and parse the proposals
          through the normal traversal, tagging everything discovered
          this way [From_heuristic]. Off by default: symbol-rich binaries
          don't need it and clients must opt into heuristic results. *)
  gap_align : int;
      (** alignment modulus of the gap-entry alignment heuristic: an
          aligned gap offset whose bytes decode to a frame-setup prologue
          is proposed as an entry. 0 disables the alignment heuristic
          (prologue and call-target proposals still run). *)
  gap_max_rounds : int;
      (** bound on gap-scan rounds (each round re-scans the gaps left by
          the previous one's discoveries); hostile images cannot keep the
          scanner alive past this many rounds *)
}

val default : t
(** The paper's design with generous robustness budgets: correct binaries
    never hit them; hostile ones degrade instead of wedging. *)
