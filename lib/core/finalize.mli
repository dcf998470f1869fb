(** CFG finalization — the correction phase (paper Section 5.4).

    Four steps, each deterministic given the expansion-phase graph:

    1. Jump-table cleanup: tables are sorted by base address; using the
       observation that compilers do not emit overlapping jump tables, a
       table's entries are clamped at the next table's base — found by
       binary search over the sorted base array — or the end of the
       table's section, and indirect edges pointing outside the clamped
       entry set are removed (O_ER).
    2. Unreachable-code removal: blocks no longer reachable from any
       function entry are dropped along with their edges.
    3. Tail-call correction and function boundaries: function bodies are
       recomputed by traversing intra-procedural edges from each entry,
       then the three correction rules run; each edge's classification
       flips at most once, guaranteeing convergence.
    4. Function pruning: functions discovered during traversal that ended
       up with no incoming inter-procedural edges (and are not in the
       symbol table) are removed.

    {!run} executes these over an incrementally maintained {!Csr}
    snapshot of the live graph: reachability is a frontier-based parallel
    BFS over dense block indices, and the correction rules scan flat edge
    indices in parallel chunks (decisions are collected and applied
    serially — within a round the rules read only state a flip cannot
    change, so this equals the serial sorted pass). Fix rounds after the
    first recompute boundaries only for the {e dirty} functions whose
    boundary contained the source block of an edge flipped in the
    previous round, and their rule scan covers only the {e dirty
    frontier} — the out-edges of the old and new boundary blocks of those
    functions, the only edges whose decision can have changed. Steps that
    kill edges or blocks mark them dead through the snapshot's delta
    layer ({!Csr.kill_block}) instead of forcing a rebuild; a compaction
    (fresh {!Csr.build}) runs only when the dead fraction crosses
    [Config.csr_compact_threshold]. Kind flips mutate the shared edge
    records in place and never stale anything. [Cfg.stats] counts the
    absorbed kills ([csr_deltas]) and the compactions
    ([csr_compactions]); snapshot build and compaction cost is traced
    under the [csr-build] / [csr-compact] phases, separate from
    [fz-step].

    {!run_legacy} is the pre-snapshot path — serial hash-table
    reachability and whole-graph boundary/rule passes every round — kept
    as the reference the finalize tests compare {!run} against. Both
    paths produce {!Cfg_diff}-identical graphs and record per-step wall
    timings into the graph's [stats.finalize].

    Afterwards, [f_blocks] holds each function's body, every dead edge and
    block is gone from the maps, and the CFG is read-only for clients
    (paper Section 7.2). *)

val run : pool:Pbca_concurrent.Task_pool.t -> Cfg.t -> unit
(** Snapshot-indexed finalization (the default path). *)

val run_legacy : pool:Pbca_concurrent.Task_pool.t -> Cfg.t -> unit
(** Whole-graph reference, semantically identical to {!run}. *)

val clean_jump_tables : pool:Pbca_concurrent.Task_pool.t -> Cfg.t -> unit
(** Step 1 alone (exposed for direct unit testing of the clamp rule). *)
