(** Concurrent control-flow-graph structures.

    The containers and primitives realizing the paper's five invariants
    (Section 5.2):

    - Invariant 1 / 5 (unique block / function creation): {!find_or_create_block}
      and {!find_or_create_func} are backed by concurrent hash maps keyed by
      start address; the first inserter wins (Listing 4).
    - Invariant 2 (unique block end) / 3 (the end registrant creates the
      out-edges) / 4 (eager block split): {!register_end} holds the
      [ends]-map entry lock for the end address while either running the
      caller's edge-creation callback (winner) or performing one iteration
      of the eager split loop (Listing 5). Each split iteration re-registers
      a strictly smaller end address, so the loop converges.

    Blocks, edges and functions are mutable records whose cross-thread
    fields are [Atomic]; quiescent phases (finalization, client analyses)
    may read everything freely. *)

type edge_kind =
  | Fallthrough  (** linear flow after a split or early block end *)
  | Jump
  | Cond_taken
  | Cond_fall
  | Call
  | Call_fallthrough
  | Indirect  (** resolved jump-table edge *)
  | Tail_call

type block = {
  b_start : int;
  b_end : int Atomic.t;  (** exclusive; -1 while still a candidate *)
  b_term : Pbca_isa.Insn.t option Atomic.t;
      (** terminating control-flow instruction, once the end is resolved and
          this block owns it *)
  b_ninsns : int Atomic.t;
  b_out : edge list Atomic.t;
  b_in : edge list Atomic.t;
  b_watchers : func list Atomic.t;
      (** functions whose traversal passed through and must be re-run when
          this block gains edges or resolves *)
}

and edge = {
  mutable e_src : block;  (** mutated only under the split lock *)
  e_dst : block;
  mutable e_kind : edge_kind;  (** flipped only during finalization *)
  mutable e_flipped : bool;
      (** finalization flips each edge's tail-call classification at most
          once, guaranteeing convergence (Section 5.4) *)
  e_dead : bool Atomic.t;
  e_jt : (int * int) option;  (** (table id, entry index) for [Indirect] *)
}

and ret_status = Unset | Returns | Noreturn

and waiter =
  | W_fallthrough of int  (** call-site end address: create its call-fall-through *)
  | W_status of func  (** tail-calling caller inherits [Returns] *)

and func = {
  f_entry_addr : int;
  f_entry : block;
  f_name : string;
  f_from_symtab : bool;
  f_ret : ret_status Atomic.t;
  f_ret_dep : Pbca_obs.Trace.dep option Atomic.t;
      (** trace progress point at which the status became [Returns]; tasks
          enabled by that status (call-fall-through parses) record it as a
          dependency so the replay model sees the noreturn serialization
          even when the status race was already won *)
  f_waiters : waiter list Atomic.t;
  f_visited : Pbca_concurrent.Atomic_intset.t;
      (** per-function traversal visited-set; [Atomic_intset.add] is the
          lock-free "first visitor wins" test the traversal runs per edge
          (previously a [Hashtbl] behind a per-function mutex) *)
  mutable f_blocks : block list;  (** set by finalization *)
}

type jt_record = {
  jt_id : int;
  jt_block : block;  (** the block ending with the indirect jump *)
  jt_jump_addr : int;
  jt_base : int;
  jt_bounded : bool;
  jt_count : int;  (** entries materialized as edges *)
}

(** Which budget a degradation charged against. [B_deadline] also covers
    work skipped because the global work-unit deadline passed. *)
type budget_site = B_block | B_slice | B_table | B_deadline

(** Provenance of a function entry, strongest first: named by a symbol (or
    the image entry point), decoded as the target of a direct call in
    already-trusted code, or proposed by the gap-parsing heuristics. The
    wire codes ({!conf_code}) are part of the journal/checkpoint format. *)
type confidence = From_symbol | From_call_target | From_heuristic

val conf_code : confidence -> int
(** [0 / 1 / 2] in declaration order. *)

val conf_of_code : int -> confidence
(** Raises [Invalid_argument] outside [0..2]. *)

val confidence_name : confidence -> string
(** ["symbol" / "call-target" / "heuristic"]. *)

(** Typed handles on the graph's registry counters: every [int Atomic.t]
    field below is the cell that [metrics] holds under the field's name,
    incremented directly by the hot paths. *)
type stats = {
  insns_decoded : int Atomic.t;
  blocks_created : int Atomic.t;
  splits : int Atomic.t;
  edges_created : int Atomic.t;
  jt_analyses : int Atomic.t;
  jt_unresolved : int Atomic.t;
  budget_block : int Atomic.t;
      (** block scans cut by [Config.max_block_bytes] *)
  budget_slice : int Atomic.t;
      (** jump-table slices cut by [Config.max_slice_steps] *)
  budget_table : int Atomic.t;
      (** table reads cut by [Config.max_table_entries] *)
  budget_deadline : int Atomic.t;
      (** work units skipped past [Config.deadline_s] *)
  task_failures : (string * string) Pbca_concurrent.Conc_bag.t;
      (** (site label, exception text) for every contained task crash; the
          parse survives these and reports them as diagnostics *)
  contention : Pbca_concurrent.Contention.t;
      (** probe / CAS-retry / resize / frozen-wait counters shared by every
          address map and visited-set of this graph — the direct measure of
          how contended the lock-free hot paths actually were. Registry
          cells [contention_probes], [contention_cas_retries],
          [contention_resizes] and [contention_frozen_waits] *)
  journal_records : int Atomic.t;
      (** construction ops emitted to an attached {!Journal} writer *)
  replayed_ops : int Atomic.t;
      (** ops re-applied from a checkpoint/journal during resume *)
  resume_count : int Atomic.t;
      (** times this graph was resumed from persisted state *)
  supervisor_restarts : int Atomic.t;
      (** restarts the {!Pbca_concurrent.Supervisor} performed for the job
          that produced this graph (set by the batch driver) *)
  deadline_checks : int Atomic.t;
      (** {!past_deadline} calls while a deadline was armed and not latched *)
  deadline_polls : int Atomic.t;
      (** of those, how many actually paid the monotonic clock read;
          [checks - polls] is the syscall saving of the coarsened clock *)
  sched_steals : int Atomic.t;
  sched_steal_attempts : int Atomic.t;
  sched_idle_sleeps : int Atomic.t;
      (** this run's work-stealing scheduler activity: {!Parallel}
          snapshot-diffs the pool's per-pool cumulative counters around
          the parse, so a concurrent run on another pool never leaks into
          these numbers *)
  csr_deltas : int Atomic.t;
      (** winning delta kills (edges + blocks) absorbed by the finalize
          CSR snapshot in place, i.e. rebuilds avoided by the delta layer *)
  csr_compactions : int Atomic.t;
      (** finalize CSR snapshot rebuilds forced by the dead fraction
          crossing [Config.csr_compact_threshold] *)
  gap_gaps_scanned : int Atomic.t;
      (** unclaimed [.text] gaps examined by the gap-parsing rounds *)
  gap_entries_proposed : int Atomic.t;
      (** entry addresses the gap heuristics proposed *)
  gap_entries_accepted : int Atomic.t;
      (** proposals whose parse produced a real (non-degenerate) entry *)
  gap_entries_rejected : int Atomic.t;
      (** proposals that decoded to nothing and were discarded *)
}

type t = {
  image : Pbca_binfmt.Image.t;
  config : Config.t;
  blocks : block Addr_map.t;
  ends : block Addr_map.t;
  funcs : func Addr_map.t;
  tables : jt_record Pbca_concurrent.Conc_bag.t;
  next_table_id : int Atomic.t;
  static_entries : unit Addr_map.t;
      (** function entries known from the symbol table before traversal
          starts. Tail-call and jump-table heuristics consult this static
          set rather than the evolving [funcs] map, so their answers do not
          depend on thread timing — the finalization rules then converge on
          the canonical classification (Section 5.4). *)
  ft_guard : unit Addr_map.t;
      (** once-guard per call site: the call-fall-through edge of a given
          call end address is created exactly once even when the waiter
          registration races with the callee's status transition *)
  degraded : bool Addr_map.t;
      (** addresses at which a budget cut, deadline skip or task failure
          forced the safe over-approximation (block kept but truncated,
          table left unresolved, traversal abandoned); the checker treats
          differences explained by these marks as [Expected]. The value is
          true for deadline-caused marks, which resume drops and re-does *)
  conf : int Addr_map.t;
      (** function-entry confidence overrides ({!conf_code} values), keyed
          by entry address. Absent means derived: [From_symbol] for symtab
          entries and the image entry point, [From_call_target] otherwise.
          First writer wins and every stored tag is journaled ([Op_conf]),
          so tags survive checkpoint/resume verbatim. *)
  deadline : float;
      (** absolute {e monotonic} bound: [Pbca_obs.Clock.now] at {!create}
          plus [Config.deadline_s]; [infinity] when the deadline is off.
          Monotonic so an NTP step can neither fire the deadline early
          nor keep it from ever firing *)
  dl_counter : int Atomic.t;
      (** deadline checks since the last real clock poll *)
  dl_past : bool Atomic.t;
      (** latched deadline verdict: once past, always past — lets
          {!past_deadline} skip the clock entirely after the first hit *)
  mutable journal : Journal.writer option;
      (** attached by {!Parallel} for persistent parses; every structural
          mutation emits a {!Journal.op} while set. Attach/detach only at
          quiescent points (use {!set_journal}). *)
  stats : stats;
  trace : Pbca_obs.Trace.t;
      (** the run recorder: per-domain phase spans (real wall time,
          Chrome-exportable) and the parser's tasks, whose work units and
          dependency edges the replay model reads *)
  metrics : Pbca_obs.Metrics.t;
      (** per-run registry, the one home of the graph's statistics: every
          counter of [stats] and of its contention record under the field's
          name, the [finalize_*] counters {!Finalize} interns, and gauge
          functions for the graph counts ([blocks], [funcs], [degraded],
          [task_failures]), the image's decode cache ([decode_hits],
          [decode_misses]) and the confidence census ([conf_symbol],
          [conf_call_target], [conf_heuristic]). {!Summary.pp_stats}
          renders it; {!Checkpoint} saves counters from it by name *)
}

val create :
  ?config:Config.t ->
  ?trace:Pbca_obs.Trace.t ->
  Pbca_binfmt.Image.t ->
  t

(** {2 Robustness bookkeeping}

    Budgets, degradation marks and contained task failures. All operations
    are safe from any task; reads are wait-free. *)

val note_budget : t -> budget_site -> unit
(** Bump the counter for [site] without marking an address. *)

val mark_degraded : ?deadline:bool -> t -> int -> unit
(** Mark an address degraded without charging a budget (negative addresses
    — hostile jump targets — are counted nowhere and silently dropped).
    [~deadline:true] tags the mark as deadline-caused in the journal, so
    resume drops it: the lost work is re-done under the renewed deadline. *)

val record_degraded : t -> budget_site -> int -> unit
(** [note_budget] + [mark_degraded]. *)

val record_task_failure : t -> site:string -> detail:string -> unit
val degraded_at : t -> int -> bool
val degraded_count : t -> int
val degraded_within : t -> lo:int -> hi:int -> bool

val degraded_list : t -> (int * bool) list
(** Sorted [(addr, deadline_caused)] marks. Quiescent use only. *)

val func_degraded : t -> func -> bool
(** True when the function's entry, any visited block or any finalized
    block start carries a degradation mark. *)

val task_failure_count : t -> int
val task_failures : t -> (string * string) list

(** {2 Confidence tagging} *)

val set_conf : t -> int -> int -> unit
(** [set_conf t addr code] — tag [addr] with a {!conf_code} unless it
    already carries one (first writer wins; negative addresses dropped).
    A winning insert is journaled as [Op_conf]. *)

val conf_at : t -> int -> int option
(** The stored tag at [addr], if any (no derivation). *)

val func_confidence : t -> func -> confidence
(** The function's effective confidence: its stored tag, else
    [From_symbol] for symtab entries and the image entry point, else
    [From_call_target]. *)

val conf_list : t -> (int * int) list
(** Sorted [(addr, code)] stored tags. Quiescent use only. *)

val conf_counts : t -> int * int * int
(** Function counts per confidence level, [(symbol, call_target,
    heuristic)]. Quiescent use only. *)

val past_deadline : t -> bool
(** True once the work-unit deadline has passed (never true when off). *)

val effective_budget : int -> int
(** The budget value analyses should obey: the configured value, or 1 when
    a {!Pbca_concurrent.Fault} [Starve] fault is live (0 = disabled stays
    0). *)

val is_candidate : block -> bool
val block_end : block -> int
val out_edges : block -> edge list
(** Live (non-dead) out-edges. *)

val in_edges : block -> edge list
val is_intra : edge_kind -> bool
(** Edges followed when computing function boundaries. *)

val find_or_create_block : t -> int -> block * bool
(** Invariant 1: at most one block per start address. *)

val find_or_create_func : t -> name:string -> from_symtab:bool -> int -> func * bool
(** Invariant 5: at most one function per entry address. The entry block is
    created (Invariant 1) as a side effect. *)

val add_edge : t -> ?jt:int * int -> block -> block -> edge_kind -> edge
(** Append an edge; both endpoint lists are updated. *)

val set_term : t -> block -> Pbca_isa.Insn.t option -> unit
(** Set (or clear) a block's terminator, journaling the change. Same
    locking discipline as the rest of the split protocol: call only under
    the ends-entry lock or on a block no one else owns yet. *)

val set_degenerate : t -> block -> unit
(** Collapse a candidate to the degenerate empty block ([end = start]),
    journaling the change. Degenerate blocks own no ends-map entry. *)

(** {2 Journal plumbing} *)

val edge_kind_code : edge_kind -> int
val edge_kind_of_code : int -> edge_kind
(** Stable wire codes for {!Journal.Op_edge}. [edge_kind_of_code] raises
    [Invalid_argument] outside [0..7]. *)

val set_journal : t -> Journal.writer option -> unit
(** Attach/detach the journal. Quiescent points only: detach {e before}
    finalization (finalize removals are deliberately not journaled — the
    checkpoint/journal pair always describes a pre-finalize graph). *)

val journal_emit : t -> Journal.op -> unit
(** Emit an op through the attached writer (no-op when detached), counting
    it in [stats.journal_records]. For emission sites that live outside
    [Cfg] itself, e.g. the jump-table frontier in {!Parallel}. *)

val register_end :
  t ->
  block ->
  end_:int ->
  on_win:(block -> unit) ->
  on_done:(block -> unit) ->
  unit
(** Invariants 2-4. [on_win b] runs while holding the entry lock if [b] is
    the unique registrant for [end_] — it must create the block's
    terminator out-edges (Invariant 3) and set [b_term]. Otherwise the
    eager split algorithm runs, possibly over several strictly decreasing
    end addresses. [on_done b] is called (outside the lock) for every block
    whose shape changed, so traversal watchers can be notified.

    Locking discipline: a resolved block's out-edge list is only ever
    mutated while holding the [ends] entry lock of the block's current end
    address — by the winner's [on_win], by the split loop when it moves
    edges between blocks, and by {!add_edge_at_end} for deferred
    call-fall-through edges. This is what makes "edges are never created
    while being moved" hold (paper Listing 5). *)

val add_edge_at_end :
  t -> end_:int -> dst_addr:int -> edge_kind -> (block * block * bool) option
(** Add an out-edge (typically [Call_fallthrough]) to whichever block
    currently owns [end_], atomically with respect to splits. Returns
    [(owner, dst, dst_created)], or [None] when no block owns [end_] (the
    call site itself was unreachable and never resolved). *)

val watch : block -> func -> unit
(** Subscribe a function to a block's shape changes. *)

val blocks_list : t -> block list
(** All blocks, sorted by start address. Quiescent use only. *)

val funcs_list : t -> func list
(** All functions, sorted by entry address. Quiescent use only. *)

val pp_edge_kind : Format.formatter -> edge_kind -> unit
