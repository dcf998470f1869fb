(** Canonical, order-independent summaries of a finished CFG.

    The parallel algorithm's correctness claim is that "the relative speed
    of threads will not impact the final results" (paper Section 5.2). The
    summary normalizes a CFG into sorted value data so two runs — different
    thread counts, different schedules, serial vs parallel — can be
    compared for exact equality. *)

type block_sum = {
  bs_start : int;
  bs_end : int;
  bs_insns : int;
  bs_conf : int;
      (** strongest {!Cfg.confidence} code among the owning functions
          (post-finalize boundary assignment); falls back to the block's
          own entry tag, then [From_symbol] *)
}

type edge_sum = {
  es_src : int;  (** source block start *)
  es_dst : int;
  es_kind : Cfg.edge_kind;
}

type func_sum = {
  fs_entry : int;
  fs_name : string;
  fs_returns : bool;
  fs_blocks : int list;  (** starts of boundary blocks, sorted *)
  fs_conf : int;  (** {!Cfg.confidence} code ({!Cfg.func_confidence}) *)
}

type t = {
  blocks : block_sum list;
  edges : edge_sum list;
  funcs : func_sum list;
}

val of_cfg : Cfg.t -> t
(** Live blocks/edges/functions only, each list sorted. *)

val equal : t -> t -> bool
val fingerprint : t -> string
(** Short hex digest, for quick test assertions. *)

val diff : t -> t -> string list
(** Human-readable differences (empty when equal); capped at 50 lines. *)

val func_ranges : Cfg.t -> Cfg.func -> (int * int) list
(** Coalesced address ranges of a function's boundary blocks — comparable
    with ground-truth ranges. *)

val pp_stats : Format.formatter -> Cfg.t -> unit
(** The graph's statistics as one box of [name=value] entries: every
    nonzero entry of its metrics registry ([metrics]: the parse,
    contention, scheduler, deadline, recovery, gap and [finalize_*]
    counters, and the graph-count, decode-cache and confidence-census
    gauges), sorted by name. When a span trace was attached, followed by
    a [phase_wall_ms] breakdown of span wall per phase. *)
