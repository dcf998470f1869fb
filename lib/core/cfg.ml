type edge_kind =
  | Fallthrough
  | Jump
  | Cond_taken
  | Cond_fall
  | Call
  | Call_fallthrough
  | Indirect
  | Tail_call

type block = {
  b_start : int;
  b_end : int Atomic.t;
  b_term : Pbca_isa.Insn.t option Atomic.t;
  b_ninsns : int Atomic.t;
  b_out : edge list Atomic.t;
  b_in : edge list Atomic.t;
  b_watchers : func list Atomic.t;
}

and edge = {
  mutable e_src : block;
  e_dst : block;
  mutable e_kind : edge_kind;
  mutable e_flipped : bool;
  e_dead : bool Atomic.t;
  e_jt : (int * int) option;
}

and ret_status = Unset | Returns | Noreturn
and waiter = W_fallthrough of int | W_status of func

and func = {
  f_entry_addr : int;
  f_entry : block;
  f_name : string;
  f_from_symtab : bool;
  f_ret : ret_status Atomic.t;
  f_ret_dep : Pbca_simsched.Trace.dep option Atomic.t;
  f_waiters : waiter list Atomic.t;
  f_visited : Pbca_concurrent.Atomic_intset.t;
  mutable f_blocks : block list;
}

type jt_record = {
  jt_id : int;
  jt_block : block;
  jt_jump_addr : int;
  jt_base : int;
  jt_bounded : bool;
  jt_count : int;
}

type finalize_stats = {
  mutable fz_jt_wall : float;
  mutable fz_reach_wall : float;
  mutable fz_bounds_wall : float;
  mutable fz_rules_wall : float;
  mutable fz_prune_wall : float;
  mutable fz_recount_wall : float;
  mutable fz_snapshot_wall : float;
  mutable fz_rounds : int;
  mutable fz_snapshots : int;
  mutable fz_dirty : int list;
}

let fresh_finalize_stats () =
  {
    fz_jt_wall = 0.0;
    fz_reach_wall = 0.0;
    fz_bounds_wall = 0.0;
    fz_rules_wall = 0.0;
    fz_prune_wall = 0.0;
    fz_recount_wall = 0.0;
    fz_snapshot_wall = 0.0;
    fz_rounds = 0;
    fz_snapshots = 0;
    fz_dirty = [];
  }

(* Which budget a degradation charged against; [B_deadline] also covers
   work skipped because the global deadline passed. *)
type budget_site = B_block | B_slice | B_table | B_deadline

(* Provenance of a function entry: how sure we are the address really
   starts a function. Ordered strongest first; the wire codes are part of
   the journal/checkpoint format. *)
type confidence = From_symbol | From_call_target | From_heuristic

let conf_code = function
  | From_symbol -> 0
  | From_call_target -> 1
  | From_heuristic -> 2

let conf_of_code = function
  | 0 -> From_symbol
  | 1 -> From_call_target
  | 2 -> From_heuristic
  | n -> invalid_arg (Printf.sprintf "Cfg.conf_of_code: %d" n)

let confidence_name = function
  | From_symbol -> "symbol"
  | From_call_target -> "call-target"
  | From_heuristic -> "heuristic"

type stats = {
  insns_decoded : int Atomic.t;
  blocks_created : int Atomic.t;
  splits : int Atomic.t;
  edges_created : int Atomic.t;
  jt_analyses : int Atomic.t;
  jt_unresolved : int Atomic.t;
  budget_block : int Atomic.t;
  budget_slice : int Atomic.t;
  budget_table : int Atomic.t;
  budget_deadline : int Atomic.t;
  task_failures : (string * string) Pbca_concurrent.Conc_bag.t;
      (* (site label, exception text) per contained task crash *)
  contention : Pbca_concurrent.Contention.t;
      (* shared by every Addr_map and visited-set of this graph *)
  finalize : finalize_stats;
  journal_records : int Atomic.t;
  replayed_ops : int Atomic.t;
  resume_count : int Atomic.t;
  supervisor_restarts : int Atomic.t;
  deadline_checks : int Atomic.t;
  deadline_polls : int Atomic.t;
  sched_steals : int Atomic.t;
  sched_steal_attempts : int Atomic.t;
  sched_idle_sleeps : int Atomic.t;
      (* per-run scheduler counters: Parallel snapshot-diffs the pool's
         cumulative counters around the parse, so these never mix with a
         concurrent run on another pool *)
  csr_deltas : int Atomic.t;
      (* winning delta kills (edges + blocks) applied to finalize CSR
         snapshots instead of forcing a rebuild *)
  csr_compactions : int Atomic.t;
      (* snapshot rebuilds forced by the dead fraction crossing
         [Config.csr_compact_threshold] *)
  gap_gaps_scanned : int Atomic.t;
      (* unclaimed .text gaps examined by the gap-parsing rounds *)
  gap_entries_proposed : int Atomic.t;
      (* entry addresses the gap heuristics proposed *)
  gap_entries_accepted : int Atomic.t;
      (* proposals whose parse produced a real (non-degenerate) entry *)
  gap_entries_rejected : int Atomic.t;
      (* proposals that decoded to nothing and were discarded *)
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
  ft_guard : unit Addr_map.t;
  degraded : bool Addr_map.t;
      (* addresses where a budget cut or task failure forced the safe
         over-approximation; consulted by the checker and diff tooling.
         The value records whether the mark was deadline-caused: those are
         dropped on resume because the lost work is re-done. *)
  conf : int Addr_map.t;
      (* function-entry confidence overrides, keyed by entry address and
         holding a [conf_code]. Absent means derived: [From_symbol] for
         symtab entries and the image entry point, [From_call_target]
         otherwise. First writer wins, so a heuristic proposal tagged
         before its function is created keeps its tag. *)
  deadline : float;
      (* absolute *monotonic* bound: [Clock.now] at create plus the
         configured budget ([infinity] when off). Monotonic, not wall: an
         NTP step must not fire the deadline early or keep it from ever
         firing. *)
  dl_counter : int Atomic.t;
      (* deadline checks since the last real clock poll; the clock is only
         consulted every [Config.deadline_poll_every] checks *)
  dl_past : bool Atomic.t; (* latched: once past, always past *)
  mutable journal : Journal.writer option;
      (* set by Parallel while a persistent parse runs; mutations emit ops
         through [jemit] while attached. Single-writer: attached/detached
         only at quiescent points. *)
  stats : stats;
  trace : Pbca_simsched.Trace.t;
  otrace : Pbca_obs.Trace.t;
  metrics : Pbca_obs.Metrics.t;
}

let create ?(config = Config.default) ?(trace = Pbca_simsched.Trace.disabled)
    ?(otrace = Pbca_obs.Trace.disabled) image =
  let counters = Pbca_concurrent.Contention.create () in
  let amap () = Addr_map.create ~shards:config.Config.shards ~counters () in
  let static_entries = amap () in
  List.iter
    (fun (s : Pbca_binfmt.Symbol.t) ->
      ignore (Addr_map.insert_if_absent static_entries s.offset ()))
    (Pbca_binfmt.Symtab.functions image.Pbca_binfmt.Image.symtab);
  let stats =
    {
      insns_decoded = Atomic.make 0;
      blocks_created = Atomic.make 0;
      splits = Atomic.make 0;
      edges_created = Atomic.make 0;
      jt_analyses = Atomic.make 0;
      jt_unresolved = Atomic.make 0;
      budget_block = Atomic.make 0;
      budget_slice = Atomic.make 0;
      budget_table = Atomic.make 0;
      budget_deadline = Atomic.make 0;
      task_failures = Pbca_concurrent.Conc_bag.create ();
      contention = counters;
      finalize = fresh_finalize_stats ();
      journal_records = Atomic.make 0;
      replayed_ops = Atomic.make 0;
      resume_count = Atomic.make 0;
      supervisor_restarts = Atomic.make 0;
      deadline_checks = Atomic.make 0;
      deadline_polls = Atomic.make 0;
      sched_steals = Atomic.make 0;
      sched_steal_attempts = Atomic.make 0;
      sched_idle_sleeps = Atomic.make 0;
      csr_deltas = Atomic.make 0;
      csr_compactions = Atomic.make 0;
      gap_gaps_scanned = Atomic.make 0;
      gap_entries_proposed = Atomic.make 0;
      gap_entries_accepted = Atomic.make 0;
      gap_entries_rejected = Atomic.make 0;
    }
  in
  (* Per-run metrics registry: the scattered hot-path atomics are adopted
     by name (the registry holds the very cells the parse increments), so
     one [--metrics] dump or snapshot sees everything without the hot
     paths paying for the unification. *)
  let metrics = Pbca_obs.Metrics.create () in
  let () =
    let c = Pbca_obs.Metrics.register_counter metrics in
    c "insns_decoded" stats.insns_decoded;
    c "blocks_created" stats.blocks_created;
    c "splits" stats.splits;
    c "edges_created" stats.edges_created;
    c "jt_analyses" stats.jt_analyses;
    c "jt_unresolved" stats.jt_unresolved;
    c "budget_block" stats.budget_block;
    c "budget_slice" stats.budget_slice;
    c "budget_table" stats.budget_table;
    c "budget_deadline" stats.budget_deadline;
    c "journal_records" stats.journal_records;
    c "replayed_ops" stats.replayed_ops;
    c "resume_count" stats.resume_count;
    c "supervisor_restarts" stats.supervisor_restarts;
    c "deadline_checks" stats.deadline_checks;
    c "deadline_polls" stats.deadline_polls;
    c "sched_steals" stats.sched_steals;
    c "sched_steal_attempts" stats.sched_steal_attempts;
    c "sched_idle_sleeps" stats.sched_idle_sleeps;
    c "csr_deltas" stats.csr_deltas;
    c "csr_compactions" stats.csr_compactions;
    c "gap_gaps_scanned" stats.gap_gaps_scanned;
    c "gap_entries_proposed" stats.gap_entries_proposed;
    c "gap_entries_accepted" stats.gap_entries_accepted;
    c "gap_entries_rejected" stats.gap_entries_rejected;
    c "contention_probes" counters.Pbca_concurrent.Contention.probes;
    c "contention_cas_retries" counters.Pbca_concurrent.Contention.cas_retries;
    c "contention_resizes" counters.Pbca_concurrent.Contention.resizes;
    c "contention_frozen_waits" counters.Pbca_concurrent.Contention.frozen_waits
  in
  let t =
    {
      image;
      config;
      blocks = amap ();
      ends = amap ();
      funcs = amap ();
      tables = Pbca_concurrent.Conc_bag.create ();
      next_table_id = Atomic.make 0;
      static_entries;
      ft_guard = amap ();
      degraded = amap ();
      conf = amap ();
      deadline =
        (if config.Config.deadline_s > 0.0 then
           Pbca_obs.Clock.now () +. config.Config.deadline_s
         else infinity);
      dl_counter = Atomic.make 0;
      dl_past = Atomic.make false;
      journal = None;
      stats;
      trace;
      otrace;
      metrics;
    }
  in
  let gf = Pbca_obs.Metrics.register_gauge_fn metrics in
  gf "blocks" (fun () -> float_of_int (Addr_map.length t.blocks));
  gf "funcs" (fun () -> float_of_int (Addr_map.length t.funcs));
  gf "degraded" (fun () -> float_of_int (Addr_map.length t.degraded));
  gf "task_failures" (fun () ->
      float_of_int (Pbca_concurrent.Conc_bag.length stats.task_failures));
  let dc = image.Pbca_binfmt.Image.dcache in
  gf "decode_hits" (fun () -> float_of_int (Pbca_binfmt.Decode_cache.hits dc));
  gf "decode_misses" (fun () ->
      float_of_int (Pbca_binfmt.Decode_cache.misses dc));
  t

(* ------------------------------------------------------------------ *)
(* Journal plumbing. Emission points sit inside the same critical
   sections as the mutations they describe, so sequence order respects
   the real order of any two conflicting ops.                          *)

let edge_kind_code = function
  | Fallthrough -> 0
  | Jump -> 1
  | Cond_taken -> 2
  | Cond_fall -> 3
  | Call -> 4
  | Call_fallthrough -> 5
  | Indirect -> 6
  | Tail_call -> 7

let edge_kind_of_code = function
  | 0 -> Fallthrough
  | 1 -> Jump
  | 2 -> Cond_taken
  | 3 -> Cond_fall
  | 4 -> Call
  | 5 -> Call_fallthrough
  | 6 -> Indirect
  | 7 -> Tail_call
  | n -> invalid_arg (Printf.sprintf "Cfg.edge_kind_of_code: %d" n)

let set_journal t w = t.journal <- w

let jemit t op =
  match t.journal with
  | None -> ()
  | Some w ->
    Journal.emit w op;
    Atomic.incr t.stats.journal_records

let journal_emit = jemit

(* ------------------------------------------------------------------ *)
(* Robustness bookkeeping: budgets, degradation marks, task failures.  *)

let budget_counter t = function
  | B_block -> t.stats.budget_block
  | B_slice -> t.stats.budget_slice
  | B_table -> t.stats.budget_table
  | B_deadline -> t.stats.budget_deadline

let mark_degraded ?(deadline = false) t addr =
  if addr >= 0 && Addr_map.insert_if_absent t.degraded addr deadline then
    jemit t (Journal.Op_degraded { addr; deadline })

let unmark_degraded t addr = ignore (Addr_map.remove t.degraded addr)

(* Confidence tagging. First writer wins (a heuristic proposal tagged
   before the traversal reaches the same address keeps its tag); every
   stored tag is journaled so resume replays it verbatim. *)
let set_conf t addr code =
  if addr >= 0 && Addr_map.insert_if_absent t.conf addr code then
    jemit t (Journal.Op_conf { addr; conf = code })

let conf_at t addr = Addr_map.find t.conf addr

let func_confidence t (f : func) =
  match Addr_map.find t.conf f.f_entry_addr with
  | Some c -> conf_of_code c
  | None ->
    if f.f_from_symtab || f.f_entry_addr = t.image.Pbca_binfmt.Image.entry then
      From_symbol
    else From_call_target

let conf_list t =
  Addr_map.fold (fun a c acc -> (a, c) :: acc) t.conf [] |> List.sort compare

(* (symbol, call-target, heuristic) function counts. Quiescent use only. *)
let conf_counts t =
  Addr_map.fold
    (fun _ f (s, c, h) ->
      match func_confidence t f with
      | From_symbol -> (s + 1, c, h)
      | From_call_target -> (s, c + 1, h)
      | From_heuristic -> (s, c, h + 1))
    t.funcs (0, 0, 0)

let degraded_list t =
  Addr_map.fold (fun a dl acc -> (a, dl) :: acc) t.degraded []
  |> List.sort compare

let note_budget t site = Atomic.incr (budget_counter t site)

let record_degraded t site addr =
  note_budget t site;
  mark_degraded ~deadline:(site = B_deadline) t addr

let record_task_failure t ~site ~detail =
  Pbca_concurrent.Conc_bag.add t.stats.task_failures (site, detail)

let degraded_at t addr = Addr_map.mem t.degraded addr
let degraded_count t = Addr_map.length t.degraded

let degraded_within t ~lo ~hi =
  Addr_map.fold
    (fun a _ acc -> acc || (a >= lo && a < hi))
    t.degraded false

let func_degraded t (f : func) =
  degraded_at t f.f_entry_addr
  || List.exists (fun (b : block) -> degraded_at t b.b_start) f.f_blocks
  || List.exists (degraded_at t)
       (Pbca_concurrent.Atomic_intset.to_list f.f_visited)

let task_failure_count t =
  Pbca_concurrent.Conc_bag.length t.stats.task_failures

let task_failures t = Pbca_concurrent.Conc_bag.to_list t.stats.task_failures

(* Deadline checks run on every parse/traversal/table work unit; paying a
   clock read each time dominated the hot path. The clock is polled only
   every [deadline_poll_every] checks and the verdict latched once true —
   a deadline can only ever be *more* past (the monotonic clock never
   runs backwards, and [t.deadline] is a monotonic instant, so a stepped
   wall clock cannot unlatch or mis-fire it). The coarsening delays
   detection by at most N-1 work units, all of which would have been
   legal before the poll anyway. *)
let past_deadline t =
  if t.deadline = infinity then false
  else if Atomic.get t.dl_past then true
  else begin
    Atomic.incr t.stats.deadline_checks;
    let every = max 1 t.config.Config.deadline_poll_every in
    let k = Atomic.fetch_and_add t.dl_counter 1 in
    if k mod every = 0 then begin
      Atomic.incr t.stats.deadline_polls;
      if Pbca_obs.Clock.now () > t.deadline then begin
        Atomic.set t.dl_past true;
        true
      end
      else false
    end
    else false
  end

(* Budget-starvation fault injection: while a [Starve] fault is live, every
   enabled budget reads as 1, forcing the degradation paths without any
   hostile input. *)
let effective_budget v =
  if v > 0 && Pbca_concurrent.Fault.starved () then 1 else v

let is_candidate b = Atomic.get b.b_end < 0
let block_end b = Atomic.get b.b_end

let out_edges b =
  List.filter (fun e -> not (Atomic.get e.e_dead)) (Atomic.get b.b_out)

let in_edges b =
  List.filter (fun e -> not (Atomic.get e.e_dead)) (Atomic.get b.b_in)

let is_intra = function
  | Fallthrough | Jump | Cond_taken | Cond_fall | Call_fallthrough | Indirect
    ->
    true
  | Call | Tail_call -> false

let rec push_atomic cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (x :: cur)) then push_atomic cell x

let new_block start =
  {
    b_start = start;
    b_end = Atomic.make (-1);
    b_term = Atomic.make None;
    b_ninsns = Atomic.make 0;
    b_out = Atomic.make [];
    b_in = Atomic.make [];
    b_watchers = Atomic.make [];
  }

let find_or_create_block t addr =
  let b, created = Addr_map.find_or_insert t.blocks addr (fun () -> new_block addr) in
  if created then begin
    Atomic.incr t.stats.blocks_created;
    jemit t (Journal.Op_block addr)
  end;
  (b, created)

let find_or_create_func t ~name ~from_symtab addr =
  let entry, _ = find_or_create_block t addr in
  let f, created =
    Addr_map.find_or_insert t.funcs addr (fun () ->
        {
          f_entry_addr = addr;
          f_entry = entry;
          f_name = name;
          f_from_symtab = from_symtab;
          f_ret = Atomic.make Unset;
          f_ret_dep = Atomic.make None;
          f_waiters = Atomic.make [];
          f_visited =
            Pbca_concurrent.Atomic_intset.create ~capacity:16
              ~counters:t.stats.contention ();
          f_blocks = [];
        })
  in
  if created then begin
    jemit t (Journal.Op_func { entry = addr; name; from_symtab });
    (* derived-confidence entries ([From_symbol]) stay out of the map;
       only call-target discoveries need a stored tag, and a heuristic
       proposal that tagged this entry first keeps its tag *)
    if (not from_symtab) && addr <> t.image.Pbca_binfmt.Image.entry then
      set_conf t addr (conf_code From_call_target)
  end;
  (f, created)

let add_edge t ?jt src dst kind =
  let e =
    {
      e_src = src;
      e_dst = dst;
      e_kind = kind;
      e_flipped = false;
      e_dead = Atomic.make false;
      e_jt = jt;
    }
  in
  push_atomic src.b_out e;
  push_atomic dst.b_in e;
  Atomic.incr t.stats.edges_created;
  jemit t
    (Journal.Op_edge
       { src = src.b_start; dst = dst.b_start; kind = edge_kind_code kind; jt });
  e

let set_term t b insn =
  Atomic.set b.b_term insn;
  jemit t (Journal.Op_term { start = b.b_start; insn })

let set_degenerate t b =
  Atomic.set b.b_end b.b_start;
  jemit t
    (Journal.Op_end
       {
         start = b.b_start;
         end_ = b.b_start;
         ninsns = Atomic.get b.b_ninsns;
       })

let jemit_end t b end_ =
  jemit t
    (Journal.Op_end
       { start = b.b_start; end_; ninsns = Atomic.get b.b_ninsns })

let watch b f = push_atomic b.b_watchers f

(* Invariants 2-4: see the interface. The entry callback never touches the
   [ends] map again, so the per-shard lock cannot deadlock; it may touch
   [blocks] and [funcs] (different maps). *)
let register_end t block0 ~end_:end0 ~on_win ~on_done =
  let changed = ref [] in
  let rec go block end_ ~first =
    let continue_with =
      Addr_map.update t.ends end_ (fun cur ->
          match cur with
          | None ->
            Atomic.set block.b_end end_;
            if first then on_win block;
            jemit_end t block end_;
            changed := block :: !changed;
            (Some block, None)
          | Some other when other == block -> (Some other, None)
          | Some other ->
            Atomic.incr t.stats.splits;
            if other.b_start > block.b_start then begin
              (* we start earlier: shrink ourselves to [start, other.start)
                 and re-register at the smaller end; [other] keeps the
                 terminator. Out-edges we carried from an earlier split
                 iteration emanated from [end_] and are owned by [other],
                 which already holds the canonical copies — drop ours
                 (O_BER: outgoing edges go with the upper fragment). *)
              List.iter
                (fun e ->
                  Atomic.set e.e_dead true;
                  jemit t
                    (Journal.Op_edge_dead
                       {
                         src = e.e_src.b_start;
                         dst = e.e_dst.b_start;
                         kind = edge_kind_code e.e_kind;
                       }))
                (Atomic.exchange block.b_out []);
              Atomic.set block.b_end other.b_start;
              set_term t block None;
              jemit_end t block other.b_start;
              ignore (add_edge t block other Fallthrough);
              changed := block :: !changed;
              (Some other, Some (block, other.b_start))
            end
            else begin
              (* [other] starts earlier: it shrinks to [other.start, start);
                 we take over the terminator and its out-edges. If we
                 already carry canonical edges for [end_] from an earlier
                 split iteration, [other]'s copies are duplicates. *)
              let moved = Atomic.exchange other.b_out [] in
              if Atomic.get block.b_out = [] then
                List.iter
                  (fun e ->
                    let old_src = e.e_src.b_start in
                    e.e_src <- block;
                    push_atomic block.b_out e;
                    jemit t
                      (Journal.Op_edge_move
                         {
                           src = old_src;
                           dst = e.e_dst.b_start;
                           kind = edge_kind_code e.e_kind;
                           new_src = block.b_start;
                         }))
                  moved
              else
                List.iter
                  (fun e ->
                    Atomic.set e.e_dead true;
                    jemit t
                      (Journal.Op_edge_dead
                         {
                           src = e.e_src.b_start;
                           dst = e.e_dst.b_start;
                           kind = edge_kind_code e.e_kind;
                         }))
                  moved;
              set_term t block (Atomic.get other.b_term);
              set_term t other None;
              Atomic.set other.b_end block.b_start;
              jemit_end t other block.b_start;
              Atomic.set block.b_end end_;
              jemit_end t block end_;
              ignore (add_edge t other block Fallthrough);
              changed := other :: block :: !changed;
              (Some block, Some (other, block.b_start))
            end)
    in
    match continue_with with
    | None -> ()
    | Some (blk, e) -> go blk e ~first:false
  in
  go block0 end0 ~first:true;
  List.iter on_done !changed

let add_edge_at_end t ~end_ ~dst_addr kind =
  Addr_map.update t.ends end_ (fun cur ->
      match cur with
      | None -> (None, None)
      | Some owner ->
        let dst, created = find_or_create_block t dst_addr in
        ignore (add_edge t owner dst kind);
        (Some owner, Some (owner, dst, created)))

let blocks_list t =
  Addr_map.fold (fun _ b acc -> b :: acc) t.blocks []
  |> List.sort (fun a b -> compare a.b_start b.b_start)

let funcs_list t =
  Addr_map.fold (fun _ f acc -> f :: acc) t.funcs []
  |> List.sort (fun a b -> compare a.f_entry_addr b.f_entry_addr)

let pp_edge_kind fmt k =
  Format.pp_print_string fmt
    (match k with
    | Fallthrough -> "fallthrough"
    | Jump -> "jump"
    | Cond_taken -> "cond-taken"
    | Cond_fall -> "cond-fall"
    | Call -> "call"
    | Call_fallthrough -> "call-ft"
    | Indirect -> "indirect"
    | Tail_call -> "tailcall")
