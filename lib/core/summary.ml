type block_sum = {
  bs_start : int;
  bs_end : int;
  bs_insns : int;
  bs_conf : int;
}

type edge_sum = { es_src : int; es_dst : int; es_kind : Cfg.edge_kind }

type func_sum = {
  fs_entry : int;
  fs_name : string;
  fs_returns : bool;
  fs_blocks : int list;
  fs_conf : int;
}

type t = {
  blocks : block_sum list;
  edges : edge_sum list;
  funcs : func_sum list;
}

let of_cfg g =
  (* Block confidence is derived, not stored: the strongest (lowest-code)
     confidence among the functions that own the block after boundary
     assignment. Blocks not owned by any function (pre-finalize, or
     stranded) fall back to their own entry tag, then to [From_symbol]. *)
  let fconf f = Cfg.conf_code (Cfg.func_confidence g f) in
  let block_conf = Hashtbl.create 1024 in
  List.iter
    (fun (f : Cfg.func) ->
      let c = fconf f in
      List.iter
        (fun (b : Cfg.block) ->
          let s = b.Cfg.b_start in
          match Hashtbl.find_opt block_conf s with
          | Some c' when c' <= c -> ()
          | _ -> Hashtbl.replace block_conf s c)
        f.Cfg.f_blocks)
    (Cfg.funcs_list g);
  let bconf (b : Cfg.block) =
    match Hashtbl.find_opt block_conf b.Cfg.b_start with
    | Some c -> c
    | None -> ( match Cfg.conf_at g b.Cfg.b_start with Some c -> c | None -> 0)
  in
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        {
          bs_start = b.b_start;
          bs_end = Cfg.block_end b;
          bs_insns = Atomic.get b.Cfg.b_ninsns;
          bs_conf = bconf b;
        })
      (Cfg.blocks_list g)
  in
  let edges =
    List.concat_map
      (fun (b : Cfg.block) ->
        List.map
          (fun (e : Cfg.edge) ->
            {
              es_src = e.e_src.Cfg.b_start;
              es_dst = e.e_dst.Cfg.b_start;
              es_kind = e.e_kind;
            })
          (Cfg.out_edges b))
      (Cfg.blocks_list g)
    |> List.sort_uniq compare
  in
  let funcs =
    List.map
      (fun (f : Cfg.func) ->
        {
          fs_entry = f.f_entry_addr;
          fs_name = f.f_name;
          fs_returns = Atomic.get f.Cfg.f_ret = Cfg.Returns;
          fs_blocks =
            List.sort compare
              (List.map (fun (b : Cfg.block) -> b.Cfg.b_start) f.Cfg.f_blocks);
          fs_conf = fconf f;
        })
      (Cfg.funcs_list g)
  in
  { blocks; edges; funcs }

let equal a b = a = b

let fingerprint t =
  Digest.to_hex (Digest.string (Marshal.to_string t []))

let kind_str k = Format.asprintf "%a" Cfg.pp_edge_kind k

let diff a b =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let module S = Set.Make (String) in
  let keyed name f xs = List.map (fun x -> name ^ " " ^ f x) xs in
  let bset t =
    S.of_list
      (keyed "block"
         (fun b ->
           Printf.sprintf "[0x%x,0x%x) n=%d conf=%s" b.bs_start b.bs_end
             b.bs_insns
             (Cfg.confidence_name (Cfg.conf_of_code b.bs_conf)))
         t.blocks)
  in
  let eset t =
    S.of_list
      (keyed "edge"
         (fun e -> Printf.sprintf "0x%x->0x%x %s" e.es_src e.es_dst (kind_str e.es_kind))
         t.edges)
  in
  let fset t =
    S.of_list
      (keyed "func"
         (fun f ->
           Printf.sprintf "0x%x %s ret=%b conf=%s blocks=%s" f.fs_entry
             f.fs_name f.fs_returns
             (Cfg.confidence_name (Cfg.conf_of_code f.fs_conf))
             (String.concat "," (List.map (Printf.sprintf "0x%x") f.fs_blocks)))
         t.funcs)
  in
  let report tag sa sb =
    S.iter (fun x -> add "only in %s: %s" tag x) (S.diff sa sb)
  in
  report "A" (bset a) (bset b);
  report "B" (bset b) (bset a);
  report "A" (eset a) (eset b);
  report "B" (eset b) (eset a);
  report "A" (fset a) (fset b);
  report "B" (fset b) (fset a);
  let all = List.rev !out in
  if List.length all > 50 then
    List.filteri (fun i _ -> i < 50) all @ [ "... (truncated)" ]
  else all

let func_ranges _g (f : Cfg.func) =
  let ranges =
    List.map
      (fun (b : Cfg.block) -> (b.Cfg.b_start, Cfg.block_end b))
      f.Cfg.f_blocks
  in
  let sorted = List.sort compare ranges in
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 -> merge ((a1, max b1 b2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

let pp_stats fmt (g : Cfg.t) =
  let s = g.Cfg.stats in
  let dc = g.Cfg.image.Pbca_binfmt.Image.dcache in
  (* scheduler numbers are this run's snapshot-diff (recorded by
     Parallel), not a process-global — a concurrent parse on another
     pool cannot leak into them *)
  Format.fprintf fmt
    "blocks=%d funcs=%d insns=%d splits=%d edges=%d jt=%d jt_unresolved=%d@ \
     %a@ decode_hits=%d decode_misses=%d decode_hit_rate=%.2f@ steals=%d \
     steal_attempts=%d idle_sleeps=%d"
    (Addr_map.length g.Cfg.blocks)
    (Addr_map.length g.Cfg.funcs)
    (Atomic.get s.insns_decoded) (Atomic.get s.splits)
    (Atomic.get s.edges_created) (Atomic.get s.jt_analyses)
    (Atomic.get s.jt_unresolved) Pbca_concurrent.Contention.pp s.contention
    (Pbca_binfmt.Decode_cache.hits dc)
    (Pbca_binfmt.Decode_cache.misses dc)
    (Pbca_binfmt.Decode_cache.hit_rate dc)
    (Atomic.get s.sched_steals)
    (Atomic.get s.sched_steal_attempts)
    (Atomic.get s.sched_idle_sleeps);
  let degraded = Cfg.degraded_count g in
  let failures = Cfg.task_failure_count g in
  if
    degraded > 0 || failures > 0
    || Atomic.get s.budget_block > 0
    || Atomic.get s.budget_slice > 0
    || Atomic.get s.budget_table > 0
    || Atomic.get s.budget_deadline > 0
  then
    Format.fprintf fmt
      "@ robustness: degraded=%d budget[block=%d slice=%d table=%d \
       deadline=%d] task_failures=%d"
      degraded
      (Atomic.get s.budget_block)
      (Atomic.get s.budget_slice)
      (Atomic.get s.budget_table)
      (Atomic.get s.budget_deadline)
      failures;
  if
    Atomic.get s.journal_records > 0
    || Atomic.get s.replayed_ops > 0
    || Atomic.get s.resume_count > 0
    || Atomic.get s.supervisor_restarts > 0
  then
    Format.fprintf fmt
      "@ recovery: journal_records=%d replayed_ops=%d resume_count=%d \
       supervisor_restarts=%d"
      (Atomic.get s.journal_records)
      (Atomic.get s.replayed_ops)
      (Atomic.get s.resume_count)
      (Atomic.get s.supervisor_restarts);
  if
    Atomic.get s.gap_gaps_scanned > 0
    || Atomic.get s.gap_entries_proposed > 0
  then begin
    let sym, ct, heur = Cfg.conf_counts g in
    Format.fprintf fmt
      "@ gap: gaps=%d proposed=%d accepted=%d rejected=%d \
       confidence[symbol=%d call-target=%d heuristic=%d]"
      (Atomic.get s.gap_gaps_scanned)
      (Atomic.get s.gap_entries_proposed)
      (Atomic.get s.gap_entries_accepted)
      (Atomic.get s.gap_entries_rejected)
      sym ct heur
  end;
  if Atomic.get s.deadline_checks > 0 then
    Format.fprintf fmt
      "@ deadline_clock: checks=%d polls=%d syscalls_saved=%d"
      (Atomic.get s.deadline_checks)
      (Atomic.get s.deadline_polls)
      (Atomic.get s.deadline_checks - Atomic.get s.deadline_polls);
  let fz = s.finalize in
  if fz.Cfg.fz_rounds > 0 then
    Format.fprintf fmt
      "@ finalize: rounds=%d snapshots=%d csr_deltas=%d csr_compactions=%d \
       dirty=[%s]@ finalize_wall_ms: \
       jt=%.2f reach=%.2f bounds=%.2f rules=%.2f prune=%.2f recount=%.2f \
       snapshot=%.2f"
      fz.Cfg.fz_rounds fz.Cfg.fz_snapshots
      (Atomic.get s.csr_deltas)
      (Atomic.get s.csr_compactions)
      (String.concat ";" (List.map string_of_int fz.Cfg.fz_dirty))
      (1000. *. fz.Cfg.fz_jt_wall)
      (1000. *. fz.Cfg.fz_reach_wall)
      (1000. *. fz.Cfg.fz_bounds_wall)
      (1000. *. fz.Cfg.fz_rules_wall)
      (1000. *. fz.Cfg.fz_prune_wall)
      (1000. *. fz.Cfg.fz_recount_wall)
      (1000. *. fz.Cfg.fz_snapshot_wall);
  (* phase breakdown from the span trace (when one was attached): total
     span wall per phase, the per-run answer to "where did time go" *)
  if Pbca_obs.Trace.enabled g.Cfg.otrace then begin
    match Pbca_obs.Trace.phase_walls g.Cfg.otrace with
    | [] -> ()
    | walls ->
      Format.fprintf fmt "@ phase_wall_ms:";
      List.iter
        (fun (phase, w) ->
          Format.fprintf fmt " %s=%.2f" phase (1000. *. w))
        walls
  end
