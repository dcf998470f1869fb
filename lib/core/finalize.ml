module Image = Pbca_binfmt.Image
module Section = Pbca_binfmt.Section
module Task_pool = Pbca_concurrent.Task_pool
module Atomic_intset = Pbca_concurrent.Atomic_intset
module Frontier = Pbca_concurrent.Frontier
module Trace = Pbca_simsched.Trace

(* ------------------------------------------------------------------ *)
(* Per-step observability: both entry points reset the graph's         *)
(* [finalize_stats] and attribute wall time to the step that spent it. *)
(* Monotonic clock — a wall-clock step mid-finalize must not produce   *)
(* negative (or inflated) per-step walls. Each timed call is also a    *)
(* span in the graph's observability trace.                            *)

let timed ?(phase = "fz-step") g name cell f =
  Pbca_obs.Trace.with_span g.Cfg.otrace ~phase name (fun () ->
      let t0 = Pbca_obs.Clock.now () in
      let r = f () in
      cell (Pbca_obs.Clock.elapsed t0);
      r)

let reset_stats (fz : Cfg.finalize_stats) =
  fz.Cfg.fz_jt_wall <- 0.0;
  fz.Cfg.fz_reach_wall <- 0.0;
  fz.Cfg.fz_bounds_wall <- 0.0;
  fz.Cfg.fz_rules_wall <- 0.0;
  fz.Cfg.fz_prune_wall <- 0.0;
  fz.Cfg.fz_recount_wall <- 0.0;
  fz.Cfg.fz_snapshot_wall <- 0.0;
  fz.Cfg.fz_rounds <- 0;
  fz.Cfg.fz_snapshots <- 0;
  fz.Cfg.fz_dirty <- []

let t_jt fz dt = fz.Cfg.fz_jt_wall <- fz.Cfg.fz_jt_wall +. dt
let t_reach fz dt = fz.Cfg.fz_reach_wall <- fz.Cfg.fz_reach_wall +. dt
let t_bounds fz dt = fz.Cfg.fz_bounds_wall <- fz.Cfg.fz_bounds_wall +. dt
let t_rules fz dt = fz.Cfg.fz_rules_wall <- fz.Cfg.fz_rules_wall +. dt
let t_prune fz dt = fz.Cfg.fz_prune_wall <- fz.Cfg.fz_prune_wall +. dt
let t_recount fz dt = fz.Cfg.fz_recount_wall <- fz.Cfg.fz_recount_wall +. dt
let t_snap fz dt = fz.Cfg.fz_snapshot_wall <- fz.Cfg.fz_snapshot_wall +. dt

(* ------------------------------------------------------------------ *)
(* Step 1: jump-table over-approximation cleanup.                      *)

let table_limit g (bases : int array) base =
  (* entries may extend to the next discovered table or the end of the
     enclosing section; the next table is the upper bound of [base] in
     the sorted base array *)
  let n = Array.length bases in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bases.(mid) <= base then lo := mid + 1 else hi := mid
  done;
  let section_end =
    match Image.find_section_at g.Cfg.image base with
    | Some s -> s.Section.addr + Section.size s
    | None -> base
  in
  if !lo < n then min bases.(!lo) section_end else section_end

let clean_jump_tables ~pool g =
  let tables = Pbca_concurrent.Conc_bag.to_list g.Cfg.tables in
  let bases =
    Array.of_list (List.sort compare (List.map (fun t -> t.Cfg.jt_base) tables))
  in
  let tarr = Array.of_list tables in
  Task_pool.parallel_for pool 0 (Array.length tarr) (fun i ->
      let t = tarr.(i) in
      Trace.tick g.Cfg.trace 8;
      let limit = table_limit g bases t.Cfg.jt_base in
      let max_entries = max 0 ((limit - t.Cfg.jt_base) / 4) in
      (* valid targets: the table's words up to the clamp *)
      let valid = Hashtbl.create 16 in
      for k = 0 to max_entries - 1 do
        match Image.u32 g.Cfg.image (t.Cfg.jt_base + (4 * k)) with
        | Some w -> Hashtbl.replace valid w ()
        | None -> ()
      done;
      List.iter
        (fun (e : Cfg.edge) ->
          if e.e_kind = Cfg.Indirect && not (Hashtbl.mem valid e.e_dst.Cfg.b_start)
          then Atomic.set e.e_dead true)
        (Cfg.out_edges t.Cfg.jt_block))

(* ------------------------------------------------------------------ *)
(* Legacy whole-graph steps (serial reachability, full boundary and    *)
(* rule passes each round). Kept as [run_legacy], the reference the    *)
(* finalize tests compare [run] against.                               *)

let reachable_blocks g =
  let seen = Hashtbl.create 4096 in
  let stack = ref [] in
  Addr_map.iter
    (fun addr _ ->
      if not (Hashtbl.mem seen addr) then begin
        Hashtbl.replace seen addr ();
        stack := addr :: !stack
      end)
    g.Cfg.funcs;
  let rec drain () =
    match !stack with
    | [] -> ()
    | addr :: rest ->
      stack := rest;
      (match Addr_map.find g.Cfg.blocks addr with
      | None -> ()
      | Some b ->
        List.iter
          (fun (e : Cfg.edge) ->
            let d = e.e_dst.Cfg.b_start in
            if not (Hashtbl.mem seen d) then begin
              Hashtbl.replace seen d ();
              stack := d :: !stack
            end)
          (Cfg.out_edges b));
      drain ()
  in
  drain ();
  seen

(* Drop a block from the address maps (the part of a block kill that the
   snapshot's own [Csr.kill_block] cannot do). *)
let unmap_block g (b : Cfg.block) =
  ignore (Addr_map.remove g.Cfg.blocks b.Cfg.b_start);
  let e = Cfg.block_end b in
  match Addr_map.find g.Cfg.ends e with
  | Some owner when owner == b -> ignore (Addr_map.remove g.Cfg.ends e)
  | _ -> ()

let kill_block g (b : Cfg.block) =
  List.iter (fun (e : Cfg.edge) -> Atomic.set e.e_dead true) (Atomic.get b.Cfg.b_out);
  List.iter (fun (e : Cfg.edge) -> Atomic.set e.e_dead true) (Atomic.get b.Cfg.b_in);
  unmap_block g b

let prune_unreachable g =
  let seen = reachable_blocks g in
  let dead = ref [] in
  Addr_map.iter
    (fun addr b -> if not (Hashtbl.mem seen addr) then dead := b :: !dead)
    g.Cfg.blocks;
  List.iter (kill_block g) !dead;
  !dead <> []

(* Worklist traversal of the intra-procedural out-edges from a function
   entry (the explicit stack replaces an unbounded recursion: degenerate
   fall-through chains are as deep as the function is long). *)
let boundary_blocks g (f : Cfg.func) =
  let seen = Hashtbl.create 64 in
  (match Addr_map.find g.Cfg.blocks f.Cfg.f_entry_addr with
  | None -> ()
  | Some entry ->
    let stack = ref [ entry ] in
    let rec drain () =
      match !stack with
      | [] -> ()
      | b :: rest ->
        stack := rest;
        if not (Hashtbl.mem seen b.Cfg.b_start) then begin
          Hashtbl.replace seen b.Cfg.b_start b;
          Trace.tick g.Cfg.trace 1;
          List.iter
            (fun (e : Cfg.edge) ->
              if Cfg.is_intra e.e_kind then stack := e.e_dst :: !stack)
            (Cfg.out_edges b)
        end;
        drain ()
    in
    drain ());
  Hashtbl.fold (fun _ b acc -> b :: acc) seen []
  |> List.sort (fun (a : Cfg.block) b -> compare a.Cfg.b_start b.Cfg.b_start)

let compute_boundaries ~pool g =
  let funcs = Array.of_list (Cfg.funcs_list g) in
  Task_pool.parallel_for pool 0 (Array.length funcs) (fun i ->
      let f = funcs.(i) in
      f.Cfg.f_blocks <- boundary_blocks g f);
  Array.length funcs

(* Membership map: block start -> functions containing it. *)
let funcs_of members addr =
  Option.value (Hashtbl.find_opt members addr) ~default:[]

let membership_add members (f : Cfg.func) =
  List.iter
    (fun (b : Cfg.block) ->
      Hashtbl.replace members b.Cfg.b_start (f :: funcs_of members b.Cfg.b_start))
    f.Cfg.f_blocks

let membership_remove members (f : Cfg.func) old_blocks =
  List.iter
    (fun (b : Cfg.block) ->
      match List.filter (fun g -> g != f) (funcs_of members b.Cfg.b_start) with
      | [] -> Hashtbl.remove members b.Cfg.b_start
      | fs -> Hashtbl.replace members b.Cfg.b_start fs)
    old_blocks

let membership g =
  let tbl = Hashtbl.create 4096 in
  List.iter (membership_add tbl) (Cfg.funcs_list g);
  tbl

let live_in_edges (b : Cfg.block) = Cfg.in_edges b

let correct_tail_calls g =
  let members = membership g in
  let flips = ref 0 in
  let all_edges =
    List.concat_map
      (fun (b : Cfg.block) -> Cfg.out_edges b)
      (Cfg.blocks_list g)
  in
  let edges =
    List.sort
      (fun (a : Cfg.edge) b ->
        compare
          (a.e_src.Cfg.b_start, a.e_dst.Cfg.b_start)
          (b.e_src.Cfg.b_start, b.e_dst.Cfg.b_start))
      all_edges
  in
  List.iter
    (fun (e : Cfg.edge) ->
      if not e.e_flipped then begin
        let dst = e.e_dst.Cfg.b_start in
        match e.e_kind with
        | Cfg.Jump | Cfg.Cond_taken ->
          (* rule 1: a branch marked not-a-tail-call whose target is a
             function entry (or has an incoming CALL edge), and is not a
             self-loop to the containing function's entry *)
          let target_is_entry =
            Addr_map.mem g.Cfg.funcs dst
            || List.exists
                 (fun (ie : Cfg.edge) -> ie.e_kind = Cfg.Call)
                 (live_in_edges e.e_dst)
          in
          let self_loop =
            List.exists
              (fun (f : Cfg.func) -> f.Cfg.f_entry_addr = dst)
              (funcs_of members e.e_src.Cfg.b_start)
          in
          if target_is_entry && not self_loop then begin
            e.e_kind <- Cfg.Tail_call;
            e.e_flipped <- true;
            incr flips
          end
        | Cfg.Tail_call ->
          (* rule 2: target lies within the boundary of a function that
             also contains the source *)
          let src_funcs = funcs_of members e.e_src.Cfg.b_start in
          let within =
            List.exists
              (fun (f : Cfg.func) ->
                f.Cfg.f_entry_addr <> dst
                && List.exists
                     (fun (b : Cfg.block) -> b.Cfg.b_start = dst)
                     f.Cfg.f_blocks)
              src_funcs
          in
          (* rule 3: the target's only incoming edge is this one (outlined
             code) *)
          let sole_in =
            match live_in_edges e.e_dst with [ only ] -> only == e | _ -> false
          in
          if
            (within || sole_in)
            && not (Addr_map.mem g.Cfg.static_entries dst)
          then begin
            e.e_kind <-
              (match Atomic.get e.e_src.Cfg.b_term with
              | Some (Pbca_isa.Insn.Jcc _) -> Cfg.Cond_taken
              | _ -> Cfg.Jump);
            e.e_flipped <- true;
            incr flips
          end
        | Cfg.Fallthrough | Cfg.Cond_fall | Cfg.Call | Cfg.Call_fallthrough
        | Cfg.Indirect ->
          ()
      end)
    edges;
  !flips > 0

(* Heuristic gap entries have no symbol and typically no incoming call —
   that absence is exactly why the gap scanner had to propose them, so it
   cannot be grounds for pruning. Keep the ones whose entry actually
   decoded; degenerate proposals (nothing decodable at the address) prune
   like any other stray function. *)
let keep_heuristic g addr =
  match Cfg.conf_at g addr with
  | Some c when Cfg.conf_of_code c = Cfg.From_heuristic -> (
    match Addr_map.find g.Cfg.blocks addr with
    | Some b -> Cfg.block_end b > addr
    | None -> false)
  | _ -> false

let prune_functions g =
  let doomed = ref [] in
  Addr_map.iter
    (fun addr (f : Cfg.func) ->
      if
        (not f.Cfg.f_from_symtab)
        && addr <> g.Cfg.image.Image.entry
        && not (keep_heuristic g addr)
      then begin
        let has_interproc_in =
          match Addr_map.find g.Cfg.blocks addr with
          | None -> false
          | Some b ->
            List.exists
              (fun (e : Cfg.edge) ->
                match e.e_kind with
                | Cfg.Call | Cfg.Tail_call -> true
                | _ -> false)
              (live_in_edges b)
        in
        if not has_interproc_in then doomed := addr :: !doomed
      end)
    g.Cfg.funcs;
  List.iter (fun addr -> ignore (Addr_map.remove g.Cfg.funcs addr)) !doomed;
  !doomed <> []

(* ------------------------------------------------------------------ *)
(* Snapshot-indexed steps. All of them read a [Csr.t] built from the   *)
(* current live graph. Steps that kill edges or blocks mark them dead  *)
(* through the snapshot's delta layer ([Csr.kill_block]) — O(1) per    *)
(* kill, no rebuild — and every reader below skips dead entries; the   *)
(* caller compacts (a fresh build) only when [Csr.needs_compact] says  *)
(* the dead fraction crossed the configured threshold. Kind flips      *)
(* mutate the shared edge records in place and never stale anything.   *)

(* Frontier-based level-synchronous parallel BFS over the snapshot's
   forward adjacency. [Atomic_intset.add] is the first-visitor-wins test,
   so each block index is pushed to a frontier at most once and the
   fixed-capacity buffers cannot overflow. Unreachable blocks are delta-
   killed in the snapshot and un-mapped from the graph. *)
let prune_unreachable_snap ~pool g (snap : Csr.t) =
  let n = Csr.n_blocks snap in
  if n = 0 then false
  else begin
    let visited =
      Atomic_intset.create ~capacity:(2 * n)
        ~counters:g.Cfg.stats.Cfg.contention ()
    in
    let cur = Frontier.create ~capacity:n in
    let nxt = Frontier.create ~capacity:n in
    Addr_map.iter
      (fun addr _ ->
        match Csr.index_of snap addr with
        | Some i ->
          if Csr.block_live snap i && Atomic_intset.add visited i then
            Frontier.push cur i
        | None -> ())
      g.Cfg.funcs;
    let rec levels cur nxt =
      let len = Frontier.length cur in
      if len > 0 then begin
        Task_pool.parallel_for pool ~chunk:64 0 len (fun p ->
            let i = Frontier.get cur p in
            Csr.iter_out snap i (fun k _ ->
                let d = snap.Csr.e_dst.(k) in
                if Atomic_intset.add visited d then Frontier.push nxt d));
        Frontier.clear cur;
        levels nxt cur
      end
    in
    levels cur nxt;
    (* already-dead blocks are not "newly unreachable": without the
       liveness filter the prune fixed point would spin on them forever *)
    let dead =
      Task_pool.parallel_for_reduce pool ~chunk:256 0 n ~init:[]
        ~map:(fun i ->
          if Atomic_intset.mem visited i || not (Csr.block_live snap i) then []
          else [ i ])
        ~combine:List.rev_append
    in
    List.iter
      (fun i ->
        ignore (Csr.kill_block snap i);
        unmap_block g snap.Csr.blocks.(i))
      dead;
    dead <> []
  end

(* Same traversal as [boundary_blocks] but over snapshot indices: no
   per-visit list filtering, no address hashing on the edge walk.
   Returns sorted block indices ([iter_out] already skips dead edges,
   and a killed entry block yields the empty boundary). *)
let boundary_idx g (snap : Csr.t) (f : Cfg.func) =
  match Csr.index_of snap f.Cfg.f_entry_addr with
  | None -> []
  | Some entry when not (Csr.block_live snap entry) -> []
  | Some entry ->
    let seen = Hashtbl.create 64 in
    let stack = ref [ entry ] in
    let acc = ref [] in
    while !stack <> [] do
      (match !stack with
      | [] -> ()
      | i :: rest ->
        stack := rest;
        if not (Hashtbl.mem seen i) then begin
          Hashtbl.replace seen i ();
          Trace.tick g.Cfg.trace 1;
          acc := i :: !acc;
          Csr.iter_out snap i (fun k (e : Cfg.edge) ->
              if Cfg.is_intra e.e_kind then
                stack := snap.Csr.e_dst.(k) :: !stack)
        end)
    done;
    List.sort compare !acc

let boundary_blocks_snap g (snap : Csr.t) (f : Cfg.func) =
  List.map (fun i -> snap.Csr.blocks.(i)) (boundary_idx g snap f)

(* Decide the correction rules for snapshot edge [k]. Pure reads: within
   a round the rules only consult Call-kind in-edges (flips never create
   or destroy a [Call]), boundary membership, the funcs map,
   [static_entries] and edge liveness — all stable while a round's scan
   runs — so evaluating edges in parallel chunks and applying the flips
   serially afterwards is equivalent to the legacy serial sorted pass. *)
let eval_rule g (snap : Csr.t) members k =
  let e : Cfg.edge = snap.Csr.edges.(k) in
  if e.e_flipped || not (Csr.edge_live snap k) then None
  else begin
    let dst = e.e_dst.Cfg.b_start in
    match e.e_kind with
    | Cfg.Jump | Cfg.Cond_taken ->
      let target_is_entry =
        Addr_map.mem g.Cfg.funcs dst
        ||
        let found = ref false in
        Csr.iter_in snap snap.Csr.e_dst.(k) (fun _ (ie : Cfg.edge) ->
            if ie.e_kind = Cfg.Call then found := true);
        !found
      in
      let self_loop =
        List.exists
          (fun (f : Cfg.func) -> f.Cfg.f_entry_addr = dst)
          (funcs_of members e.e_src.Cfg.b_start)
      in
      if target_is_entry && not self_loop then Some (k, Cfg.Tail_call)
      else None
    | Cfg.Tail_call ->
      let src_funcs = funcs_of members e.e_src.Cfg.b_start in
      let within =
        List.exists
          (fun (f : Cfg.func) ->
            f.Cfg.f_entry_addr <> dst
            && List.exists
                 (fun (b : Cfg.block) -> b.Cfg.b_start = dst)
                 f.Cfg.f_blocks)
          src_funcs
      in
      let sole_in =
        match Csr.sole_in snap snap.Csr.e_dst.(k) with
        | Some only -> only == e
        | None -> false
      in
      if (within || sole_in) && not (Addr_map.mem g.Cfg.static_entries dst)
      then
        Some
          ( k,
            match Atomic.get e.e_src.Cfg.b_term with
            | Some (Pbca_isa.Insn.Jcc _) -> Cfg.Cond_taken
            | _ -> Cfg.Jump )
      else None
    | _ -> None
  end

let prune_functions_snap g (snap : Csr.t) =
  let doomed = ref [] in
  Addr_map.iter
    (fun addr (f : Cfg.func) ->
      if
        (not f.Cfg.f_from_symtab)
        && addr <> g.Cfg.image.Image.entry
        && not (keep_heuristic g addr)
      then begin
        let has_interproc_in =
          match Csr.index_of snap addr with
          | None -> false
          | Some i ->
            let found = ref false in
            Csr.iter_in snap i (fun _ (e : Cfg.edge) ->
                match e.e_kind with
                | Cfg.Call | Cfg.Tail_call -> found := true
                | _ -> ());
            !found
        in
        if not has_interproc_in then doomed := addr :: !doomed
      end)
    g.Cfg.funcs;
  List.iter (fun addr -> ignore (Addr_map.remove g.Cfg.funcs addr)) !doomed;
  !doomed <> []

(* ------------------------------------------------------------------ *)

let run_legacy ~pool g =
  let fz = g.Cfg.stats.Cfg.finalize in
  reset_stats fz;
  timed g "jt-clean" (t_jt fz) (fun () -> clean_jump_tables ~pool g);
  ignore (timed g "reach" (t_reach fz) (fun () -> prune_unreachable g));
  (* tail-call correction: boundaries and rules alternate; each edge flips
     at most once so this converges quickly *)
  let rec fix n =
    let nfuncs = timed g "bounds" (t_bounds fz) (fun () -> compute_boundaries ~pool g) in
    (* accumulate newest-first, one [List.rev] at the end: the append
       form was quadratic in the round count *)
    fz.Cfg.fz_dirty <- nfuncs :: fz.Cfg.fz_dirty;
    let flipped = timed g "rules" (t_rules fz) (fun () -> correct_tail_calls g) in
    fz.Cfg.fz_rounds <- fz.Cfg.fz_rounds + 1;
    if flipped && n < 8 then fix (n + 1)
  in
  fix 0;
  (* removing functions can strand their blocks; removing blocks can strip
     a function's last incoming call — iterate to a (small) fixed point *)
  let rec prune n =
    let a = timed g "prune" (t_prune fz) (fun () -> prune_functions g) in
    let b =
      if a then timed g "reach" (t_reach fz) (fun () -> prune_unreachable g) else false
    in
    if (a || b) && n < 8 then prune (n + 1)
  in
  prune 0;
  ignore (timed g "bounds" (t_bounds fz) (fun () -> compute_boundaries ~pool g));
  (* instruction counts are approximate during parsing (splits shrink blocks
     concurrently); recompute them from the final block extents *)
  timed g "recount" (t_recount fz) (fun () ->
      let blocks = Array.of_list (Cfg.blocks_list g) in
      Task_pool.parallel_for pool 0 (Array.length blocks) (fun i ->
          let b = blocks.(i) in
          Atomic.set b.Cfg.b_ninsns (List.length (Disasm.block_insns g b))));
  fz.Cfg.fz_dirty <- List.rev fz.Cfg.fz_dirty

let run ~pool g =
  let fz = g.Cfg.stats.Cfg.finalize in
  reset_stats fz;
  timed g "jt-clean" (t_jt fz) (fun () -> clean_jump_tables ~pool g);
  let build ~phase =
    timed ~phase g phase (t_snap fz) (fun () ->
        fz.Cfg.fz_snapshots <- fz.Cfg.fz_snapshots + 1;
        Csr.build ~pool g)
  in
  let snap = ref (build ~phase:"csr-build") in
  (* Kills are deltas absorbed by the snapshot in place; a fresh build
     (compaction) happens only when the dead fraction crosses the
     configured threshold. [csr_deltas] counts the winning kills (the
     rebuilds the delta layer absorbed), [csr_compactions] the rebuilds
     it did not. *)
  let threshold = g.Cfg.config.Config.csr_compact_threshold in
  let counting_kills f =
    let v0 = Csr.version !snap in
    let r = f () in
    let dv = Csr.version !snap - v0 in
    if dv > 0 then
      ignore (Atomic.fetch_and_add g.Cfg.stats.Cfg.csr_deltas dv);
    r
  in
  let maybe_compact () =
    if Csr.needs_compact !snap ~threshold then begin
      Atomic.incr g.Cfg.stats.Cfg.csr_compactions;
      snap := build ~phase:"csr-compact"
    end
  in
  if
    timed g "reach" (t_reach fz) (fun () ->
        counting_kills (fun () -> prune_unreachable_snap ~pool g !snap))
  then maybe_compact ();
  (* Tail-call fix rounds: round 0 computes every boundary and scans every
     edge; later rounds recompute only the *dirty* functions — those whose
     boundary contained the source of an edge flipped in the previous
     round, the only boundaries a flip can change, since a traversal that
     never visits the flipped edge's source never follows (or stops
     following) that edge. The rule scan of a later round is fused with
     the boundary recompute into one sweep over the {e dirty frontier}:
     the out-edges of the blocks in the old and new boundaries of the
     dirty functions. That set covers every edge whose rule decision can
     have changed — within fix rounds edge liveness, the [Call]-edge set,
     the funcs map and [static_entries] are all invariant (flips never
     make or unmake a [Call]), so a decision changes only through the
     membership or boundary content of the edge's source block, and a
     source whose membership or containing boundary changed lies in an
     old or new boundary of a dirty function by definition. Flipped edges
     are final ([eval_rule] returns [None] forever), so skipping the rest
     of the edge array loses nothing.

     No fix step kills edges or blocks, so the snapshot (and its index
     space) is stable for the whole loop; the per-round scratch below is
     allocated once and reused (arena style) instead of per round. *)
  let members = Hashtbl.create 4096 in
  let all_funcs = Array.of_list (Cfg.funcs_list g) in
  let nfuncs = Array.length all_funcs in
  (* arenas: new-boundary slots, entry -> boundary indices, the frontier
     dedup bitset and the candidate-edge buffer (block dedup is edge
     dedup: distinct blocks own disjoint fwd slices) *)
  let newb = Array.make nfuncs [] in
  let bidx : (int, int list) Hashtbl.t = Hashtbl.create (2 * nfuncs) in
  let blk_seen = Pbca_concurrent.Atomic_bitset.create (Csr.n_blocks !snap) in
  let cand = Array.make (max 1 (Csr.n_edges !snap)) 0 in
  let cand_len = ref 0 in
  let mark_frontier i =
    if Pbca_concurrent.Atomic_bitset.set blk_seen i then begin
      let s = !snap in
      for k = s.Csr.fwd_off.(i) to s.Csr.fwd_off.(i + 1) - 1 do
        cand.(!cand_len) <- k;
        incr cand_len
      done
    end
  in
  let recompute ~collect (dirty : Cfg.func array) =
    timed g "bounds" (t_bounds fz) (fun () ->
        let nd = Array.length dirty in
        Task_pool.parallel_for pool 0 nd (fun i ->
            newb.(i) <- boundary_idx g !snap dirty.(i));
        for i = 0 to nd - 1 do
          let f = dirty.(i) in
          let old_idx =
            Option.value (Hashtbl.find_opt bidx f.Cfg.f_entry_addr) ~default:[]
          in
          membership_remove members f f.Cfg.f_blocks;
          f.Cfg.f_blocks <-
            List.map (fun j -> (!snap).Csr.blocks.(j)) newb.(i);
          membership_add members f;
          Hashtbl.replace bidx f.Cfg.f_entry_addr newb.(i);
          if collect then begin
            List.iter mark_frontier old_idx;
            List.iter mark_frontier newb.(i)
          end;
          newb.(i) <- []
        done)
  in
  let rec fix round (dirty : Cfg.func array) =
    fz.Cfg.fz_dirty <- Array.length dirty :: fz.Cfg.fz_dirty;
    let collect = round > 0 in
    if collect then begin
      Pbca_concurrent.Atomic_bitset.reset blk_seen;
      cand_len := 0
    end;
    recompute ~collect dirty;
    let decisions =
      timed g "rules" (t_rules fz) (fun () ->
          if collect then
            Task_pool.parallel_for_reduce pool ~chunk:256 0 !cand_len ~init:[]
              ~map:(fun p ->
                match eval_rule g !snap members cand.(p) with
                | Some d -> [ d ]
                | None -> [])
              ~combine:List.rev_append
          else
            Task_pool.parallel_for_reduce pool ~chunk:512 0
              (Csr.n_edges !snap) ~init:[]
              ~map:(fun k ->
                match eval_rule g !snap members k with
                | Some d -> [ d ]
                | None -> [])
              ~combine:List.rev_append)
    in
    fz.Cfg.fz_rounds <- fz.Cfg.fz_rounds + 1;
    if decisions <> [] then begin
      let next = Hashtbl.create 64 in
      List.iter
        (fun (k, nk) ->
          let e : Cfg.edge = (!snap).Csr.edges.(k) in
          e.e_kind <- nk;
          e.e_flipped <- true;
          List.iter
            (fun (f : Cfg.func) -> Hashtbl.replace next f.Cfg.f_entry_addr f)
            (funcs_of members e.e_src.Cfg.b_start))
        decisions;
      if round < 8 then
        fix (round + 1)
          (Hashtbl.fold (fun _ f acc -> f :: acc) next []
          |> List.sort (fun (a : Cfg.func) b ->
                 compare a.Cfg.f_entry_addr b.Cfg.f_entry_addr)
          |> Array.of_list)
    end
  in
  fix 0 all_funcs;
  (* function/block pruning to a fixed point; the unreachable prune kills
     through the delta layer, so every reader stays valid without a
     rebuild and compaction is purely a scan-speed decision *)
  let rec prune n =
    let a = timed g "prune" (t_prune fz) (fun () -> prune_functions_snap g !snap) in
    let b =
      if a then begin
        let p =
          timed g "reach" (t_reach fz) (fun () ->
              counting_kills (fun () -> prune_unreachable_snap ~pool g !snap))
        in
        if p then maybe_compact ();
        p
      end
      else false
    in
    if (a || b) && n < 8 then prune (n + 1)
  in
  prune 0;
  let funcs = Array.of_list (Cfg.funcs_list g) in
  (* the per-function passes below are recorded as tasks in their own
     trace epoch: the bounds work was previously tick'd outside any
     active task (and thus dropped), which hid a real parallel phase
     from the replay model *)
  Trace.barrier g.Cfg.trace;
  timed g "bounds" (t_bounds fz) (fun () ->
      Task_pool.parallel_for pool 0 (Array.length funcs) (fun i ->
          let f = funcs.(i) in
          Trace.run g.Cfg.trace ~label:"bounds" ~deps:[] (fun () ->
              f.Cfg.f_blocks <- boundary_blocks_snap g !snap f)));
  (* instruction counts are approximate during parsing (splits shrink
     blocks concurrently); recompute them from the final block extents —
     of the blocks still live in the (possibly delta-carrying) snapshot *)
  timed g "recount" (t_recount fz) (fun () ->
      let s = !snap in
      let blocks = s.Csr.blocks in
      Task_pool.parallel_for pool 0 (Array.length blocks) (fun i ->
          if Csr.block_live s i then begin
            let b = blocks.(i) in
            Atomic.set b.Cfg.b_ninsns (List.length (Disasm.block_insns g b))
          end));
  fz.Cfg.fz_dirty <- List.rev fz.Cfg.fz_dirty
