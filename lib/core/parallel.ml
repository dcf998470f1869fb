module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg
module Semantics = Pbca_isa.Semantics
module Image = Pbca_binfmt.Image
module Symtab = Pbca_binfmt.Symtab
module Symbol = Pbca_binfmt.Symbol
module Task_pool = Pbca_concurrent.Task_pool
module Atomic_intset = Pbca_concurrent.Atomic_intset
module Trace = Pbca_obs.Trace
module Clock = Pbca_obs.Clock

type ctx = {
  g : Cfg.t;
  mutable spawn : (unit -> unit) -> unit;
  jt_pending : Reg.t Addr_map.t;
      (* keyed by the indirect jump's end address, which is stable across
         splits (Invariant 2); the owning block is looked up at analysis
         time *)
  jt_last : Jump_table.outcome Addr_map.t; (* latest outcome per end addr *)
}

(* Spawn [f] as one recorded task. It depends on the spawning task's
   current progress point, then on [deps]. *)
let spawn_traced ?addr ?(deps = []) ctx label f =
  let trace = ctx.g.Cfg.trace in
  let d = Trace.capture trace in
  ctx.spawn (fun () -> Trace.with_task trace ?addr ~deps:(d :: deps) label f)

(* ------------------------------------------------------------------ *)
(* Function bookkeeping.                                               *)

let func_name ctx addr =
  match Symtab.by_offset ctx.g.Cfg.image.Image.symtab addr with
  | s :: _ when Symbol.is_func s -> Symbol.pretty s
  | _ -> Printf.sprintf "func_0x%x" addr

let rec notify_watchers ctx (b : Cfg.block) =
  List.iter
    (fun f -> spawn_traced ctx "walk" (fun () -> process_block ctx f b))
    (Atomic.get b.Cfg.b_watchers)

and fire_fallthrough ctx ~dep ~call_end =
  match
    Cfg.add_edge_at_end ctx.g ~end_:call_end ~dst_addr:call_end
      Cfg.Call_fallthrough
  with
  | None -> ()
  | Some (owner, dst, created) ->
    (* the spawned work semantically depends on the callee's return status
       becoming known, not only on this call site's discovery *)
    let deps = [ dep ] in
    if created then
      spawn_traced ~deps ctx "parse" (fun () -> parse_block ctx dst);
    List.iter
      (fun f ->
        spawn_traced ~deps ctx "walk" (fun () -> process_block ctx f owner))
      (Atomic.get owner.Cfg.b_watchers)

(* Most calls name a function that already exists (every call site and
   tail call of a known callee): one wait-free lookup answers them. A
   function's entry block is created before the function, so a hit has
   nothing left to spawn; only a miss pays for the symbol-table name. *)
and ensure_func ctx addr =
  match Addr_map.find ctx.g.Cfg.funcs addr with
  | Some f -> f
  | None ->
    let b, bcreated = Cfg.find_or_create_block ctx.g addr in
    if bcreated then
      spawn_traced ~addr ctx "parse" (fun () -> parse_block ctx b);
    let f, created =
      Cfg.find_or_create_func ctx.g ~name:(func_name ctx addr)
        ~from_symtab:(Addr_map.mem ctx.g.Cfg.static_entries addr)
        addr
    in
    if created then begin
      Noreturn.seed_status ctx.g f;
      let entry = f.Cfg.f_entry in
      spawn_traced ctx "walk" (fun () -> process_block ctx f entry)
    end;
    f

(* ------------------------------------------------------------------ *)
(* Function traversal (Listing 3): walk the evolving graph from the
   function's entry, subscribing to every visited block so new edges and
   late block resolutions re-trigger the walk.                          *)

and process_block ctx (f : Cfg.func) (b0 : Cfg.block) =
  let g = ctx.g in
  if Cfg.past_deadline g then
    (* abandon the walk; the function keeps whatever was discovered *)
    Cfg.record_degraded g Cfg.B_deadline f.Cfg.f_entry_addr
  else begin
    process_block_loop ctx f b0
  end

and process_block_loop ctx (f : Cfg.func) (b0 : Cfg.block) =
  let g = ctx.g in
  let stack = ref [ b0 ] in
  let fire = fire_fallthrough ctx in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | b :: rest ->
      stack := rest;
      Trace.tick g.Cfg.trace 1;
      (* lock-free "first visitor wins": one CAS, no per-function mutex *)
      let first = Atomic_intset.add f.Cfg.f_visited b.Cfg.b_start in
      if first then Cfg.watch b f;
      if not (Cfg.is_candidate b) then begin
        (match Atomic.get b.Cfg.b_term with
        | Some Insn.Ret -> Noreturn.set_returns g f ~fire
        | _ -> ());
        List.iter
          (fun (e : Cfg.edge) ->
            match e.e_kind with
            | Cfg.Call -> () (* fall-through handled at the call site *)
            | Cfg.Tail_call ->
              (* The edge is registered before the parse task's post-actions
                 create the callee, so a walk can see the edge first. Create
                 the callee here (idempotent) rather than drop the
                 subscription: a dropped one leaves the caller Unset, and
                 [Noreturn.resolve_unset] would then make it non-returning. *)
              let callee = ensure_func ctx e.e_dst.Cfg.b_start in
              Noreturn.subscribe_tail_status g ~caller:f ~callee ~fire
            | Cfg.Fallthrough | Cfg.Jump | Cfg.Cond_taken | Cfg.Cond_fall
            | Cfg.Call_fallthrough | Cfg.Indirect ->
              let dst = e.e_dst in
              if not (Atomic_intset.mem f.Cfg.f_visited dst.Cfg.b_start) then
                stack := dst :: !stack)
          (Cfg.out_edges b)
      end
  done

(* ------------------------------------------------------------------ *)
(* Linear parsing and block-end registration (Invariants 2-4).         *)

and parse_block ctx (b : Cfg.block) =
  let g = ctx.g in
  if Cfg.past_deadline g then begin
    (* out of time: leave the block degenerate (same shape as "nothing
       decodable") so watchers unblock and the region can drain *)
    if Cfg.is_candidate b then begin
      Cfg.record_degraded g Cfg.B_deadline b.Cfg.b_start;
      Cfg.set_degenerate g b;
      notify_watchers ctx b
    end
  end
  else if Cfg.is_candidate b then begin
    let post : (unit -> unit) list ref = ref [] in
    let add_post a = post := a :: !post in
    (* terminator-edge creation, run under the ends-entry lock when this
       block wins the registration (Invariant 3) *)
    let on_win_cf insn ~addr ~len ~prev (blk : Cfg.block) =
      Cfg.set_term g blk (Some insn);
      let target kind t =
        (* A hostile relative branch can aim below address zero; no block
           can live there, so drop the edge and flag the site instead of
           poisoning the address-keyed structures. *)
        if t < 0 then Cfg.mark_degraded g blk.Cfg.b_start
        else begin
          let dst, created = Cfg.find_or_create_block g t in
          ignore (Cfg.add_edge g blk dst kind);
          if created then
            add_post (fun () ->
                spawn_traced ~addr:t ctx "parse" (fun () ->
                    parse_block ctx dst))
        end
      in
      let is_tail t =
        Addr_map.mem g.Cfg.static_entries t
        || (match prev with
           | Some p -> Semantics.is_stack_teardown p
           | None -> false)
      in
      match Semantics.flow ~addr ~len insn with
      | Semantics.Jump t ->
        if is_tail t then begin
          target Cfg.Tail_call t;
          if t >= 0 then add_post (fun () -> ignore (ensure_func ctx t))
        end
        else target Cfg.Jump t
      | Semantics.Cond_jump t ->
        if Addr_map.mem g.Cfg.static_entries t then begin
          target Cfg.Tail_call t;
          if t >= 0 then add_post (fun () -> ignore (ensure_func ctx t))
        end
        else target Cfg.Cond_taken t;
        target Cfg.Cond_fall (addr + len)
      | Semantics.Jump_indirect ->
        let reg =
          match insn with Insn.Jmp_ind r -> r | _ -> assert false
        in
        if Addr_map.insert_if_absent ctx.jt_pending (addr + len) reg then
          Cfg.journal_emit g
            (Journal.Op_jt_pending
               { end_ = addr + len; reg = Reg.to_int reg })
      | Semantics.Call_direct t ->
        target Cfg.Call t;
        let call_end = addr + len in
        if t >= 0 then
          add_post (fun () ->
              let callee = ensure_func ctx t in
              Noreturn.request_fallthrough g ~callee ~call_end
                ~fire:(fire_fallthrough ctx))
      | Semantics.Call_indirect ->
        (* no static callee: assume it returns (standard practice) *)
        target Cfg.Call_fallthrough (addr + len)
      | Semantics.Return | Semantics.Stop -> ()
      | Semantics.Fallthrough -> assert false
    in
    let max_bytes =
      Cfg.effective_budget g.Cfg.config.Config.max_block_bytes
    in
    let rec scan a n prev =
      (* Decode-byte budget: hostile bytes can form one endless straight
         line (no terminator before the section edge). Cut the scan here,
         keep the block (safe over-approximation) and mark it degraded. *)
      if max_bytes > 0 && a - b.Cfg.b_start >= max_bytes then begin
        Cfg.record_degraded g Cfg.B_block b.Cfg.b_start;
        Atomic.set b.Cfg.b_ninsns n;
        Cfg.register_end g b ~end_:a
          ~on_win:(fun _ -> ())
          ~on_done:(fun blk -> notify_watchers ctx blk)
      end
      (* Early stop at any already-known block start: the split protocol
         would produce the identical Fallthrough edge if we scanned on, so
         stopping here saves the work without changing the CFG. Now that
         [blocks] reads are wait-free this consults the *global* map — the
         old thread-local set only saw this thread's own parses. *)
      else if
        g.Cfg.config.Config.decode_cache
        && a <> b.Cfg.b_start
        && Addr_map.mem g.Cfg.blocks a
      then begin
        Atomic.set b.Cfg.b_ninsns n;
        Cfg.register_end g b ~end_:a
          ~on_win:(fun blk ->
            match Addr_map.find g.Cfg.blocks a with
            | Some dst -> ignore (Cfg.add_edge g blk dst Cfg.Fallthrough)
            | None -> ())
          ~on_done:(fun blk -> notify_watchers ctx blk)
      end
      else (
        match Image.decode_at g.Cfg.image a with
        | None ->
          Atomic.set b.Cfg.b_ninsns n;
          if a = b.Cfg.b_start then begin
            (* nothing decodable here: degenerate empty block *)
            Cfg.set_degenerate g b;
            notify_watchers ctx b
          end
          else
            Cfg.register_end g b ~end_:a
              ~on_win:(fun _ -> ())
              ~on_done:(fun blk -> notify_watchers ctx blk)
        | Some (insn, len) ->
          Atomic.incr g.Cfg.stats.insns_decoded;
          Trace.tick g.Cfg.trace 2;
          if Semantics.is_control_flow insn then begin
            Atomic.set b.Cfg.b_ninsns (n + 1);
            Cfg.register_end g b ~end_:(a + len)
              ~on_win:(on_win_cf insn ~addr:a ~len ~prev)
              ~on_done:(fun blk -> notify_watchers ctx blk)
          end
          else scan (a + len) (n + 1) (Some insn))
    in
    scan b.Cfg.b_start 0 None;
    List.iter (fun a -> a ()) (List.rev !post)
  end

(* ------------------------------------------------------------------ *)
(* Deferred jump-table analysis rounds (the fixed point of Section 5.3,
   run on quiescent graphs so every round's input is deterministic).    *)

let run_jt_analysis ctx end_addr reg =
  let g = ctx.g in
  match Addr_map.find g.Cfg.ends end_addr with
  | None -> ()
  | Some blk when Cfg.past_deadline g ->
    (* skip the analysis: the table stays unresolved, which is the safe
       over-approximation; mark the site so the checker can explain it *)
    Cfg.record_degraded g Cfg.B_deadline blk.Cfg.b_start;
    (match Disasm.terminator g blk with
    | Some (a, _, _) -> Cfg.mark_degraded ~deadline:true g a
    | None -> ())
  | Some blk ->
    let outcome = Jump_table.analyze g blk reg in
    Addr_map.update ctx.jt_last end_addr (fun _ -> (Some outcome, ()));
    let have = Hashtbl.create 16 in
    List.iter
      (fun (e : Cfg.edge) ->
        if e.e_kind = Cfg.Indirect then
          Hashtbl.replace have e.e_dst.Cfg.b_start ())
      (Cfg.out_edges blk);
    List.iter
      (fun t ->
        if not (Hashtbl.mem have t) then begin
          Hashtbl.replace have t ();
          match Cfg.add_edge_at_end g ~end_:end_addr ~dst_addr:t Cfg.Indirect with
          | None -> ()
          | Some (owner, dst, created) ->
            if created then
              spawn_traced ~addr:t ctx "parse" (fun () ->
                  parse_block ctx dst);
            notify_watchers ctx owner
        end)
      outcome.Jump_table.targets

let finish_tables ctx =
  let g = ctx.g in
  Addr_map.iter
    (fun jump_end _reg ->
      match (Addr_map.find g.Cfg.ends jump_end, Addr_map.find ctx.jt_last jump_end) with
      | Some blk, Some o when o.Jump_table.base <> None ->
        let count = o.Jump_table.entries in
        Pbca_concurrent.Conc_bag.add g.Cfg.tables
          {
            Cfg.jt_id = Atomic.fetch_and_add g.Cfg.next_table_id 1;
            jt_block = blk;
            jt_jump_addr =
              (match Disasm.terminator g blk with
              | Some (a, _, _) -> a
              | None -> jump_end);
            jt_base = Option.get o.Jump_table.base;
            jt_bounded = o.Jump_table.bounded;
            jt_count = count;
          }
      | _ -> ())
    ctx.jt_pending

(* ------------------------------------------------------------------ *)
(* Gap parsing (opt-in, [Config.gap_parse]): entry heuristics over the
   unclaimed [.text] ranges left by the symbol-seeded fixed point.
   Stripped binaries leave almost the whole section unclaimed; the
   proposals below recover function entries without symtab help and are
   tagged [From_heuristic] so consumers see the provenance honestly.    *)

(* Unclaimed ranges of [\[lo, hi)] given the quiescent block map. Every
   block claims at least its start byte — candidates and degenerates
   included: an address the traversal already proposed is not a gap,
   whatever came of it. [blocks_list] is sorted by start, so one sweep
   suffices. Zero-length ranges are never emitted.                      *)
let unclaimed_gaps g ~lo ~hi =
  let gaps = ref [] in
  let pos = ref lo in
  List.iter
    (fun (b : Cfg.block) ->
      let s = b.Cfg.b_start in
      if s >= lo && s < hi then begin
        if s > !pos then gaps := (!pos, s) :: !gaps;
        let e = max (s + 1) (min hi (Cfg.block_end b)) in
        pos := max !pos e
      end)
    (Cfg.blocks_list g);
  if !pos < hi then gaps := (!pos, hi) :: !gaps;
  List.rev !gaps

(* Alignment modulus of the alignment heuristic. *)
let gap_align = 16

(* Bound on gap-scan rounds (each round re-scans the gaps left by the
   previous one's discoveries): hostile images cannot keep the scanner
   alive past it. *)
let gap_max_rounds = 8

(* Entry proposals for one gap, in decreasing signal strength:
   - prologue: a frame-setup instruction at any position the in-gap
     linear sweep reaches opens a function;
   - call target: a direct call decoded inside the gap whose target also
     lies in unclaimed space — stripped code calling stripped code;
   - alignment: the first non-padding decodable offset of the gap when it
     sits on a unit boundary — unreferenced frameless functions follow
     their predecessor's padding.
   Direct-jump targets are deliberately NOT proposed: intra-function
   branches inside the same gap would mint spurious entries; genuine tail
   calls are recovered by the normal traversal once the proposal parses. *)
let propose_in_gap image ~in_gap (lo, hi) =
  let props = ref [] in
  let add a = if in_gap a then props := a :: !props in
  let rs = Linear_sweep.sweep_range image lo hi in
  Hashtbl.iter
    (fun a () ->
      match Image.decode_at image a with
      | Some (Insn.Enter _, _) -> add a
      | _ -> ())
    rs.Linear_sweep.rs_positions;
  List.iter
    (fun (blk : Linear_sweep.block) ->
      match blk.Linear_sweep.term with
      | None -> ()
      | Some insn -> (
        let len = Pbca_isa.Codec.encoded_length insn in
        let addr = blk.Linear_sweep.e - len in
        match Semantics.flow ~addr ~len insn with
        | Semantics.Call_direct t -> add t
        | _ -> ()))
    rs.Linear_sweep.rs_blocks;
  let rec skip_pad a =
    if a < hi then
      match Image.decode_at image a with
      | Some (Insn.Nop, len) -> skip_pad (a + len)
      | Some _ when a mod gap_align = 0 -> add a
      | _ -> ()
  in
  skip_pad lo;
  List.sort_uniq compare !props

(* ------------------------------------------------------------------ *)

type persist = { p_journal : string; p_checkpoint : string; p_every : int }

let parse ?(config = Config.default) ?(trace = Trace.disabled) ?persist ?resume
    ~pool image =
  (* root span: everything below (graph set-up, replay, regions, rounds,
     durable I/O) nests inside it, so span coverage accounts for the
     whole parse *)
  Trace.with_span trace ~phase:"total" "parse" @@ fun () ->
  (* monotonic start: wall-clock steps (NTP, manual set) must not
     corrupt the recorded progress or the deadline *)
  let t0 = Clock.now () in
  let sched0 = Task_pool.stats pool in
  let g = Cfg.create ~config ~trace image in
  let ctx =
    {
      g;
      spawn = (fun _ -> invalid_arg "Parallel: spawn outside region");
      jt_pending = Addr_map.create ~counters:g.Cfg.stats.contention ();
      jt_last = Addr_map.create ~counters:g.Cfg.stats.contention ();
    }
  in
  (* Resume: replay the durable op stream into the fresh graph before any
     region opens — replay is strictly single-threaded and unjournaled. *)
  let resumed_progress =
    match resume with
    | None -> 0.0
    | Some plan ->
      Trace.with_span trace ~phase:"recovery" "resume-replay" (fun () ->
          ignore
            (Recover.apply g plan ~on_jt_pending:(fun ~end_ ~reg ->
                 ignore
                   (Addr_map.insert_if_absent ctx.jt_pending end_
                      (Reg.of_int reg)))));
      plan.Recover.pl_progress_s
  in
  (* Resume seeding, captured while still quiescent: candidates re-parse,
     every function re-walks (rebuilding watchers, visited sets and the
     return-status fixed point), and every resolved call terminator
     re-fires its noreturn bookkeeping — waiter lists are not persisted,
     and the fall-through guard makes the re-fire idempotent. *)
  let resume_seed =
    match resume with
    | None -> None
    | Some _ ->
      let blocks = Cfg.blocks_list g in
      let candidates = List.filter Cfg.is_candidate blocks in
      let calls =
        List.filter_map
          (fun (b : Cfg.block) ->
            if Cfg.block_end b >= 0 then
              match Atomic.get b.Cfg.b_term with
              | Some insn -> Some (b, insn)
              | None -> None
            else None)
          blocks
      in
      Some (candidates, Cfg.funcs_list g, calls)
  in
  let round =
    ref (match resume with Some plan -> plan.Recover.pl_round + 1 | None -> 0)
  in
  let round_base = !round in
  let journal =
    match persist with
    | None -> None
    | Some p ->
      let w = Journal.create_writer ~path:p.p_journal in
      (match resume with
      | Some plan -> Journal.set_seq_floor w plan.Recover.pl_seq_max
      | None -> ());
      Some w
  in
  Cfg.set_journal g journal;
  let save_checkpoint () =
    match (persist, journal) with
    | Some p, Some w ->
      Trace.with_span trace ~phase:"recovery" "checkpoint-save" (fun () ->
          Checkpoint.save ~path:p.p_checkpoint ~round:!round
            ~pending:
              (List.map
                 (fun (a, r) -> (a, Reg.to_int r))
                 (Addr_map.to_list ctx.jt_pending))
            ~seq_floor:(Journal.last_seq w)
            ~progress_s:(resumed_progress +. Clock.elapsed t0)
            g)
    | _ -> ()
  in
  (* Quiescent point: regions drained, no emitter active. A pending
     simulated crash fires *before* the flush, so the dying round leaves
     no commit — exactly a process kill between two durable points. *)
  let quiesce ~checkpoint =
    Pbca_concurrent.Fault.check_crash ();
    (* quiescent point doubles as the span-buffer drain barrier: no task
       is mid-append, so the per-domain batches can move safely *)
    Trace.drain trace;
    match journal with
    | None -> ()
    | Some w ->
      Trace.with_span trace ~phase:"recovery" "journal-flush" (fun () ->
          Journal.flush w ~round:!round);
      (match persist with
      | Some p
        when checkpoint
             && (p.p_every <= 1 || (!round - round_base) mod p.p_every = 0) ->
        save_checkpoint ()
      | _ -> ());
      incr round
  in
  (* The initial checkpoint makes the artifact pair valid from the very
     first instant: a crash inside round 0 (or a second crash right after
     a resume, before new progress commits) resumes from here instead of
     failing to load anything. *)
  save_checkpoint ();
  let symbols =
    let funcs = Symtab.functions image.Image.symtab in
    let entries =
      List.sort_uniq compare
        ((if image.Image.entry <> 0 then [ image.Image.entry ] else [])
        @ List.map (fun (s : Symbol.t) -> s.offset) funcs)
    in
    Array.of_list entries
  in
  (* Fault containment: a crashing task must not take the parse down with
     it. Every region runs in collect mode; failures become diagnostics in
     [stats.task_failures] and the affected work degrades like any other
     budget cut. *)
  let run_contained site root =
    (* one region = one span: each jump-table fixed-point iteration shows
       up as its own "jt-round" interval in the trace *)
    Trace.with_span trace ~phase:"region" site (fun () ->
        List.iter
          (fun e ->
            Cfg.record_task_failure g ~site ~detail:(Printexc.to_string e))
          (Task_pool.run_collect pool root))
  in
  let journal_done = ref false in
  let detach_journal () =
    if not !journal_done then begin
      journal_done := true;
      Cfg.set_journal g None;
      match journal with None -> () | Some w -> Journal.close w
    end
  in
  (* This run's scheduler activity is the snapshot-diff of the pool's
     per-pool counters — immune to a concurrent parse on another pool
     and to resets racing this run. *)
  let record_run_stats () =
    let d =
      Task_pool.diff_stats ~before:sched0 ~after:(Task_pool.stats pool)
    in
    Atomic.set g.Cfg.stats.sched_steals d.Task_pool.steals;
    Atomic.set g.Cfg.stats.sched_steal_attempts d.Task_pool.steal_attempts;
    Atomic.set g.Cfg.stats.sched_idle_sleeps d.Task_pool.idle_sleeps
  in
  Fun.protect
    ~finally:(fun () ->
      record_run_stats ();
      detach_journal ())
    (fun () ->
      (* Stage 1: initialize functions from the symbol table, in parallel
         (Listing 2 line 1), then drain the traversal. On resume the same
         region also re-seeds the recovered frontier. *)
      run_contained "init" (fun spawn ->
          ctx.spawn <- spawn;
          Trace.with_task trace ~deps:[] "init" (fun () ->
              let chunk = 64 in
              let n = Array.length symbols in
              let rec spawn_chunks i =
                if i < n then begin
                  let hi = min n (i + chunk) in
                  spawn_traced ctx "init" (fun () ->
                      for k = i to hi - 1 do
                        Trace.tick trace 4;
                        ignore (ensure_func ctx symbols.(k))
                      done);
                  spawn_chunks hi
                end
              in
              spawn_chunks 0;
              match resume_seed with
              | None -> ()
              | Some (candidates, funcs, calls) ->
                List.iter
                  (fun b ->
                    spawn_traced ctx "parse" (fun () -> parse_block ctx b))
                  candidates;
                List.iter
                  (fun (f : Cfg.func) ->
                    Noreturn.seed_status g f;
                    spawn_traced ctx "walk" (fun () ->
                        process_block ctx f f.Cfg.f_entry))
                  funcs;
                List.iter
                  (fun ((b : Cfg.block), insn) ->
                    let len = Pbca_isa.Codec.encoded_length insn in
                    let call_end = Cfg.block_end b in
                    match
                      Semantics.flow ~addr:(call_end - len) ~len insn
                    with
                    | Semantics.Call_direct t when t >= 0 ->
                      let callee = ensure_func ctx t in
                      Noreturn.request_fallthrough g ~callee ~call_end
                        ~fire:(fire_fallthrough ctx)
                    | _ -> ())
                  calls));
      quiesce ~checkpoint:false;
      (* Stage 2: jump-table fixed point + deferred non-returning drains.
         Each round is a full synchronization: record it for the replay
         model, and commit it to the journal. *)
      let rec rounds n =
        let edges_before = Atomic.get g.Cfg.stats.edges_created in
        Trace.barrier trace;
        run_contained "jt-round" (fun spawn ->
            ctx.spawn <- spawn;
            Trace.with_task trace ~deps:[] "jt-round" (fun () ->
                Addr_map.iter
                  (fun end_addr reg ->
                    spawn_traced ~addr:end_addr ctx "jt" (fun () ->
                        run_jt_analysis ctx end_addr reg))
                  ctx.jt_pending));
        let fired =
          if not config.Config.eager_noreturn then begin
            let fired = ref false in
            run_contained "noreturn-drain" (fun spawn ->
                ctx.spawn <- spawn;
                fired := Noreturn.drain_pending g ~fire:(fire_fallthrough ctx));
            !fired
          end
          else false
        in
        let progress =
          Atomic.get g.Cfg.stats.edges_created <> edges_before || fired
        in
        quiesce ~checkpoint:true;
        if progress && n < 100_000 && not (Cfg.past_deadline g) then
          rounds (n + 1)
      in
      rounds 0;
      (* Stage 2.5 (opt-in): gap parsing. On the quiescent graph the
         unclaimed [.text] ranges are scanned for entry proposals;
         accepted proposals run through the ordinary traversal — budgets,
         journal and jump-table rounds included — tagged
         [From_heuristic]. Each round is a deterministic function of the
         quiescent graph, so a killed-and-resumed scan converges to the
         same CFG as an uninterrupted one.                               *)
      if config.Config.gap_parse then begin
        match Image.text_opt image with
        | None -> ()
        | Some text ->
          let stats = g.Cfg.stats in
          let lo = text.Pbca_binfmt.Section.addr in
          let hi = lo + Pbca_binfmt.Section.size text in
          let rec gap_round n =
            if n < gap_max_rounds && not (Cfg.past_deadline g) then begin
              let gaps = unclaimed_gaps g ~lo ~hi in
              ignore
                (Atomic.fetch_and_add stats.Cfg.gap_gaps_scanned
                   (List.length gaps));
              let in_gap a =
                List.exists (fun (l, h) -> a >= l && a < h) gaps
              in
              let proposals =
                List.sort_uniq compare
                  (List.concat_map (propose_in_gap image ~in_gap) gaps)
              in
              (* an address already carrying a tag was proposed by an
                 earlier (possibly pre-crash, replayed) round *)
              let proposals =
                List.filter (fun a -> Cfg.conf_at g a = None) proposals
              in
              if proposals <> [] then begin
                ignore
                  (Atomic.fetch_and_add stats.Cfg.gap_entries_proposed
                     (List.length proposals));
                Trace.barrier trace;
                (* provenance first, for ALL proposals, before ANY spawn:
                   the heuristic tag must reach the journal strictly
                   before the Op_func it describes (or replay would keep
                   the derived call-target tag), and a spawned walk that
                   calls into a later proposal must find it already
                   tagged — the write-once race would otherwise make the
                   tag schedule-dependent *)
                List.iter
                  (fun a ->
                    Cfg.set_conf g a (Cfg.conf_code Cfg.From_heuristic))
                  proposals;
                run_contained "gap-seed" (fun spawn ->
                    ctx.spawn <- spawn;
                    Trace.with_task trace ~deps:[] "gap-seed" (fun () ->
                        List.iter
                          (fun a ->
                            spawn_traced ~addr:a ctx "gap" (fun () ->
                                ignore (ensure_func ctx a)))
                          proposals));
                quiesce ~checkpoint:true;
                rounds 0 (* jump tables discovered inside gap code *);
                List.iter
                  (fun a ->
                    match Addr_map.find g.Cfg.blocks a with
                    | Some b when Cfg.block_end b > a ->
                      Atomic.incr stats.Cfg.gap_entries_accepted
                    | _ -> Atomic.incr stats.Cfg.gap_entries_rejected)
                  proposals;
                gap_round (n + 1)
              end
            end
          in
          gap_round 0
      end;
      (* Stage 3: unresolved statuses are non-returning (cyclic rule); no
         new fall-throughs can arise from that, so traversal is complete. *)
      Trace.with_span trace ~phase:"region" "finish-tables" (fun () ->
          Noreturn.resolve_unset g;
          finish_tables ctx);
      Trace.barrier trace;
      ctx.spawn <- (fun _ -> invalid_arg "Parallel: region closed");
      (* Final durable point: flush, snapshot the completed (pre-finalize)
         graph, then detach — finalization mutations are never journaled. *)
      quiesce ~checkpoint:false;
      save_checkpoint ();
      detach_journal ();
      g)

let parse_and_finalize ?config ?trace ?persist ?resume ~pool image =
  let g = parse ?config ?trace ?persist ?resume ~pool image in
  Trace.with_span g.Cfg.trace ~phase:"finalize" "finalize" (fun () ->
      Finalize.run ~pool g);
  Trace.drain g.Cfg.trace;
  g
