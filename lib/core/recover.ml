module Parse_error = Pbca_binfmt.Parse_error

type source = { src_checkpoint : string option; src_journal : string option }

type plan = {
  pl_ops : Journal.op list;
  pl_round : int;
  pl_resume_count : int;
  pl_progress_s : float;
  pl_counters : int array;
  pl_seq_max : int;
  pl_journal_torn : bool;
}

let load src =
  let base, floor, round, resume_count, progress_s, counters =
    match src.src_checkpoint with
    | None -> (Ok [], -1, -1, 0, 0.0, [||])
    | Some path -> (
      match Checkpoint.load ~path with
      | Error e -> (Error e, -1, -1, 0, 0.0, [||])
      | Ok snap ->
        ( Ok snap.Checkpoint.cp_ops,
          snap.Checkpoint.cp_seq_floor,
          snap.Checkpoint.cp_round,
          snap.Checkpoint.cp_resume_count,
          snap.Checkpoint.cp_progress_s,
          snap.Checkpoint.cp_counters ))
  in
  match base with
  | Error e -> Error e
  | Ok base_ops ->
    let tail =
      match src.src_journal with
      | None -> Journal.empty_tail ~torn:false
      | Some path -> Journal.read_committed path
    in
    (* ops already folded into the checkpoint are skipped; the rest were
       committed after the snapshot and are re-applied (idempotently — some
       may describe state the snapshot already contains if the two files
       raced, which re-application converges through) *)
    let tail_ops =
      List.filter_map
        (fun (seq, op) -> if seq > floor then Some op else None)
        tail.Journal.t_ops
    in
    Ok
      {
        pl_ops = base_ops @ tail_ops;
        pl_round = max round tail.Journal.t_last_round;
        pl_resume_count = resume_count;
        pl_progress_s = progress_s;
        pl_counters = counters;
        pl_seq_max = max floor tail.Journal.t_max_seq;
        pl_journal_torn = tail.Journal.t_torn;
      }

(* ------------------------------------------------------------------ *)
(* Replay. Runs on the master domain against a freshly created graph
   with {e no} journal attached — replayed ops must not re-journal
   themselves; the resumed run starts a fresh journal (plus an immediate
   checkpoint) once the graph is rebuilt.                               *)

let apply (g : Cfg.t) plan ~on_jt_pending =
  assert (g.Cfg.journal = None);
  let replayed = ref 0 in
  (* (src, dst, kind) -> live replayed edges, for dead/move resolution *)
  let registry : (int * int * int, Cfg.edge list) Hashtbl.t =
    Hashtbl.create 256
  in
  let reg_add key e =
    Hashtbl.replace registry key
      (e :: (try Hashtbl.find registry key with Not_found -> []))
  in
  let reg_pop key =
    match Hashtbl.find_opt registry key with
    | None | Some [] -> None
    | Some (e :: rest) ->
      Hashtbl.replace registry key rest;
      Some e
  in
  let deadline_marks = ref [] in
  (* Replay is single-threaded over a graph nobody else sees, so a plain
     hashtable can front the concurrent block map: the op stream touches
     each block several times (creation, end, terminator, every incident
     edge) and the memoized lookup makes replay cheaper than the decode
     work it replaces. *)
  let known : (int, Cfg.block) Hashtbl.t = Hashtbl.create 4096 in
  let block a =
    match Hashtbl.find_opt known a with
    | Some b -> b
    | None ->
      let b = fst (Cfg.find_or_create_block g a) in
      Hashtbl.add known a b;
      b
  in
  List.iter
    (fun op ->
      incr replayed;
      match (op : Journal.op) with
      | Journal.Op_block a -> if a >= 0 then ignore (block a)
      | Journal.Op_end { start; end_; ninsns } ->
        let b = block start in
        Atomic.set b.Cfg.b_end end_;
        Atomic.set b.Cfg.b_ninsns ninsns
      | Journal.Op_term { start; insn } ->
        Atomic.set (block start).Cfg.b_term insn
      | Journal.Op_edge { src; dst; kind; jt } ->
        let e =
          Cfg.add_edge g ?jt (block src) (block dst)
            (Cfg.edge_kind_of_code kind)
        in
        reg_add (src, dst, kind) e
      | Journal.Op_edge_dead { src; dst; kind } -> (
        match reg_pop (src, dst, kind) with
        | Some e -> Atomic.set e.Cfg.e_dead true
        | None -> ())
      | Journal.Op_edge_move { src; dst; kind; new_src } -> (
        match reg_pop (src, dst, kind) with
        | None -> ()
        | Some e ->
          let old = e.Cfg.e_src in
          let nb = block new_src in
          Atomic.set old.Cfg.b_out
            (List.filter (fun e' -> e' != e) (Atomic.get old.Cfg.b_out));
          e.Cfg.e_src <- nb;
          Atomic.set nb.Cfg.b_out (e :: Atomic.get nb.Cfg.b_out);
          reg_add (new_src, dst, kind) e)
      | Journal.Op_func { entry; name; from_symtab } ->
        if entry >= 0 then
          ignore (Cfg.find_or_create_func g ~name ~from_symtab entry)
      | Journal.Op_conf { addr; conf } ->
        (* write-once, so insert_if_absent makes re-application converge;
           seq order preserves which writer really won. [Op_conf] for a
           heuristic proposal precedes its [Op_func] in both live and
           materialized streams, so the replayed find_or_create_func's
           derived tag never shadows the stored one. *)
        Cfg.set_conf g addr conf
      | Journal.Op_degraded { addr; deadline } ->
        if deadline then deadline_marks := addr :: !deadline_marks
        else Cfg.mark_degraded g addr
      | Journal.Op_jt_pending { end_; reg } -> on_jt_pending ~end_ ~reg
      | Journal.Op_ret { entry; status } -> (
        (* checkpoint-only op; Op_func for [entry] precedes it in the
           materialized stream, so a miss means damage — skip, the
           resumed traversal re-derives the status. Only Returns (1) is
           applied: Noreturn is never emitted and would not be safe. *)
        match Addr_map.find g.Cfg.funcs entry with
        | Some f when status = 1 -> Atomic.set f.Cfg.f_ret Cfg.Returns
        | _ -> ())
      | Journal.Op_commit _ -> ())
    plan.pl_ops;
  (* Deadline-degraded degenerate blocks go back to candidates: their cut
     was an artifact of the old deadline, and the resumed run re-parses
     them under the renewed one. Their marks are dropped entirely (walk
     abandonments and skipped table analyses are also re-done: every
     function is re-walked and the jump-table frontier was preserved). *)
  List.iter
    (fun addr ->
      match Addr_map.find g.Cfg.blocks addr with
      | Some b when Cfg.block_end b = b.Cfg.b_start ->
        Atomic.set b.Cfg.b_end (-1);
        Atomic.set b.Cfg.b_term None;
        Atomic.set b.Cfg.b_ninsns 0
      | _ -> ())
    !deadline_marks;
  (* The ends map is not replayed op by op (split shrink ops would need
     their non-effects distinguished); at a quiescent commit it is exactly
     "every resolved non-degenerate block, keyed by its end" (Invariant 2),
     so rebuild it from the final block states. *)
  Addr_map.iter
    (fun _ (b : Cfg.block) ->
      let e = Cfg.block_end b in
      if e > b.Cfg.b_start then
        Addr_map.update g.Cfg.ends e (fun _ -> (Some b, ())))
    g.Cfg.blocks;
  (* Fall-through guards: every call site whose fall-through edge already
     exists must not fire a second one when the resumed traversal re-runs
     the noreturn protocol. *)
  Addr_map.iter
    (fun _ (b : Cfg.block) ->
      List.iter
        (fun (e : Cfg.edge) ->
          if e.Cfg.e_kind = Cfg.Call_fallthrough then
            ignore
              (Addr_map.insert_if_absent g.Cfg.ft_guard
                 e.Cfg.e_dst.Cfg.b_start ()))
        (Cfg.out_edges b))
    g.Cfg.blocks;
  (* Counters that replay cannot reconstruct (blocks/edges recount
     naturally; budget_deadline resets with the renewed deadline). *)
  Array.iteri
    (fun i v ->
      if i < Array.length Checkpoint.counter_names then
        Atomic.set
          (Pbca_obs.Metrics.counter g.Cfg.metrics Checkpoint.counter_names.(i))
          v)
    plan.pl_counters;
  ignore (Atomic.fetch_and_add g.Cfg.stats.Cfg.replayed_ops !replayed);
  Atomic.set g.Cfg.stats.Cfg.resume_count (plan.pl_resume_count + 1);
  !replayed
