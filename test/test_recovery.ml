(* Crash-durable checkpoint/resume: journal framing and commit-cut
   semantics, checkpoint round-trips and damage rejection, crash-resume
   equivalence across seeds and kill points, the supervisor's restart
   policy, and the coarsened deadline clock. *)

open Tutil
module Cfg = Pbca_core.Cfg
module Config = Pbca_core.Config
module Parallel = Pbca_core.Parallel
module Journal = Pbca_core.Journal
module Checkpoint = Pbca_core.Checkpoint
module Recover = Pbca_core.Recover
module Summary = Pbca_core.Summary
module Cfg_diff = Pbca_core.Cfg_diff
module Parse_error = Pbca_binfmt.Parse_error
module Fault = Pbca_concurrent.Fault
module Supervisor = Pbca_concurrent.Supervisor
module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg
module Profile = Pbca_codegen.Profile
module Emit = Pbca_codegen.Emit

let image_for seed = (Emit.generate (Profile.coreutils_like seed)).Emit.image

let parse ?config ?persist ?resume ?(threads = 4) image =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  Pbca_core.Parallel.parse_and_finalize ?config ?persist ?resume ~pool image

let with_artifacts f =
  let cp = Filename.temp_file "test_pr4" ".cp" in
  let j = cp ^ ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ cp; j; cp ^ ".tmp" ])
    (fun () -> f cp j)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_file path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b)

(* crash a checkpointed parse at [ordinal], leaving artifacts behind *)
let crashed_parse ?config ?threads ~ordinal ~cp ~j image =
  let persist = { Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 } in
  Fun.protect
    ~finally:(fun () -> Fault.disarm ())
    (fun () ->
      Fault.arm_at [ ordinal ] Fault.Crash;
      try ignore (parse ?config ?threads ~persist image) with _ -> ())

let load_plan ?(checkpoint = true) ~cp ~j () =
  Recover.load
    {
      Recover.src_checkpoint = (if checkpoint then Some cp else None);
      src_journal = Some j;
    }

let assert_graphs_equal ~what g_clean g_res =
  Alcotest.(check bool)
    (what ^ ": summaries equal")
    true
    (Summary.equal (Summary.of_cfg g_clean) (Summary.of_cfg g_res));
  let d = Cfg_diff.diff g_clean g_res in
  Alcotest.(check bool)
    (what ^ ": Cfg_diff empty")
    true
    (d.Cfg_diff.added = [] && d.Cfg_diff.removed = [] && d.Cfg_diff.changed = [])

(* --------------------------- journal -------------------------------- *)

let sample_ops =
  [
    Journal.Op_block 0x1000;
    Journal.Op_func { entry = 0x1000; name = "main"; from_symtab = true };
    Journal.Op_term
      { start = 0x1000; insn = Some (Insn.Mov_ri (Reg.r0, 42)) };
    Journal.Op_term { start = 0x1010; insn = None };
    Journal.Op_end { start = 0x1000; end_ = 0x1010; ninsns = 4 };
    Journal.Op_edge { src = 0x1000; dst = 0x1010; kind = 0; jt = None };
    Journal.Op_edge { src = 0x1000; dst = 0x1020; kind = 6; jt = Some (3, 7) };
    Journal.Op_edge_dead { src = 0x1000; dst = 0x1020; kind = 6 };
    Journal.Op_edge_move { src = 0x1000; dst = 0x1010; kind = 0; new_src = 0x1008 };
    Journal.Op_jt_pending { end_ = 0x1010; reg = 3 };
    Journal.Op_conf { addr = 0x1030; conf = 2 };
    Journal.Op_conf { addr = 0x1040; conf = 1 };
    Journal.Op_degraded { addr = 0x1010; deadline = true };
    Journal.Op_degraded { addr = 0x1020; deadline = false };
  ]

let test_journal_roundtrip () =
  with_artifacts (fun _cp j ->
      let w = Journal.create_writer ~path:j in
      List.iter (Journal.emit w) sample_ops;
      Journal.flush w ~round:0;
      Journal.emit w (Journal.Op_block 0x2000);
      Journal.flush w ~round:1;
      Journal.close w;
      let t = Journal.read_committed j in
      Alcotest.(check bool) "not torn" false t.Journal.t_torn;
      Alcotest.(check int) "last round" 1 t.Journal.t_last_round;
      let got = List.map snd t.Journal.t_ops in
      Alcotest.(check bool)
        "ops round-trip bit for bit" true
        (got = sample_ops @ [ Journal.Op_block 0x2000 ]);
      let seqs = List.map fst t.Journal.t_ops in
      Alcotest.(check bool)
        "seqs strictly ascending" true
        (List.sort_uniq compare seqs = seqs))

let test_journal_commit_cut () =
  with_artifacts (fun _cp j ->
      let w = Journal.create_writer ~path:j in
      Journal.emit w (Journal.Op_block 0x1000);
      Journal.flush w ~round:0;
      (* buffered but never flushed: must not survive the "crash" *)
      Journal.emit w (Journal.Op_block 0x2000);
      Journal.close w;
      let t = Journal.read_committed j in
      Alcotest.(check int) "only committed ops" 1 (List.length t.Journal.t_ops);
      Alcotest.(check bool)
        "the committed op" true
        (List.map snd t.Journal.t_ops = [ Journal.Op_block 0x1000 ]))

let test_journal_torn_tail () =
  with_artifacts (fun _cp j ->
      let w = Journal.create_writer ~path:j in
      List.iter (Journal.emit w) sample_ops;
      Journal.flush w ~round:0;
      Journal.close w;
      let before = Journal.read_committed j in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 j in
      output_string oc "\x0c\x00\x00\x00garbage torn tail bytes";
      close_out oc;
      let after = Journal.read_committed j in
      Alcotest.(check bool) "tail flagged torn" true after.Journal.t_torn;
      Alcotest.(check bool)
        "committed prefix intact" true
        (before.Journal.t_ops = after.Journal.t_ops))

let test_journal_crc_damage () =
  with_artifacts (fun _cp j ->
      let w = Journal.create_writer ~path:j in
      List.iter (Journal.emit w) sample_ops;
      Journal.flush w ~round:0;
      Journal.emit w (Journal.Op_block 0x3000);
      Journal.flush w ~round:1;
      Journal.close w;
      let whole = Journal.read_committed j in
      let n_whole = List.length whole.Journal.t_ops in
      let b = read_file j in
      (* flip one bit inside the last record: CRC must cut there, and the
         read must never raise *)
      let pos = Bytes.length b - 3 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      write_file j b;
      let t = Journal.read_committed j in
      Alcotest.(check bool) "flagged torn" true t.Journal.t_torn;
      Alcotest.(check bool)
        "only a prefix survives" true
        (List.length t.Journal.t_ops <= n_whole))

let test_journal_missing_file () =
  let t = Journal.read_committed "/nonexistent/journal" in
  Alcotest.(check int) "no ops" 0 (List.length t.Journal.t_ops);
  Alcotest.(check int) "no round" (-1) t.Journal.t_last_round

(* -------------------------- checkpoint ------------------------------ *)

let test_checkpoint_roundtrip () =
  with_artifacts (fun cp j ->
      let img = image_for 1 in
      ignore (parse ~persist:{ Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 } img);
      match Checkpoint.load ~path:cp with
      | Error e -> Alcotest.failf "load failed: %s" (Parse_error.to_string e)
      | Ok snap ->
        Alcotest.(check bool) "ops present" true (snap.Checkpoint.cp_ops <> []);
        Alcotest.(check int)
          "counters match wire order"
          (Array.length Checkpoint.counter_names)
          (Array.length snap.Checkpoint.cp_counters);
        Alcotest.(check bool)
          "progress preserved" true
          (snap.Checkpoint.cp_progress_s > 0.0);
        Alcotest.(check int) "first life" 0 snap.Checkpoint.cp_resume_count)

let test_checkpoint_damage_is_structured () =
  with_artifacts (fun cp j ->
      let img = image_for 1 in
      ignore (parse ~persist:{ Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 } img);
      let whole = read_file cp in
      (* every truncation must be a structured error, never an escape *)
      let len = Bytes.length whole in
      let step = max 1 (len / 37) in
      let pos = ref 0 in
      while !pos < len do
        write_file cp (Bytes.sub whole 0 !pos);
        (match Checkpoint.load ~path:cp with
        | Error
            ( Parse_error.Truncated _ | Parse_error.Bad_magic _
            | Parse_error.Bad_section _ ) ->
          ()
        | Error e ->
          Alcotest.failf "prefix %d: unexpected class %s" !pos
            (Parse_error.to_string e)
        | Ok _ -> Alcotest.failf "prefix %d loaded as Ok" !pos);
        pos := !pos + step
      done;
      (* bad magic *)
      let b = Bytes.copy whole in
      Bytes.blit_string "XXXX" 0 b 0 4;
      write_file cp b;
      (match Checkpoint.load ~path:cp with
      | Error (Parse_error.Bad_magic _) -> ()
      | _ -> Alcotest.fail "bad magic must be Bad_magic");
      (* missing file *)
      Sys.remove cp;
      match Checkpoint.load ~path:cp with
      | Error (Parse_error.Truncated _) -> ()
      | _ -> Alcotest.fail "missing checkpoint must be Truncated")

(* ----------------------- crash-resume equivalence -------------------- *)

let test_resume_equivalence () =
  (* >= 8 seeds x multiple kill points: killed-and-resumed == uninterrupted *)
  for seed = 1 to 8 do
    let img = image_for seed in
    let g_clean = parse img in
    List.iter
      (fun ordinal ->
        with_artifacts (fun cp j ->
            crashed_parse ~ordinal ~cp ~j img;
            match load_plan ~cp ~j () with
            | Error e ->
              Alcotest.failf "seed %d kill %d: load failed: %s" seed ordinal
                (Parse_error.to_string e)
            | Ok plan ->
              let g_res = parse ~resume:plan img in
              assert_graphs_equal
                ~what:(Printf.sprintf "seed %d kill %d" seed ordinal)
                g_clean g_res;
              Alcotest.(check int)
                "resume counted" 1
                (Atomic.get g_res.Cfg.stats.Cfg.resume_count)))
      [ 40; 250; 700 ]
  done

(* Resuming must cost less than redoing the work the kill threw away: the
   resumed expansion's wall over that lost work must average under 2x.
   Only expansion is timed, since finalization runs in full after a resume
   too; below 20 ms of lost work the ratio is timer noise, so that is the
   floor of the divisor. *)
let test_resume_overhead () =
  let threads = 2 and floor_s = 0.02 in
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let img = image_for 1 in
  let timed f =
    let t0 = Pbca_obs.Clock.now () in
    ignore (f () : Cfg.t);
    Pbca_obs.Clock.elapsed t0
  in
  let t_full = timed (fun () -> Parallel.parse ~pool img) in
  let ratios =
    List.map
      (fun ordinal ->
        with_artifacts (fun cp j ->
            crashed_parse ~threads ~ordinal ~cp ~j img;
            match load_plan ~cp ~j () with
            | Error e ->
              Alcotest.failf "kill %d: load failed: %s" ordinal
                (Parse_error.to_string e)
            | Ok plan ->
              let t_resume =
                timed (fun () -> Parallel.parse ~resume:plan ~pool img)
              in
              let lost = Float.max 0.0 (t_full -. plan.Recover.pl_progress_s) in
              t_resume /. Float.max lost floor_s))
      [ 60; 300 ]
  in
  let mean =
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
  in
  if mean >= 2.0 then
    Alcotest.failf "resume costs %.2fx the lost work (bound 2.0)" mean

let test_resume_torn_journal () =
  let img = image_for 2 in
  let g_clean = parse img in
  with_artifacts (fun cp j ->
      crashed_parse ~ordinal:700 ~cp ~j img;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 j in
      output_string oc "power loss mid-write \xde\xad";
      close_out oc;
      match load_plan ~cp ~j () with
      | Error e ->
        Alcotest.failf "torn tail must not fail recovery: %s"
          (Parse_error.to_string e)
      | Ok plan ->
        let g_res = parse ~resume:plan img in
        assert_graphs_equal ~what:"torn journal tail" g_clean g_res)

let test_resume_truncated_checkpoint_falls_back () =
  let img = image_for 3 in
  let g_clean = parse img in
  with_artifacts (fun cp j ->
      crashed_parse ~ordinal:700 ~cp ~j img;
      let b = read_file cp in
      write_file cp (Bytes.sub b 0 (Bytes.length b / 2));
      (match load_plan ~cp ~j () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated checkpoint must be rejected");
      (* journal-only retry reconstructs the same graph from scratch *)
      match load_plan ~checkpoint:false ~cp ~j () with
      | Error e ->
        Alcotest.failf "journal-only load is total: %s"
          (Parse_error.to_string e)
      | Ok plan ->
        Alcotest.(check bool) "ops replayed" true (plan.Recover.pl_ops <> []);
        let g_res = parse ~resume:plan img in
        assert_graphs_equal ~what:"journal-only fallback" g_clean g_res)

let test_resume_after_deadline_degraded_save () =
  (* a run degraded by its deadline saves deadline-marked state; resuming
     with a sane deadline re-does the lost work and converges to the
     uninterrupted graph, with the marks dropped *)
  let img = image_for 4 in
  let g_clean = parse img in
  with_artifacts (fun cp j ->
      let starved =
        { Config.default with Config.deadline_s = 1e-6; deadline_poll_every = 1 }
      in
      ignore
        (parse ~config:starved
           ~persist:{ Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 }
           img);
      match load_plan ~cp ~j () with
      | Error e -> Alcotest.failf "load failed: %s" (Parse_error.to_string e)
      | Ok plan ->
        let g_res = parse ~resume:plan img in
        assert_graphs_equal ~what:"deadline-degraded save" g_clean g_res;
        Alcotest.(check int)
          "deadline marks dropped" 0
          (Cfg.degraded_count g_res))

let test_resume_counters_surface () =
  let img = image_for 5 in
  with_artifacts (fun cp j ->
      crashed_parse ~ordinal:700 ~cp ~j img;
      match load_plan ~cp ~j () with
      | Error e -> Alcotest.failf "load failed: %s" (Parse_error.to_string e)
      | Ok plan ->
        with_artifacts (fun cp2 j2 ->
            let g =
              parse ~resume:plan
                ~persist:
                  { Parallel.p_journal = j2; p_checkpoint = cp2; p_every = 1 }
                img
            in
            let s = g.Cfg.stats in
            Alcotest.(check bool)
              "replayed_ops > 0" true
              (Atomic.get s.Cfg.replayed_ops > 0);
            Alcotest.(check bool)
              "journal_records > 0" true
              (Atomic.get s.Cfg.journal_records > 0);
            Alcotest.(check int) "resume_count" 1 (Atomic.get s.Cfg.resume_count);
            (* the stats line surfaces the recovery counters *)
            let txt = Format.asprintf "%a" Summary.pp_stats g in
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec go i =
                i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool)
              "pp_stats shows recovery" true
              (contains txt "recovery")))

(* --------------------------- supervisor ------------------------------ *)

let fast_cfg =
  { Supervisor.max_restarts = 3; backoff_base_s = 1e-4; backoff_cap_s = 1e-3 }

let test_supervisor_restart_then_success () =
  let attempts = ref [] in
  let job =
    {
      Supervisor.j_id = "flaky";
      j_run =
        (fun ~attempt ->
          attempts := attempt :: !attempts;
          if attempt < 2 then Supervisor.Crashed "boom" else Supervisor.Ok_clean);
    }
  in
  match Supervisor.run ~config:fast_cfg [ job ] with
  | [ r ] ->
    Alcotest.(check bool) "ended clean" true (r.Supervisor.r_outcome = Supervisor.Ok_clean);
    Alcotest.(check int) "two restarts" 2 r.Supervisor.r_restarts;
    Alcotest.(check (list int)) "attempt numbers" [ 0; 1; 2 ] (List.rev !attempts);
    Alcotest.(check int) "exit 0" 0 (Supervisor.worst_exit [ r ])
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let test_supervisor_gives_up () =
  let calls = ref 0 in
  let job =
    {
      Supervisor.j_id = "doomed";
      j_run =
        (fun ~attempt:_ ->
          incr calls;
          raise Exit);
    }
  in
  match Supervisor.run ~config:fast_cfg [ job ] with
  | [ r ] ->
    Alcotest.(check int) "initial + max_restarts attempts" 4 !calls;
    Alcotest.(check int) "restarts recorded" 3 r.Supervisor.r_restarts;
    Alcotest.(check bool)
      "outcome is crashed" true
      (match r.Supervisor.r_outcome with Supervisor.Crashed _ -> true | _ -> false);
    Alcotest.(check int) "exit 3" 3 (Supervisor.worst_exit [ r ])
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let test_supervisor_rejected_not_retried () =
  let calls = ref 0 in
  let job =
    {
      Supervisor.j_id = "malformed";
      j_run =
        (fun ~attempt:_ ->
          incr calls;
          Supervisor.Rejected "bad input");
    }
  in
  match Supervisor.run ~config:fast_cfg [ job ] with
  | [ r ] ->
    Alcotest.(check int) "one attempt only" 1 !calls;
    Alcotest.(check int) "no restarts" 0 r.Supervisor.r_restarts;
    Alcotest.(check int) "exit 2" 2 (Supervisor.worst_exit [ r ])
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let test_supervisor_isolation_and_worst_exit () =
  let ok = { Supervisor.j_id = "ok"; j_run = (fun ~attempt:_ -> Supervisor.Ok_clean) } in
  let deg =
    { Supervisor.j_id = "deg"; j_run = (fun ~attempt:_ -> Supervisor.Ok_degraded) }
  in
  let bad =
    { Supervisor.j_id = "bad"; j_run = (fun ~attempt:_ -> Supervisor.Rejected "x") }
  in
  let rs = Supervisor.run ~config:fast_cfg [ ok; bad; deg ] in
  Alcotest.(check int) "three reports" 3 (List.length rs);
  Alcotest.(check int) "worst exit" 2 (Supervisor.worst_exit rs);
  (* a sibling's failure never contaminates the others *)
  List.iter
    (fun (r : Supervisor.report) ->
      if r.r_id = "ok" then
        Alcotest.(check bool) "ok stayed ok" true (r.r_outcome = Supervisor.Ok_clean))
    rs

let test_backoff_curve () =
  let cfg =
    { Supervisor.max_restarts = 10; backoff_base_s = 0.01; backoff_cap_s = 1.0 }
  in
  Alcotest.(check (float 1e-9)) "k=0" 0.01 (Supervisor.backoff_delay cfg 0);
  Alcotest.(check (float 1e-9)) "k=1" 0.02 (Supervisor.backoff_delay cfg 1);
  Alcotest.(check (float 1e-9)) "k=3" 0.08 (Supervisor.backoff_delay cfg 3);
  Alcotest.(check (float 1e-9)) "capped" 1.0 (Supervisor.backoff_delay cfg 20)

(* ------------------------- deadline clock ---------------------------- *)

let small_image () = (emit_spec (mk_spec [ diamond_fun () ])).image

let test_deadline_clock_coarsening () =
  let config =
    { Config.default with Config.deadline_s = 3600.0; deadline_poll_every = 64 }
  in
  let g = Cfg.create ~config (small_image ()) in
  for _ = 1 to 1000 do
    ignore (Cfg.past_deadline g)
  done;
  let s = g.Cfg.stats in
  Alcotest.(check int) "every call checks" 1000 (Atomic.get s.Cfg.deadline_checks);
  Alcotest.(check int)
    "polls coarsened to 1/64th" 16
    (Atomic.get s.Cfg.deadline_polls)

let test_deadline_clock_latches () =
  let config =
    { Config.default with Config.deadline_s = 1e-9; deadline_poll_every = 8 }
  in
  let g = Cfg.create ~config (small_image ()) in
  Alcotest.(check bool) "first call trips" true (Cfg.past_deadline g);
  for _ = 1 to 50 do
    Alcotest.(check bool) "stays tripped" true (Cfg.past_deadline g)
  done;
  let s = g.Cfg.stats in
  Alcotest.(check int) "one poll, then latched" 1 (Atomic.get s.Cfg.deadline_polls);
  Alcotest.(check int) "latch skips the counter" 1 (Atomic.get s.Cfg.deadline_checks)

let test_deadline_clock_infinite_free () =
  let g = Cfg.create ~config:Config.default (small_image ()) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never past" false (Cfg.past_deadline g)
  done;
  Alcotest.(check int)
    "no accounting when unbounded" 0
    (Atomic.get g.Cfg.stats.Cfg.deadline_checks)

let suite =
  [
    quick "journal: all ops round-trip" test_journal_roundtrip;
    quick "journal: uncommitted tail dropped" test_journal_commit_cut;
    quick "journal: torn tail discarded silently" test_journal_torn_tail;
    quick "journal: CRC damage cuts, never raises" test_journal_crc_damage;
    quick "journal: missing file is empty" test_journal_missing_file;
    quick "checkpoint: save/load round-trip" test_checkpoint_roundtrip;
    quick "checkpoint: damage is a structured error"
      test_checkpoint_damage_is_structured;
    slow "resume: 8 seeds x 3 kill points Cfg_diff-equal"
      test_resume_equivalence;
    quick "resume: torn journal tail tolerated" test_resume_torn_journal;
    quick "resume: truncated checkpoint rejected, journal-only fallback"
      test_resume_truncated_checkpoint_falls_back;
    quick "resume: deadline-degraded save converges"
      test_resume_after_deadline_degraded_save;
    quick "resume: recovery counters surface" test_resume_counters_surface;
    quick "supervisor: restarts then succeeds" test_supervisor_restart_then_success;
    quick "supervisor: bounded restarts give up" test_supervisor_gives_up;
    quick "supervisor: rejected input not retried"
      test_supervisor_rejected_not_retried;
    quick "supervisor: job isolation + worst exit"
      test_supervisor_isolation_and_worst_exit;
    quick "supervisor: exponential backoff capped" test_backoff_curve;
    quick "deadline clock: polls 1 in N" test_deadline_clock_coarsening;
    quick "deadline clock: latches after tripping" test_deadline_clock_latches;
    quick "deadline clock: free when unbounded" test_deadline_clock_infinite_free;
    quick "resume: overhead under 2x the lost work" test_resume_overhead;
  ]
