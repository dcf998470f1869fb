(* PR9 gap parsing: heuristic entry discovery in unclaimed .text.
   Handcrafted images pin down each heuristic (prologue, call target) and
   each hostile shape (zero-length gaps, trailing junk, overlapping tails,
   jumps into the middle of an instruction); generated families cover the
   precision/recall gate, mutation robustness and crash-resume. *)

open Tutil
module Cfg = Pbca_core.Cfg
module Config = Pbca_core.Config
module Parallel = Pbca_core.Parallel
module Recover = Pbca_core.Recover
module Summary = Pbca_core.Summary
module Cfg_diff = Pbca_core.Cfg_diff
module Addr_map = Pbca_core.Addr_map
module Image = Pbca_binfmt.Image
module Section = Pbca_binfmt.Section
module Symtab = Pbca_binfmt.Symtab
module Parse_error = Pbca_binfmt.Parse_error
module Codec = Pbca_isa.Codec
module Fault = Pbca_concurrent.Fault
module Family = Pbca_codegen.Family
module Mutate = Pbca_codegen.Mutate
module Rng = Pbca_codegen.Rng
module Checker = Pbca_checker.Checker

let gap_cfg = { Config.default with Config.gap_parse = true }
let base = 0x1000

(* Assemble a raw symbol-less .text at [base]; the image entry point is the
   only seed the parser gets. *)
type item = I of Insn.t | B of int list

let raw_image items =
  let buf = Buffer.create 64 in
  List.iter
    (function
      | I i -> Codec.encode buf i
      | B bytes -> List.iter (fun b -> Buffer.add_char buf (Char.chr b)) bytes)
    items;
  Image.make ~name:"crafted" ~entry:base
    ~sections:[ Section.make ~name:".text" ~addr:base (Buffer.to_bytes buf) ]
    (Symtab.create ())

let parse_gap ?config ?persist ?resume ?(threads = 4) image =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  Parallel.parse_and_finalize
    ~config:(Option.value config ~default:gap_cfg)
    ?persist ?resume ~pool image

let parse_gap_serial image = Pbca_core.Serial.parse_and_finalize ~config:gap_cfg image

let assert_gap_deterministic image =
  let ref_sum = Summary.of_cfg (parse_gap_serial image) in
  List.iter
    (fun t ->
      let s = Summary.of_cfg (parse_gap ~threads:t image) in
      if not (Summary.equal ref_sum s) then
        Alcotest.failf "gap parse with %d threads diverged:\n%s" t
          (String.concat "\n" (Summary.diff ref_sum s)))
    [ 1; 2; 4 ]

let func_conf g addr =
  match Addr_map.find g.Cfg.funcs addr with
  | None -> Alcotest.failf "no function at %#x" addr
  | Some f -> Cfg.func_confidence g f

let no_func g addr =
  Alcotest.(check bool)
    (Printf.sprintf "no function at %#x" addr)
    true
    (Addr_map.find g.Cfg.funcs addr = None)

let gap_stats g =
  let s = g.Cfg.stats in
  ( Atomic.get s.Cfg.gap_gaps_scanned,
    Atomic.get s.Cfg.gap_entries_proposed,
    Atomic.get s.Cfg.gap_entries_accepted,
    Atomic.get s.Cfg.gap_entries_rejected )

(* The handcrafted layouts below hardcode encoded lengths; pin them so a
   codec change fails loudly here rather than as offset garbage. *)
let test_layout_assumptions () =
  List.iter
    (fun (i, n) ->
      Alcotest.(check int) (Insn.to_string i ^ " length") n (Codec.encoded_length i))
    [
      (Insn.Enter 8, 3);
      (Insn.Halt, 1);
      (Insn.Ret, 1);
      (Insn.Nop, 1);
      (Insn.Jmp 0, 5);
      (Insn.Call 0, 5);
      (Insn.Mov_rr (Reg.r1, Reg.r2), 3);
      (Insn.Mov_ri (Reg.r0, 42), 6);
    ]

(* .text exactly covered by the entry function: nothing to scan. *)
let test_zero_length_gap () =
  let img =
    raw_image [ I (Insn.Enter 8); I (Insn.Mov_rr (Reg.r1, Reg.r2)); I Insn.Halt ]
  in
  let g = parse_gap img in
  let scanned, proposed, accepted, _ = gap_stats g in
  Alcotest.(check int) "gaps scanned" 0 scanned;
  Alcotest.(check int) "entries proposed" 0 proposed;
  Alcotest.(check int) "entries accepted" 0 accepted;
  Alcotest.(check int) "funcs" 1 (List.length (Cfg.funcs_list g));
  assert_gap_deterministic img

(* Trailing undecodable junk: the gap is scanned and yields nothing. *)
let test_gap_at_section_end () =
  let img =
    raw_image [ I (Insn.Enter 8); I Insn.Halt; B (List.init 12 (fun _ -> 0xff)) ]
  in
  let g = parse_gap img in
  let scanned, proposed, accepted, _ = gap_stats g in
  Alcotest.(check int) "gaps scanned" 1 scanned;
  Alcotest.(check int) "entries proposed" 0 proposed;
  Alcotest.(check int) "entries accepted" 0 accepted;
  Alcotest.(check int) "funcs" 1 (List.length (Cfg.funcs_list g));
  assert_gap_deterministic img

(* A framed function hidden behind junk: found by the prologue heuristic. *)
let test_prologue_heuristic () =
  let img =
    raw_image
      [
        I (Insn.Enter 8); I Insn.Halt;               (* entry, [0x1000,0x1004) *)
        B (List.init 12 (fun _ -> 0xff));            (* junk to 0x1010 *)
        I (Insn.Enter 16);                           (* hidden f1 @ 0x1010 *)
        I (Insn.Mov_rr (Reg.r1, Reg.r2));
        I Insn.Ret;
      ]
  in
  let g = parse_gap img in
  Alcotest.(check string)
    "f1 is a heuristic discovery" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1010));
  let scanned, proposed, accepted, _ = gap_stats g in
  (* round 1 scans the whole gap; accepting f1 triggers round 2 over the
     still-unclaimed junk prefix, so the cumulative counter sees 2 *)
  Alcotest.(check int) "gaps scanned" 2 scanned;
  Alcotest.(check int) "entries proposed" 1 proposed;
  Alcotest.(check int) "entries accepted" 1 accepted;
  assert_gap_deterministic img

(* A frameless unaligned callee: only the call-target heuristic, applied to
   the sweep's decoded call, can find it. *)
let test_call_target_heuristic () =
  let img =
    raw_image
      [
        I (Insn.Enter 8); I Insn.Halt;               (* entry, [0x1000,0x1004) *)
        B (List.init 12 (fun _ -> 0xff));            (* junk to 0x1010 *)
        I (Insn.Enter 16);                           (* f1 @ 0x1010 *)
        I (Insn.Call 1);                             (* @0x1013, next 0x1018 -> 0x1019 *)
        I Insn.Ret;                                  (* @0x1018 *)
        I (Insn.Mov_rr (Reg.r1, Reg.r2));            (* frameless f2 @ 0x1019 *)
        I Insn.Ret;
      ]
  in
  let g = parse_gap img in
  Alcotest.(check string)
    "f1 heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1010));
  Alcotest.(check string)
    "f2 heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1019));
  assert_gap_deterministic img

(* Listing-1 shape inside a gap: two heuristic entries sharing one tail
   block. The tail is a block of both functions, not a function itself, and
   its summary confidence is the heuristic tag of its owners. *)
let test_overlapping_tails () =
  let stub rel = [ I (Insn.Enter 16); I (Insn.Jmp rel) ] in
  let img =
    raw_image
      ([ I (Insn.Enter 8); I Insn.Halt; B (List.init 12 (fun _ -> 0xff)) ]
      @ stub 8                                       (* f1a @ 0x1010, -> 0x1020 *)
      @ stub 0                                       (* f1b @ 0x1018, -> 0x1020 *)
      @ [ I (Insn.Mov_rr (Reg.r1, Reg.r2)); I Insn.Ret ] (* shared tail @ 0x1020 *))
  in
  let g = parse_gap img in
  Alcotest.(check string)
    "f1a heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1010));
  Alcotest.(check string)
    "f1b heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1018));
  no_func g 0x1020;
  Alcotest.(check bool)
    "shared tail block exists" true
    (List.exists (fun (b : Cfg.block) -> b.Cfg.b_start = 0x1020) (Cfg.blocks_list g));
  let s = Summary.of_cfg g in
  let tail =
    List.find
      (fun (b : Summary.block_sum) -> b.Summary.bs_start = 0x1020)
      s.Summary.blocks
  in
  Alcotest.(check int) "tail carries heuristic confidence" 2 tail.Summary.bs_conf;
  assert_gap_deterministic img

(* A proposed entry whose walk jumps into the middle of another function's
   instruction: overlapping shingled decode streams must neither crash nor
   perturb determinism. *)
let test_mid_instruction_entry () =
  let img =
    raw_image
      [
        I (Insn.Enter 8); I Insn.Halt;               (* entry, [0x1000,0x1004) *)
        B [ 0xff ];                                  (* desync byte @ 0x1004 *)
        I (Insn.Enter 32);                           (* proposal A @ 0x1005 *)
        I (Insn.Jmp 7);                              (* @0x1008, next 0x100d -> 0x1014 *)
        I Insn.Nop; I Insn.Nop; I Insn.Nop;          (* 0x100d..0x100f *)
        I (Insn.Enter 16);                           (* f1 @ 0x1010 *)
        I (Insn.Mov_ri (Reg.r0, 42));                (* @0x1013; 0x1014 is mid-insn *)
        I Insn.Ret;                                  (* @0x1019 *)
      ]
  in
  let g = parse_gap img in
  Alcotest.(check string)
    "A heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1005));
  Alcotest.(check string)
    "f1 heuristic" "heuristic"
    (Cfg.confidence_name (func_conf g 0x1010));
  (* the jump target inside Mov_ri became a block, never a function *)
  Alcotest.(check bool)
    "mid-instruction block exists" true
    (List.exists (fun (b : Cfg.block) -> b.Cfg.b_start = 0x1014) (Cfg.blocks_list g));
  no_func g 0x1014;
  assert_gap_deterministic img

(* Gap parsing on a fully symboled image must change nothing. *)
let test_noop_on_symboled_image () =
  let r = emit_spec (mk_spec [ diamond_fun (); loop_fun () ]) in
  let img = r.Emit.image in
  let g_off = parse_parallel img in
  let g_on = parse_gap img in
  Alcotest.(check bool)
    "summaries equal with and without gap parsing" true
    (Summary.equal (Summary.of_cfg g_off) (Summary.of_cfg g_on));
  let _, _, heur = Cfg.conf_counts g_on in
  Alcotest.(check int) "no heuristic functions" 0 heur;
  let _, _, accepted, _ = gap_stats g_on in
  Alcotest.(check int) "no accepted proposals" 0 accepted

(* The wild families are fully explained by the checker's taxonomy. *)
let test_families_explained () =
  List.iter
    (fun fam ->
      let r = Family.generate fam 0 in
      check_clean r.Emit.ground_truth (parse_parallel r.Emit.image))
    [ Family.Overlap; Family.Obfuscated ]

(* Aggregate entry-discovery precision and recall on the first stripped
   members, with the gates of `bench robustness`, which runs 16 members. *)
let test_stripped_precision_recall_gate () =
  let relevant = ref 0 and found = ref 0 and spurious = ref 0 in
  let heuristic = ref 0 and accepted = ref 0 in
  for i = 0 to 2 do
    let r = Family.generate Family.Stripped i in
    let g = parse_gap r.Emit.image in
    check_clean r.Emit.ground_truth g;
    let d = Checker.score_discovery r.Emit.ground_truth g in
    relevant := !relevant + d.Checker.ds_relevant;
    found := !found + d.Checker.ds_found;
    spurious := !spurious + d.Checker.ds_spurious;
    heuristic := !heuristic + d.Checker.ds_found_heuristic;
    let _, _, acc, _ = gap_stats g in
    accepted := !accepted + acc
  done;
  let precision = float_of_int !found /. float_of_int (!found + !spurious) in
  let recall = float_of_int !found /. float_of_int !relevant in
  if precision < 0.95 then
    Alcotest.failf "precision %.4f below gate 0.95" precision;
  if recall < 0.90 then Alcotest.failf "recall %.4f below gate 0.90" recall;
  Alcotest.(check bool) "heuristic entries found" true (!heuristic > 0);
  Alcotest.(check bool) "gap entries accepted" true (!accepted > 0)

(* Strip_symtab mutants must never crash a gap parse; nor may the first
   60 mutants of `bench robustness`'s gap fuzz corpus, which draws every
   mutation axis, Strip_symtab among them. *)
let test_strip_mutants_no_crash () =
  let pool = Pbca_concurrent.Task_pool.create ~threads:4 in
  for s = 0 to 15 do
    let rng = Rng.create (0x9a90 + s) in
    let img = (Emit.generate (Profile.coreutils_like (s mod 4))).Emit.image in
    let bytes = Mutate.apply ~rng Mutate.Strip_symtab img in
    match Image.read_result bytes with
    | Error _ -> ()
    | Ok mutant -> (
      try ignore (Parallel.parse_and_finalize ~config:gap_cfg ~pool mutant)
      with Parse_error.Error _ -> ())
  done;
  let pool = Pbca_concurrent.Task_pool.create ~threads:2 in
  let config = { gap_cfg with Config.deadline_s = 2.0 } in
  let bases =
    [
      (Emit.generate (Profile.coreutils_like 1)).Emit.image;
      (Emit.generate (Profile.coreutils_like 2)).Emit.image;
      (Family.generate Family.Stripped 0).Emit.image;
    ]
  in
  let strip_drawn = ref 0 in
  for s = 1 to 60 do
    let rng = Rng.create (0x9000 + s) in
    let kind, bytes = Mutate.mutate ~rng (List.nth bases (s mod 3)) in
    if kind = Mutate.Strip_symtab then incr strip_drawn;
    match Image.read_result bytes with
    | Error _ -> ()
    | Ok mutant -> (
      try ignore (Parallel.parse_and_finalize ~config ~pool mutant)
      with e ->
        Alcotest.failf "mutant %d crashed the gap parse: %s" s
          (Printexc.to_string e))
  done;
  Alcotest.(check bool) "Strip_symtab drawn" true (!strip_drawn > 0)

(* ---------------- crash-resume through the gap phase ------------------ *)

let with_artifacts f =
  let cp = Filename.temp_file "test_pr9" ".cp" in
  let j = cp ^ ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ cp; j; cp ^ ".tmp" ])
    (fun () -> f cp j)

let crashed_parse ~ordinal ~cp ~j image =
  let persist = { Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 } in
  Fun.protect
    ~finally:(fun () -> Fault.disarm ())
    (fun () ->
      Fault.arm_at [ ordinal ] Fault.Crash;
      try ignore (parse_gap ~persist image) with _ -> ())

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

(* Kill a checkpointed gap parse at assorted task ordinals — some land in
   the symbol-seeded phase, some inside gap rounds — and resume from the
   v3 artifacts. The resumed graph, including every confidence tag, must
   equal the clean parse. *)
let test_kill_resume_mid_gap_scan () =
  let image = (Family.generate Family.Stripped 0).Emit.image in
  let clean = parse_gap image in
  let _, _, clean_heur = Cfg.conf_counts clean in
  Alcotest.(check bool) "subject exercises heuristics" true (clean_heur > 0);
  List.iter
    (fun ordinal ->
      with_artifacts (fun cp j ->
          crashed_parse ~ordinal ~cp ~j image;
          match
            Recover.load
              { Recover.src_checkpoint = Some cp; src_journal = Some j }
          with
          | Error e ->
            Alcotest.failf "ordinal %d: recovery load failed: %s" ordinal
              (Parse_error.to_string e)
          | Ok plan ->
            let g = parse_gap ~resume:plan image in
            assert_graphs_equal
              ~what:(Printf.sprintf "kill at ordinal %d" ordinal)
              clean g;
            Alcotest.(check (triple int int int))
              (Printf.sprintf "ordinal %d: conf census survives resume" ordinal)
              (Cfg.conf_counts clean) (Cfg.conf_counts g)))
    [ 3; 17; 45; 90 ]

let suite =
  [
    quick "layout assumptions" test_layout_assumptions;
    quick "zero-length gap" test_zero_length_gap;
    quick "gap at section end" test_gap_at_section_end;
    quick "prologue heuristic" test_prologue_heuristic;
    quick "call-target heuristic" test_call_target_heuristic;
    quick "overlapping tails" test_overlapping_tails;
    quick "mid-instruction entry" test_mid_instruction_entry;
    quick "no-op on symboled image" test_noop_on_symboled_image;
    quick "families explained" test_families_explained;
    slow "stripped precision/recall gate" test_stripped_precision_recall_gate;
    slow "strip mutants never crash" test_strip_mutants_no_crash;
    slow "kill+resume mid gap scan" test_kill_resume_mid_gap_scan;
  ]
