(* Tests for serial and parallel CFG construction: determinism across
   schedules, ground-truth conformance, and every challenging construct of
   paper Section 2.1 exercised through hand-made specs. *)

open Tutil
module Cfg = Pbca_core.Cfg
module Spec = Pbca_codegen.Spec
module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg

let emit_funcs ?stubs funcs = (emit_spec (mk_spec ?stubs funcs)).image

(* ------------------------- basic shapes ------------------------------- *)

let test_straight_line () =
  let image =
    emit_funcs [ mk_fspec ~name:"f" [ blk ~body:[ Insn.Nop; Insn.Nop ] Spec.T_ret ] ]
  in
  let g = parse_serial image in
  let f = get_func g "f" in
  Alcotest.(check int) "one block" 1 (List.length f.f_blocks);
  Alcotest.(check bool) "returns" true (func_ret g "f" = `Ret)

let test_diamond () =
  let image = emit_funcs [ diamond_fun () ] in
  let g = parse_serial image in
  let f = get_func g "diamond" in
  Alcotest.(check int) "four blocks" 4 (List.length f.f_blocks);
  assert_deterministic image

let test_loop () =
  let image = emit_funcs [ loop_fun () ] in
  let g = parse_serial image in
  let f = get_func g "looper" in
  Alcotest.(check int) "four blocks" 4 (List.length f.f_blocks);
  (* the back edge exists *)
  let has_back =
    List.exists
      (fun (b : Cfg.block) ->
        List.exists
          (fun (e : Cfg.edge) -> e.e_dst.Cfg.b_start < b.Cfg.b_start)
          (Cfg.out_edges b))
      f.f_blocks
  in
  Alcotest.(check bool) "back edge" true has_back

(* ------------------------ block splitting ----------------------------- *)

let test_split_shared_tail () =
  (* two functions jump into the middle of a common code region: the parser
     must split blocks identically regardless of discovery order *)
  let f1 =
    mk_fspec ~name:"f1" ~frame:false
      [
        blk ~body:[ Insn.Mov_ri (Reg.r0, 1) ] Spec.T_fall;
        blk ~body:[ Insn.Mov_ri (Reg.r1, 2) ] Spec.T_fall;
        blk ~body:[ Insn.Mov_ri (Reg.r2, 3) ] Spec.T_ret;
      ]
  in
  (* f2 conditional-jumps into f1's block 1... expressed via a stub-free
     generated binary instead: just check split behavior with T_cond *)
  let f2 =
    mk_fspec ~name:"f2" ~frame:false
      [
        blk ~body:[ Insn.Cmp_ri (Reg.r1, 0) ] (Spec.T_cond (Insn.Eq, 2));
        blk ~body:[ Insn.Nop ] Spec.T_fall;
        blk ~body:[ Insn.Nop; Insn.Nop ] Spec.T_ret;
      ]
  in
  let image = emit_funcs [ f1; f2 ] in
  assert_deterministic image;
  let g = parse_serial image in
  (* f1's three straight-line spec blocks appear as one contiguous range *)
  let f = get_func g "f1" in
  Alcotest.(check int) "coalesced range count" 1
    (List.length (Pbca_core.Summary.func_ranges g f))

let test_split_point_exact () =
  (* craft a function where a branch targets the middle of a linear run *)
  let f =
    mk_fspec ~name:"s" ~frame:false
      [
        blk ~body:[ Insn.Cmp_ri (Reg.r1, 1) ] (Spec.T_cond (Insn.Eq, 2));
        blk ~body:[ Insn.Mov_ri (Reg.r0, 7) ] Spec.T_fall;
        (* <- branch target *)
        blk ~body:[ Insn.Mov_ri (Reg.r3, 8) ] Spec.T_ret;
      ]
  in
  let image = emit_funcs [ f ] in
  let g = parse_serial image in
  let f = get_func g "s" in
  (* block 2's start must be a block boundary: the Jcc edge target *)
  let starts = List.map (fun (b : Cfg.block) -> b.Cfg.b_start) f.f_blocks in
  let taken_target =
    List.concat_map
      (fun (b : Cfg.block) ->
        List.filter_map
          (fun (e : Cfg.edge) ->
            if e.e_kind = Cfg.Cond_taken then Some e.e_dst.Cfg.b_start else None)
          (Cfg.out_edges b))
      f.f_blocks
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "cond target is a block start" true
        (List.mem t starts))
    taken_target;
  assert_deterministic image

(* ---------------------- non-returning functions ----------------------- *)

let test_noreturn_leaf () =
  let ex = mk_fspec ~name:"exit" ~frame:false [ blk Spec.T_halt ] in
  let ex = { ex with Spec.fs_noreturn_leaf = true } in
  let caller =
    mk_fspec ~name:"caller"
      [
        blk (Spec.T_call_noret 1);
      ]
  in
  let image = emit_funcs [ caller; ex ] in
  let g = parse_serial image in
  Alcotest.(check bool) "exit is noreturn" true (func_ret g "exit" = `Noret);
  (* no call-fallthrough edge out of caller's call site *)
  let c = get_func g "caller" in
  let has_ft =
    List.exists
      (fun (b : Cfg.block) ->
        List.exists
          (fun (e : Cfg.edge) -> e.e_kind = Cfg.Call_fallthrough)
          (Cfg.out_edges b))
      c.f_blocks
  in
  Alcotest.(check bool) "no fall-through after noreturn call" false has_ft;
  (* caller itself cannot return *)
  Alcotest.(check bool) "caller is noreturn" true (func_ret g "caller" = `Noret)

let test_noreturn_chain () =
  (* f1 -> f2 -> f3 -> exit; every fall-through suppressed transitively *)
  let ex = { (mk_fspec ~name:"exit" ~frame:false [ blk Spec.T_halt ]) with Spec.fs_noreturn_leaf = true } in
  let wrap name callee = mk_fspec ~name [ blk (Spec.T_call_noret callee) ] in
  let image = emit_funcs [ wrap "f1" 1; wrap "f2" 2; wrap "f3" 3; ex ] in
  let g = parse_serial image in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " noreturn") true (func_ret g n = `Noret))
    [ "f1"; "f2"; "f3"; "exit" ];
  assert_deterministic image

let test_noreturn_cycle () =
  (* mutual recursion with no return instruction: the cyclic-dependency rule
     makes both non-returning (paper Section 2.1 component 3) *)
  let f name callee =
    mk_fspec ~name ~frame:false [ blk (Spec.T_tailcall callee) ]
  in
  let image = emit_funcs [ f "a" 1; f "b" 0 ] in
  let g = parse_serial image in
  Alcotest.(check bool) "a noreturn" true (func_ret g "a" = `Noret);
  Alcotest.(check bool) "b noreturn" true (func_ret g "b" = `Noret)

let test_returning_call_chain () =
  (* f calls g; g returns; f's fall-through must exist and f returns *)
  let gfun = mk_fspec ~name:"g" [ blk Spec.T_ret ] in
  let ffun =
    mk_fspec ~name:"f"
      [ blk (Spec.T_call 1); blk ~body:[ Insn.Nop ] Spec.T_ret ]
  in
  let image = emit_funcs [ ffun; gfun ] in
  let g = parse_serial image in
  Alcotest.(check bool) "g returns" true (func_ret g "g" = `Ret);
  Alcotest.(check bool) "f returns" true (func_ret g "f" = `Ret);
  let f = get_func g "f" in
  Alcotest.(check int) "f has both blocks" 2 (List.length f.f_blocks)

let test_tail_call_returns () =
  (* f tail-calls g; g returns, so f does too (status waiter) *)
  let gfun = mk_fspec ~name:"g" ~frame:false [ blk Spec.T_ret ] in
  let ffun = mk_fspec ~name:"f" [ blk (Spec.T_tailcall 1) ] in
  let image = emit_funcs [ ffun; gfun ] in
  let g = parse_serial image in
  Alcotest.(check bool) "f inherits return status" true (func_ret g "f" = `Ret)

let test_error_style_difference () =
  (* the paper's difference class 1: error() has a returning path, so the
     parser adds fall-throughs at error(nonzero) call sites that the ground
     truth marks noreturn — the checker must classify, not fail *)
  let p =
    { Profile.default with n_funcs = 25; with_error_style = true; p_noreturn_call = 0.2; seed = 31337 }
  in
  let r = Pbca_codegen.Emit.generate p in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  Alcotest.(check bool) "error itself returns" true (func_ret g "error" = `Ret)

(* ------------------------- jump tables -------------------------------- *)

let jt_fun ?(spilled = false) ?(targets = [ 2; 3; 4 ]) name =
  mk_fspec ~name
    [
      blk ~body:[ Insn.Mov_rr (Reg.of_int 2, Reg.r1) ]
        (Spec.T_jumptable { targets; spilled });
      blk Spec.T_ret; (* default *)
      blk ~body:[ Insn.Mov_ri (Reg.r0, 1) ] (Spec.T_jmp 1);
      blk ~body:[ Insn.Mov_ri (Reg.r0, 2) ] (Spec.T_jmp 1);
      blk ~body:[ Insn.Mov_ri (Reg.r0, 3) ] (Spec.T_jmp 1);
    ]

let test_jump_table_resolved () =
  let image = emit_funcs [ jt_fun "sw" ] in
  let g = parse_serial image in
  let tables = Pbca_concurrent.Conc_bag.to_list g.Cfg.tables in
  Alcotest.(check int) "one table" 1 (List.length tables);
  let t = List.hd tables in
  Alcotest.(check int) "three entries" 3 t.Cfg.jt_count;
  Alcotest.(check bool) "bounded" true t.Cfg.jt_bounded;
  let indirect =
    List.filter (fun (e : Cfg.edge) -> e.e_kind = Cfg.Indirect)
      (Cfg.out_edges t.Cfg.jt_block)
  in
  Alcotest.(check int) "three indirect edges" 3 (List.length indirect);
  assert_deterministic image

let test_jump_table_spilled () =
  let image = emit_funcs [ jt_fun ~spilled:true "sw" ] in
  let g = parse_serial image in
  Alcotest.(check int) "analysis failed as designed" 0
    (List.length (Pbca_concurrent.Conc_bag.to_list g.Cfg.tables));
  Alcotest.(check bool) "counted unresolved" true
    (Atomic.get g.Cfg.stats.jt_unresolved > 0)

let test_jump_table_duplicates () =
  let image = emit_funcs [ jt_fun ~targets:[ 2; 3; 2; 4; 2 ] "sw" ] in
  let g = parse_serial image in
  let t = List.hd (Pbca_concurrent.Conc_bag.to_list g.Cfg.tables) in
  Alcotest.(check int) "five entries" 5 t.Cfg.jt_count;
  let uniq =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Cfg.edge) ->
           if e.e_kind = Cfg.Indirect then Some e.e_dst.Cfg.b_start else None)
         (Cfg.out_edges t.Cfg.jt_block))
  in
  Alcotest.(check int) "three distinct targets" 3 (List.length uniq)

let test_jt_union_ablation () =
  (* with the union strategy off, a resolvable table still resolves (all
     paths analyzable); the spilled one still fails *)
  let config = { Pbca_core.Config.default with jt_union = false } in
  let image = emit_funcs [ jt_fun "sw" ] in
  let g = Pbca_core.Serial.parse_and_finalize ~config image in
  Alcotest.(check int) "resolved without union" 1
    (List.length (Pbca_concurrent.Conc_bag.to_list g.Cfg.tables))

(* ----------------------- shared code and tail calls ------------------- *)

let stub_spec mode =
  let mk i = mk_fspec ~name:(Printf.sprintf "sh%d" i) [ blk (Spec.T_stub 0); blk Spec.T_ret ] in
  (* note: block 1 is unreachable by design; sharers end in the stub *)
  mk_spec
    ~stubs:
      [
        {
          Spec.ss_body = [ Insn.Mov_ri (Reg.r0, -1) ];
          ss_ret = true;
          ss_mode = mode;
          ss_sharers = [ 0; 1; 2 ];
        };
      ]
    [ mk 0; mk 1; mk 2 ]

let test_stub_shared () =
  let r = emit_spec (stub_spec Spec.Shared) in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  (* the stub block belongs to all three sharers *)
  let stub_gf =
    List.find_opt
      (fun (f : Pbca_codegen.Ground_truth.gfun) -> f.gf_name = "stub_0")
      r.ground_truth.gt_funcs
  in
  Alcotest.(check bool) "no stub function in shared mode" true (stub_gf = None);
  let count =
    List.length
      (List.filter
         (fun (f : Cfg.func) ->
           List.length (Pbca_core.Summary.func_ranges g f) = 2)
         (Cfg.funcs_list g))
  in
  Alcotest.(check int) "three functions own two ranges" 3 count;
  assert_deterministic r.image

let test_stub_tail () =
  let r = emit_spec (stub_spec Spec.Tail) in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  (* the stub is its own symbol-less function *)
  let stub =
    List.find_opt (fun (f : Cfg.func) -> not f.f_from_symtab) (Cfg.funcs_list g)
  in
  Alcotest.(check bool) "stub function discovered" true (stub <> None);
  Alcotest.(check bool) "stub returns" true
    (Atomic.get (Option.get stub).f_ret = Cfg.Returns);
  (* sharers inherit the return status through the tail call *)
  Alcotest.(check bool) "sharer returns" true (func_ret g "sh0" = `Ret)

let test_stub_mixed_listing1 () =
  (* the Listing-1 ambiguity: finalization must converge to "everyone tail
     calls" and the result must be schedule-independent *)
  let r = emit_spec (stub_spec Spec.Mixed) in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  let stub =
    List.find_opt (fun (f : Cfg.func) -> not f.f_from_symtab) (Cfg.funcs_list g)
  in
  Alcotest.(check bool) "stub is a function" true (stub <> None);
  let stub = Option.get stub in
  let in_kinds =
    List.sort_uniq compare
      (List.map
         (fun (e : Cfg.edge) -> e.e_kind)
         (Cfg.in_edges stub.f_entry))
  in
  Alcotest.(check bool) "all entries are tail calls" true
    (in_kinds = [ Cfg.Tail_call ]);
  assert_deterministic ~threads:[ 1; 2; 4; 8 ] r.image

let test_cold_fragment () =
  (* cold eligibility depends on generated shapes; scan seeds for a binary
     that actually has outlined fragments *)
  let rec pick seed =
    if seed > 580 then Alcotest.fail "no cold fragments in 25 seeds"
    else
      let p = { Profile.default with n_funcs = 40; p_cold = 0.9; seed } in
      let r = Pbca_codegen.Emit.generate p in
      if
        List.exists
          (fun (f : Pbca_codegen.Ground_truth.gfun) -> f.gf_cold_parent <> None)
          r.ground_truth.gt_funcs
      then r
      else pick (seed + 1)
  in
  let r = pick 555 in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  let colds =
    List.filter
      (fun (f : Pbca_codegen.Ground_truth.gfun) -> f.gf_cold_parent <> None)
      r.ground_truth.gt_funcs
  in
  Alcotest.(check bool) "profile produced cold fragments" true (colds <> []);
  List.iter
    (fun (gf : Pbca_codegen.Ground_truth.gfun) ->
      match Pbca_core.Addr_map.find g.Cfg.funcs gf.gf_entry with
      | Some f ->
        Alcotest.(check int)
          (gf.gf_name ^ " is a single-block function")
          1
          (List.length f.f_blocks)
      | None -> Alcotest.failf "cold %s not parsed" gf.gf_name)
    colds

let test_secondary_entry () =
  let p = { Profile.default with n_funcs = 40; p_secondary_entry = 0.5; seed = 556 } in
  let r = Pbca_codegen.Emit.generate p in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  let e2s =
    List.filter
      (fun (f : Cfg.func) ->
        String.length f.f_name > 4
        && String.sub f.f_name (String.length f.f_name - 4) 4 = "__e2")
      (Cfg.funcs_list g)
  in
  Alcotest.(check bool) "secondary entries parsed" true (e2s <> []);
  (* at least one secondary shares blocks with its primary (a primary that
     tail-calls away immediately legitimately shares nothing) *)
  let some_shared =
    List.exists
      (fun (f2 : Cfg.func) ->
        let base = String.sub f2.f_name 0 (String.length f2.f_name - 4) in
        let f1 = get_func g base in
        let s1 = List.map (fun (b : Cfg.block) -> b.Cfg.b_start) f1.f_blocks in
        List.exists (fun (b : Cfg.block) -> List.mem b.Cfg.b_start s1) f2.f_blocks)
      e2s
  in
  Alcotest.(check bool) "some secondary shares code with its primary" true
    some_shared

(* ----------------------- determinism at scale ------------------------- *)

let test_determinism_sweep =
  slow "determinism: serial == parallel across 12 seeds x 3 thread counts"
    (fun () ->
      for i = 0 to 11 do
        let p = { (Profile.coreutils_like i) with seed = 42_000 + i } in
        let r = Pbca_codegen.Emit.generate p in
        assert_deterministic ~threads:[ 1; 2; 4 ] r.image
      done;
      (* Stripped members grow from the entry point alone, so tail calls
         often reach callees no symbol created. Repeated 2-domain runs
         give a walk many chances to see a tail-call edge before its
         callee exists; the walk must still subscribe to the callee's
         return status, or the caller is resolved noreturn. *)
      List.iter
        (fun i ->
          let r = Pbca_codegen.Family.generate Pbca_codegen.Family.Stripped i in
          assert_deterministic ~threads:(List.init 30 (fun _ -> 2)) r.image)
        [ 1; 2; 5 ])

let test_parallel_repeated =
  slow "determinism: repeated 4-thread runs identical" (fun () ->
      let p = { (Profile.coreutils_like 3) with seed = 90125 } in
      let r = Pbca_codegen.Emit.generate p in
      let reference = summary (parse_parallel ~threads:4 r.image) in
      for _ = 1 to 8 do
        let s = summary (parse_parallel ~threads:4 r.image) in
        if not (Pbca_core.Summary.equal reference s) then
          Alcotest.fail "parallel run diverged between repetitions"
      done)

let test_checker_corpus =
  slow "correctness: 20-binary corpus fully explained (Section 8.1)"
    (fun () ->
      for i = 0 to 19 do
        let r = Pbca_codegen.Emit.generate (Profile.coreutils_like i) in
        check_clean r.ground_truth (parse_serial r.image)
      done)

let test_cfg_diff_fuzz =
  (* Cfg_diff-level equivalence fuzz over the lock-free containers: beyond
     Summary equality, the structural differ must see zero added / removed /
     changed functions between a serial parse and parallel parses of the
     same binary, across a spread of profiles and seeds. *)
  slow "fuzz: serial vs parallel Cfg_diff-equivalent across 8 seeds"
    (fun () ->
      for i = 0 to 7 do
        let p = { (Profile.coreutils_like i) with seed = 77_000 + (i * 131) } in
        let r = Pbca_codegen.Emit.generate p in
        let gs = parse_serial r.image in
        List.iter
          (fun threads ->
            let gp = parse_parallel ~threads r.image in
            let d = Pbca_core.Cfg_diff.diff gs gp in
            if d.added <> [] || d.removed <> [] || d.changed <> [] then
              Alcotest.failf
                "seed %d, %d threads: serial/parallel diverged:@\n%s" i
                threads
                (Format.asprintf "%a" Pbca_core.Cfg_diff.pp d);
            Alcotest.(check int)
              (Printf.sprintf "seed %d: all funcs unchanged" i)
              (List.length (Pbca_core.Cfg.funcs_list gs))
              d.unchanged)
          [ 2; 4 ]
      done)

(* --------------------------- ablations -------------------------------- *)

let test_config_variants_same_cfg () =
  let p = { (Profile.coreutils_like 5) with seed = 777 } in
  let r = Pbca_codegen.Emit.generate p in
  let base = summary (parse_serial r.image) in
  let variants =
    [
      { Pbca_core.Config.default with decode_cache = false };
      { Pbca_core.Config.default with eager_noreturn = false };
      { Pbca_core.Config.default with shards = 4 };
    ]
  in
  List.iter
    (fun config ->
      let s = summary (Pbca_core.Serial.parse_and_finalize ~config r.image) in
      if not (Pbca_core.Summary.equal base s) then
        Alcotest.fail "config variant changed the final CFG")
    variants

let test_stats_sanity () =
  let p = { Profile.default with n_funcs = 50 } in
  let r = Pbca_codegen.Emit.generate p in
  let g = parse_serial r.image in
  let s = g.Cfg.stats in
  Alcotest.(check bool) "decoded instructions" true (Atomic.get s.insns_decoded > 0);
  Alcotest.(check bool) "blocks" true (Atomic.get s.blocks_created > 0);
  Alcotest.(check bool) "edges" true (Atomic.get s.edges_created > 0);
  Alcotest.(check bool) "block count consistent" true
    (List.length (Cfg.blocks_list g) <= Atomic.get s.blocks_created);
  Alcotest.(check bool) "decode cache hits" true
    (Pbca_binfmt.Decode_cache.hits r.image.Pbca_binfmt.Image.dcache > 0)

let test_empty_image () =
  let tab = Pbca_binfmt.Symtab.create () in
  let image =
    Pbca_binfmt.Image.make ~name:"empty"
      ~sections:[ Pbca_binfmt.Section.make ~name:".text" ~addr:0x1000 Bytes.empty ]
      tab
  in
  let g = parse_serial image in
  Alcotest.(check int) "no functions" 0 (List.length (Cfg.funcs_list g))

let suite =
  [
    quick "straight-line function" test_straight_line;
    quick "diamond" test_diamond;
    quick "loop" test_loop;
    quick "shared tails split deterministically" test_split_shared_tail;
    quick "split points are exact" test_split_point_exact;
    quick "noreturn leaf suppresses fall-through" test_noreturn_leaf;
    quick "noreturn chains propagate" test_noreturn_chain;
    quick "noreturn cycles resolve (rule 3)" test_noreturn_cycle;
    quick "returning call chain" test_returning_call_chain;
    quick "tail call propagates returns" test_tail_call_returns;
    quick "error-style difference classified" test_error_style_difference;
    quick "jump table resolved with bound" test_jump_table_resolved;
    quick "stack-spilled jump table fails as designed" test_jump_table_spilled;
    quick "jump table with duplicate entries" test_jump_table_duplicates;
    quick "jt union ablation" test_jt_union_ablation;
    quick "stub: shared mode (functions sharing code)" test_stub_shared;
    quick "stub: tail mode (own function)" test_stub_tail;
    quick "stub: mixed mode (Listing 1)" test_stub_mixed_listing1;
    quick "cold fragments" test_cold_fragment;
    quick "secondary entries share code" test_secondary_entry;
    test_determinism_sweep;
    test_parallel_repeated;
    test_checker_corpus;
    test_cfg_diff_fuzz;
    quick "config ablations keep the CFG" test_config_variants_same_cfg;
    quick "stats sanity" test_stats_sanity;
    quick "empty image" test_empty_image;
  ]

(* ----------------------- checker negative tests ----------------------- *)

(* The checker is only trustworthy if it actually catches damage: corrupt a
   correct parse in targeted ways and require a MISMATCH verdict. *)

let fresh_clean () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 25; seed = 1234 } in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  (r, g)

let test_checker_detects_missing_function () =
  let r, g = fresh_clean () in
  (* remove a function from the parse result *)
  let victim = List.nth (Cfg.funcs_list g) 3 in
  ignore (Pbca_core.Addr_map.remove g.Cfg.funcs victim.f_entry_addr);
  let rep = Pbca_checker.Checker.check r.ground_truth g in
  Alcotest.(check bool) "missing function flagged" false
    (Pbca_checker.Checker.clean rep)

let test_checker_detects_wrong_status () =
  let r, g = fresh_clean () in
  (* flip a returning function to noreturn *)
  let victim =
    List.find
      (fun (f : Cfg.func) -> Atomic.get f.f_ret = Cfg.Returns)
      (Cfg.funcs_list g)
  in
  Atomic.set victim.f_ret Cfg.Noreturn;
  let rep = Pbca_checker.Checker.check r.ground_truth g in
  Alcotest.(check bool) "status corruption flagged" false
    (Pbca_checker.Checker.clean rep)

let test_checker_detects_boundary_damage () =
  let r, g = fresh_clean () in
  (* drop a block from some multi-block function's boundary *)
  let victim =
    List.find
      (fun (f : Cfg.func) -> List.length f.Cfg.f_blocks > 2)
      (Cfg.funcs_list g)
  in
  victim.Cfg.f_blocks <- List.tl victim.Cfg.f_blocks;
  let rep = Pbca_checker.Checker.check r.ground_truth g in
  Alcotest.(check bool) "boundary corruption flagged" false
    (Pbca_checker.Checker.clean rep)

let test_checker_detects_lost_jump_table () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 30; p_jump_table = 0.3; seed = 77 } in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  (* kill the indirect edges of one resolvable table *)
  (match Pbca_concurrent.Conc_bag.to_list g.Cfg.tables with
  | t :: _ ->
    List.iter
      (fun (e : Cfg.edge) ->
        if e.e_kind = Cfg.Indirect then Atomic.set e.e_dead true)
      (Cfg.out_edges t.Cfg.jt_block)
  | [] -> Alcotest.fail "profile should produce tables");
  let rep = Pbca_checker.Checker.check r.ground_truth g in
  Alcotest.(check bool) "lost jump table flagged" false
    (Pbca_checker.Checker.clean rep)

let suite =
  suite
  @ [
      quick "checker catches a missing function" test_checker_detects_missing_function;
      quick "checker catches a wrong return status" test_checker_detects_wrong_status;
      quick "checker catches boundary damage" test_checker_detects_boundary_damage;
      quick "checker catches a lost jump table" test_checker_detects_lost_jump_table;
    ]

(* --------------------------- more edge cases --------------------------- *)

let test_icall_fallthrough () =
  let f =
    mk_fspec ~name:"ic"
      [ blk (Spec.T_icall 0); blk ~body:[ Insn.Nop ] Spec.T_ret ]
  in
  let gfun = mk_fspec ~name:"g" [ blk Spec.T_ret ] in
  let image = (emit_spec (mk_spec ~fptable:[| 1 |] [ f; gfun ])).image in
  let g = parse_serial image in
  let fn = get_func g "ic" in
  (* the indirect call always gets a fall-through edge *)
  let has_ft =
    List.exists
      (fun (b : Cfg.block) ->
        List.exists
          (fun (e : Cfg.edge) -> e.e_kind = Cfg.Call_fallthrough)
          (Cfg.out_edges b))
      fn.f_blocks
  in
  Alcotest.(check bool) "indirect call falls through" true has_ft;
  Alcotest.(check bool) "function returns" true (func_ret g "ic" = `Ret)

let test_halt_no_successors () =
  let f = mk_fspec ~name:"h" ~frame:false [ blk ~body:[ Insn.Nop ] Spec.T_halt ] in
  let image = (emit_spec (mk_spec [ f ])).image in
  let g = parse_serial image in
  let fn = get_func g "h" in
  Alcotest.(check int) "single block" 1 (List.length fn.f_blocks);
  Alcotest.(check int) "no out edges" 0
    (List.length (Cfg.out_edges (List.hd fn.f_blocks)));
  Alcotest.(check bool) "noreturn" true (func_ret g "h" = `Noret)

let test_entry_only_discovery () =
  (* no symbols at all: everything grows from the entry point *)
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 15; seed = 777 } in
  let image = Pbca_binfmt.Image.strip ~keep:(fun _ -> false) r.image in
  let g = parse_serial image in
  Alcotest.(check bool) "entry function exists" true
    (Pbca_core.Addr_map.mem g.Cfg.funcs image.Pbca_binfmt.Image.entry);
  Alcotest.(check bool) "callees discovered" true
    (List.length (Cfg.funcs_list g) > 1);
  assert_deterministic image

let test_split_stats_counted () =
  let r = emit_spec (stub_spec Spec.Shared) in
  let g = parse_serial r.image in
  Alcotest.(check bool) "splits occurred on shared code" true
    (Atomic.get g.Cfg.stats.splits >= 0);
  Alcotest.(check bool) "insns decoded counted" true
    (Atomic.get g.Cfg.stats.insns_decoded > 0)

let test_recursive_function () =
  (* direct recursion: call to self, fall-through enabled by own ret *)
  let f =
    mk_fspec ~name:"r"
      [
        blk ~body:[ Insn.Cmp_ri (Reg.r1, 0) ] (Spec.T_cond (Insn.Eq, 2));
        blk (Spec.T_call 0);
        blk Spec.T_ret;
      ]
  in
  let image = (emit_spec (mk_spec [ f ])).image in
  let g = parse_serial image in
  Alcotest.(check bool) "recursive function returns" true (func_ret g "r" = `Ret);
  let fn = get_func g "r" in
  Alcotest.(check bool) "all blocks in boundary" true
    (List.length fn.f_blocks >= 3);
  assert_deterministic image

let test_fingerprint_stability () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 20; seed = 31 } in
  let s1 = summary (parse_serial r.image) in
  let s2 = summary (parse_parallel ~threads:3 r.image) in
  Alcotest.(check string) "fingerprints equal"
    (Pbca_core.Summary.fingerprint s1)
    (Pbca_core.Summary.fingerprint s2);
  Alcotest.(check (list string)) "diff empty" [] (Pbca_core.Summary.diff s1 s2)

let suite =
  suite
  @ [
      quick "indirect call falls through" test_icall_fallthrough;
      quick "halt has no successors" test_halt_no_successors;
      quick "symbol-less image grows from the entry" test_entry_only_discovery;
      quick "stats counters populated" test_split_stats_counted;
      quick "direct recursion" test_recursive_function;
      quick "fingerprints stable across schedules" test_fingerprint_stability;
    ]

(* ----------------- finalization rules in isolation -------------------- *)

let test_rule3_single_sharer_merges () =
  (* one function tail-jumps into an outlined stub: finalization rule 3
     ("target has only this edge incoming") must fold the stub back in *)
  let sharer = mk_fspec ~name:"only" [ blk (Spec.T_stub 0); blk Spec.T_ret ] in
  let spec =
    mk_spec
      ~stubs:
        [
          {
            Spec.ss_body = [ Insn.Mov_ri (Reg.r0, -1) ];
            ss_ret = true;
            ss_mode = Spec.Tail;
            ss_sharers = [ 0 ];
          };
        ]
      [ sharer ]
  in
  let r = emit_spec spec in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  (* no symbol-less function survives *)
  Alcotest.(check bool) "stub merged into its only sharer" true
    (List.for_all (fun (f : Cfg.func) -> f.f_from_symtab) (Cfg.funcs_list g));
  (* the sharer owns the stub's range *)
  let f = get_func g "only" in
  Alcotest.(check int) "two coalesced ranges" 2
    (List.length (Pbca_core.Summary.func_ranges g f));
  Alcotest.(check bool) "sharer returns through the stub" true
    (func_ret g "only" = `Ret);
  assert_deterministic r.image

let test_rule1_flips_plain_jump () =
  (* Mixed stub with one tearing and one plain sharer: after finalization
     BOTH edges must be tail calls (rule 1 flips the plain one) *)
  let mk i = mk_fspec ~name:(Printf.sprintf "m%d" i) [ blk (Spec.T_stub 0); blk Spec.T_ret ] in
  let spec =
    mk_spec
      ~stubs:
        [
          {
            Spec.ss_body = [];
            ss_ret = true;
            ss_mode = Spec.Mixed;
            ss_sharers = [ 0; 1 ];
          };
        ]
      [ mk 0; mk 1 ]
  in
  let r = emit_spec spec in
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  let stub =
    List.find (fun (f : Cfg.func) -> not f.f_from_symtab) (Cfg.funcs_list g)
  in
  let kinds =
    List.map (fun (e : Cfg.edge) -> e.e_kind) (Cfg.in_edges stub.f_entry)
  in
  Alcotest.(check int) "two incoming edges" 2 (List.length kinds);
  Alcotest.(check bool) "both are tail calls" true
    (List.for_all (fun k -> k = Cfg.Tail_call) kinds)

(* ------------------- noreturn machinery, driven raw ------------------- *)

let test_noreturn_api () =
  let image =
    emit_funcs [ mk_fspec ~name:"x" [ blk Spec.T_ret ]; mk_fspec ~name:"y" [ blk Spec.T_ret ] ]
  in
  let g = Pbca_core.Cfg.create image in
  let fx, _ = Cfg.find_or_create_func g ~name:"x" ~from_symtab:true 0x1000 in
  let fired = ref [] in
  let fire ~dep:_ ~call_end = fired := call_end :: !fired in
  (* waiter parks while UNSET, fires exactly once on the transition *)
  Pbca_core.Noreturn.request_fallthrough g ~callee:fx ~call_end:0x42 ~fire;
  Alcotest.(check (list int)) "nothing fired yet" [] !fired;
  Pbca_core.Noreturn.set_returns g fx ~fire;
  Alcotest.(check (list int)) "waiter released" [ 0x42 ] !fired;
  Pbca_core.Noreturn.set_returns g fx ~fire;
  Alcotest.(check (list int)) "idempotent" [ 0x42 ] !fired;
  (* call sites against an already-Returns callee fire immediately, once *)
  Pbca_core.Noreturn.request_fallthrough g ~callee:fx ~call_end:0x43 ~fire;
  Pbca_core.Noreturn.request_fallthrough g ~callee:fx ~call_end:0x43 ~fire;
  Alcotest.(check (list int)) "immediate fire deduplicated" [ 0x43; 0x42 ]
    !fired;
  (* known-noreturn names are seeded and never fire *)
  let fe, _ = Cfg.find_or_create_func g ~name:"exit" ~from_symtab:true 0x2000 in
  Pbca_core.Noreturn.seed_status g fe;
  Pbca_core.Noreturn.request_fallthrough g ~callee:fe ~call_end:0x44 ~fire;
  Pbca_core.Noreturn.resolve_unset g;
  Alcotest.(check bool) "noreturn callee never fires" true
    (not (List.mem 0x44 !fired));
  Alcotest.(check bool) "exit seeded noreturn" true
    (Atomic.get fe.Cfg.f_ret = Cfg.Noreturn)

let test_noreturn_tail_subscription () =
  let image = emit_funcs [ mk_fspec ~name:"a" [ blk Spec.T_ret ] ] in
  let g = Pbca_core.Cfg.create image in
  let caller, _ = Cfg.find_or_create_func g ~name:"c" ~from_symtab:true 0x1000 in
  let callee, _ = Cfg.find_or_create_func g ~name:"d" ~from_symtab:true 0x2000 in
  let fire ~dep:_ ~call_end:_ = () in
  Pbca_core.Noreturn.subscribe_tail_status g ~caller ~callee ~fire;
  Alcotest.(check bool) "caller still unset" true
    (Atomic.get caller.Cfg.f_ret = Cfg.Unset);
  Pbca_core.Noreturn.set_returns g callee ~fire;
  Alcotest.(check bool) "caller inherits returns" true
    (Atomic.get caller.Cfg.f_ret = Cfg.Returns)

let suite =
  suite
  @ [
      quick "rule 3: single-sharer stub merges" test_rule3_single_sharer_merges;
      quick "rule 1: plain jump to a function entry flips" test_rule1_flips_plain_jump;
      quick "noreturn: waiter protocol" test_noreturn_api;
      quick "noreturn: tail-status subscription" test_noreturn_tail_subscription;
    ]

let test_determinism_at_scale =
  slow "determinism: 1000-function binary, maximal constructs, 6 domains"
    (fun () ->
      let p =
        {
          (Profile.coreutils_like 0) with
          n_funcs = 1000;
          seed = 987_654;
          n_shared_stubs = 12;
          sharers_per_stub = 8;
          n_listing1 = 3;
          p_cold = 0.08;
          p_secondary_entry = 0.04;
          p_jump_table = 0.12;
          p_jt_spilled = 0.15;
          p_data_in_text = 0.2;
        }
      in
      let r = Pbca_codegen.Emit.generate p in
      let reference = summary (parse_serial r.image) in
      (* more domains than cores: maximal preemption-driven interleaving *)
      List.iter
        (fun threads ->
          let s = summary (parse_parallel ~threads r.image) in
          if not (Pbca_core.Summary.equal reference s) then
            Alcotest.failf "diverged at %d domains:\n%s" threads
              (String.concat "\n"
                 (Pbca_core.Summary.diff reference s)))
        [ 2; 6 ];
      check_clean r.ground_truth (parse_parallel ~threads:6 r.image))

let suite = suite @ [ test_determinism_at_scale ]
