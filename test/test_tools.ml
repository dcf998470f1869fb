(* Tests for the tooling layer: DOT export, stripping, call graphs, the
   general slicer — and the cross-validation of the pure operation algebra
   against the production parser. *)

open Tutil
module Cfg = Pbca_core.Cfg
module Spec = Pbca_codegen.Spec
module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg
module CG = Pbca_analysis.Callgraph
module Slice = Pbca_analysis.Slice

(* ------------------------------- dot ---------------------------------- *)

let test_dot_func () =
  let image = (emit_spec (mk_spec [ diamond_fun () ])).image in
  let g = parse_serial image in
  let f = get_func g "diamond" in
  let dot = Pbca_core.Dot.func_to_dot g f in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "function name" true (contains dot "diamond");
  List.iter
    (fun (b : Cfg.block) ->
      Alcotest.(check bool)
        (Printf.sprintf "node for 0x%x" b.b_start)
        true
        (contains dot (Printf.sprintf "b0x%x" b.b_start)))
    f.f_blocks;
  Alcotest.(check bool) "taken edges labeled" true (contains dot "label=\"T\"")

let test_dot_graph () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 15 } in
  let g = parse_serial r.image in
  let dot = Pbca_core.Dot.graph_to_dot g in
  Alcotest.(check bool) "clusters" true (contains dot "subgraph");
  Alcotest.(check bool) "main cluster" true (contains dot "cluster_main");
  (* every line with an edge references emitted nodes only: parses as
     balanced braces at least *)
  let opens = String.fold_left (fun a c -> if c = '{' then a + 1 else a) 0 dot in
  let closes = String.fold_left (fun a c -> if c = '}' then a + 1 else a) 0 dot in
  Alcotest.(check int) "balanced braces" opens closes

(* ------------------------------ strip --------------------------------- *)

let test_strip_discovery () =
  (* stripped of symbols, functions reachable from the entry are still
     found through calls; unreachable ones are lost (paper Section 9) *)
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 40; seed = 21 } in
  let full = parse_serial r.image in
  let stripped_image =
    Pbca_binfmt.Image.strip
      ~keep:(fun s -> s.Pbca_binfmt.Symbol.offset = r.image.Pbca_binfmt.Image.entry)
      r.image
  in
  let stripped = parse_serial stripped_image in
  let n_full = List.length (Cfg.funcs_list full) in
  let n_stripped = List.length (Cfg.funcs_list stripped) in
  Alcotest.(check bool) "some functions found" true (n_stripped > 0);
  Alcotest.(check bool) "coverage cannot grow" true (n_stripped <= n_full);
  (* every stripped function is also in the full parse, at the same entry *)
  List.iter
    (fun (f : Cfg.func) ->
      Alcotest.(check bool)
        (Printf.sprintf "0x%x also in full parse" f.f_entry_addr)
        true
        (Pbca_core.Addr_map.mem full.Cfg.funcs f.f_entry_addr))
    (Cfg.funcs_list stripped);
  (* functions reachable from main in the full call graph are recovered *)
  let cg = CG.build full in
  (match CG.find cg r.image.Pbca_binfmt.Image.entry with
  | Some root ->
    let reach = CG.reachable_from cg root in
    Array.iteri
      (fun i ok ->
        if ok then
          let f = cg.CG.funcs.(i) in
          Alcotest.(check bool)
            (f.Cfg.f_name ^ " recovered in stripped parse")
            true
            (Pbca_core.Addr_map.mem stripped.Cfg.funcs f.Cfg.f_entry_addr))
      reach
  | None -> Alcotest.fail "entry not in call graph")

let test_strip_default_keeps_objects () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 10 } in
  let s = Pbca_binfmt.Image.strip r.image in
  Alcotest.(check int) "no function symbols left" 0
    (List.length (Pbca_binfmt.Symtab.functions s.Pbca_binfmt.Image.symtab));
  Alcotest.(check bool) "object symbols kept" true
    (Pbca_binfmt.Symtab.length s.Pbca_binfmt.Image.symtab > 0)

(* ---------------------------- call graph ------------------------------ *)

let test_callgraph_chain () =
  let f name callee next =
    mk_fspec ~name
      [ blk (Spec.T_call callee); blk ~body:[ Insn.Nop ] next ]
  in
  let image =
    (emit_spec
       (mk_spec
          [
            f "a" 1 Spec.T_ret;
            f "b" 2 Spec.T_ret;
            mk_fspec ~name:"c" [ blk Spec.T_ret ];
          ]))
      .image
  in
  let g = parse_serial image in
  let cg = CG.build g in
  Alcotest.(check int) "three nodes" 3 (CG.n_funcs cg);
  let idx name =
    match CG.find cg (get_func g name).Cfg.f_entry_addr with
    | Some i -> i
    | None -> Alcotest.failf "%s not in callgraph" name
  in
  let a = idx "a" and b = idx "b" and c = idx "c" in
  Alcotest.(check (list int)) "a calls b" [ b ] cg.CG.callees.(a);
  Alcotest.(check (list int)) "b calls c" [ c ] cg.CG.callees.(b);
  Alcotest.(check (list int)) "c is a leaf" [] cg.CG.callees.(c);
  Alcotest.(check (list int)) "c's callers" [ b ] cg.CG.callers.(c);
  let reach = CG.reachable_from cg a in
  Alcotest.(check bool) "c reachable from a" true reach.(c);
  let depth = CG.depth_from cg a in
  Alcotest.(check int) "depth of c" 2 depth.(c);
  Alcotest.(check (list int)) "leaves" [ c ] (CG.leaf_functions cg)

let test_callgraph_scc () =
  (* mutual recursion via calls: one SCC of size two *)
  let f name callee =
    mk_fspec ~name [ blk (Spec.T_call callee); blk Spec.T_ret ]
  in
  let image = (emit_spec (mk_spec [ f "x" 1; f "y" 0 ])).image in
  let g = parse_serial image in
  let cg = CG.build g in
  let sccs = CG.sccs cg in
  Alcotest.(check int) "one scc" 1 (List.length sccs);
  Alcotest.(check int) "of size two" 2 (List.length (List.hd sccs))

let test_callgraph_tail_edges () =
  let callee = mk_fspec ~name:"t" ~frame:false [ blk Spec.T_ret ] in
  let caller = mk_fspec ~name:"s" [ blk (Spec.T_tailcall 1) ] in
  let image = (emit_spec (mk_spec [ caller; callee ])).image in
  let g = parse_serial image in
  let cg = CG.build g in
  Alcotest.(check int) "one tail edge" 1 (List.length cg.CG.tail_edges)

(* ------------------------------ slicing ------------------------------- *)

let test_slice_within_block () =
  (* r0 <- r1 <- const; the unrelated r5 write stays out of the slice *)
  let f =
    mk_fspec ~name:"sl" ~frame:false
      [
        blk
          ~body:
            [
              Insn.Mov_ri (Reg.r1, 7);
              Insn.Mov_ri (Reg.r5, 9);
              Insn.Mov_rr (Reg.r0, Reg.r1);
            ]
          Spec.T_ret;
      ]
  in
  let image = (emit_spec (mk_spec [ f ])).image in
  let g = parse_serial image in
  let fv = Pbca_analysis.Func_view.make g (get_func g "sl") in
  (* criterion: r0 just before the ret *)
  let insns = Pbca_analysis.Func_view.insns g fv 0 in
  let ret_addr, _, _ = List.nth insns (List.length insns - 1) in
  let crit = { Slice.at = ret_addr; block = 0; regs = Reg.Set.of_list [ Reg.r0 ] } in
  let s = Slice.backward g fv crit in
  Alcotest.(check int) "two instructions in the slice" 2
    (List.length s.Slice.insns);
  Alcotest.(check bool) "complete" true s.Slice.complete;
  Alcotest.(check bool) "r5 write excluded" true
    (List.for_all
       (fun (_, i) -> match i with Insn.Mov_ri (r, 9) -> Reg.to_int r <> 5 | _ -> true)
       s.Slice.insns)

let test_slice_across_blocks () =
  let f =
    mk_fspec ~name:"sx" ~frame:false
      [
        blk ~body:[ Insn.Mov_ri (Reg.r2, 3) ] (Spec.T_jmp 1);
        blk ~body:[ Insn.Mov_rr (Reg.r3, Reg.r2) ] Spec.T_ret;
      ]
  in
  let image = (emit_spec (mk_spec [ f ])).image in
  let g = parse_serial image in
  let fv = Pbca_analysis.Func_view.make g (get_func g "sx") in
  let n = Pbca_analysis.Func_view.n_blocks fv in
  let last = n - 1 in
  let insns = Pbca_analysis.Func_view.insns g fv last in
  let ret_addr, _, _ = List.nth insns (List.length insns - 1) in
  let crit =
    { Slice.at = ret_addr; block = last; regs = Reg.Set.of_list [ Reg.r3 ] }
  in
  let s = Slice.backward g fv crit in
  Alcotest.(check int) "both defs collected" 2 (List.length s.Slice.insns);
  Alcotest.(check bool) "complete" true s.Slice.complete

let test_slice_memory_incomplete () =
  let f =
    mk_fspec ~name:"sm" ~frame:false
      [
        blk
          ~body:[ Insn.Load (Reg.r1, Reg.of_int 6, 0); Insn.Mov_rr (Reg.r0, Reg.r1) ]
          Spec.T_ret;
      ]
  in
  let image = (emit_spec (mk_spec [ f ])).image in
  let g = parse_serial image in
  let fv = Pbca_analysis.Func_view.make g (get_func g "sm") in
  let insns = Pbca_analysis.Func_view.insns g fv 0 in
  let ret_addr, _, _ = List.nth insns (List.length insns - 1) in
  let crit = { Slice.at = ret_addr; block = 0; regs = Reg.Set.of_list [ Reg.r0 ] } in
  let s = Slice.backward g fv crit in
  Alcotest.(check bool) "memory load marks incompleteness" false
    s.Slice.complete

let test_slice_of_terminator () =
  let image = (emit_spec (mk_spec [ diamond_fun () ])).image in
  let g = parse_serial image in
  let fv = Pbca_analysis.Func_view.make g (get_func g "diamond") in
  (* the entry's Jcc uses no registers; a Jmp_ind would *)
  match Slice.criterion_of_terminator g fv 0 with
  | Some crit ->
    Alcotest.(check bool) "criterion built" true (crit.Slice.block = 0)
  | None -> Alcotest.fail "entry block should have a terminator"

(* ------------------ algebra vs. production parser --------------------- *)

let test_ops_cross_validation =
  qcheck ~count:15 "Ops.construct agrees with the production parser"
    QCheck2.Gen.(int_bound 1000)
    (fun seed ->
      (* restrict to constructs the pure model implements: direct flow only *)
      let p =
        {
          Profile.default with
          n_funcs = 8;
          seed = 40_000 + seed;
          p_call = 0.0;
          p_icall = 0.0;
          p_jump_table = 0.0;
          p_tail_call = 0.0;
          p_noreturn_call = 0.0;
          p_noreturn_leaf = 0.0;
          n_shared_stubs = 0;
          p_cold = 0.0;
          p_secondary_entry = 0.0;
        }
      in
      let image = (Pbca_codegen.Emit.generate p).image in
      let entries =
        List.filter_map
          (fun (s : Pbca_binfmt.Symbol.t) ->
            if Pbca_binfmt.Symbol.is_func s then Some s.offset else None)
          (Pbca_binfmt.Symtab.functions image.Pbca_binfmt.Image.symtab)
        |> List.sort_uniq compare
      in
      let model =
        Pbca_core.Ops.construct image (Pbca_core.Ops.init entries)
      in
      let prod = parse_serial image in
      let model_blocks =
        List.map (fun (b : Pbca_core.Ops.block) -> (b.s, b.e)) model.blocks
        |> List.sort compare
      in
      let prod_blocks =
        List.map
          (fun (b : Cfg.block) -> (b.Cfg.b_start, Cfg.block_end b))
          (Cfg.blocks_list prod)
        |> List.sort compare
      in
      model_blocks = prod_blocks)

let suite =
  [
    quick "dot: single function" test_dot_func;
    quick "dot: whole program" test_dot_graph;
    quick "strip: discovery through calls" test_strip_discovery;
    quick "strip: default predicate" test_strip_default_keeps_objects;
    quick "callgraph: chain" test_callgraph_chain;
    quick "callgraph: scc of mutual recursion" test_callgraph_scc;
    quick "callgraph: tail edges" test_callgraph_tail_edges;
    quick "slice: within a block" test_slice_within_block;
    quick "slice: across blocks" test_slice_across_blocks;
    quick "slice: memory loads mark incompleteness" test_slice_memory_incomplete;
    quick "slice: terminator criterion" test_slice_of_terminator;
    test_ops_cross_validation;
  ]

(* --------------------------- linear sweep ------------------------------ *)

let test_sweep_serial_parallel_equal () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 60; seed = 91 } in
  let serial = Pbca_core.Linear_sweep.sweep r.image in
  let pool = Pbca_concurrent.Task_pool.create ~threads:4 in
  let par = Pbca_core.Linear_sweep.sweep ~pool r.image in
  Alcotest.(check bool) "same blocks" true
    (serial.Pbca_core.Linear_sweep.blocks = par.Pbca_core.Linear_sweep.blocks);
  Alcotest.(check int) "same instruction count"
    serial.Pbca_core.Linear_sweep.insns par.Pbca_core.Linear_sweep.insns

let test_sweep_overapproximates () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 40; seed = 92 } in
  let sw = Pbca_core.Linear_sweep.sweep r.image in
  let g = parse_serial r.image in
  let both, sweep_only, trav_only =
    Pbca_core.Linear_sweep.compare_with_traversal sw g
  in
  Alcotest.(check bool) "common code found" true (both > 0);
  Alcotest.(check bool) "sweep decodes padding too" true (sweep_only > 0);
  Alcotest.(check int) "traversal finds nothing the sweep misses" 0 trav_only;
  Alcotest.(check bool) "full text covered" true
    (Pbca_core.Linear_sweep.coverage sw
     + sw.Pbca_core.Linear_sweep.undecodable
    = Pbca_binfmt.Image.text_size r.image)

let test_sweep_blocks_partition () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 20; seed = 93 } in
  let sw = Pbca_core.Linear_sweep.sweep r.image in
  let rec ordered = function
    | (a : Pbca_core.Linear_sweep.block) :: (b :: _ as rest) ->
      a.e <= b.s && a.s < a.e && ordered rest
    | [ a ] -> a.s < a.e
    | [] -> true
  in
  Alcotest.(check bool) "blocks disjoint and ordered" true
    (ordered sw.Pbca_core.Linear_sweep.blocks)

let suite =
  suite
  @ [
      quick "linear sweep: parallel = serial" test_sweep_serial_parallel_equal;
      quick "linear sweep: over-approximates traversal" test_sweep_overapproximates;
      quick "linear sweep: blocks partition the text" test_sweep_blocks_partition;
    ]

(* --------------------------- data in text ------------------------------ *)

let test_data_in_text () =
  let p =
    { Profile.default with n_funcs = 40; seed = 2042; p_data_in_text = 0.4 }
  in
  let r = Pbca_codegen.Emit.generate p in
  (* the traversal parser is unaffected: ground truth still matches *)
  let g = parse_serial r.image in
  check_clean r.ground_truth g;
  assert_deterministic r.image;
  (* the linear sweep mis-handles the blobs: it decodes garbage or loses
     real code bytes to desynchronization *)
  let sw = Pbca_core.Linear_sweep.sweep r.image in
  let _, sweep_only, _ = Pbca_core.Linear_sweep.compare_with_traversal sw g in
  Alcotest.(check bool) "sweep decodes data as code" true (sweep_only > 0);
  (* parallel sweep still equals serial sweep on hostile input *)
  let pool = Pbca_concurrent.Task_pool.create ~threads:4 in
  let swp = Pbca_core.Linear_sweep.sweep ~pool r.image in
  Alcotest.(check bool) "parallel sweep unfazed" true
    (sw.Pbca_core.Linear_sweep.blocks = swp.Pbca_core.Linear_sweep.blocks)

let test_data_in_text_generated () =
  let p =
    { Profile.default with n_funcs = 30; seed = 11; p_data_in_text = 0.5 }
  in
  let spec = Pbca_codegen.Spec.generate p in
  let blobs =
    Array.to_list spec.Pbca_codegen.Spec.sp_data
    |> List.filter_map (fun b -> b)
  in
  Alcotest.(check bool) "profile produced blobs" true (List.length blobs > 3);
  List.iter
    (fun b ->
      Alcotest.(check bool) "blob sized" true
        (Bytes.length b >= 8 && Bytes.length b <= 64))
    blobs

let suite =
  suite
  @ [
      quick "data-in-text: parser unaffected, sweep confused" test_data_in_text;
      quick "data-in-text: generation" test_data_in_text_generated;
    ]

(* ------------------------------ cfg diff ------------------------------- *)

let test_diff_identical () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 25; seed = 61 } in
  let g1 = parse_serial r.image in
  let g2 = parse_parallel ~threads:3 r.image in
  let d = Pbca_core.Cfg_diff.diff g1 g2 in
  Alcotest.(check int) "all unchanged" (List.length (Cfg.funcs_list g1)) d.unchanged;
  Alcotest.(check (list string)) "nothing added" [] d.added;
  Alcotest.(check (list string)) "nothing removed" [] d.removed

let test_diff_relocation_invariant () =
  (* same program, one extra function in front: every old function moves to
     a new address but must count as unchanged *)
  let funcs =
    [ diamond_fun ~name:"d1" (); loop_fun ~name:"l1" () ]
  in
  let g1 = parse_serial (emit_spec (mk_spec funcs)).image in
  let g2 =
    parse_serial
      (emit_spec (mk_spec (mk_fspec ~name:"newcomer" [ blk Spec.T_ret ] :: funcs))).image
  in
  let d = Pbca_core.Cfg_diff.diff g1 g2 in
  Alcotest.(check int) "old functions unchanged despite moving" 2 d.unchanged;
  Alcotest.(check (list string)) "newcomer reported" [ "newcomer" ] d.added

let test_diff_detects_change () =
  let base = [ diamond_fun ~name:"f" (); loop_fun ~name:"g" () ] in
  let modified =
    [
      diamond_fun ~name:"f" ();
      (* g gains a block *)
      mk_fspec ~name:"g"
        [
          blk ~body:[ Insn.Mov_ri (Reg.r1, 0) ] Spec.T_fall;
          blk ~body:[ Insn.Cmp_ri (Reg.r1, 10) ] (Spec.T_cond (Insn.Ge, 4));
          blk ~body:[ Insn.Add_ri (Reg.r1, 1) ] Spec.T_fall;
          blk ~body:[ Insn.Nop ] (Spec.T_jmp 1);
          blk Spec.T_ret;
        ];
    ]
  in
  let g1 = parse_serial (emit_spec (mk_spec base)).image in
  let g2 = parse_serial (emit_spec (mk_spec modified)).image in
  let d = Pbca_core.Cfg_diff.diff g1 g2 in
  Alcotest.(check int) "one function changed" 1 (List.length d.changed);
  Alcotest.(check string) "the right one" "g"
    (List.hd d.changed).Pbca_core.Cfg_diff.ch_name;
  Alcotest.(check int) "f unchanged" 1 d.unchanged

let suite =
  suite
  @ [
      quick "diff: identical parses" test_diff_identical;
      quick "diff: relocation-invariant" test_diff_relocation_invariant;
      quick "diff: detects structural change" test_diff_detects_change;
    ]
