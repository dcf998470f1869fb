(* Tests for the tooling layer: DOT export, stripping — and the
   cross-validation of the pure operation algebra against the production
   parser. *)

open Tutil
module Cfg = Pbca_core.Cfg
module Spec = Pbca_codegen.Spec
module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg

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
  (* functions reachable from main through calls and tail calls in the full
     parse are recovered *)
  let rec reach seen (f : Cfg.func) =
    if List.mem f.f_entry_addr seen then seen
    else
      List.fold_left
        (fun seen (b : Cfg.block) ->
          List.fold_left
            (fun seen (e : Cfg.edge) ->
              match
                (e.e_kind, Pbca_core.Addr_map.find full.Cfg.funcs e.e_dst.b_start)
              with
              | (Cfg.Call | Cfg.Tail_call), Some callee -> reach seen callee
              | _ -> seen)
            seen (Cfg.out_edges b))
        (f.f_entry_addr :: seen) f.f_blocks
  in
  match Pbca_core.Addr_map.find full.Cfg.funcs r.image.Pbca_binfmt.Image.entry with
  | Some main ->
    List.iter
      (fun entry ->
        Alcotest.(check bool)
          (Printf.sprintf "0x%x recovered in stripped parse" entry)
          true
          (Pbca_core.Addr_map.mem stripped.Cfg.funcs entry))
      (reach [] main)
  | None -> Alcotest.fail "entry is not a function"

let test_strip_default_keeps_objects () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 10 } in
  let s = Pbca_binfmt.Image.strip r.image in
  Alcotest.(check int) "no function symbols left" 0
    (List.length (Pbca_binfmt.Symtab.functions s.Pbca_binfmt.Image.symtab));
  Alcotest.(check bool) "object symbols kept" true
    (Pbca_binfmt.Symtab.length s.Pbca_binfmt.Image.symtab > 0)

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
