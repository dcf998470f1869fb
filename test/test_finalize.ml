(* Finalization unit tests (PR2): direct checks of the jump-table clamp
   and of tail-call correction rules 1-3 on hand-built CFGs, plus a
   multi-seed serial-vs-parallel and legacy-vs-snapshot fuzz. *)

open Tutil
module C = Pbca_core.Cfg
module TP = Pbca_concurrent.Task_pool
module Section = Pbca_binfmt.Section

let mk_image ?(syms = []) ?entry ~sections name =
  let tab = Pbca_binfmt.Symtab.create () in
  List.iter
    (fun (n, a) -> ignore (Pbca_binfmt.Symtab.insert tab (Pbca_binfmt.Symbol.make n a)))
    syms;
  Pbca_binfmt.Image.make ~name ?entry ~sections tab

let text16 addr = Section.make ~name:".text" ~addr (Bytes.create 16)

let block g addr ~end_ ?term () =
  let b = fst (C.find_or_create_block g addr) in
  Atomic.set b.C.b_end end_;
  (match term with Some i -> Atomic.set b.C.b_term (Some i) | None -> ());
  b

let starts (f : C.func) = List.map (fun (b : C.block) -> b.C.b_start) f.C.f_blocks

let check_kind name expected (e : C.edge) =
  Alcotest.(check string)
    name
    (Format.asprintf "%a" C.pp_edge_kind expected)
    (Format.asprintf "%a" C.pp_edge_kind e.C.e_kind)

(* ---------------------------------------------------------------- *)
(* Jump-table clamping: two tables in one .rodata section; the first is
   clamped at the second's base, the second at the section end. *)

let jt_clamp () =
  let rodata = Bytes.create 16 in
  let put off v =
    Bytes.set rodata off (Char.chr (v land 0xff));
    Bytes.set rodata (off + 1) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set rodata (off + 2) '\x00';
    Bytes.set rodata (off + 3) '\x00'
  in
  (* table 1 occupies [0x2000,0x2008), table 2 [0x2008,0x2010) *)
  put 0 0x1010;
  put 4 0x1018;
  put 8 0x1020;
  put 12 0x1028;
  let image =
    mk_image "jtclamp"
      ~sections:
        [ text16 0x1000; Section.make ~name:".rodata" ~addr:0x2000 rodata ]
  in
  let g = C.create image in
  let jb1 = block g 0x1100 ~end_:0x1108 () in
  let jb2 = block g 0x1200 ~end_:0x1208 () in
  let tgt addr = block g addr ~end_:(addr + 8) () in
  let e11 = C.add_edge g jb1 (tgt 0x1010) C.Indirect in
  let e12 = C.add_edge g jb1 (tgt 0x1018) C.Indirect in
  (* 0x1020 is table 2's word: past table 1's clamp *)
  let e13 = C.add_edge g jb1 (tgt 0x1020) C.Indirect in
  let e21 = C.add_edge g jb2 (tgt 0x1020) C.Indirect in
  let e22 = C.add_edge g jb2 (tgt 0x1028) C.Indirect in
  (* 0x1030 appears in no table word (its slot is past the section end) *)
  let e23 = C.add_edge g jb2 (tgt 0x1030) C.Indirect in
  let bag = g.C.tables in
  Pbca_concurrent.Conc_bag.add bag
    {
      C.jt_id = 0;
      jt_block = jb1;
      jt_jump_addr = 0x1104;
      jt_base = 0x2000;
      jt_bounded = false;
      jt_count = 3;
    };
  Pbca_concurrent.Conc_bag.add bag
    {
      C.jt_id = 1;
      jt_block = jb2;
      jt_jump_addr = 0x1204;
      jt_base = 0x2008;
      jt_bounded = false;
      jt_count = 3;
    };
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.clean_jump_tables ~pool g;
  let dead (e : C.edge) = Atomic.get e.C.e_dead in
  Alcotest.(check bool) "t1 word 0 edge live" false (dead e11);
  Alcotest.(check bool) "t1 word 1 edge live" false (dead e12);
  Alcotest.(check bool) "t1 edge past next base killed" true (dead e13);
  Alcotest.(check bool) "t2 word 0 edge live" false (dead e21);
  Alcotest.(check bool) "t2 word 1 edge live" false (dead e22);
  Alcotest.(check bool) "t2 edge past section end killed" true (dead e23)

(* ---------------------------------------------------------------- *)
(* Rule 1a: a Jump to another function's entry becomes a tail call. *)

let rule1_entry () =
  let image =
    mk_image "rule1" ~entry:0x1000
      ~syms:[ ("f", 0x1000); ("g", 0x1100) ]
      ~sections:[ text16 0x1000 ]
  in
  let g = C.create image in
  let bf = block g 0x1000 ~end_:0x1008 ~term:(Insn.Jmp 0) () in
  let bg = block g 0x1100 ~end_:0x1108 ~term:Insn.Ret () in
  ignore (C.find_or_create_func g ~name:"f" ~from_symtab:true 0x1000);
  ignore (C.find_or_create_func g ~name:"g" ~from_symtab:true 0x1100);
  let e = C.add_edge g bf bg C.Jump in
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.run ~pool g;
  check_kind "jump to entry flips to tail call" C.Tail_call e;
  Alcotest.(check (list int))
    "caller boundary excludes the callee" [ 0x1000 ]
    (starts (get_func g "f"));
  Alcotest.(check (list int))
    "callee boundary" [ 0x1100 ]
    (starts (get_func g "g"))

(* Rule 1b: a Cond_taken branch to a block that also has an incoming Call
   edge becomes a tail call even though the target is not a known entry. *)

let rule1_called_target () =
  let image =
    mk_image "rule1b" ~entry:0x1000 ~syms:[ ("f", 0x1000) ]
      ~sections:[ text16 0x1000 ]
  in
  let g = C.create image in
  let a = block g 0x1000 ~end_:0x1008 ~term:(Insn.Jcc (Insn.Eq, 0)) () in
  let b = block g 0x1010 ~end_:0x1018 ~term:Insn.Ret () in
  let h = block g 0x1200 ~end_:0x1208 ~term:Insn.Ret () in
  ignore (C.find_or_create_func g ~name:"f" ~from_symtab:true 0x1000);
  let e_taken = C.add_edge g a h C.Cond_taken in
  ignore (C.add_edge g a b C.Cond_fall);
  ignore (C.add_edge g b h C.Call);
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.run ~pool g;
  check_kind "branch to called block flips to tail call" C.Tail_call e_taken;
  Alcotest.(check (list int))
    "tail-call target leaves the boundary" [ 0x1000; 0x1010 ]
    (starts (get_func g "f"))

(* Rule 2: a Tail_call whose target lies inside a function that also
   contains the source flips back (to Cond_taken: the source terminator is
   a conditional branch). *)

let rule2_within () =
  let image =
    mk_image "rule2" ~entry:0x1000 ~syms:[ ("f", 0x1000) ]
      ~sections:[ text16 0x1000 ]
  in
  let g = C.create image in
  let a = block g 0x1000 ~end_:0x1008 ~term:(Insn.Jcc (Insn.Eq, 0)) () in
  let b = block g 0x1010 ~end_:0x1018 ~term:(Insn.Jmp 0) () in
  let c = block g 0x1020 ~end_:0x1028 ~term:Insn.Ret () in
  ignore (C.find_or_create_func g ~name:"f" ~from_symtab:true 0x1000);
  let e = C.add_edge g a c C.Tail_call in
  ignore (C.add_edge g a b C.Cond_fall);
  ignore (C.add_edge g b c C.Jump);
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.run ~pool g;
  check_kind "within-boundary tail call flips back" C.Cond_taken e;
  Alcotest.(check (list int))
    "boundary keeps all three blocks" [ 0x1000; 0x1010; 0x1020 ]
    (starts (get_func g "f"))

(* Rule 3: a Tail_call to a block whose sole in-edge it is (outlined code)
   flips back to Jump, and the target merges into the boundary. *)

let rule3_sole_in () =
  let image =
    mk_image "rule3" ~entry:0x1000 ~syms:[ ("f", 0x1000) ]
      ~sections:[ text16 0x1000 ]
  in
  let g = C.create image in
  let a = block g 0x1000 ~end_:0x1008 ~term:(Insn.Jmp 0) () in
  let c = block g 0x1020 ~end_:0x1028 ~term:Insn.Ret () in
  ignore (C.find_or_create_func g ~name:"f" ~from_symtab:true 0x1000);
  let e = C.add_edge g a c C.Tail_call in
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.run ~pool g;
  check_kind "sole-in-edge tail call flips back" C.Jump e;
  Alcotest.(check (list int))
    "outlined target merges into the boundary" [ 0x1000; 0x1020 ]
    (starts (get_func g "f"))

(* Rule 2 guard: the flip-back must not fire when the target is a static
   entry, even if it lies within the source's function boundary. *)

let rule2_static_entry_guard () =
  let image =
    mk_image "rule2g" ~entry:0x1000
      ~syms:[ ("f", 0x1000); ("shared", 0x1020) ]
      ~sections:[ text16 0x1000 ]
  in
  let g = C.create image in
  let a = block g 0x1000 ~end_:0x1008 ~term:(Insn.Jmp 0) () in
  let b = block g 0x1010 ~end_:0x1018 ~term:(Insn.Jmp 0) () in
  let c = block g 0x1020 ~end_:0x1028 ~term:Insn.Ret () in
  ignore (C.find_or_create_func g ~name:"f" ~from_symtab:true 0x1000);
  ignore (C.find_or_create_func g ~name:"shared" ~from_symtab:true 0x1020);
  let e = C.add_edge g a c C.Tail_call in
  ignore (C.add_edge g a b C.Fallthrough);
  ignore (C.add_edge g b c C.Indirect);
  let pool = TP.create ~threads:1 in
  Pbca_core.Finalize.run ~pool g;
  check_kind "tail call to a static entry stays" C.Tail_call e

(* ---------------------------------------------------------------- *)
(* Fuzz: generated subjects, several seeds, from a 25-function default
   profile to a 300-function coreutils one. The snapshot path at 1 and 4
   threads and the legacy whole-graph path must all produce Cfg_diff- and
   Summary-identical graphs. *)

let assert_graphs_equal what a b =
  let d = Pbca_core.Cfg_diff.diff a b in
  if
    not
      (d.Pbca_core.Cfg_diff.added = []
      && d.Pbca_core.Cfg_diff.removed = []
      && d.Pbca_core.Cfg_diff.changed = [])
  then
    Alcotest.failf "%s: Cfg_diff found changes:@ %a" what Pbca_core.Cfg_diff.pp
      d;
  let sa = summary a and sb = summary b in
  if not (Pbca_core.Summary.equal sa sb) then
    Alcotest.failf "%s: summaries differ:\n%s" what
      (String.concat "\n" (Pbca_core.Summary.diff sa sb))

let fuzz_paths () =
  let subjects =
    List.init 4 (fun i ->
        {
          (Profile.coreutils_like (90 + i)) with
          Profile.seed = 99_000 + (i * 7);
        })
    @ [
        { Profile.default with Profile.n_funcs = 25; seed = 11 };
        { (Profile.coreutils_like 1) with Profile.n_funcs = 300; seed = 9001 };
      ]
  in
  List.iter
    (fun p ->
      let r = Emit.generate p in
      let tag = Printf.sprintf "seed %d" p.Profile.seed in
      let snap1 = parse_parallel ~threads:1 r.Emit.image in
      let snap4 = parse_parallel ~threads:4 r.Emit.image in
      assert_graphs_equal (tag ^ ": snapshot 1 vs 4 threads") snap1 snap4;
      let pool = TP.create ~threads:1 in
      let legacy = Pbca_core.Parallel.parse ~pool r.Emit.image in
      Pbca_core.Finalize.run_legacy ~pool legacy;
      assert_graphs_equal (tag ^ ": legacy vs snapshot") legacy snap1;
      let rounds = Pbca_obs.Metrics.counter snap1.C.metrics "finalize_rounds" in
      if Pbca_obs.Metrics.count rounds < 1 then
        Alcotest.failf "%s: finalize ran no round" tag)
    subjects

let suite =
  [
    quick "jump-table clamp: next base and section end" jt_clamp;
    quick "tail-call rule 1: jump to function entry" rule1_entry;
    quick "tail-call rule 1: branch to called block" rule1_called_target;
    quick "tail-call rule 2: within-boundary flip-back" rule2_within;
    quick "tail-call rule 2: static-entry guard" rule2_static_entry_guard;
    quick "tail-call rule 3: sole in-edge flip-back" rule3_sole_in;
    slow "fuzz: legacy vs snapshot vs parallel over seeds" fuzz_paths;
  ]
