(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) plus the ablations called out in DESIGN.md.

   This container exposes a single hardware core, so thread sweeps are
   produced by the recorded-DAG schedule simulator (DESIGN.md substitution
   3): each phase's wall-clock is measured for real at one thread, and the
   time at T threads is wall1 * makespan(T) / makespan(1) from the replay
   of that phase's task trace.

   Subcommands: table1 table2 figure2 figure3 table3 correctness ablations
   micro contention finalize robustness recovery trace serve all
   (default: all); plus microsmoke, a seconds-long self-checking slice of
   the contention, finalize, robustness, recovery, trace and serve
   reports wired into `dune runtest`. Any other word is rejected with a
   usage line and exit status 2. *)

module Profile = Pbca_codegen.Profile
module Emit = Pbca_codegen.Emit
module Image = Pbca_binfmt.Image
module Trace = Pbca_simsched.Trace
module Replay = Pbca_simsched.Replay
module TP = Pbca_concurrent.Task_pool
module H = Pbca_hpcstruct.Hpcstruct
module B = Pbca_binfeat.Binfeat

let threads_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

(* the retired mutex-sharded map, kept as the comparison baseline for the
   lock-free Addr_map (same key hash as Addr_map uses) *)
module MutexMap = Pbca_concurrent.Conc_hash.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = (a * 0x9E3779B1) lxor (a lsr 16)
end)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

(* simulated wall at T threads, given the measured 1-thread wall *)
let sim_wall trace wall1 threads =
  let tasks = Trace.tasks trace in
  if tasks = [] then wall1
  else
    let m1 = (Replay.simulate ~threads:1 tasks).makespan in
    let mt = (Replay.simulate ~threads tasks).makespan in
    if m1 = 0 then wall1 else wall1 *. float_of_int mt /. float_of_int m1

let sim_speedup trace threads =
  let tasks = Trace.tasks trace in
  if tasks = [] then 1.0
  else
    let m1 = (Replay.simulate ~threads:1 tasks).makespan in
    let mt = (Replay.simulate ~threads tasks).makespan in
    if mt = 0 then 1.0 else float_of_int m1 /. float_of_int mt

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* scaled-down evaluation subjects; override with PBCA_SCALE *)
let scale =
  match Sys.getenv_opt "PBCA_SCALE" with
  | Some s -> float_of_string s
  | None -> 0.25

let subjects () = List.map (Profile.scale scale) Profile.hpcstruct_subjects

(* ---------------------------------------------------------------- *)
(* Table 1: relevant statistics of the binaries.                     *)

let table1 () =
  header "Table 1: sizes of the generated evaluation subjects (KiB)";
  Printf.printf "%-12s %10s %10s %10s %8s %8s\n" "Binary" "Total" ".text"
    ".debug" "funcs" "symbols";
  List.iter
    (fun p ->
      let r = Emit.generate p in
      let sec name =
        match Image.section r.image name with
        | Some s -> float_of_int (Pbca_binfmt.Section.size s) /. 1024.0
        | None -> 0.0
      in
      Printf.printf "%-12s %10.1f %10.1f %10.1f %8d %8d\n" p.Profile.name
        (float_of_int (Image.total_size r.image) /. 1024.0)
        (sec ".text") (sec ".debug")
        (List.length r.ground_truth.gt_funcs)
        (Pbca_binfmt.Symtab.length r.image.Image.symtab))
    (subjects ())

(* ---------------------------------------------------------------- *)
(* Table 2 + Figures 2 and 3: hpcstruct.                             *)

type subject_run = {
  sr_name : string;
  sr_result : H.result;
}

let run_subjects () =
  List.map
    (fun p ->
      let r = Emit.generate p in
      let bytes = Image.write r.image in
      let pool = TP.create ~threads:1 in
      { sr_name = p.Profile.name; sr_result = H.run ~pool bytes })
    (subjects ())

let phase_trace result name =
  List.find_map
    (fun (p : H.phase) -> if p.ph_name = name then p.ph_trace else None)
    result.H.phases

let phase_wall1 result name =
  List.fold_left
    (fun acc (p : H.phase) -> if p.ph_name = name then acc +. p.ph_wall else acc)
    0.0 result.H.phases

(* end-to-end hpcstruct time at T threads: parallel phases scale by their
   trace, serial phases stay fixed (Amdahl, paper Section 8.2) *)
let hpcstruct_wall result threads =
  List.fold_left
    (fun acc (p : H.phase) ->
      acc
      +.
      match p.ph_trace with
      | Some tr -> sim_wall tr p.ph_wall threads
      | None -> p.ph_wall)
    0.0 result.H.phases

let table2 runs =
  header
    "Table 2: hpcstruct performance (measured at 1 thread; simulated sweeps)";
  Printf.printf "%-12s %7s %10s %10s %12s\n" "Binary" "Cores" "DWARF(s)"
    "CFG(s)" "hpcstruct(s)";
  List.iter
    (fun { sr_name; sr_result = r } ->
      List.iter
        (fun t ->
          let dwarf =
            match phase_trace r "dwarf" with
            | Some tr -> sim_wall tr (phase_wall1 r "dwarf") t
            | None -> phase_wall1 r "dwarf"
          in
          let cfg =
            match phase_trace r "cfg" with
            | Some tr -> sim_wall tr (phase_wall1 r "cfg") t
            | None -> phase_wall1 r "cfg"
          in
          Printf.printf "%-12s %7d %10.4f %10.4f %12.4f\n"
            (if t = 1 then sr_name else "")
            t dwarf cfg (hpcstruct_wall r t))
        [ 1; 16; 32; 64 ];
      let sp name =
        match phase_trace r name with
        | Some tr -> sim_speedup tr 64
        | None -> 1.0
      in
      Printf.printf "%-12s %7s %9.2fx %9.2fx %11.2fx\n" "" "spd@64" (sp "dwarf")
        (sp "cfg")
        (hpcstruct_wall r 1 /. hpcstruct_wall r 64))
    runs

let figure2 runs =
  header "Figure 2: phase trace of hpcstruct on 'tensorflow' at 64 threads";
  match List.find_opt (fun s -> s.sr_name = "tensorflow") runs with
  | None -> print_endline "tensorflow subject missing"
  | Some { sr_result = r; _ } ->
    let sim_phases =
      List.map
        (fun (p : H.phase) ->
          let w =
            match p.ph_trace with
            | Some tr -> sim_wall tr p.ph_wall 64
            | None -> p.ph_wall
          in
          (p.ph_name, w, p.ph_trace <> None))
        r.H.phases
    in
    let total = List.fold_left (fun a (_, w, _) -> a +. w) 0.0 sim_phases in
    List.iteri
      (fun i (name, w, par) ->
        let width = int_of_float (60.0 *. w /. total) in
        Printf.printf "(%d) %-9s %8.4fs %-8s |%s\n" (i + 1) name w
          (if par then "parallel" else "serial")
          (String.make (max 1 width) '#'))
      sim_phases;
    Printf.printf "total (simulated, 64 threads): %.4fs; measured 1-thread: %.4fs\n"
      total (H.total_wall r)

let figure3 runs =
  header
    "Figure 3: average speedup (geometric mean over the four binaries)";
  Printf.printf "%8s %12s %12s %12s\n" "Threads" "hpcstruct" "DWARF" "CFG";
  List.iter
    (fun t ->
      let of_phase name =
        geomean
          (List.filter_map
             (fun { sr_result = r; _ } ->
               Option.map (fun tr -> sim_speedup tr t) (phase_trace r name))
             runs)
      in
      let e2e =
        geomean
          (List.map
             (fun { sr_result = r; _ } ->
               hpcstruct_wall r 1 /. hpcstruct_wall r t)
             runs)
      in
      Printf.printf "%8d %12.2f %12.2f %12.2f\n" t e2e (of_phase "dwarf")
        (of_phase "cfg"))
    threads_sweep

(* ---------------------------------------------------------------- *)
(* Table 3: BinFeat.                                                 *)

let table3 () =
  header "Table 3: BinFeat performance over the forensics corpus";
  let n_binaries =
    match Sys.getenv_opt "PBCA_CORPUS" with
    | Some s -> int_of_string s
    | None -> max 16 (int_of_float (504.0 *. scale))
  in
  Printf.printf "corpus: %d binaries (paper: 504; scale with PBCA_CORPUS)\n"
    n_binaries;
  let images =
    List.init n_binaries (fun i ->
        (Emit.generate (Profile.forensics_member i)).image)
  in
  let pool = TP.create ~threads:1 in
  let r = B.extract ~pool images in
  Printf.printf "%d functions, %d distinct features\n\n" r.n_funcs r.n_features;
  Printf.printf "%7s %10s %10s %10s %10s %12s\n" "Cores" "CFG(s)" "IF(s)"
    "CF(s)" "DF(s)" "BinFeat(s)";
  let stage name = List.find (fun (s : B.stage) -> s.st_name = name) r.stages in
  List.iter
    (fun t ->
      let w name =
        let s = stage name in
        sim_wall s.st_trace s.st_wall t
      in
      let total = w "cfg" +. w "if" +. w "cf" +. w "df" in
      Printf.printf "%7d %10.4f %10.4f %10.4f %10.4f %12.4f\n" t (w "cfg")
        (w "if") (w "cf") (w "df") total)
    threads_sweep;
  let sp name = sim_speedup (stage name).st_trace 64 in
  Printf.printf "%7s %9.2fx %9.2fx %9.2fx %9.2fx %11.2fx\n" "spd@64" (sp "cfg")
    (sp "if") (sp "cf") (sp "df")
    (let t1 = B.total_wall r in
     let t64 =
       List.fold_left
         (fun acc (s : B.stage) -> acc +. sim_wall s.st_trace s.st_wall 64)
         0.0 r.stages
     in
     t1 /. t64)

(* ---------------------------------------------------------------- *)
(* Section 8.1: correctness.                                         *)

let correctness () =
  header "Section 8.1: correctness against ground truth (113 binaries)";
  let n =
    match Sys.getenv_opt "PBCA_CORRECTNESS" with
    | Some s -> int_of_string s
    | None -> 113
  in
  let pool = TP.create ~threads:2 in
  let classes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let exact = ref 0 and expected = ref 0 and unexplained = ref 0 in
  let jt_exact = ref 0 and jt_total = ref 0 in
  let nr_exact = ref 0 and nr_total = ref 0 in
  for i = 0 to n - 1 do
    let r = Emit.generate (Profile.coreutils_like i) in
    let g = Pbca_core.Parallel.parse_and_finalize ~pool r.image in
    let rep = Pbca_checker.Checker.check r.ground_truth g in
    exact := !exact + rep.func_match;
    expected := !expected + List.length rep.func_expected;
    unexplained := !unexplained + List.length rep.func_mismatch;
    jt_exact := !jt_exact + rep.jt_ok;
    jt_total := !jt_total + rep.jt_total;
    nr_exact := !nr_exact + rep.nr_ok;
    nr_total := !nr_total + rep.nr_total;
    List.iter
      (fun (_, cls) ->
        Hashtbl.replace classes cls
          (1 + Option.value (Hashtbl.find_opt classes cls) ~default:0))
      rep.func_expected
  done;
  Printf.printf "functions:      %d exact, %d expected-difference, %d UNEXPLAINED\n"
    !exact !expected !unexplained;
  Printf.printf "jump tables:    %d/%d exact (rest are expected-unresolved)\n"
    !jt_exact !jt_total;
  Printf.printf "noreturn calls: %d/%d exact (rest are expected error() misses)\n"
    !nr_exact !nr_total;
  Printf.printf "\ndifference classes (paper Section 8.1's taxonomy):\n";
  Hashtbl.iter
    (fun cls c -> Printf.printf "  %-40s %5d functions\n" cls c)
    classes;
  if !unexplained > 0 then Printf.printf "\n*** UNEXPLAINED DIFFERENCES ***\n"

(* ---------------------------------------------------------------- *)
(* Ablations.                                                        *)

(* Hand-assembled binary for ablation (c): a jump table whose base register
   is computed along two joining paths — a plain pc-relative lea on one, a
   push/pop spill on the other. The union strategy recovers the table from
   the analyzable path; without it the whole table is lost (Section 5.3). *)
let mixed_path_jt_image () =
  let open Pbca_isa in
  let text_base = 0x1000 in
  let default_ = 0x1044 in
  let idiom = 0x103e in
  let t1 = 0x1045 and t2 = 0x1050 and t3 = 0x105b in
  let table = 0x2000 in
  let buf = Buffer.create 256 in
  let at () = text_base + Buffer.length buf in
  let emit i = Codec.encode buf i in
  let jcc c target = emit (Insn.Jcc (c, target - (at () + 6))) in
  let jmp target = emit (Insn.Jmp (target - (at () + 5))) in
  let lea r target = emit (Insn.Lea (r, target - (at () + 6))) in
  let r2 = Reg.of_int 2 and r3 = Reg.of_int 3 and r4 = Reg.of_int 4 in
  (* main: branch to the spill path or fall into the clean one *)
  emit (Insn.Cmp_ri (Reg.r1, 0));
  jcc Insn.Eq 0x1023;
  (* clean path *)
  emit (Insn.Cmp_ri (r2, 3));
  jcc Insn.Ge default_;
  lea r3 table;
  jmp idiom;
  (* spill path *)
  assert (at () = 0x1023);
  emit (Insn.Cmp_ri (r2, 3));
  jcc Insn.Ge default_;
  lea r3 table;
  emit (Insn.Push r3);
  emit (Insn.Pop r3);
  jmp idiom;
  (* the indirect jump *)
  assert (at () = idiom);
  emit (Insn.Load_idx (r4, r3, r2, 4));
  emit (Insn.Jmp_ind r4);
  assert (at () = default_);
  emit Insn.Ret;
  (* three switch cases *)
  List.iter
    (fun (t, v) ->
      assert (at () = t);
      emit (Insn.Mov_ri (Reg.r0, v));
      jmp default_)
    [ (t1, 1); (t2, 2); (t3, 3) ];
  let rodata = Bytes.create 12 in
  List.iteri
    (fun i t ->
      Bytes.set rodata (4 * i) (Char.chr (t land 0xff));
      Bytes.set rodata ((4 * i) + 1) (Char.chr ((t lsr 8) land 0xff));
      Bytes.set rodata ((4 * i) + 2) '\x00';
      Bytes.set rodata ((4 * i) + 3) '\x00')
    [ t1; t2; t3 ];
  let tab = Pbca_binfmt.Symtab.create () in
  ignore (Pbca_binfmt.Symtab.insert tab (Pbca_binfmt.Symbol.make "main" text_base));
  Image.make ~name:"mixed_jt" ~entry:text_base
    ~sections:
      [
        Pbca_binfmt.Section.make ~name:".text" ~addr:text_base
          (Buffer.to_bytes buf);
        Pbca_binfmt.Section.make ~name:".rodata" ~addr:table rodata;
      ]
    tab

(* a worst case for non-returning dependencies: a deep chain where each
   function's return instruction sits behind the fall-through of its call
   to the next one (paper Section 4.3's serialization hazard) *)
let chain_spec depth =
  let open Pbca_codegen.Spec in
  let f i =
    let last = i = depth - 1 in
    {
      fs_name = Printf.sprintf "c%04d" i;
      fs_blocks =
        (if last then [| { bs_body = []; bs_term = T_ret } |]
         else
           (* the return sits behind the call's fall-through; a jump table
              follows it, so deferred status propagation also re-triggers
              table analysis every round (the Section 4.3 interaction) *)
           [|
             { bs_body = []; bs_term = T_call (i + 1) };
             {
               bs_body = [ Pbca_isa.Insn.Nop ];
               bs_term = T_jumptable { targets = [ 3; 4 ]; spilled = false };
             };
             { bs_body = []; bs_term = T_ret };
             { bs_body = []; bs_term = T_jmp 2 };
             { bs_body = []; bs_term = T_jmp 2 };
           |]);
      fs_frame = false;
      fs_cold = None;
      fs_secondary = None;
      fs_cu = 0;
      fs_error_style = false;
      fs_noreturn_leaf = false;
    }
  in
  {
    sp_profile = { Profile.default with Profile.name = "chain"; n_cus = 1 };
    sp_funcs = Array.init depth f;
    sp_stubs = [||];
    sp_fptable = [| 0 |];
    sp_data = Array.make depth None;
  }

let ablations () =
  header "Ablations: the design choices of DESIGN.md";
  let p = { (Profile.coreutils_like 7) with Profile.n_funcs = 400; seed = 808 } in
  let r = Emit.generate p in
  (* (a) eager non-returning notification, on a 300-deep call chain. The
     image is stripped so every function is discovered through its caller:
     call sites genuinely park waiters on UNSET callees. *)
  let chain = Emit.emit (chain_spec 300) in
  let chain_image =
    Image.strip
      ~keep:(fun s -> s.Pbca_binfmt.Symbol.offset = chain.Emit.image.Image.entry)
      chain.Emit.image
  in
  let run_chain config =
    let trace = Trace.create () in
    let pool = TP.create ~threads:1 in
    let g = Pbca_core.Parallel.parse ~config ~trace ~pool chain_image in
    (trace, Atomic.get g.Pbca_core.Cfg.stats.jt_analyses)
  in
  let tr_eager, jt_eager = run_chain Pbca_core.Config.default in
  let tr_lazy, jt_lazy =
    run_chain { Pbca_core.Config.default with eager_noreturn = false }
  in
  let ms tr t = (Replay.simulate ~threads:t (Trace.tasks tr)).makespan in
  Printf.printf
    "(a) eager noreturn notification (Section 5.3), 300-deep call chain with\n\
    \    one jump table per function:\n\
    \    eager:    makespan@64 = %7d units, %6d jump-table analyses\n\
    \    deferred: makespan@64 = %7d units, %6d jump-table analyses\n\
    \    (deferred drains wait for round barriers, and every round repeats\n\
    \    the jump-table fixed point - the Section 4.3 interaction)\n"
    (ms tr_eager 64) jt_eager (ms tr_lazy 64) jt_lazy;
  (* (b) early parse stop at known block starts (the decode_cache flag now
     consults the shared lock-free blocks map, so every thread's parses
     stop every other thread's rescans) *)
  let decoded config =
    let pool = TP.create ~threads:4 in
    let g = Pbca_core.Parallel.parse ~config ~pool r.image in
    Atomic.get g.Pbca_core.Cfg.stats.insns_decoded
  in
  let with_cache = decoded Pbca_core.Config.default in
  let without = decoded { Pbca_core.Config.default with decode_cache = false } in
  Printf.printf
    "(b) early scan stop at known block starts (Section 6.3): %d insns \
     decoded with, %d without (%.1f%% saved)\n"
    with_cache without
    (100.0 *. float_of_int (without - with_cache) /. float_of_int (max 1 without));
  (* (c) jump-table union strategy: hand-assembled table whose base is
     computed along two paths, one of which spills through the stack *)
  let union_image = mixed_path_jt_image () in
  let jt_targets config =
    let pool = TP.create ~threads:1 in
    let g = Pbca_core.Parallel.parse_and_finalize ~config ~pool union_image in
    List.fold_left
      (fun acc (t : Pbca_core.Cfg.jt_record) -> acc + t.jt_count)
      0
      (Pbca_concurrent.Conc_bag.to_list g.Pbca_core.Cfg.tables)
  in
  Printf.printf
    "(c) jump-table union strategy (Section 5.3), two-path table with one \
     unanalyzable path:\n\
    \    union on:  %d targets recovered; union off: %d (whole table lost)\n"
    (jt_targets Pbca_core.Config.default)
    (jt_targets { Pbca_core.Config.default with jt_union = false });
  (* (d) concurrency-structure overhead at one thread *)
  let t0 = Pbca_obs.Clock.now () in
  let _ = Pbca_core.Serial.parse r.image in
  let t_serial = Pbca_obs.Clock.now () -. t0 in
  let pool = TP.create ~threads:1 in
  let t0 = Pbca_obs.Clock.now () in
  let _ = Pbca_core.Parallel.parse ~pool r.image in
  let t_par1 = Pbca_obs.Clock.now () -. t0 in
  Printf.printf
    "(d) synchronization overhead at 1 thread: serial %.4fs vs parallel@1 \
     %.4fs (%.1f%%)\n"
    t_serial t_par1
    (100.0 *. (t_par1 -. t_serial) /. t_serial);
  (* (e) recursive traversal vs linear sweep (Schwarz et al., Section 2) *)
  let g = Pbca_core.Serial.parse_and_finalize r.image in
  let sw = Pbca_core.Linear_sweep.sweep r.image in
  let both, sweep_only, trav_only =
    Pbca_core.Linear_sweep.compare_with_traversal sw g
  in
  Printf.printf
    "(e) control-flow traversal vs linear sweep: %d code bytes agreed, %d \
     extra bytes decoded by the sweep (padding/dead code as code), %d found \
     only by traversal; and the sweep cannot attribute blocks to functions\n"
    both sweep_only trav_only

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks: one per table/figure plus substrates.  *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let small = Emit.generate { Profile.default with Profile.n_funcs = 30 } in
  let text =
    (Pbca_binfmt.Image.text small.Emit.image).Pbca_binfmt.Section.data
  in
  let forensics3 =
    List.init 3 (fun i -> (Emit.generate (Profile.forensics_member i)).image)
  in
  let sub1 = Profile.scale 0.02 Profile.llnl1 in
  let sub1_bytes = Image.write (Emit.generate sub1).Emit.image in
  let g_small = Pbca_core.Serial.parse_and_finalize small.Emit.image in
  let some_func =
    List.find
      (fun (f : Pbca_core.Cfg.func) -> List.length f.Pbca_core.Cfg.f_blocks > 2)
      (Pbca_core.Cfg.funcs_list g_small)
  in
  let tests =
    [
      Test.make ~name:"isa_decode_text" (Staged.stage (fun () ->
          let rec go pos acc =
            if pos >= Bytes.length text then acc
            else
              match Pbca_isa.Codec.decode text ~pos with
              | Some (_, len) -> go (pos + len) (acc + 1)
              | None -> go (pos + 1) acc
          in
          ignore (go 0 0)));
      Test.make ~name:"table1_generate_subject" (Staged.stage (fun () ->
          ignore (Emit.generate { sub1 with Profile.seed = 3 })));
      Test.make ~name:"table2_cfg_parse" (Staged.stage (fun () ->
          ignore (Pbca_core.Serial.parse_and_finalize small.Emit.image)));
      Test.make ~name:"table2_hpcstruct_pipeline" (Staged.stage (fun () ->
          let pool = TP.create ~threads:1 in
          ignore (H.run ~pool sub1_bytes)));
      Test.make ~name:"table3_binfeat_pipeline" (Staged.stage (fun () ->
          let pool = TP.create ~threads:1 in
          ignore (B.extract ~pool forensics3)));
      Test.make ~name:"figure3_replay_sim" (Staged.stage (fun () ->
          let trace = Trace.create () in
          let pool = TP.create ~threads:1 in
          ignore (Pbca_core.Parallel.parse ~trace ~pool small.Emit.image);
          ignore (Replay.simulate ~threads:64 (Trace.tasks trace))));
      Test.make ~name:"analysis_liveness" (Staged.stage (fun () ->
          let fv = Pbca_analysis.Func_view.make g_small some_func in
          ignore (Pbca_analysis.Liveness.compute g_small fv)));
      Test.make ~name:"conc_hash_insert1k" (Staged.stage (fun () ->
          let m = MutexMap.create ~shards:64 () in
          for i = 0 to 999 do
            ignore (MutexMap.insert_if_absent m (i * 16) ())
          done));
      Test.make ~name:"lockfree_map_insert1k" (Staged.stage (fun () ->
          let m = Pbca_core.Addr_map.create ~shards:64 () in
          for i = 0 to 999 do
            ignore (Pbca_core.Addr_map.insert_if_absent m (i * 16) ())
          done));
      (* the tentpole comparison: read-heavy traffic, mutex-sharded vs
         lock-free — the workload shape of the parser's address maps *)
      (let m = MutexMap.create ~shards:64 () in
       for i = 0 to 4095 do
         ignore (MutexMap.insert_if_absent m (i * 16) ())
       done;
       Test.make ~name:"map_read4k_mutex_sharded" (Staged.stage (fun () ->
           for i = 0 to 4095 do
             ignore (MutexMap.find m (i * 16))
           done)));
      (let m = Pbca_core.Addr_map.create ~shards:64 () in
       for i = 0 to 4095 do
         ignore (Pbca_core.Addr_map.insert_if_absent m (i * 16) ())
       done;
       Test.make ~name:"map_read4k_lockfree" (Staged.stage (fun () ->
           for i = 0 to 4095 do
             ignore (Pbca_core.Addr_map.find m (i * 16))
           done)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name (b : Benchmark.t) ->
          (* simple mean of time per run *)
          let raw = b.Benchmark.lr in
          let n = Array.length raw in
          let total = ref 0.0 and runs = ref 0.0 in
          Array.iter
            (fun m ->
              total :=
                !total +. Measurement_raw.get ~label:(Measure.label instance) m;
              runs := !runs +. Measurement_raw.run m)
            raw;
          if !runs > 0.0 then
            Printf.printf "%-28s %12.1f ns/run (%d samples)\n" name
              (!total /. !runs) n)
        results)
    tests

(* ---------------------------------------------------------------- *)
(* JSON for the reports. The emitter and well-formedness checker used to
   live here; they moved to Pbca_obs.Json so the Chrome trace exporter
   and these reports share one implementation.                        *)

open Pbca_obs.Json

(* ---------------------------------------------------------------- *)
(* `bench contention`: proves the tentpole. (1) read-heavy micro of the
   mutex-sharded map vs the lock-free map at one thread; (2) a parallel
   parse of a generated subject reporting the new contention, decode-cache
   and scheduler counters. Writes BENCH_pr1.json unless ~smoke.        *)

let time_reads ~rounds ~keys find populate =
  populate ();
  (* one warm pass so both maps are faulted in *)
  for i = 0 to keys - 1 do
    ignore (find (i * 16))
  done;
  let t0 = Pbca_obs.Clock.now () in
  for _ = 1 to rounds do
    for i = 0 to keys - 1 do
      ignore (find (i * 16))
    done
  done;
  let dt = Pbca_obs.Clock.now () -. t0 in
  dt *. 1e9 /. float_of_int (rounds * keys)

let contention_report ~smoke () =
  let keys = if smoke then 512 else 4096 in
  let rounds = if smoke then 50 else 1000 in
  let mutex_ns =
    let m = MutexMap.create ~shards:64 () in
    time_reads ~rounds ~keys
      (fun k -> MutexMap.find m k)
      (fun () ->
        for i = 0 to keys - 1 do
          ignore (MutexMap.insert_if_absent m (i * 16) i)
        done)
  in
  let lockfree_ns =
    let m = Pbca_core.Addr_map.create ~shards:64 () in
    time_reads ~rounds ~keys
      (fun k -> Pbca_core.Addr_map.find m k)
      (fun () ->
        for i = 0 to keys - 1 do
          ignore (Pbca_core.Addr_map.insert_if_absent m (i * 16) i)
        done)
  in
  let p =
    if smoke then { Profile.default with Profile.n_funcs = 25; seed = 11 }
    else { (Profile.coreutils_like 3) with Profile.seed = 2026 }
  in
  let r = Emit.generate p in
  let threads = if smoke then 2 else 4 in
  (* counters are per-pool now: a fresh pool starts at zero, no global
     reset (and no race with any other pool) *)
  let pool = TP.create ~threads in
  let t0 = Pbca_obs.Clock.now () in
  let g = Pbca_core.Parallel.parse_and_finalize ~pool r.Emit.image in
  let wall = Pbca_obs.Clock.now () -. t0 in
  let c = g.Pbca_core.Cfg.stats.contention in
  let dc = r.Emit.image.Image.dcache in
  let ps = TP.stats pool in
  let get a = Atomic.get a in
  let open Pbca_concurrent.Contention in
  J_obj
    [
      ("bench", J_str "pr1_lockfree_hot_paths");
      ("smoke", J_bool smoke);
      ( "micro_map_read",
        J_obj
          [
            ("keys", J_int keys);
            ("rounds", J_int rounds);
            ("mutex_sharded_ns_per_read", J_float mutex_ns);
            ("lockfree_ns_per_read", J_float lockfree_ns);
            ("lockfree_speedup", J_float (mutex_ns /. lockfree_ns));
          ] );
      ( "parse_contention",
        J_obj
          [
            ("subject", J_str p.Profile.name);
            ("seed", J_int p.Profile.seed);
            ("threads", J_int threads);
            ( "counter_sources",
              J_arr
                (List.map
                   (fun s -> J_str s)
                   [
                     "blocks"; "ends"; "funcs"; "static_entries"; "ft_guard";
                     "jt_pending"; "jt_last"; "f_visited";
                   ]) );
            ("wall_s", J_float wall);
            ("blocks", J_int (Pbca_core.Addr_map.length g.Pbca_core.Cfg.blocks));
            ("funcs", J_int (Pbca_core.Addr_map.length g.Pbca_core.Cfg.funcs));
            ("probes", J_int (get c.probes));
            ("cas_retries", J_int (get c.cas_retries));
            ("resizes", J_int (get c.resizes));
            ("frozen_waits", J_int (get c.frozen_waits));
            ("decode_hits", J_int (Pbca_binfmt.Decode_cache.hits dc));
            ("decode_misses", J_int (Pbca_binfmt.Decode_cache.misses dc));
            ("decode_hit_rate", J_float (Pbca_binfmt.Decode_cache.hit_rate dc));
            ("steals", J_int ps.TP.steals);
            ("steal_attempts", J_int ps.TP.steal_attempts);
            ("idle_sleeps", J_int ps.TP.idle_sleeps);
          ] );
    ]

let contention_checks j =
  (* the acceptance criteria, machine-checked on every run *)
  let num path = json_num j path in
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  check "json well-formed" (json_well_formed (json_to_string j));
  check "lockfree read beats mutex-sharded at 1 thread"
    (num [ "micro_map_read"; "lockfree_speedup" ] > 1.0);
  check "decode cache hit rate > 0"
    (num [ "parse_contention"; "decode_hit_rate" ] > 0.0);
  check "parse produced blocks" (num [ "parse_contention"; "blocks" ] > 0.0);
  List.rev !failures

let contention () =
  header "Contention counters + lock-free vs mutex-sharded map (PR1)";
  let j = contention_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match contention_checks j with
  | [] -> print_endline "all contention checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr1.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr1.json"

(* ---------------------------------------------------------------- *)
(* `bench finalize`: PR2 — legacy whole-graph finalization vs the
   snapshot-indexed path, serial and at [threads]. Every variant re-parses
   the image at 1 thread (the expansion graph is deterministic), then only
   the finalization is timed; the resulting graphs are asserted
   Cfg_diff-equal (and Summary-equal) across all variants on every benched
   input. Writes BENCH_pr2.json unless ~smoke.                        *)

let fz_json (g : Pbca_core.Cfg.t) wall =
  let fz : Pbca_core.Cfg.finalize_stats =
    g.Pbca_core.Cfg.stats.Pbca_core.Cfg.finalize
  in
  J_obj
    [
      ("wall_s", J_float wall);
      ("jt_s", J_float fz.fz_jt_wall);
      ("reach_s", J_float fz.fz_reach_wall);
      ("bounds_s", J_float fz.fz_bounds_wall);
      ("rules_s", J_float fz.fz_rules_wall);
      ("prune_s", J_float fz.fz_prune_wall);
      ("recount_s", J_float fz.fz_recount_wall);
      ("snapshot_s", J_float fz.fz_snapshot_wall);
      ("rounds", J_int fz.fz_rounds);
      ("snapshots", J_int fz.fz_snapshots);
      ("dirty", J_arr (List.map (fun d -> J_int d) fz.fz_dirty));
    ]

let graphs_equal a b =
  let d = Pbca_core.Cfg_diff.diff a b in
  d.Pbca_core.Cfg_diff.added = []
  && d.Pbca_core.Cfg_diff.removed = []
  && d.Pbca_core.Cfg_diff.changed = []
  && Pbca_core.Summary.equal (Pbca_core.Summary.of_cfg a)
       (Pbca_core.Summary.of_cfg b)

let finalize_report ~smoke () =
  let reps = if smoke then 1 else 3 in
  let threads = if smoke then 2 else 4 in
  let subjects =
    if smoke then [ { Profile.default with Profile.n_funcs = 25; seed = 11 } ]
    else
      List.map2
        (fun i n ->
          { (Profile.coreutils_like i) with Profile.n_funcs = n; seed = 9000 + i })
        [ 1; 4; 9 ] [ 300; 700; 1200 ]
  in
  let per_subject p =
    let r = Emit.generate p in
    let run_variant (finalize : pool:TP.t -> Pbca_core.Cfg.t -> unit)
        pool_threads =
      let once () =
        let pool = TP.create ~threads:1 in
        let g = Pbca_core.Parallel.parse ~pool r.Emit.image in
        let fpool = TP.create ~threads:pool_threads in
        let t0 = Pbca_obs.Clock.now () in
        finalize ~pool:fpool g;
        (g, Pbca_obs.Clock.now () -. t0)
      in
      let g0, w0 = once () in
      let best_g = ref g0 and best_w = ref w0 in
      for _ = 2 to reps do
        let g, w = once () in
        if w < !best_w then begin
          best_g := g;
          best_w := w
        end
      done;
      (!best_g, !best_w)
    in
    let g_legacy, w_legacy = run_variant Pbca_core.Finalize.run_legacy 1 in
    let run_snap ~pool g = Pbca_core.Finalize.run ~pool g in
    let g_snap1, w_snap1 = run_variant run_snap 1 in
    let g_snapp, w_snapp = run_variant run_snap threads in
    let eq_ls = graphs_equal g_legacy g_snap1 in
    let eq_sp = graphs_equal g_snap1 g_snapp in
    let speedup = w_legacy /. w_snap1 in
    ( J_obj
        [
          ("subject", J_str p.Profile.name);
          ("seed", J_int p.Profile.seed);
          ("funcs", J_int (Pbca_core.Addr_map.length g_snap1.Pbca_core.Cfg.funcs));
          ( "blocks",
            J_int (Pbca_core.Addr_map.length g_snap1.Pbca_core.Cfg.blocks) );
          ("legacy", fz_json g_legacy w_legacy);
          ("snapshot_serial", fz_json g_snap1 w_snap1);
          ("snapshot_parallel_threads", J_int threads);
          ("snapshot_parallel", fz_json g_snapp w_snapp);
          ("speedup_snapshot_vs_legacy", J_float speedup);
          ("legacy_vs_snapshot_equal", J_bool eq_ls);
          ("serial_vs_parallel_equal", J_bool eq_sp);
        ],
      speedup )
  in
  let results = List.map per_subject subjects in
  J_obj
    [
      ("bench", J_str "pr2_snapshot_finalize");
      ("smoke", J_bool smoke);
      ("reps", J_int reps);
      ("subjects", J_arr (List.map fst results));
      ( "geomean_speedup_snapshot_vs_legacy",
        J_float (geomean (List.map snd results)) );
    ]

let finalize_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  check "json well-formed" (json_well_formed (json_to_string j));
  (match json_field j [ "subjects" ] with
  | Some (J_arr subs) ->
    check "at least one subject benched" (subs <> []);
    List.iter
      (fun s ->
        let name =
          match json_field s [ "subject" ] with Some (J_str n) -> n | _ -> "?"
        in
        let flag path =
          match json_field s path with Some (J_bool b) -> b | _ -> false
        in
        check
          (name ^ ": legacy and snapshot graphs Cfg_diff-equal")
          (flag [ "legacy_vs_snapshot_equal" ]);
        check
          (name ^ ": serial and parallel snapshot graphs Cfg_diff-equal")
          (flag [ "serial_vs_parallel_equal" ]);
        check
          (name ^ ": finalize ran at least one round")
          (json_num s [ "snapshot_serial"; "rounds" ] >= 1.0))
      subs
  | _ -> check "subjects present" false);
  if not smoke then
    check "snapshot path beats legacy (geomean over the corpus)"
      (json_num j [ "geomean_speedup_snapshot_vs_legacy" ] > 1.0);
  List.rev !failures

let finalize_bench () =
  header "Finalization: legacy whole-graph vs snapshot-indexed (PR2)";
  let j = finalize_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match finalize_checks ~smoke:false j with
  | [] -> print_endline "all finalize checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr2.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr2.json"

(* ---------------------------------------------------------------- *)
(* `bench robustness`: PR3 — mutation-fuzz survival, degraded-vs-crash
   accounting, budget-exhaustion rates, and fault-injection recovery wall
   time. Writes BENCH_pr3.json unless ~smoke.                         *)

let robustness_report ~smoke () =
  let module Mutate = Pbca_codegen.Mutate in
  let module Rng = Pbca_codegen.Rng in
  let module Fault = Pbca_concurrent.Fault in
  let module Cfg = Pbca_core.Cfg in
  let seeds = if smoke then 60 else 400 in
  let threads = if smoke then 2 else 4 in
  let pool = TP.create ~threads in
  let config =
    { Pbca_core.Config.default with Pbca_core.Config.deadline_s = 2.0 }
  in
  let bases =
    List.map
      (fun p -> (Emit.generate p).Emit.image)
      [ Profile.coreutils_like 1; Profile.coreutils_like 2 ]
  in
  let clean = ref 0
  and degraded = ref 0
  and malformed = ref 0
  and crash = ref 0 in
  let b_block = ref 0
  and b_slice = ref 0
  and b_table = ref 0
  and b_deadline = ref 0 in
  let dl_checks = ref 0 and dl_polls = ref 0 in
  let parsed = ref 0 in
  let t0 = Pbca_obs.Clock.now () in
  for s = 1 to seeds do
    let rng = Rng.create s in
    let img = List.nth bases (s mod List.length bases) in
    let _kind, bytes = Mutate.mutate ~rng img in
    match Image.read_result bytes with
    | Error _ -> incr malformed
    | Ok m -> (
      match Pbca_core.Parallel.parse_and_finalize ~config ~pool m with
      | g ->
        incr parsed;
        let st = g.Cfg.stats in
        b_block := !b_block + Atomic.get st.Cfg.budget_block;
        b_slice := !b_slice + Atomic.get st.Cfg.budget_slice;
        b_table := !b_table + Atomic.get st.Cfg.budget_table;
        b_deadline := !b_deadline + Atomic.get st.Cfg.budget_deadline;
        dl_checks := !dl_checks + Atomic.get st.Cfg.deadline_checks;
        dl_polls := !dl_polls + Atomic.get st.Cfg.deadline_polls;
        if Cfg.degraded_count g > 0 || Cfg.task_failure_count g > 0 then
          incr degraded
        else incr clean
      | exception _ -> incr crash)
  done;
  let fuzz_wall = Pbca_obs.Clock.now () -. t0 in
  (* fault-injection recovery: wall time of a parse that absorbs injected
     task crashes, vs the clean parse of the same image *)
  let fi_image = List.hd bases in
  let time_parse () =
    let p1 = TP.create ~threads:1 in
    let t0 = Pbca_obs.Clock.now () in
    let g = Pbca_core.Parallel.parse_and_finalize ~pool:p1 fi_image in
    (g, Pbca_obs.Clock.now () -. t0)
  in
  let g_clean, w_clean = time_parse () in
  Fault.arm_at [ 5; 9; 13 ] Fault.Raise;
  let g_fault, w_fault =
    Fun.protect ~finally:Fault.disarm (fun () -> time_parse ())
  in
  let d = Pbca_core.Cfg_diff.diff g_clean g_fault in
  let total_funcs =
    Pbca_core.Addr_map.length g_clean.Pbca_core.Cfg.funcs
  in
  let rate n = float_of_int n /. float_of_int (max 1 !parsed) in
  J_obj
    [
      ("bench", J_str "pr3_hostile_binary_hardening");
      ("smoke", J_bool smoke);
      ( "mutation_fuzz",
        J_obj
          [
            ("mutants", J_int seeds);
            ("survived", J_int (seeds - !crash));
            ("clean", J_int !clean);
            ("degraded", J_int !degraded);
            ("malformed", J_int !malformed);
            ("crash", J_int !crash);
            ("wall_s", J_float fuzz_wall);
          ] );
      ( "budget_exhaustion_per_parsed_mutant",
        J_obj
          [
            ("parsed", J_int !parsed);
            ("block", J_float (rate !b_block));
            ("slice", J_float (rate !b_slice));
            ("table", J_float (rate !b_table));
            ("deadline", J_float (rate !b_deadline));
          ] );
      ( "deadline_clock",
        J_obj
          [
            ("checks", J_int !dl_checks);
            ("polls", J_int !dl_polls);
            ("syscalls_saved", J_int (!dl_checks - !dl_polls));
          ] );
      ( "fault_injection",
        J_obj
          [
            ("injected_faults", J_int 3);
            ("task_failures_recorded",
             J_int (Pbca_core.Cfg.task_failure_count g_fault));
            ("clean_wall_s", J_float w_clean);
            ("faulted_wall_s", J_float w_fault);
            ("recovery_overhead", J_float (w_fault /. w_clean));
            ("funcs_total", J_int total_funcs);
            ("funcs_unchanged", J_int d.Pbca_core.Cfg_diff.unchanged);
          ] );
    ]

let robustness_checks j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let num path = json_num j path in
  check "json well-formed" (json_well_formed (json_to_string j));
  check "zero crashes across the mutant corpus"
    (num [ "mutation_fuzz"; "crash" ] = 0.0);
  check "every mutant survived"
    (num [ "mutation_fuzz"; "survived" ] = num [ "mutation_fuzz"; "mutants" ]);
  check "every mutant classified"
    (num [ "mutation_fuzz"; "clean" ]
     +. num [ "mutation_fuzz"; "degraded" ]
     +. num [ "mutation_fuzz"; "malformed" ]
     = num [ "mutation_fuzz"; "mutants" ]);
  check "faulted parse finished"
    (num [ "fault_injection"; "faulted_wall_s" ] > 0.0);
  check "deadline clock poll coarsening saves syscalls"
    (num [ "deadline_clock"; "polls" ] <= num [ "deadline_clock"; "checks" ]
    && (num [ "deadline_clock"; "checks" ] < 64.0
       || num [ "deadline_clock"; "syscalls_saved" ] > 0.0));
  (* cross-calls cascade a killed task's damage to its callers, so on a
     connected binary the bound is a fraction, not fault-count; the strict
     "untouched functions are Cfg_diff-equal" proof runs on independent
     functions in test_robustness *)
  check "majority of functions untouched by injected faults"
    (num [ "fault_injection"; "funcs_unchanged" ]
     >= 0.5 *. num [ "fault_injection"; "funcs_total" ]);
  List.rev !failures

let robustness_bench () =
  header "Hostile-binary hardening: fuzz survival + fault recovery (PR3)";
  let j = robustness_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match robustness_checks j with
  | [] -> print_endline "all robustness checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr3.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr3.json"

(* ---------------------------------------------------------------- *)
(* `bench robustness` part 2: PR9 — wild binaries. Stripped subjects are
   parsed through gap discovery and scored for entry precision/recall
   against ground truth (gate: >= 0.95 / >= 0.90); the overlap and
   obfuscation families must be fully explained by the checker; and the
   mutation fuzz re-runs with the gap parser enabled and the Strip_symtab
   axis in the draw. Writes BENCH_pr9.json unless ~smoke.             *)

let wild_report ~smoke () =
  let module Mutate = Pbca_codegen.Mutate in
  let module Rng = Pbca_codegen.Rng in
  let module Family = Pbca_codegen.Family in
  let module Cfg = Pbca_core.Cfg in
  let module Checker = Pbca_checker.Checker in
  let threads = if smoke then 2 else 4 in
  let pool = TP.create ~threads in
  let gap_config =
    { Pbca_core.Config.default with Pbca_core.Config.gap_parse = true }
  in
  (* stripped subjects: every entry except the image entry point must be
     earned back by the gap scanner *)
  let n_stripped = if smoke then 3 else 16 in
  let relevant = ref 0 and found = ref 0 and spurious = ref 0 in
  let heur_found = ref 0 and explained = ref 0 in
  let gaps = ref 0
  and proposed = ref 0
  and accepted = ref 0
  and rejected = ref 0 in
  let t0 = Pbca_obs.Clock.now () in
  for i = 0 to n_stripped - 1 do
    let r = Family.generate Family.Stripped i in
    let g =
      Pbca_core.Parallel.parse_and_finalize ~config:gap_config ~pool
        r.Emit.image
    in
    let d = Checker.score_discovery r.Emit.ground_truth g in
    relevant := !relevant + d.Checker.ds_relevant;
    found := !found + d.Checker.ds_found;
    spurious := !spurious + d.Checker.ds_spurious;
    heur_found := !heur_found + d.Checker.ds_found_heuristic;
    if Checker.clean (Checker.check r.Emit.ground_truth g) then incr explained;
    let st = g.Cfg.stats in
    gaps := !gaps + Atomic.get st.Cfg.gap_gaps_scanned;
    proposed := !proposed + Atomic.get st.Cfg.gap_entries_proposed;
    accepted := !accepted + Atomic.get st.Cfg.gap_entries_accepted;
    rejected := !rejected + Atomic.get st.Cfg.gap_entries_rejected
  done;
  let stripped_wall = Pbca_obs.Clock.now () -. t0 in
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  let precision = ratio !found (!found + !spurious) in
  let recall = ratio !found !relevant in
  (* the adversarial-but-symboled families must stay fully explained *)
  let n_fam = if smoke then 1 else 4 in
  let fam_explained fam =
    let ok = ref 0 in
    for i = 0 to n_fam - 1 do
      let r = Family.generate fam i in
      let g = Pbca_core.Parallel.parse_and_finalize ~pool r.Emit.image in
      if Checker.clean (Checker.check r.Emit.ground_truth g) then incr ok
    done;
    !ok
  in
  let overlap_ok = fam_explained Family.Overlap in
  let obf_ok = fam_explained Family.Obfuscated in
  (* mutation fuzz, gap parser on; Strip_symtab is one of the drawn axes *)
  let seeds = if smoke then 60 else 1000 in
  let config =
    { gap_config with Pbca_core.Config.deadline_s = 2.0 }
  in
  let bases =
    [
      (Emit.generate (Profile.coreutils_like 1)).Emit.image;
      (Emit.generate (Profile.coreutils_like 2)).Emit.image;
      (Family.generate Family.Stripped 0).Emit.image;
    ]
  in
  let clean = ref 0
  and degraded = ref 0
  and malformed = ref 0
  and crash = ref 0
  and strip_drawn = ref 0 in
  let t0 = Pbca_obs.Clock.now () in
  for s = 1 to seeds do
    let rng = Rng.create (0x9000 + s) in
    let img = List.nth bases (s mod List.length bases) in
    let kind, bytes = Mutate.mutate ~rng img in
    if kind = Mutate.Strip_symtab then incr strip_drawn;
    match Image.read_result bytes with
    | Error _ -> incr malformed
    | Ok m -> (
      match Pbca_core.Parallel.parse_and_finalize ~config ~pool m with
      | g ->
        let _, _, heur = Cfg.conf_counts g in
        if Cfg.degraded_count g > 0 || Cfg.task_failure_count g > 0 || heur > 0
        then incr degraded
        else incr clean
      | exception _ -> incr crash)
  done;
  let fuzz_wall = Pbca_obs.Clock.now () -. t0 in
  J_obj
    [
      ("bench", J_str "pr9_wild_binaries");
      ("smoke", J_bool smoke);
      ( "entry_discovery",
        J_obj
          [
            ("stripped_subjects", J_int n_stripped);
            ("fully_explained", J_int !explained);
            ("relevant", J_int !relevant);
            ("found", J_int !found);
            ("found_heuristic", J_int !heur_found);
            ("spurious", J_int !spurious);
            ("precision", J_float precision);
            ("recall", J_float recall);
            ("gate_precision", J_float 0.95);
            ("gate_recall", J_float 0.90);
            ("wall_s", J_float stripped_wall);
          ] );
      ( "gap_scan",
        J_obj
          [
            ("gaps_scanned", J_int !gaps);
            ("entries_proposed", J_int !proposed);
            ("entries_accepted", J_int !accepted);
            ("entries_rejected", J_int !rejected);
          ] );
      ( "families",
        J_obj
          [
            ("members_each", J_int n_fam);
            ("overlap_explained", J_int overlap_ok);
            ("obfuscated_explained", J_int obf_ok);
          ] );
      ( "mutation_fuzz",
        J_obj
          [
            ("mutants", J_int seeds);
            ("survived", J_int (seeds - !crash));
            ("clean", J_int !clean);
            ("degraded", J_int !degraded);
            ("malformed", J_int !malformed);
            ("crash", J_int !crash);
            ("strip_symtab_drawn", J_int !strip_drawn);
            ("wall_s", J_float fuzz_wall);
          ] );
    ]

let wild_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let num path = json_num j path in
  check "json well-formed" (json_well_formed (json_to_string j));
  check "entry-discovery precision meets the 0.95 gate"
    (num [ "entry_discovery"; "precision" ] >= 0.95);
  check "entry-discovery recall meets the 0.90 gate"
    (num [ "entry_discovery"; "recall" ] >= 0.90);
  check "every stripped subject fully explained"
    (num [ "entry_discovery"; "fully_explained" ]
    = num [ "entry_discovery"; "stripped_subjects" ]);
  check "heuristic entries actually discovered"
    (num [ "entry_discovery"; "found_heuristic" ] > 0.0);
  check "gap scanner proposed entries"
    (num [ "gap_scan"; "entries_accepted" ] > 0.0);
  check "overlap family fully explained"
    (num [ "families"; "overlap_explained" ] = num [ "families"; "members_each" ]);
  check "obfuscated family fully explained"
    (num [ "families"; "obfuscated_explained" ]
    = num [ "families"; "members_each" ]);
  check "zero crashes across the mutant corpus"
    (num [ "mutation_fuzz"; "crash" ] = 0.0);
  check "every mutant classified"
    (num [ "mutation_fuzz"; "clean" ]
     +. num [ "mutation_fuzz"; "degraded" ]
     +. num [ "mutation_fuzz"; "malformed" ]
     = num [ "mutation_fuzz"; "mutants" ]);
  check "strip_symtab axis exercised"
    (num [ "mutation_fuzz"; "strip_symtab_drawn" ] > 0.0);
  if not smoke then
    check "mutant corpus large enough for the gate (>= 1000)"
      (num [ "mutation_fuzz"; "mutants" ] >= 1000.0);
  List.rev !failures

let wild_bench () =
  header "Wild binaries: stripped/overlap/obfuscated + gap discovery (PR9)";
  let j = wild_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match wild_checks ~smoke:false j with
  | [] -> print_endline "all wild-binary checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr9.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr9.json"

(* ---------------------------------------------------------------- *)
(* `bench recovery`: PR4 — crash-durable checkpoint/resume. A matrix of
   seeds x kill points: each cell crashes a checkpointed parse at a task
   ordinal, resumes from the surviving artifacts, and must reproduce the
   uninterrupted run's CFG. Two kill columns add disk damage on top: a
   torn journal tail (tolerated silently) and a truncated checkpoint
   (rejected with a structured error, then recovered journal-only).
   Writes BENCH_pr4.json unless ~smoke.                              *)

let recovery_report ~smoke () =
  let module Fault = Pbca_concurrent.Fault in
  let module Parallel = Pbca_core.Parallel in
  let module Recover = Pbca_core.Recover in
  let module Finalize = Pbca_core.Finalize in
  let module Summary = Pbca_core.Summary in
  let module Cfg = Pbca_core.Cfg in
  let n_seeds = if smoke then 1 else 8 in
  let kills = if smoke then [ 60; 300 ] else [ 30; 120; 300; 700 ] in
  let threads = if smoke then 2 else 4 in
  let pool = TP.create ~threads in
  let config = Pbca_core.Config.default in
  (* below this much lost work the ratio is timer noise, not signal *)
  let floor_s = 0.02 in
  let now () = Pbca_obs.Clock.now () in
  let cells = ref 0
  and equal_cells = ref 0
  and torn_cells = ref 0
  and trunc_cells = ref 0
  and cp_rejected = ref 0 in
  let sum_full = ref 0.0
  and sum_resume = ref 0.0
  and sum_lost = ref 0.0
  and sum_ratio = ref 0.0
  and max_ratio = ref 0.0 in
  let replay_ops = ref 0 and replay_wall = ref 0.0 in
  let journal_bytes = ref 0 in
  let read_bytes path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b)
  in
  for s = 1 to n_seeds do
    let img = (Emit.generate (Profile.coreutils_like s)).Emit.image in
    (* uninterrupted run: the equality oracle and the lost-work baseline.
       Only the expansion phase is timed — finalization always runs fresh
       after a resume, so it cancels out of the overhead ratio. *)
    let t0 = now () in
    let g_clean = Parallel.parse ~config ~pool img in
    let t_full = now () -. t0 in
    Finalize.run ~pool g_clean;
    let clean_sum = Summary.of_cfg g_clean in
    List.iteri
      (fun ki ordinal ->
        let cp = Filename.temp_file "bench_pr4" ".cp" in
        let j = cp ^ ".journal" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ cp; j; cp ^ ".tmp" ])
          (fun () ->
            let persist =
              { Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 }
            in
            Fun.protect
              ~finally:(fun () -> Fault.disarm ())
              (fun () ->
                Fault.arm_at [ ordinal ] Fault.Crash;
                try ignore (Parallel.parse ~config ~persist ~pool img)
                with _ -> ());
            journal_bytes := !journal_bytes + (Unix.stat j).Unix.st_size;
            (* disk damage columns *)
            let torn = (not smoke) && ki = 2 in
            let trunc = (not smoke) && ki = 3 in
            if torn then begin
              incr torn_cells;
              let oc = open_out_gen [ Open_append; Open_binary ] 0o644 j in
              output_string oc "torn-tail-garbage\255\000\023";
              close_out oc
            end;
            if trunc then begin
              incr trunc_cells;
              let b = read_bytes cp in
              let keep = Bytes.length b * 3 / 5 in
              let oc = open_out_bin cp in
              output_bytes oc (Bytes.sub b 0 keep);
              close_out oc
            end;
            let src =
              { Recover.src_checkpoint = Some cp; src_journal = Some j }
            in
            let plan =
              match Recover.load src with
              | Ok p -> p
              | Error _ -> (
                incr cp_rejected;
                (* deliberate journal-only retry: the journal holds every
                   op since the run began, so it can carry recovery alone *)
                match
                  Recover.load { src with Recover.src_checkpoint = None }
                with
                | Ok p -> p
                | Error _ -> assert false (* journal loading is total *))
            in
            (* standalone replay timing against a throwaway graph *)
            let g_tmp = Cfg.create ~config img in
            let t0 = now () in
            let n =
              Recover.apply g_tmp plan ~on_jt_pending:(fun ~end_:_ ~reg:_ ->
                  ())
            in
            replay_wall := !replay_wall +. (now () -. t0);
            replay_ops := !replay_ops + n;
            (* the resumed run *)
            let t0 = now () in
            let g = Parallel.parse ~config ~resume:plan ~pool img in
            let t_resume = now () -. t0 in
            Finalize.run ~pool g;
            incr cells;
            if Summary.equal (Summary.of_cfg g) clean_sum then
              incr equal_cells;
            let lost =
              Float.max 0.0 (t_full -. plan.Recover.pl_progress_s)
            in
            let ratio = t_resume /. Float.max lost floor_s in
            sum_full := !sum_full +. t_full;
            sum_resume := !sum_resume +. t_resume;
            sum_lost := !sum_lost +. lost;
            sum_ratio := !sum_ratio +. ratio;
            if ratio > !max_ratio then max_ratio := ratio))
      kills
  done;
  let mean x = x /. float_of_int (max 1 !cells) in
  J_obj
    [
      ("bench", J_str "pr4_crash_recovery");
      ("smoke", J_bool smoke);
      ( "matrix",
        J_obj
          [
            ("seeds", J_int n_seeds);
            ("kill_points", J_int (List.length kills));
            ("cells", J_int !cells);
            ("equal", J_int !equal_cells);
            ("torn_tail_cells", J_int !torn_cells);
            ("truncated_checkpoint_cells", J_int !trunc_cells);
            ("checkpoints_rejected", J_int !cp_rejected);
          ] );
      ( "resume_overhead",
        J_obj
          [
            ("t_full_mean_s", J_float (mean !sum_full));
            ("t_resume_mean_s", J_float (mean !sum_resume));
            ("lost_work_mean_s", J_float (mean !sum_lost));
            ("floor_s", J_float floor_s);
            ("ratio_mean", J_float (mean !sum_ratio));
            ("ratio_max", J_float !max_ratio);
          ] );
      ( "replay",
        J_obj
          [
            ("ops", J_int !replay_ops);
            ("wall_s", J_float !replay_wall);
            ( "ops_per_s",
              J_float
                (if !replay_wall > 0.0 then
                   float_of_int !replay_ops /. !replay_wall
                 else 0.0) );
          ] );
      ( "journal",
        J_obj
          [ ("bytes_mean", J_int (!journal_bytes / max 1 !cells)) ] );
    ]

let recovery_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  let num path = json_num j path in
  check "json well-formed" (json_well_formed (json_to_string j));
  check "every resumed run equals the uninterrupted run"
    (num [ "matrix"; "equal" ] = num [ "matrix"; "cells" ]);
  check "full matrix ran"
    (num [ "matrix"; "cells" ]
    = num [ "matrix"; "seeds" ] *. num [ "matrix"; "kill_points" ]);
  check "truncated checkpoints are always rejected"
    (num [ "matrix"; "checkpoints_rejected" ]
    >= num [ "matrix"; "truncated_checkpoint_cells" ]);
  check "resume overhead under 2x the lost work"
    (num [ "resume_overhead"; "ratio_mean" ] < 2.0);
  if not smoke then
    check "journal replay happened" (num [ "replay"; "ops" ] > 0.0);
  List.rev !failures

let recovery_bench () =
  header "Crash-durable checkpoint/resume (PR4)";
  let j = recovery_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match recovery_checks ~smoke:false j with
  | [] -> print_endline "all recovery checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr4.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr4.json"

(* ---------------------------------------------------------------- *)
(* `bench trace`: PR5 — the observability layer. Measures the tracing
   overhead against an untraced parse of the same image (best-of-reps,
   same pool, cache warmed first), the span coverage of the measured
   parse wall, and the per-phase wall breakdown. Writes BENCH_pr5.json
   unless ~smoke.                                                     *)

let trace_report ~smoke () =
  let module Otrace = Pbca_obs.Trace in
  (* the smoke subject parses in ~1 ms, where one bad scheduling quantum
     swamps the signal; best-of-more keeps the overhead ratio honest *)
  let reps = if smoke then 8 else 5 in
  let threads = if smoke then 2 else 4 in
  let pool = TP.create ~threads in
  let subjects =
    if smoke then [ { Profile.default with Profile.n_funcs = 25; seed = 11 } ]
    else [ Profile.coreutils_like 1; Profile.coreutils_like 2 ]
  in
  let per_subject p =
    let r = Emit.generate p in
    let time_once ?otrace () =
      let t0 = Pbca_obs.Clock.now () in
      ignore
        (Pbca_core.Parallel.parse_and_finalize ?otrace ~pool r.Emit.image
          : Pbca_core.Cfg.t);
      Pbca_obs.Clock.elapsed t0
    in
    (* warm-up: fault pages in, fill the image's decode cache, so the
       traced/untraced comparison sees identical cache state *)
    ignore (time_once ());
    let w_un = ref infinity in
    for _ = 1 to reps do
      let w = time_once () in
      if w < !w_un then w_un := w
    done;
    let best_t = ref Otrace.disabled and w_tr = ref infinity in
    for _ = 1 to reps do
      let t = Otrace.create () in
      let w = time_once ~otrace:t () in
      if w < !w_tr then begin
        w_tr := w;
        best_t := t
      end
    done;
    let t = !best_t in
    let spans = Otrace.spans t in
    let coverage = Otrace.covered_wall t /. !w_tr in
    let overhead = !w_tr /. !w_un in
    ( J_obj
        [
          ("subject", J_str p.Profile.name);
          ("seed", J_int p.Profile.seed);
          ("untraced_wall_s", J_float !w_un);
          ("traced_wall_s", J_float !w_tr);
          ("tracing_overhead", J_float overhead);
          ("spans", J_int (List.length spans));
          ("span_coverage_of_parse_wall", J_float coverage);
          ( "chrome_json_well_formed",
            J_bool (json_well_formed (Otrace.to_chrome_string t)) );
          ( "phase_wall_ms",
            J_obj
              (List.map
                 (fun (ph, w) -> (ph, J_float (1000. *. w)))
                 (Otrace.phase_walls t)) );
        ],
      (overhead, coverage) )
  in
  let results = List.map per_subject subjects in
  J_obj
    [
      ("bench", J_str "pr5_observability");
      ("smoke", J_bool smoke);
      ("reps", J_int reps);
      ("threads", J_int threads);
      ("subjects", J_arr (List.map fst results));
      ( "geomean_tracing_overhead",
        J_float (geomean (List.map (fun (_, (o, _)) -> o) results)) );
      ("overhead_target", J_float 1.05);
    ]

let trace_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  check "json well-formed" (json_well_formed (json_to_string j));
  (match json_field j [ "subjects" ] with
  | Some (J_arr subs) ->
    check "at least one subject benched" (subs <> []);
    List.iter
      (fun s ->
        let name =
          match json_field s [ "subject" ] with Some (J_str n) -> n | _ -> "?"
        in
        check
          (name ^ ": chrome trace JSON well-formed")
          (match json_field s [ "chrome_json_well_formed" ] with
          | Some (J_bool b) -> b
          | _ -> false);
        check (name ^ ": spans recorded") (json_num s [ "spans" ] > 0.0);
        check
          (name ^ ": spans cover >= 95% of the traced parse wall")
          (json_num s [ "span_coverage_of_parse_wall" ] >= 0.95))
      subs
  | _ -> check "subjects present" false);
  (* the smoke subject parses in ~a millisecond, where scheduler jitter
     dwarfs any real tracing cost; hold the <5%-class bound (with a small
     noise allowance) to the full-size run only *)
  check
    (if smoke then "tracing overhead sane (smoke, noisy)"
     else "tracing overhead under 10% (target 5%)")
    (json_num j [ "geomean_tracing_overhead" ]
    < if smoke then 2.0 else 1.10);
  List.rev !failures

let trace_bench () =
  header "Observability: tracing overhead + span coverage (PR5)";
  let j = trace_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match trace_checks ~smoke:false j with
  | [] -> print_endline "all trace checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr5.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr5.json"

(* ---------------------------------------------------------------- *)
(* `bench finalize` (PR6 part): incremental-CSR finalize phase gate.
   Traced full pipeline on the two coreutils subjects, best-of-reps;
   the span phases give the finalize wall, the traversal ([region])
   wall, and the snapshot build/compaction cost ([csr-build] /
   [csr-compact], separate from [fz-step]). Gates: finalize wall at
   most 2x the traversal wall, and no regression against the PR5 phase
   baseline recorded below; incremental-vs-legacy Cfg_diff equality is
   asserted on every subject. Writes BENCH_pr6.json unless ~smoke.    *)

(* BENCH_pr5.json phase_wall_ms.finalize on this reference machine —
   the regression baseline the incremental CSR must beat *)
let pr5_finalize_baseline_ms =
  [ ("coreutils_001", 40.1557); ("coreutils_002", 35.5189) ]

let csr_report ~smoke () =
  let module Otrace = Pbca_obs.Trace in
  let reps = if smoke then 2 else 5 in
  let threads = if smoke then 2 else 4 in
  let pool = TP.create ~threads in
  let subjects =
    if smoke then [ { Profile.default with Profile.n_funcs = 25; seed = 11 } ]
    else [ Profile.coreutils_like 1; Profile.coreutils_like 2 ]
  in
  let per_subject p =
    let r = Emit.generate p in
    (* correctness side of the gate: the incremental snapshot path must
       equal the legacy whole-graph path on this very subject *)
    let spool = TP.create ~threads:1 in
    let g_inc = Pbca_core.Parallel.parse_and_finalize ~pool:spool r.Emit.image in
    let g_leg = Pbca_core.Parallel.parse ~pool:spool r.Emit.image in
    Pbca_core.Finalize.run_legacy ~pool:spool g_leg;
    let equal = graphs_equal g_inc g_leg in
    (* perf side: traced pipeline at [threads], best of [reps] (plus one
       untimed warm-up for the decode cache) *)
    let run_traced () =
      let t = Otrace.create () in
      let t0 = Pbca_obs.Clock.now () in
      let g = Pbca_core.Parallel.parse_and_finalize ~otrace:t ~pool r.Emit.image in
      (t, g, Pbca_obs.Clock.elapsed t0)
    in
    ignore (run_traced ());
    let t0, g0, w0 = run_traced () in
    let best_t = ref t0 and best_g = ref g0 and best_w = ref w0 in
    for _ = 2 to reps do
      let t, g, w = run_traced () in
      if w < !best_w then begin
        best_t := t;
        best_g := g;
        best_w := w
      end
    done;
    let walls = Otrace.phase_walls !best_t in
    let ms ph =
      match List.assoc_opt ph walls with Some v -> 1000. *. v | None -> 0.0
    in
    let fin = ms "finalize" and region = ms "region" in
    let ratio = if region > 0.0 then fin /. region else infinity in
    let st = (!best_g).Pbca_core.Cfg.stats in
    let baseline = List.assoc_opt p.Profile.name pr5_finalize_baseline_ms in
    ( J_obj
        ([
           ("subject", J_str p.Profile.name);
           ("seed", J_int p.Profile.seed);
           ("wall_s", J_float !best_w);
           ("finalize_wall_ms", J_float fin);
           ("traversal_wall_ms", J_float region);
           ("finalize_over_traversal", J_float ratio);
           ("fz_step_ms", J_float (ms "fz-step"));
           ("csr_build_ms", J_float (ms "csr-build"));
           ("csr_compact_ms", J_float (ms "csr-compact"));
           ( "csr_deltas",
             J_int (Atomic.get st.Pbca_core.Cfg.csr_deltas) );
           ( "csr_compactions",
             J_int (Atomic.get st.Pbca_core.Cfg.csr_compactions) );
           ("incremental_vs_legacy_equal", J_bool equal);
         ]
        @
        match baseline with
        | Some b ->
          [
            ("pr5_finalize_baseline_ms", J_float b);
            ("speedup_vs_pr5", J_float (b /. Float.max fin 1e-9));
          ]
        | None -> []),
      (ratio, fin, baseline, equal) )
  in
  let results = List.map per_subject subjects in
  J_obj
    [
      ("bench", J_str "pr6_incremental_csr");
      ("smoke", J_bool smoke);
      ("reps", J_int reps);
      ("threads", J_int threads);
      ("finalize_over_traversal_target", J_float 2.0);
      ("subjects", J_arr (List.map fst results));
    ]

let csr_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  check "json well-formed" (json_well_formed (json_to_string j));
  (match json_field j [ "subjects" ] with
  | Some (J_arr subs) ->
    check "at least one subject benched" (subs <> []);
    List.iter
      (fun s ->
        let name =
          match json_field s [ "subject" ] with Some (J_str n) -> n | _ -> "?"
        in
        check
          (name ^ ": incremental and legacy graphs Cfg_diff-equal")
          (match json_field s [ "incremental_vs_legacy_equal" ] with
          | Some (J_bool b) -> b
          | _ -> false);
        check
          (name ^ ": finalize phase wall recorded")
          (json_num s [ "finalize_wall_ms" ] > 0.0);
        if not smoke then begin
          check
            (name ^ ": finalize wall <= 2x traversal wall")
            (json_num s [ "finalize_over_traversal" ] <= 2.0);
          check
            (name ^ ": finalize wall does not regress vs PR5 baseline")
            (json_num s [ "finalize_wall_ms" ]
            <= json_num s [ "pr5_finalize_baseline_ms" ])
        end)
      subs
  | _ -> check "subjects present" false);
  List.rev !failures

let csr_bench () =
  header "Incremental CSR: finalize vs traversal phase gate (PR6)";
  let j = csr_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match csr_checks ~smoke:false j with
  | [] -> print_endline "all incremental-csr checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr6.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr6.json"

(* ---------------------------------------------------------------- *)
(* PR8: the bserve daemon. Cold-vs-cached service latency, sustained
   throughput, shed rate under a 2x-capacity burst, and the regression
   gate: parse results served by the daemon must carry the fingerprint
   of a local one-shot parse, which itself must stay Cfg_diff-equal
   serial vs parallel. Writes BENCH_pr8.json unless ~smoke.           *)

let serve_percentile buckets n q =
  if n = 0 then 0.0
  else
    let target =
      max 1 (int_of_float (ceil (q *. float_of_int n)))
    in
    let rec go acc = function
      | [] -> infinity
      | (bound, c) :: rest ->
        let acc = acc + c in
        if acc >= target then bound else go acc rest
    in
    go 0 buckets

let serve_report ~smoke () =
  let module Serve = Pbca_serve.Serve in
  let module Wire = Pbca_serve.Wire in
  let module Sclient = Pbca_serve.Sclient in
  let module Fault = Pbca_concurrent.Fault in
  let module Metrics = Pbca_obs.Metrics in
  let reps = if smoke then 2 else 4 in
  let tput_n = if smoke then 5 else 20 in
  let subjects =
    (* service subjects are sized so a cold parse stands well above
       timer noise next to a cache hit, which reads one stored reply; at
       coreutils scale (~40 funcs, ~2ms parses) the comparison is noise *)
    if smoke then [ { Profile.default with Profile.n_funcs = 25; seed = 11 } ]
    else
      List.map
        (fun i ->
          { (Profile.coreutils_like i) with
            Profile.n_funcs = 400;
            seed = 9100 + i;
          })
        [ 1; 2 ]
  in
  let dir = Filename.temp_file "bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cleanup () =
    (try
       let cache = Filename.concat dir "cache" in
       (try
          Array.iter
            (fun e -> try Sys.remove (Filename.concat cache e) with _ -> ())
            (Sys.readdir cache)
        with Sys_error _ -> ());
       (try Unix.rmdir cache with Unix.Unix_error _ -> ());
       Array.iter
         (fun e -> try Sys.remove (Filename.concat dir e) with _ -> ())
         (try Sys.readdir dir with Sys_error _ -> [||]);
       Unix.rmdir dir
     with Unix.Unix_error _ | Sys_error _ -> ())
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  let roundtrip req =
    match Sclient.roundtrip ~timeout_s:60.0 ~sock req with
    | Ok r -> r
    | Error e -> failwith ("bench serve: " ^ Sclient.error_to_string e)
  in
  (* --- service daemon: latency, cache, throughput, equality gate --- *)
  let cfg =
    { (Serve.default_config ~sock) with
      Serve.sc_workers = 2;
      sc_acceptors = 1;
      sc_queue = 16;
      sc_cache_dir = Some (Filename.concat dir "cache");
    }
  in
  let subject_results, hist =
    Serve.with_server cfg (fun t ->
        let per_subject p =
          let img = (Emit.generate p).Emit.image in
          let bytes = Image.write img in
          (* local oracle: serial and parallel one-shot parses *)
          let parse threads =
            let pool = TP.create ~threads in
            Pbca_core.Parallel.parse_and_finalize ~pool img
          in
          let g_serial = parse 1 in
          let g_par = parse 2 in
          let local_equal = graphs_equal g_serial g_par in
          let local_fp =
            Pbca_core.Summary.fingerprint (Pbca_core.Summary.of_cfg g_serial)
          in
          let fp_of (r : Wire.reply) =
            match String.index_opt r.Wire.rp_body ' ' with
            | Some i -> String.sub r.Wire.rp_body 12 (i - 12)
            | None -> r.Wire.rp_body
          in
          (* cold service latency: bypass the cache so every rep does the
             full discovery + jump-table fixpoint *)
          let cold_req =
            Wire.request ~no_cache:true ~image:bytes Wire.Parse
          in
          let cold_us = ref max_int and daemon_ok = ref true in
          for _ = 1 to reps do
            let r = roundtrip cold_req in
            if r.Wire.rp_status <> Wire.Ok_clean || fp_of r <> local_fp then
              daemon_ok := false;
            cold_us := min !cold_us r.Wire.rp_run_us
          done;
          (* populate, then measure the cached path: a read of the
             stored reply instead of re-discovery *)
          let warm_req = Wire.request ~image:bytes Wire.Parse in
          let first = roundtrip warm_req in
          if first.Wire.rp_status <> Wire.Ok_clean || fp_of first <> local_fp
          then daemon_ok := false;
          let hit_us = ref max_int and hits = ref 0 in
          for _ = 1 to reps do
            let r = roundtrip warm_req in
            if r.Wire.rp_status <> Wire.Ok_clean || fp_of r <> local_fp then
              daemon_ok := false;
            if r.Wire.rp_cache_hit then begin
              incr hits;
              hit_us := min !hit_us r.Wire.rp_run_us
            end
          done;
          (* sustained sequential load over the cached path *)
          let t0 = Unix.gettimeofday () in
          for _ = 1 to tput_n do
            let r = roundtrip warm_req in
            if r.Wire.rp_status <> Wire.Ok_clean then daemon_ok := false
          done;
          let tput_wall = Unix.gettimeofday () -. t0 in
          J_obj
            [
              ("subject", J_str p.Profile.name);
              ("image_bytes", J_int (Bytes.length bytes));
              ("daemon_matches_local", J_bool !daemon_ok);
              ("local_serial_parallel_equal", J_bool local_equal);
              ("cold_run_us", J_int !cold_us);
              ("cached_hit_run_us",
               J_int (if !hits > 0 then !hit_us else -1));
              ("cache_hits_observed", J_int !hits);
              ( "hit_speedup",
                J_float
                  (if !hits > 0 && !hit_us > 0 then
                     float_of_int !cold_us /. float_of_int !hit_us
                   else 0.0) );
              ( "throughput_req_s",
                J_float
                  (if tput_wall > 0.0 then float_of_int tput_n /. tput_wall
                   else 0.0) );
            ]
        in
        let rs = List.map per_subject subjects in
        let hist =
          match
            List.assoc_opt "serve_latency_s"
              (Metrics.snapshot (Serve.metrics t))
          with
          | Some (Metrics.Histogram { n; buckets; _ }) ->
            J_obj
              [
                ("n", J_int n);
                ("p50_s", J_float (serve_percentile buckets n 0.50));
                ("p99_s", J_float (serve_percentile buckets n 0.99));
              ]
          | _ -> J_obj [ ("n", J_int 0) ]
        in
        (rs, hist))
  in
  (* --- overload daemon: burst at ~2x capacity, count the sheds --- *)
  let osock = Filename.concat dir "o.sock" in
  let ocfg =
    { (Serve.default_config ~sock:osock) with
      Serve.sc_workers = 1;
      sc_acceptors = 1;
      sc_queue = 4;
      sc_cache_dir = None;
    }
  in
  let overload =
    Fun.protect
      ~finally:(fun () -> Fault.disarm_service ())
      (fun () ->
        Serve.with_server ocfg (fun t ->
            (* the single worker sits on the first request while the rest
               of the burst hits the admission bound *)
            Fault.arm_service_at [ (0, Fault.Stall 0.4) ];
            let img =
              Image.write
                (Emit.generate
                   { Profile.default with Profile.n_funcs = 10; seed = 3 })
                  .Emit.image
            in
            let capacity = ocfg.Serve.sc_queue + ocfg.Serve.sc_workers in
            let n = 2 * capacity in
            let reqs =
              List.init n (fun _ -> Wire.request ~image:img Wire.Parse)
            in
            let replies = Sclient.burst ~timeout_s:60.0 ~sock:osock reqs in
            let count st =
              List.length
                (List.filter
                   (function
                     | Ok (r : Wire.reply) -> r.Wire.rp_status = st
                     | Error _ -> false)
                   replies)
            in
            let client_errors =
              List.length
                (List.filter (function Error _ -> true | Ok _ -> false)
                   replies)
            in
            let shed =
              match
                List.assoc_opt "serve_shed"
                  (Metrics.snapshot (Serve.metrics t))
              with
              | Some (Metrics.Counter c) -> c
              | _ -> 0
            in
            J_obj
              [
                ("burst", J_int n);
                ("capacity", J_int capacity);
                ("served_ok", J_int (count Wire.Ok_clean));
                ("shed_overloaded", J_int (count Wire.Overloaded));
                ("shed_counter", J_int shed);
                ("client_errors", J_int client_errors);
                ( "shed_rate",
                  J_float (float_of_int shed /. float_of_int n) );
              ]))
  in
  J_obj
    [
      ("bench", J_str "pr8_serve");
      ("smoke", J_bool smoke);
      ("reps", J_int reps);
      ("throughput_requests", J_int tput_n);
      ("subjects", J_arr subject_results);
      ("latency_hist", hist);
      ("overload", overload);
    ]

let serve_checks ~smoke j =
  let failures = ref [] in
  let check name ok = if not ok then failures := name :: !failures in
  check "json well-formed" (json_well_formed (json_to_string j));
  (match json_field j [ "subjects" ] with
  | Some (J_arr subs) ->
    check "at least one subject benched" (subs <> []);
    List.iter
      (fun s ->
        let name =
          match json_field s [ "subject" ] with Some (J_str n) -> n | _ -> "?"
        in
        let flag path =
          match json_field s path with Some (J_bool b) -> b | _ -> false
        in
        check (name ^ ": daemon replies match the local one-shot parse")
          (flag [ "daemon_matches_local" ]);
        check (name ^ ": local serial and parallel parses Cfg_diff-equal")
          (flag [ "local_serial_parallel_equal" ]);
        check (name ^ ": cache hits observed")
          (json_num s [ "cache_hits_observed" ] >= 1.0);
        check
          (name ^ ": throughput measured")
          (json_num s [ "throughput_req_s" ] > 0.0);
        (* the acceptance gate: reading the stored reply must be at
           least 5x faster than re-discovering the CFG. Too noisy to
           assert on the seconds-long smoke subjects; the full bench
           asserts it. *)
        if not smoke then
          check
            (name ^ ": cached hit at least 5x faster than cold parse")
            (json_num s [ "cached_hit_run_us" ] > 0.0
            && json_num s [ "hit_speedup" ] >= 5.0))
      subs
  | _ -> check "subjects present" false);
  check "overload: load was shed"
    (json_num j [ "overload"; "shed_counter" ] >= 1.0);
  check "overload: every burst request answered structurally"
    (json_num j [ "overload"; "client_errors" ] = 0.0);
  check "overload: admitted requests still served"
    (json_num j [ "overload"; "served_ok" ] >= 1.0);
  List.rev !failures

let serve_bench () =
  header "Analysis-as-a-service daemon (PR8)";
  let j = serve_report ~smoke:false () in
  let s = json_to_string j in
  print_endline s;
  (match serve_checks ~smoke:false j with
  | [] -> print_endline "all serve checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out "BENCH_pr8.json" in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_pr8.json"

(* seconds-long slice of the same reports, self-checking, for `dune
   runtest`; prints to stdout only (the test sandbox is read-only) *)
let microsmoke () =
  let j = contention_report ~smoke:true () in
  print_endline (json_to_string j);
  (match contention_checks j with
  | [] -> print_endline "microsmoke: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let jf = finalize_report ~smoke:true () in
  print_endline (json_to_string jf);
  (match finalize_checks ~smoke:true jf with
  | [] -> print_endline "microsmoke finalize: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let jr = robustness_report ~smoke:true () in
  print_endline (json_to_string jr);
  (match robustness_checks jr with
  | [] -> print_endline "microsmoke robustness: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let j9 = wild_report ~smoke:true () in
  print_endline (json_to_string j9);
  (match wild_checks ~smoke:true j9 with
  | [] -> print_endline "microsmoke wild: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let jc = recovery_report ~smoke:true () in
  print_endline (json_to_string jc);
  (match recovery_checks ~smoke:true jc with
  | [] -> print_endline "microsmoke recovery: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let jt = trace_report ~smoke:true () in
  print_endline (json_to_string jt);
  (match trace_checks ~smoke:true jt with
  | [] -> print_endline "microsmoke trace: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let j6 = csr_report ~smoke:true () in
  print_endline (json_to_string j6);
  (match csr_checks ~smoke:true j6 with
  | [] -> print_endline "microsmoke incremental-csr: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1);
  let j8 = serve_report ~smoke:true () in
  print_endline (json_to_string j8);
  match serve_checks ~smoke:true j8 with
  | [] -> print_endline "microsmoke serve: ok"
  | fs ->
    List.iter (fun f -> Printf.printf "microsmoke CHECK FAILED: %s\n" f) fs;
    exit 1

(* ---------------------------------------------------------------- *)

let subcommands =
  [ "table1"; "table2"; "figure2"; "figure3"; "table3"; "correctness";
    "ablations"; "micro"; "contention"; "finalize"; "robustness";
    "recovery"; "trace"; "serve"; "all"; "microsmoke" ]

let () =
  let cmds = Array.to_list Sys.argv |> List.tl in
  (match List.filter (fun c -> not (List.mem c subcommands)) cmds with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown subcommand %s\nusage: %s [%s]...\n"
      (String.concat ", " unknown) Sys.argv.(0)
      (String.concat " | " subcommands);
    exit 2);
  let cmds = if cmds = [] then [ "all" ] else cmds in
  let want c = List.mem c cmds || List.mem "all" cmds in
  Printf.printf
    "pbca bench harness (scale=%.2f; this machine has %d hardware core(s) — \
     thread sweeps are schedule-simulated, see DESIGN.md)\n"
    scale
    (Domain.recommended_domain_count ());
  if want "table1" then table1 ();
  (if want "table2" || want "figure2" || want "figure3" then begin
     let runs = run_subjects () in
     if want "table2" then table2 runs;
     if want "figure2" then figure2 runs;
     if want "figure3" then figure3 runs
   end);
  if want "table3" then table3 ();
  if want "correctness" then correctness ();
  if want "ablations" then ablations ();
  if want "micro" then micro ();
  if want "contention" then contention ();
  if want "finalize" then begin
    finalize_bench ();
    csr_bench ()
  end;
  if want "robustness" then begin
    robustness_bench ();
    wild_bench ()
  end;
  if want "recovery" then recovery_bench ();
  if want "trace" then trace_bench ();
  if want "serve" then serve_bench ();
  (* microsmoke is runtest plumbing, not part of "all" *)
  if List.mem "microsmoke" cmds then microsmoke ();
  line ()
