(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8) plus the ablations called out in DESIGN.md, and
   runs the two full-size gates no other harness runs.

   Thread sweeps are simsched model output, not measured time: each
   phase's wall-clock is measured for real at one thread, and the value
   printed for T > 1 threads is wall1 * makespan(T) / makespan(1) from
   the replay of that phase's recorded task trace (DESIGN.md substitution
   3). The paper's machines ran up to 72 hardware threads; measured
   multi-domain time comes from perfbench/.

   Subcommands: table1 table2 figure2 figure3 table3 correctness ablations
   robustness trace all (default: all). `correctness` exits 1 on any
   unexplained difference; `robustness` (wild-binary gap parsing,
   BENCH_pr9.json) and `trace` (tracing overhead and span coverage,
   BENCH_pr5.json) exit 1 when a gate fails. Any other word is rejected
   with a usage line and exit status 2. *)

module Profile = Pbca_codegen.Profile
module Emit = Pbca_codegen.Emit
module Image = Pbca_binfmt.Image
module Trace = Pbca_simsched.Trace
module Replay = Pbca_simsched.Replay
module TP = Pbca_concurrent.Task_pool
module H = Pbca_hpcstruct.Hpcstruct
module B = Pbca_binfeat.Binfeat

let threads_sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

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
    "Table 2: hpcstruct performance (1 thread measured; more threads: simsched \
     model output, not measured time)";
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
  header
    "Figure 2: phase trace of hpcstruct on 'tensorflow' at 64 threads \
     (simsched model output, not measured time)";
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
    Printf.printf "total (model, 64 threads): %.4fs; measured 1-thread: %.4fs\n"
      total (H.total_wall r)

let figure3 runs =
  header
    "Figure 3: average speedup (geometric mean over the four binaries; \
     simsched model output, not measured time)";
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
  header
    "Table 3: BinFeat performance over the forensics corpus (1 thread \
     measured; more threads: simsched model output, not measured time)";
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
  if !unexplained > 0 then begin
    Printf.printf "\n*** UNEXPLAINED DIFFERENCES ***\n";
    exit 1
  end

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
    \    one jump table per function (makespans are simsched model output):\n\
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
(* The two gates write self-checking JSON reports.                   *)

open Pbca_obs.Json

(* print [j], exit 1 if any check failed, else write it to [file] in the
   current directory *)
let write_report file j failures =
  let s = json_to_string j in
  print_endline s;
  (match failures with
  | [] -> print_endline "all checks passed"
  | fs ->
    List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) fs;
    exit 1);
  let oc = open_out file in
  output_string oc s;
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ---------------------------------------------------------------- *)
(* `bench robustness`: wild binaries. Stripped subjects are parsed
   through gap discovery and scored for entry precision/recall against
   ground truth (gate: >= 0.95 / >= 0.90); the overlap and obfuscation
   families must be fully explained by the checker; and a mutation fuzz
   runs with the gap parser enabled and the Strip_symtab axis in the
   draw. Writes BENCH_pr9.json.                                        *)

let wild_report () =
  let module Mutate = Pbca_codegen.Mutate in
  let module Rng = Pbca_codegen.Rng in
  let module Family = Pbca_codegen.Family in
  let module Cfg = Pbca_core.Cfg in
  let module Checker = Pbca_checker.Checker in
  let pool = TP.create ~threads:4 in
  let gap_config =
    { Pbca_core.Config.default with Pbca_core.Config.gap_parse = true }
  in
  (* stripped subjects: every entry except the image entry point must be
     earned back by the gap scanner *)
  let n_stripped = 16 in
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
  let n_fam = 4 in
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
  let seeds = 1000 in
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

let wild_checks j =
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
  List.rev !failures

let wild_bench () =
  header "Wild binaries: stripped/overlap/obfuscated + gap discovery (PR9)";
  let j = wild_report () in
  write_report "BENCH_pr9.json" j (wild_checks j)

(* ---------------------------------------------------------------- *)
(* `bench trace`: the observability layer. Measures the tracing overhead
   against an untraced parse of the same image (best-of-reps, same pool,
   cache warmed first), the span coverage of the measured parse wall,
   and the per-phase wall breakdown. Writes BENCH_pr5.json.            *)

let trace_report () =
  let module Otrace = Pbca_obs.Trace in
  let reps = 5 in
  let threads = 4 in
  let pool = TP.create ~threads in
  let subjects = [ Profile.coreutils_like 1; Profile.coreutils_like 2 ] in
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
      ("reps", J_int reps);
      ("threads", J_int threads);
      ("subjects", J_arr (List.map fst results));
      ( "geomean_tracing_overhead",
        J_float (geomean (List.map (fun (_, (o, _)) -> o) results)) );
      ("overhead_target", J_float 1.05);
    ]

let trace_checks j =
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
  check "tracing overhead under 10% (target 5%)"
    (json_num j [ "geomean_tracing_overhead" ] < 1.10);
  List.rev !failures

let trace_bench () =
  header "Observability: tracing overhead + span coverage (PR5)";
  let j = trace_report () in
  write_report "BENCH_pr5.json" j (trace_checks j)

(* ---------------------------------------------------------------- *)

let subcommands =
  [ "table1"; "table2"; "figure2"; "figure3"; "table3"; "correctness";
    "ablations"; "robustness"; "trace"; "all" ]

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
    "pbca bench harness (scale=%.2f; %d hardware core(s)). Values above 1 \
     thread are simsched model output: the measured 1-thread wall scaled by \
     the makespan ratio, not measured time (see DESIGN.md); measured time \
     comes from perfbench/.\n"
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
  if want "robustness" then wild_bench ();
  if want "trace" then trace_bench ();
  line ()
