(* Shared helpers for the test suites. *)

module Spec = Pbca_codegen.Spec
module Profile = Pbca_codegen.Profile
module Emit = Pbca_codegen.Emit
module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg

let quick name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Timing comparison for tests: the median over [pairs] of num () /. den (),
   each closure returning its own measured cost. The order within a pair
   alternates, so drift in machine load hits both sides alike, and the
   median drops the pair a scheduling hiccup landed on. *)
let median_paired_ratio ~pairs num den =
  median
    (List.init pairs (fun i ->
         let n, d =
           if i land 1 = 0 then
             let n = num () in
             (n, den ())
           else
             let d = den () in
             (num (), d)
         in
         n /. d))

(* Build a one-off spec around explicit function definitions. *)
let mk_fspec ?(name = "f") ?(frame = true) ?cold ?secondary ?(cu = 0) blocks =
  {
    Spec.fs_name = name;
    fs_blocks = Array.of_list blocks;
    fs_frame = frame;
    fs_cold = cold;
    fs_secondary = secondary;
    fs_cu = cu;
    fs_error_style = false;
    fs_noreturn_leaf = false;
  }

let blk ?(body = []) term = { Spec.bs_body = body; bs_term = term }

let mk_spec ?(stubs = []) ?(fptable = [| 0 |]) funcs =
  {
    Spec.sp_profile = { Profile.default with name = "handmade"; n_cus = 1 };
    sp_funcs = Array.of_list funcs;
    sp_stubs = Array.of_list stubs;
    sp_fptable = fptable;
    sp_data = Array.make (List.length funcs) None;
  }

let emit_spec spec = Emit.emit spec

let parse_serial image = Pbca_core.Serial.parse_and_finalize image

let parse_parallel ?(threads = 4) image =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  Pbca_core.Parallel.parse_and_finalize ~pool image

let summary = Pbca_core.Summary.of_cfg

let assert_deterministic ?(threads = [ 1; 2; 4 ]) image =
  let ref_sum = summary (parse_serial image) in
  List.iter
    (fun t ->
      let s = summary (parse_parallel ~threads:t image) in
      if not (Pbca_core.Summary.equal ref_sum s) then
        Alcotest.failf "thread count %d diverged:\n%s" t
          (String.concat "\n" (Pbca_core.Summary.diff ref_sum s)))
    threads

let find_func g name =
  List.find_opt
    (fun (f : Pbca_core.Cfg.func) -> f.f_name = name)
    (Pbca_core.Cfg.funcs_list g)

let get_func g name =
  match find_func g name with
  | Some f -> f
  | None -> Alcotest.failf "function %s not found" name

let func_ret g name =
  match Atomic.get (get_func g name).Pbca_core.Cfg.f_ret with
  | Pbca_core.Cfg.Returns -> `Ret
  | Pbca_core.Cfg.Noreturn -> `Noret
  | Pbca_core.Cfg.Unset -> `Unset

let check_clean gt g =
  let rep = Pbca_checker.Checker.check gt g in
  if not (Pbca_checker.Checker.clean rep) then
    Alcotest.failf "checker found unexplained differences:\n%s"
      (Format.asprintf "%a" Pbca_checker.Checker.pp rep)

(* A tiny well-known function: entry -> cond -> (then | else) -> join -> ret.
   Block indices: 0 entry, 1 then-branch fall, 2 join, 3 taken target. *)
let diamond_fun ?(name = "diamond") () =
  mk_fspec ~name
    [
      blk ~body:[ Insn.Cmp_ri (Reg.r1, 5) ] (Spec.T_cond (Insn.Eq, 3));
      blk ~body:[ Insn.Mov_ri (Reg.r0, 1) ] Spec.T_fall;
      blk ~body:[ Insn.Mov_ri (Reg.r2, 9) ] Spec.T_ret;
      blk ~body:[ Insn.Mov_ri (Reg.r0, 2) ] (Spec.T_jmp 2);
    ]

(* A loop: 0 entry -> 1 header; 1 -> (2 body | 3 exit); 2 -> jmp 1; 3 ret *)
let loop_fun ?(name = "looper") () =
  mk_fspec ~name
    [
      blk ~body:[ Insn.Mov_ri (Reg.r1, 0) ] Spec.T_fall;
      blk ~body:[ Insn.Cmp_ri (Reg.r1, 10) ] (Spec.T_cond (Insn.Ge, 3));
      blk ~body:[ Insn.Add_ri (Reg.r1, 1) ] (Spec.T_jmp 1);
      blk Spec.T_ret;
    ]
