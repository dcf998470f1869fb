(* Tests for the schedule simulator: the substrate standing in for the
   paper's 64-thread machines (DESIGN.md substitution 3). *)

open Tutil
module Heap = Pbca_simsched.Heap
module Trace = Pbca_obs.Trace
module Replay = Pbca_simsched.Replay

(* ------------------------------- heap --------------------------------- *)

let test_heap_order =
  qcheck ~count:200 "heap pops in sorted order"
    QCheck2.Gen.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (k, p) -> Heap.push h ~key:k ~payload:p) items;
      let rec drain acc =
        match Heap.pop h with Some kv -> drain (kv :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare items)

let test_heap_basics () =
  let h = Heap.create () in
  Alcotest.(check bool) "fresh empty" true (Heap.is_empty h);
  Heap.push h ~key:5 ~payload:50;
  Heap.push h ~key:1 ~payload:10;
  Alcotest.(check int) "length" 2 (Heap.length h);
  Alcotest.(check bool) "peek min" true (Heap.peek h = Some (1, 10));
  Alcotest.(check bool) "pop min" true (Heap.pop h = Some (1, 10))

(* ------------------------------ trace --------------------------------- *)

type job = Job of int * job list

let mk_trace jobs =
  (* cost + spawned children, executed single-threaded *)
  let tr = Trace.create () in
  let rec exec (Job (cost, children)) =
    Trace.with_task tr ~deps:[ Trace.capture tr ] "job" (fun () ->
        Trace.tick tr cost;
        List.iter exec children)
  in
  List.iter exec jobs;
  tr

let test_trace_records () =
  let tr = mk_trace [ Job (10, [ Job (5, []); Job (7, []) ]) ] in
  let ts = Trace.tasks tr in
  Alcotest.(check int) "three tasks" 3 (List.length ts);
  Alcotest.(check int) "total work" 22 (Trace.total_work tr)

let test_trace_disabled () =
  let tr = Trace.disabled in
  Trace.with_task tr ~deps:[] "job" (fun () -> Trace.tick tr 100);
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.tasks tr));
  Alcotest.(check bool) "capture none" true (Trace.capture tr = None)

(* ------------------------------ replay -------------------------------- *)

let chain n cost =
  (* n tasks, each depending on the previous one's completion *)
  List.init n (fun i ->
      {
        Trace.id = i;
        label = "t";
        cost;
        deps =
          (if i = 0 then [] else [ { Trace.dep_task = i - 1; dep_offset = max_int } ]);
        epoch = 0;
      })

let independent n cost =
  List.init n (fun i -> { Trace.id = i; label = "t"; cost; deps = []; epoch = 0 })

let test_replay_single_thread_is_total_work () =
  let r = Replay.simulate ~threads:1 (independent 10 7) in
  Alcotest.(check int) "makespan = total" 70 r.makespan;
  Alcotest.(check int) "total work" 70 r.total_work

let test_replay_infinite_threads_is_critical_path () =
  let r = Replay.simulate ~threads:64 (independent 10 7) in
  Alcotest.(check int) "all parallel" 7 r.makespan;
  let rc = Replay.simulate ~threads:64 (chain 10 7) in
  Alcotest.(check int) "chain stays serial" 70 rc.makespan;
  Alcotest.(check int) "critical path" 70 rc.critical_path

let test_replay_monotone () =
  let tasks = independent 40 3 @ chain 5 11 in
  (* re-id to keep ids unique *)
  let tasks =
    List.mapi (fun i (t : Trace.task) ->
        { t with id = (if t.deps = [] then i else t.id + 1000);
          deps = List.map (fun (d : Trace.dep) -> { d with dep_task = d.dep_task + 1000 }) t.deps })
      tasks
  in
  let prev = ref max_int in
  List.iter
    (fun threads ->
      let r = Replay.simulate ~threads tasks in
      Alcotest.(check bool)
        (Printf.sprintf "non-increasing at %d threads" threads)
        true
        (r.makespan <= !prev);
      prev := r.makespan)
    [ 1; 2; 4; 8; 16; 64 ]

let test_replay_speedup_bounded () =
  let tasks = independent 100 5 in
  List.iter
    (fun threads ->
      let r = Replay.simulate ~threads tasks in
      let speedup = float_of_int r.total_work /. float_of_int r.makespan in
      Alcotest.(check bool) "speedup <= threads" true
        (speedup <= float_of_int threads +. 1e-9);
      Alcotest.(check bool) "busy fraction sane" true (r.busy <= 1.0 +. 1e-9))
    [ 1; 3; 7; 16 ]

let test_replay_dep_offset () =
  (* B can start once A has executed 2 of its 10 units *)
  let tasks =
    [
      { Trace.id = 0; label = "a"; cost = 10; deps = []; epoch = 0 };
      {
        Trace.id = 1;
        label = "b";
        cost = 3;
        deps = [ { Trace.dep_task = 0; dep_offset = 2 } ];
        epoch = 0;
      };
    ]
  in
  let r = Replay.simulate ~threads:2 tasks in
  (* b runs during a: finishes at 2+3=5 < 10 *)
  Alcotest.(check int) "overlap honored" 10 r.makespan;
  let r1 = Replay.simulate ~threads:1 tasks in
  Alcotest.(check int) "serial sum" 13 r1.makespan

let test_replay_barrier_epochs () =
  let e0 = independent 8 5 in
  let e1 =
    List.map (fun (t : Trace.task) -> { t with id = t.id + 100; epoch = 1 })
      (independent 8 5)
  in
  let r = Replay.simulate ~threads:8 (e0 @ e1) in
  (* each epoch takes 5 at 8 threads; barrier forces 5 + 5 *)
  Alcotest.(check int) "epochs serialize" 10 r.makespan

let test_replay_from_real_trace () =
  let tr = mk_trace [ Job (50, List.init 10 (fun _ -> Job (20, []))) ] in
  let r1 = Replay.simulate ~threads:1 (Trace.tasks tr) in
  let r8 = Replay.simulate ~threads:8 (Trace.tasks tr) in
  Alcotest.(check int) "serial = total work" r1.total_work r1.makespan;
  Alcotest.(check bool) "parallel faster" true (r8.makespan < r1.makespan);
  (* children spawned at the parent's current progress point: the first
     child cannot start before the parent accumulated its 50 units *)
  Alcotest.(check bool) "spawn offsets respected" true (r8.makespan >= 70)

let test_parser_trace_speedup_shape =
  slow "replay of a real parse trace: speedup grows then saturates"
    (fun () ->
      let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 150 } in
      let trace = Trace.create () in
      let pool = Pbca_concurrent.Task_pool.create ~threads:2 in
      ignore (Pbca_core.Parallel.parse_and_finalize ~trace ~pool r.image);
      let s1 = Replay.speedup ~threads:1 trace in
      let s8 = Replay.speedup ~threads:8 trace in
      let s64 = Replay.speedup ~threads:64 trace in
      Alcotest.(check bool) "s1 ~ 1" true (abs_float (s1 -. 1.0) < 0.01);
      Alcotest.(check bool) "8 threads helps" true (s8 > 2.0);
      Alcotest.(check bool) "monotone" true (s64 >= s8 -. 0.01);
      Alcotest.(check bool) "below linear" true (s64 < 64.0))

let suite =
  [
    test_heap_order;
    quick "heap basics" test_heap_basics;
    quick "trace records tasks and work" test_trace_records;
    quick "disabled trace is free" test_trace_disabled;
    quick "replay: 1 thread = total work" test_replay_single_thread_is_total_work;
    quick "replay: chain = critical path" test_replay_infinite_threads_is_critical_path;
    quick "replay: makespan monotone in threads" test_replay_monotone;
    quick "replay: speedup bounded by threads" test_replay_speedup_bounded;
    quick "replay: dependency offsets" test_replay_dep_offset;
    quick "replay: barriers serialize epochs" test_replay_barrier_epochs;
    quick "replay: real fork-join trace" test_replay_from_real_trace;
    test_parser_trace_speedup_shape;
  ]

(* ---------------------- list-scheduling bounds ------------------------- *)

(* Graham's bound for any list schedule: makespan <= W/T + CP. Checked on
   random DAGs (with the bus model off). *)
let gen_dag : Trace.task list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 60 in
  let* costs = list_repeat n (int_range 1 50) in
  let* dep_picks = list_repeat n (int_bound 1000) in
  return
    (List.mapi
       (fun i cost ->
         let deps =
           if i = 0 then []
           else begin
             let pick = List.nth dep_picks i in
             if pick mod 3 = 0 then []
             else
               [ { Trace.dep_task = pick mod i; dep_offset = max_int } ]
           end
         in
         { Trace.id = i; label = "t"; cost; deps; epoch = 0 })
       costs)

let test_graham_bound =
  qcheck ~count:200 "replay respects Graham's bound on random DAGs" gen_dag
    (fun tasks ->
      List.for_all
        (fun threads ->
          let r = Replay.simulate ~bus:0.0 ~threads tasks in
          let bound =
            (float_of_int r.total_work /. float_of_int threads)
            +. float_of_int r.critical_path
          in
          float_of_int r.makespan <= bound +. 1.0
          && r.makespan >= r.critical_path
          && r.makespan * threads >= r.total_work)
        [ 1; 2; 4; 13 ])

let test_bus_caps_speedup =
  qcheck ~count:100 "bus model caps speedup at 1/bus" gen_dag (fun tasks ->
      (* scale costs up so the integer bus floor's rounding is negligible *)
      let tasks =
        List.map (fun (t : Trace.task) -> { t with cost = t.cost * 100 }) tasks
      in
      let r = Replay.simulate ~bus:0.1 ~threads:64 tasks in
      let speedup = float_of_int r.total_work /. float_of_int (max 1 r.makespan) in
      speedup <= 10.0 *. 1.02)

let test_trace_nested_tasks () =
  let tr = Trace.create () in
  Trace.with_task tr ~deps:[] "outer" (fun () ->
      Trace.tick tr 5;
      Trace.with_task tr ~deps:[ Trace.capture tr ] "inner" (fun () ->
          Trace.tick tr 7);
      (* the outer task's accounting resumes after the inner one *)
      Trace.tick tr 3);
  let tasks = Trace.tasks tr in
  Alcotest.(check int) "two tasks" 2 (List.length tasks);
  let costs = List.sort compare (List.map (fun (t : Trace.task) -> t.cost) tasks) in
  Alcotest.(check (list int)) "costs attributed to the right task" [ 7; 8 ] costs

(* Phase spans and tasks share one recorder but not the accounting: a
   phase span inside a task leaves the ticks to the task and is no task
   itself, and a task inside a phase span is a task like any other. *)
let test_trace_phase_spans_are_not_tasks () =
  let tr = Trace.create () in
  Trace.with_task tr ~deps:[] "outer" (fun () ->
      Trace.tick tr 2;
      Trace.with_span tr ~phase:"region" "inside-task" (fun () ->
          Trace.tick tr 3;
          Alcotest.(check bool) "capture sees the task" true
            (Trace.capture tr <> None)));
  Trace.with_span tr ~phase:"region" "outside" (fun () ->
      Trace.tick tr 100;
      Alcotest.(check bool) "no task to depend on" true
        (Trace.capture tr = None);
      Trace.with_task tr ~deps:[] "inner" (fun () -> Trace.tick tr 4));
  let tasks =
    List.sort compare
      (List.map (fun (t : Trace.task) -> (t.label, t.cost)) (Trace.tasks tr))
  in
  Alcotest.(check (list (pair string int)))
    "only the tasks, with their ticks"
    [ ("inner", 4); ("outer", 5) ]
    tasks;
  Alcotest.(check int) "total work" 9 (Trace.total_work tr);
  Alcotest.(check int) "every span recorded" 4 (List.length (Trace.spans tr))

(* ------------------------- pinned task DAGs ---------------------------- *)

(* The task DAG that the paper-reproduction tables replay, pinned for fixed
   subjects: the task count, the total work, and the makespan at each
   simulated thread count (default bus). Recorded on a 1-thread pool, the
   only pool on which the task order does not vary from run to run. *)
let sweep = [ 1; 2; 4; 8; 16; 32; 64 ]

let check_dag name tr (n, work, makespans) =
  let tasks = Trace.tasks tr in
  Alcotest.(check int) (name ^ ": tasks") n (List.length tasks);
  Alcotest.(check int) (name ^ ": total work") work (Trace.total_work tr);
  Alcotest.(check (list int))
    (name ^ ": makespans at 1..64 threads")
    makespans
    (List.map (fun threads -> (Replay.simulate ~threads tasks).makespan) sweep)

let coreutils_1 = (387, 3043, [ 3043; 1540; 799; 495; 402; 398; 396 ])

let test_pinned_parse_dags () =
  let pool = Pbca_concurrent.Task_pool.create ~threads:1 in
  let parse ?config name image expected =
    let trace = Trace.create () in
    ignore
      (Pbca_core.Parallel.parse_and_finalize ?config ~trace ~pool image
        : Pbca_core.Cfg.t);
    check_dag name trace expected
  in
  parse "coreutils_like 1"
    (Emit.generate (Profile.coreutils_like 1)).Emit.image coreutils_1;
  parse "coreutils_like 2"
    (Emit.generate (Profile.coreutils_like 2)).Emit.image
    (331, 2272, [ 2272; 1138; 586; 322; 243; 226; 225 ]);
  let module Family = Pbca_codegen.Family in
  parse "stripped 0, gap parse"
    ~config:{ Pbca_core.Config.default with gap_parse = true }
    (Family.strip (Emit.generate (Family.profile Family.Stripped 0))).Emit.image
    (458, 3927, [ 3927; 2095; 1224; 914; 826; 799; 798 ])

let test_pinned_tool_dags () =
  let pool = Pbca_concurrent.Task_pool.create ~threads:1 in
  let module H = Pbca_hpcstruct.Hpcstruct in
  let r =
    H.run_image ~pool (Emit.generate (Profile.coreutils_like 1)).Emit.image
  in
  let phase name =
    match List.find (fun (p : H.phase) -> p.ph_name = name) r.phases with
    | { ph_trace = Some tr; _ } -> tr
    | _ -> Alcotest.failf "hpcstruct phase %s has no trace" name
  in
  check_dag "hpcstruct dwarf" (phase "dwarf")
    (8, 2351, [ 2351; 1199; 696; 414; 414; 414; 414 ]);
  check_dag "hpcstruct cfg" (phase "cfg") coreutils_1;
  check_dag "hpcstruct fill" (phase "fill")
    (48, 1032, [ 1032; 531; 288; 164; 102; 83; 69 ]);
  let module B = Pbca_binfeat.Binfeat in
  let images =
    List.map
      (fun i -> (Emit.generate (Profile.forensics_member i)).Emit.image)
      [ 1; 2; 3; 4 ]
  in
  let r = B.extract ~pool images in
  let stage name =
    (List.find (fun (s : B.stage) -> s.st_name = name) r.stages).st_trace
  in
  check_dag "binfeat cfg" (stage "cfg")
    (1115, 8538, [ 8538; 4324; 2273; 1343; 1007; 986; 982 ]);
  check_dag "binfeat if" (stage "if")
    (137, 3416, [ 3416; 1911; 1141; 765; 582; 483; 483 ]);
  check_dag "binfeat cf" (stage "cf")
    (137, 2725, [ 2725; 1375; 705; 370; 210; 125; 113 ]);
  check_dag "binfeat df" (stage "df")
    (137, 4834, [ 4834; 2439; 1252; 659; 375; 224; 197 ])

let suite =
  suite
  @ [
      test_graham_bound;
      test_bus_caps_speedup;
      quick "trace: nested tasks account separately" test_trace_nested_tasks;
      quick "trace: phase spans take no ticks and are not tasks"
        test_trace_phase_spans_are_not_tasks;
      quick "pinned DAG: parses on a 1-thread pool" test_pinned_parse_dags;
      quick "pinned DAG: hpcstruct and BinFeat on a 1-thread pool"
        test_pinned_tool_dags;
    ]
