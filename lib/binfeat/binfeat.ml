module Cfg = Pbca_core.Cfg
module Insn = Pbca_isa.Insn
module Task_pool = Pbca_concurrent.Task_pool
module Trace = Pbca_simsched.Trace

type stage = {
  st_name : string;
  st_wall : float;
  st_trace : Trace.t;
  st_work : int;
}

type index = (string, int) Hashtbl.t

type result = {
  stages : stage list;
  index : index;
  n_binaries : int;
  n_funcs : int;
  n_features : int;
}

(* monotonic: a wall-clock step mid-stage must not skew stage walls *)
let time f =
  let t0 = Pbca_obs.Clock.now () in
  let v = f () in
  (v, Pbca_obs.Clock.elapsed t0)

let bump tbl feat n =
  Hashtbl.replace tbl feat (n + Option.value (Hashtbl.find_opt tbl feat) ~default:0)

let merge_into dst src = Hashtbl.iter (fun k v -> bump dst k v) src

(* ------------------------------------------------------------------ *)
(* Feature extractors, each returning a local table for one function.  *)

let insn_features g trace (fv : Pbca_analysis.Func_view.t) =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Pbca_analysis.Func_view.n_blocks fv - 1 do
    let ms =
      List.map (fun (_, insn, _) -> Insn.mnemonic insn)
        (Pbca_analysis.Func_view.insns g fv i)
    in
    Trace.tick trace (List.length ms);
    let rec grams = function
      | [] -> ()
      | a :: rest ->
        bump tbl ("if1:" ^ a) 1;
        (match rest with
        | b :: rest2 ->
          bump tbl ("if2:" ^ a ^ "," ^ b) 1;
          (match rest2 with
          | c :: _ -> bump tbl ("if3:" ^ a ^ "," ^ b ^ "," ^ c) 1
          | [] -> ())
        | [] -> ());
        grams rest
    in
    grams ms
  done;
  tbl

let cf_features g trace (fv : Pbca_analysis.Func_view.t) =
  ignore g;
  let tbl = Hashtbl.create 32 in
  let n = Pbca_analysis.Func_view.n_blocks fv in
  Trace.tick trace (2 * n);
  for i = 0 to n - 1 do
    bump tbl (Printf.sprintf "cf:deg%d" (List.length fv.succ.(i))) 1
  done;
  Array.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun (e : Cfg.edge) ->
          bump tbl
            (Format.asprintf "cf:edge_%a" Cfg.pp_edge_kind e.e_kind)
            1)
        (Cfg.out_edges b))
    fv.blocks;
  let dom = Pbca_analysis.Dominators.compute fv in
  let loops = Pbca_analysis.Loops.compute fv dom in
  Trace.tick trace (3 * n);
  bump tbl
    (Printf.sprintf "cf:loops%d" (Pbca_analysis.Loops.loop_count loops))
    1;
  bump tbl
    (Printf.sprintf "cf:maxdepth%d" (Pbca_analysis.Loops.max_depth loops))
    1;
  tbl

let df_features g trace (fv : Pbca_analysis.Func_view.t) =
  let tbl = Hashtbl.create 32 in
  let n = Pbca_analysis.Func_view.n_blocks fv in
  (* data-flow analyses are super-linear in function size (value sets and
     stack frames grow with the region analyzed), so the few huge functions
     dominate the stage and bound its scaling — the imbalance the paper
     reports for DF (Section 8.3, 9x max speedup) *)
  Trace.tick trace ((n * 8) + (n * n / 6));
  let live = Pbca_analysis.Liveness.compute g fv in
  for i = 0 to n - 1 do
    bump tbl
      (Printf.sprintf "df:live%d"
         (Pbca_isa.Reg.Set.cardinal live.Pbca_analysis.Liveness.live_in.(i)))
      1
  done;
  let hts = Pbca_analysis.Stack_height.compute g fv in
  for i = 0 to n - 1 do
    bump tbl
      (Format.asprintf "df:sp_%a" Pbca_analysis.Stack_height.pp_height
         hts.Pbca_analysis.Stack_height.at_entry.(i))
      1
  done;
  tbl

(* ------------------------------------------------------------------ *)

let extract ?(config = Pbca_core.Config.default) ~pool images =
  let stages = ref [] in
  (* stage 1: CFG construction over the corpus *)
  let cfg_trace = Trace.create () in
  let cfgs, t_cfg =
    time (fun () ->
        List.map
          (fun image ->
            Pbca_core.Parallel.parse_and_finalize ~config ~trace:cfg_trace
              ~pool image)
          images)
  in
  stages :=
    {
      st_name = "cfg";
      st_wall = t_cfg;
      st_trace = cfg_trace;
      st_work = Trace.total_work cfg_trace;
    }
    :: !stages;
  (* function views over all binaries, sorted large-first (Listing 7) *)
  let all_funcs =
    List.concat_map
      (fun g -> List.map (fun f -> (g, f)) (Cfg.funcs_list g))
      cfgs
  in
  let arr = Array.of_list all_funcs in
  Array.sort
    (fun (_, a) (_, b) ->
      compare (List.length b.Cfg.f_blocks) (List.length a.Cfg.f_blocks))
    arr;
  let run_stage name extractor =
    let trace = Trace.create () in
    let partials = Array.init (Task_pool.threads pool) (fun _ -> Hashtbl.create 1024) in
    let (), wall =
      time (fun () ->
          Task_pool.run pool (fun spawn ->
              Array.iter
                (fun (g, f) ->
                  let d = Trace.capture trace in
                  spawn (fun () ->
                      Trace.run trace ~label:name ~deps:[ d ] (fun () ->
                          let fv = Pbca_analysis.Func_view.make g f in
                          let tbl = extractor g trace fv in
                          merge_into partials.(Task_pool.worker_index ()) tbl)))
                arr))
    in
    (* reduction of per-worker partials: a serial tail charged to the
       stage's trace (the paper parallelizes it as a generic reduction; the
       final combine remains sequential) *)
    let merged = Hashtbl.create 4096 in
    Trace.barrier trace;
    Trace.run trace ~label:(name ^ "-reduce") ~deps:[] (fun () ->
        Array.iter
          (fun p ->
            Trace.tick trace (Hashtbl.length p / 4);
            merge_into merged p)
          partials);
    stages :=
      {
        st_name = name;
        st_wall = wall;
        st_trace = trace;
        st_work = Trace.total_work trace;
      }
      :: !stages;
    merged
  in
  let if_idx = run_stage "if" insn_features in
  let cf_idx = run_stage "cf" cf_features in
  let df_idx = run_stage "df" df_features in
  let index = Hashtbl.create 8192 in
  merge_into index if_idx;
  merge_into index cf_idx;
  merge_into index df_idx;
  {
    stages = List.rev !stages;
    index;
    n_binaries = List.length images;
    n_funcs = Array.length arr;
    n_features = Hashtbl.length index;
  }

let stage_wall r name =
  List.fold_left
    (fun acc s -> if s.st_name = name then acc +. s.st_wall else acc)
    0.0 r.stages

let total_wall r = List.fold_left (fun acc s -> acc +. s.st_wall) 0.0 r.stages

let top_features r n =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.index []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
