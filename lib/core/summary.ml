type block_sum = {
  bs_start : int;
  bs_end : int;
  bs_insns : int;
  bs_conf : int;
}

type edge_sum = { es_src : int; es_dst : int; es_kind : Cfg.edge_kind }

type func_sum = {
  fs_entry : int;
  fs_name : string;
  fs_returns : bool;
  fs_blocks : int list;
  fs_conf : int;
}

type t = {
  blocks : block_sum list;
  edges : edge_sum list;
  funcs : func_sum list;
}

(* The order polymorphic [compare] gives these records (fields in
   declaration order, constructors by declaration index, which
   [edge_kind_code] follows), so fingerprints do not depend on which of
   the two sorted the list. *)
let compare_edge_sum a b =
  match Int.compare a.es_src b.es_src with
  | 0 -> (
    match Int.compare a.es_dst b.es_dst with
    | 0 ->
      Int.compare (Cfg.edge_kind_code a.es_kind) (Cfg.edge_kind_code b.es_kind)
    | c -> c)
  | c -> c

let of_cfg g =
  let all_blocks = Cfg.blocks_list g and all_funcs = Cfg.funcs_list g in
  (* Block confidence is derived, not stored: the strongest (lowest-code)
     confidence among the functions that own the block after boundary
     assignment. Blocks not owned by any function (pre-finalize, or
     stranded) fall back to their own entry tag, then to [From_symbol]. *)
  let fconf f = Cfg.conf_code (Cfg.func_confidence g f) in
  let block_conf = Hashtbl.create 1024 in
  List.iter
    (fun (f : Cfg.func) ->
      let c = fconf f in
      List.iter
        (fun (b : Cfg.block) ->
          let s = b.Cfg.b_start in
          match Hashtbl.find_opt block_conf s with
          | Some c' when c' <= c -> ()
          | _ -> Hashtbl.replace block_conf s c)
        f.Cfg.f_blocks)
    all_funcs;
  let bconf (b : Cfg.block) =
    match Hashtbl.find_opt block_conf b.Cfg.b_start with
    | Some c -> c
    | None -> ( match Cfg.conf_at g b.Cfg.b_start with Some c -> c | None -> 0)
  in
  let blocks =
    List.map
      (fun (b : Cfg.block) ->
        {
          bs_start = b.b_start;
          bs_end = Cfg.block_end b;
          bs_insns = Atomic.get b.Cfg.b_ninsns;
          bs_conf = bconf b;
        })
      all_blocks
  in
  let edges =
    List.concat_map
      (fun (b : Cfg.block) ->
        List.map
          (fun (e : Cfg.edge) ->
            {
              es_src = e.e_src.Cfg.b_start;
              es_dst = e.e_dst.Cfg.b_start;
              es_kind = e.e_kind;
            })
          (Cfg.out_edges b))
      all_blocks
    |> List.sort_uniq compare_edge_sum
  in
  let funcs =
    List.map
      (fun (f : Cfg.func) ->
        {
          fs_entry = f.f_entry_addr;
          fs_name = f.f_name;
          fs_returns = Atomic.get f.Cfg.f_ret = Cfg.Returns;
          fs_blocks =
            List.sort Int.compare
              (List.map (fun (b : Cfg.block) -> b.Cfg.b_start) f.Cfg.f_blocks);
          fs_conf = fconf f;
        })
      all_funcs
  in
  { blocks; edges; funcs }

let equal a b = a = b

let fingerprint t =
  Digest.to_hex (Digest.string (Marshal.to_string t []))

let kind_str k = Format.asprintf "%a" Cfg.pp_edge_kind k

let diff a b =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let module S = Set.Make (String) in
  let keyed name f xs = List.map (fun x -> name ^ " " ^ f x) xs in
  let bset t =
    S.of_list
      (keyed "block"
         (fun b ->
           Printf.sprintf "[0x%x,0x%x) n=%d conf=%s" b.bs_start b.bs_end
             b.bs_insns
             (Cfg.confidence_name (Cfg.conf_of_code b.bs_conf)))
         t.blocks)
  in
  let eset t =
    S.of_list
      (keyed "edge"
         (fun e -> Printf.sprintf "0x%x->0x%x %s" e.es_src e.es_dst (kind_str e.es_kind))
         t.edges)
  in
  let fset t =
    S.of_list
      (keyed "func"
         (fun f ->
           Printf.sprintf "0x%x %s ret=%b conf=%s blocks=%s" f.fs_entry
             f.fs_name f.fs_returns
             (Cfg.confidence_name (Cfg.conf_of_code f.fs_conf))
             (String.concat "," (List.map (Printf.sprintf "0x%x") f.fs_blocks)))
         t.funcs)
  in
  let report tag sa sb =
    S.iter (fun x -> add "only in %s: %s" tag x) (S.diff sa sb)
  in
  report "A" (bset a) (bset b);
  report "B" (bset b) (bset a);
  report "A" (eset a) (eset b);
  report "B" (eset b) (eset a);
  report "A" (fset a) (fset b);
  report "B" (fset b) (fset a);
  let all = List.rev !out in
  if List.length all > 50 then
    List.filteri (fun i _ -> i < 50) all @ [ "... (truncated)" ]
  else all

let func_ranges _g (f : Cfg.func) =
  let ranges =
    List.map
      (fun (b : Cfg.block) -> (b.Cfg.b_start, Cfg.block_end b))
      f.Cfg.f_blocks
  in
  let sorted = List.sort compare ranges in
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 -> merge ((a1, max b1 b2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

(* Every nonzero statistic of the graph's registry as [name=value], sorted
   by name, then the trace's wall per phase when a recorder was attached:
   the per-run answer to "where did the time go". *)
let pp_stats fmt (g : Cfg.t) =
  let module Metrics = Pbca_obs.Metrics in
  let nonzero = function
    | _, Metrics.Counter 0 | _, Metrics.Gauge 0.0 -> false
    | _, Metrics.Histogram { n = 0; _ } -> false
    | _ -> true
  in
  Format.fprintf fmt "@[<hov>%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun fmt (name, v) ->
         Format.fprintf fmt "%s=%a" name Metrics.pp_value v))
    (List.filter nonzero (Metrics.snapshot g.Cfg.metrics));
  (if Pbca_obs.Trace.enabled g.Cfg.trace then
     match Pbca_obs.Trace.phase_walls g.Cfg.trace with
     | [] -> ()
     | walls ->
       Format.fprintf fmt "@ phase_wall_ms:";
       List.iter
         (fun (phase, w) -> Format.fprintf fmt " %s=%.2f" phase (1000. *. w))
         walls);
  Format.fprintf fmt "@]"
