module Cfg = Pbca_core.Cfg

type vector = (string, float) Hashtbl.t

type hit = {
  h_binary : string;
  h_func : string;
  h_entry : int;
  h_score : float;
}

let function_vector g (f : Cfg.func) : vector =
  let fv = Pbca_analysis.Func_view.make g f in
  let trace = Pbca_obs.Trace.disabled in
  let counts = Hashtbl.create 64 in
  let add tbl = Hashtbl.iter (fun k v -> Binfeat.bump counts k v) tbl in
  add (Binfeat.insn_features g trace fv);
  add (Binfeat.cf_features g trace fv);
  add (Binfeat.df_features g trace fv);
  (* TF weighting: dampen high-frequency features *)
  let vec = Hashtbl.create (Hashtbl.length counts) in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace vec k (log (1.0 +. float_of_int v)))
    counts;
  vec

let cosine (a : vector) (b : vector) =
  let dot = ref 0.0 and na = ref 0.0 and nb = ref 0.0 in
  Hashtbl.iter
    (fun k va ->
      na := !na +. (va *. va);
      match Hashtbl.find_opt b k with
      | Some vb -> dot := !dot +. (va *. vb)
      | None -> ())
    a;
  Hashtbl.iter (fun _ vb -> nb := !nb +. (vb *. vb)) b;
  if !na = 0.0 || !nb = 0.0 then 0.0 else !dot /. sqrt (!na *. !nb)

let search ~pool ~query binaries ~top =
  let all =
    List.concat_map
      (fun (name, g) ->
        List.map (fun f -> (name, g, f)) (Cfg.funcs_list g))
      binaries
  in
  let arr = Array.of_list all in
  let scores = Array.make (Array.length arr) 0.0 in
  Pbca_concurrent.Task_pool.parallel_for pool 0 (Array.length arr) (fun i ->
      let _, g, f = arr.(i) in
      scores.(i) <- cosine query (function_vector g f));
  let hits =
    Array.to_list
      (Array.mapi
         (fun i (name, _, (f : Cfg.func)) ->
           {
             h_binary = name;
             h_func = f.f_name;
             h_entry = f.f_entry_addr;
             h_score = scores.(i);
           })
         arr)
  in
  List.sort (fun a b -> compare b.h_score a.h_score) hits
  |> List.filteri (fun i _ -> i < top)
