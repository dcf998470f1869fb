(* Tests for the two application case studies: hpcstruct and BinFeat. *)

open Tutil
module H = Pbca_hpcstruct.Hpcstruct
module B = Pbca_binfeat.Binfeat
module TP = Pbca_concurrent.Task_pool

let small_image ?(n = 60) ?(seed = 11) () =
  (Pbca_codegen.Emit.generate { Profile.default with n_funcs = n; seed }).image

let test_hpcstruct_runs () =
  let pool = TP.create ~threads:2 in
  let r = H.run_image ~pool (small_image ()) in
  Alcotest.(check bool) "functions found" true (r.n_funcs > 0);
  Alcotest.(check bool) "statements" true (r.n_stmts > 0);
  Alcotest.(check bool) "nonempty output" true (String.length r.output > 0);
  let names = List.map (fun (p : H.phase) -> p.ph_name) r.phases in
  Alcotest.(check (list string)) "phase order"
    [ "dwarf"; "linemap"; "cfg"; "skeleton"; "fill"; "emit" ]
    names

let test_hpcstruct_bytes_entry () =
  let pool = TP.create ~threads:2 in
  let img = small_image () in
  let r = H.run ~pool (Pbca_binfmt.Image.write img) in
  let names = List.map (fun (p : H.phase) -> p.ph_name) r.phases in
  Alcotest.(check bool) "read phase present" true (List.mem "read" names)

let test_hpcstruct_deterministic () =
  let img = small_image () in
  let out threads =
    let pool = TP.create ~threads in
    (H.run_image ~pool img).output
  in
  let o1 = out 1 in
  Alcotest.(check bool) "1 vs 2 threads" true (o1 = out 2);
  Alcotest.(check bool) "1 vs 4 threads" true (o1 = out 4)

let test_hpcstruct_output_complete () =
  let pool = TP.create ~threads:2 in
  let img = small_image () in
  let r = H.run_image ~pool img in
  let g = r.cfg in
  List.iter
    (fun (f : Pbca_core.Cfg.func) ->
      let needle = Printf.sprintf "name=%S" f.f_name in
      let contained =
        let n = String.length needle and m = String.length r.output in
        let rec find i =
          i + n <= m && (String.sub r.output i n = needle || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) (f.f_name ^ " in output") true contained)
    (Pbca_core.Cfg.funcs_list g)

let test_hpcstruct_traces () =
  let pool = TP.create ~threads:2 in
  let r = H.run_image ~pool (small_image ()) in
  List.iter
    (fun (p : H.phase) ->
      match p.ph_trace with
      | Some tr ->
        Alcotest.(check bool)
          (p.ph_name ^ " trace nonempty")
          true
          (Pbca_obs.Trace.total_work tr > 0)
      | None -> ())
    r.phases;
  Alcotest.(check bool) "phase_wall finds cfg" true (H.phase_wall r "cfg" >= 0.0);
  Alcotest.(check bool) "total wall positive" true (H.total_wall r > 0.0)

let test_hpcstruct_task_labels () =
  (* the per-task structure the bench's Table 2 / Figure 2 replays: one
     task per filled function, and finalize's per-function bounds epoch
     inside the cfg phase *)
  let pool = TP.create ~threads:2 in
  let r = H.run_image ~pool (small_image ()) in
  let has_label phase label =
    List.exists
      (fun (p : H.phase) ->
        p.ph_name = phase
        &&
        match p.ph_trace with
        | Some tr ->
          List.exists
            (fun (t : Pbca_obs.Trace.task) -> t.label = label)
            (Pbca_obs.Trace.tasks tr)
        | None -> false)
      r.phases
  in
  Alcotest.(check bool) "fill tasks traced" true (has_label "fill" "fill");
  Alcotest.(check bool) "bounds epoch traced" true (has_label "cfg" "bounds")

let test_binfeat_runs () =
  let pool = TP.create ~threads:2 in
  let imgs = List.init 4 (fun i -> small_image ~n:25 ~seed:(400 + i) ()) in
  let r = B.extract ~pool imgs in
  Alcotest.(check int) "binaries" 4 r.n_binaries;
  Alcotest.(check bool) "functions" true (r.n_funcs > 0);
  Alcotest.(check bool) "features" true (r.n_features > 0);
  Alcotest.(check (list string)) "stage order" [ "cfg"; "if"; "cf"; "df" ]
    (List.map (fun (s : B.stage) -> s.st_name) r.stages)

let sorted_index (r : B.result) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.index []
  |> List.sort compare

let test_binfeat_deterministic () =
  let imgs = List.init 3 (fun i -> small_image ~n:20 ~seed:(900 + i) ()) in
  let run threads =
    let pool = TP.create ~threads in
    sorted_index (B.extract ~pool imgs)
  in
  let a = run 1 in
  Alcotest.(check bool) "1 vs 3 threads" true (a = run 3);
  Alcotest.(check bool) "1 vs 4 threads" true (a = run 4)

let test_binfeat_ngrams_handchecked () =
  (* one function: nop; nop; ret gives known 1/2/3-grams *)
  let f =
    mk_fspec ~name:"tiny" ~frame:false
      [ blk ~body:[ Pbca_isa.Insn.Nop; Pbca_isa.Insn.Nop ] Pbca_codegen.Spec.T_ret ]
  in
  let image = (emit_spec (mk_spec [ f ])).image in
  let pool = TP.create ~threads:1 in
  let r = B.extract ~pool [ image ] in
  let get k = Option.value (Hashtbl.find_opt r.index k) ~default:0 in
  Alcotest.(check int) "if1:nop = 2" 2 (get "if1:nop");
  Alcotest.(check int) "if1:ret = 1" 1 (get "if1:ret");
  Alcotest.(check int) "if2:nop,nop = 1" 1 (get "if2:nop,nop");
  Alcotest.(check int) "if2:nop,ret = 1" 1 (get "if2:nop,ret");
  Alcotest.(check int) "if3 = 1" 1 (get "if3:nop,nop,ret");
  Alcotest.(check int) "cf:deg0 for the ret block" 1 (get "cf:deg0")

let test_binfeat_top_features () =
  let pool = TP.create ~threads:2 in
  let r = B.extract ~pool [ small_image ~n:30 () ] in
  let top = B.top_features r 5 in
  Alcotest.(check int) "five results" 5 (List.length top);
  let counts = List.map snd top in
  Alcotest.(check bool) "descending" true
    (counts = List.sort (fun a b -> compare b a) counts);
  Alcotest.(check bool) "stage walls accumulate" true (B.total_wall r > 0.0);
  Alcotest.(check bool) "per-stage lookup" true (B.stage_wall r "if" >= 0.0)

let test_checker_on_apps_corpus =
  slow "apps + checker: parse via hpcstruct matches ground truth" (fun () ->
      let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 40; seed = 5 } in
      let pool = TP.create ~threads:2 in
      let h = H.run_image ~pool r.image in
      check_clean r.ground_truth h.cfg)

let suite =
  [
    quick "hpcstruct: runs with all phases" test_hpcstruct_runs;
    quick "hpcstruct: byte entry point" test_hpcstruct_bytes_entry;
    quick "hpcstruct: output deterministic across threads" test_hpcstruct_deterministic;
    quick "hpcstruct: every function in output" test_hpcstruct_output_complete;
    quick "hpcstruct: phase traces populated" test_hpcstruct_traces;
    quick "hpcstruct: fill and bounds traced" test_hpcstruct_task_labels;
    quick "binfeat: runs with all stages" test_binfeat_runs;
    quick "binfeat: index deterministic across threads" test_binfeat_deterministic;
    quick "binfeat: n-grams hand-checked" test_binfeat_ngrams_handchecked;
    quick "binfeat: top features sorted" test_binfeat_top_features;
    test_checker_on_apps_corpus;
  ]

(* ------------------------- query API ---------------------------------- *)

let test_query_lookup () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 30; seed = 3 } in
  let pool = TP.create ~threads:2 in
  let h = H.run_image ~pool r.image in
  let dbg_sec = Option.get (Pbca_binfmt.Image.section r.image ".debug") in
  let dbg = Pbca_debuginfo.Codec.decode dbg_sec.Pbca_binfmt.Section.data in
  let q = Pbca_hpcstruct.Query.build h.cfg dbg in
  (* every function entry resolves to its own function *)
  List.iter
    (fun (f : Pbca_core.Cfg.func) ->
      match Pbca_hpcstruct.Query.lookup q f.f_entry_addr with
      | Some cx ->
        Alcotest.(check int)
          (f.f_name ^ " entry resolves to itself")
          f.f_entry_addr cx.Pbca_hpcstruct.Query.cx_entry
      | None -> Alcotest.failf "entry of %s unresolved" f.f_name)
    (Pbca_core.Cfg.funcs_list h.cfg);
  (* an address outside .text resolves to nothing *)
  Alcotest.(check bool) "padding unresolved" true
    (Pbca_hpcstruct.Query.lookup q 0xdead_beef = None)

let test_query_attribute () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 20; seed = 4 } in
  let pool = TP.create ~threads:2 in
  let h = H.run_image ~pool r.image in
  let dbg_sec = Option.get (Pbca_binfmt.Image.section r.image ".debug") in
  let dbg = Pbca_debuginfo.Codec.decode dbg_sec.Pbca_binfmt.Section.data in
  let q = Pbca_hpcstruct.Query.build h.cfg dbg in
  let main = List.hd (Pbca_core.Cfg.funcs_list h.cfg) in
  let samples = List.init 10 (fun _ -> main.f_entry_addr) in
  match Pbca_hpcstruct.Query.attribute q samples with
  | [ (cx, n) ] ->
    Alcotest.(check int) "all ten samples in one bucket" 10 n;
    Alcotest.(check string) "attributed to main" main.f_name
      cx.Pbca_hpcstruct.Query.cx_func
  | other -> Alcotest.failf "expected one bucket, got %d" (List.length other)

(* ----------------------- similarity search ---------------------------- *)

let test_similarity_identity () =
  let img = small_image ~n:15 ~seed:77 () in
  let pool = TP.create ~threads:2 in
  let g = Pbca_core.Parallel.parse_and_finalize ~pool img in
  let f = List.hd (Pbca_core.Cfg.funcs_list g) in
  let v = Pbca_binfeat.Similarity.function_vector g f in
  Alcotest.(check bool) "nonempty vector" true (Hashtbl.length v > 0);
  Alcotest.(check bool) "self-similarity is 1" true
    (abs_float (Pbca_binfeat.Similarity.cosine v v -. 1.0) < 1e-9)

let test_similarity_search_finds_self () =
  let img = small_image ~n:15 ~seed:78 () in
  let pool = TP.create ~threads:2 in
  let g = Pbca_core.Parallel.parse_and_finalize ~pool img in
  let funcs = Pbca_core.Cfg.funcs_list g in
  let target = List.nth funcs (List.length funcs / 2) in
  let query = Pbca_binfeat.Similarity.function_vector g target in
  let hits =
    Pbca_binfeat.Similarity.search ~pool ~query [ ("self", g) ] ~top:3
  in
  match hits with
  | best :: _ ->
    Alcotest.(check string) "top hit is the query function"
      target.Pbca_core.Cfg.f_name best.Pbca_binfeat.Similarity.h_func;
    Alcotest.(check bool) "with score 1" true
      (abs_float (best.h_score -. 1.0) < 1e-9)
  | [] -> Alcotest.fail "no hits"

let test_similarity_empty_vs () =
  let empty : Pbca_binfeat.Similarity.vector = Hashtbl.create 1 in
  let v : Pbca_binfeat.Similarity.vector = Hashtbl.create 1 in
  Hashtbl.replace v "x" 1.0;
  Alcotest.(check bool) "empty has zero similarity" true
    (Pbca_binfeat.Similarity.cosine empty v = 0.0)

let suite =
  suite
  @ [
      quick "query: entry lookups" test_query_lookup;
      quick "query: sample attribution" test_query_attribute;
      quick "similarity: self cosine = 1" test_similarity_identity;
      quick "similarity: search finds the query" test_similarity_search_finds_self;
      quick "similarity: empty vector" test_similarity_empty_vs;
    ]

(* ------------------ compiler identification demo ---------------------- *)

(* The forensics task BinFeat was built for (Rosenblum et al., paper
   Section 1): different "toolchains" leave different statistical
   fingerprints; a nearest-centroid classifier over BinFeat vectors should
   recover the provenance of held-out binaries. *)

let style_a seed =
  { Profile.default with seed; n_funcs = 25; p_frame = 0.95;
    max_body_insns = 9; p_jump_table = 0.2; p_tail_call = 0.0 }

let style_b seed =
  { Profile.default with seed; n_funcs = 25; p_frame = 0.05;
    max_body_insns = 3; p_jump_table = 0.0; p_tail_call = 0.25 }

let corpus_vector pool image =
  let g = Pbca_core.Parallel.parse_and_finalize ~pool image in
  let acc : Pbca_binfeat.Similarity.vector = Hashtbl.create 256 in
  List.iter
    (fun f ->
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0))
        (Pbca_binfeat.Similarity.function_vector g f))
    (Pbca_core.Cfg.funcs_list g);
  acc

let centroid vs =
  let acc : Pbca_binfeat.Similarity.vector = Hashtbl.create 256 in
  List.iter
    (fun v ->
      Hashtbl.iter
        (fun k x ->
          Hashtbl.replace acc k (x +. Option.value (Hashtbl.find_opt acc k) ~default:0.0))
        v)
    vs;
  acc

let test_compiler_identification =
  slow "compiler identification by nearest centroid" (fun () ->
      let pool = TP.create ~threads:2 in
      let vec_of style seed =
        corpus_vector pool (Pbca_codegen.Emit.generate (style seed)).image
      in
      let train_a = List.map (vec_of style_a) [ 1; 2; 3 ] in
      let train_b = List.map (vec_of style_b) [ 4; 5; 6 ] in
      let ca = centroid train_a and cb = centroid train_b in
      let classify v =
        if Pbca_binfeat.Similarity.cosine v ca
           >= Pbca_binfeat.Similarity.cosine v cb
        then `A
        else `B
      in
      let tests =
        List.map (fun s -> (vec_of style_a s, `A)) [ 10; 11 ]
        @ List.map (fun s -> (vec_of style_b s, `B)) [ 12; 13 ]
      in
      let correct =
        List.length (List.filter (fun (v, l) -> classify v = l) tests)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d/4 held-out binaries classified" correct)
        true (correct >= 3))

let suite = suite @ [ test_compiler_identification ]
