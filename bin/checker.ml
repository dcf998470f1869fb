(* Ground-truth correctness evaluation (paper Section 8.1).

   Three modes: generate the coreutils-like corpus in memory (default),
   generate a wild-binary family (--family, PR9), or verify .sbf files on
   disk against the ground truth embedded in their .ground section (as
   written by bgen). [--gap] parses with gap discovery enabled and prints
   the aggregate entry-discovery precision/recall. *)

open Cmdliner

let ground_truth_of image =
  match Pbca_binfmt.Image.section image ".ground" with
  | Some sec ->
    Some
      (Pbca_codegen.Ground_truth.read
         (Pbca_binfmt.Bio.R.of_bytes sec.Pbca_binfmt.Section.data))
  | None -> None

let check_one pool ?config classes verbose discovery name image gt =
  let g = Pbca_core.Parallel.parse_and_finalize ?config ~pool image in
  let rep = Pbca_checker.Checker.check gt g in
  List.iter
    (fun (_, cls) ->
      Hashtbl.replace classes cls
        (1 + Option.value (Hashtbl.find_opt classes cls) ~default:0))
    rep.func_expected;
  (match discovery with
  | Some acc -> acc := Pbca_checker.Checker.score_discovery gt g :: !acc
  | None -> ());
  let clean = Pbca_checker.Checker.clean rep in
  if (not clean) || verbose then begin
    Printf.printf "%s: " name;
    Format.printf "%a@." Pbca_checker.Checker.pp rep
  end;
  clean

let run count threads verbose dir family gap =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let classes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let config =
    if gap then Some { Pbca_core.Config.default with gap_parse = true }
    else None
  in
  let discovery =
    if gap then Some (ref ([] : Pbca_checker.Checker.discovery list))
    else None
  in
  let dirty = ref 0 in
  let total = ref 0 in
  (match (dir, family) with
  | Some dir, _ ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sbf")
      |> List.sort compare
    in
    List.iter
      (fun f ->
        let image = Pbca_binfmt.Image.load (Filename.concat dir f) in
        match ground_truth_of image with
        | Some gt ->
          incr total;
          if not (check_one pool ?config classes verbose discovery f image gt)
          then incr dirty
        | None -> Printf.eprintf "%s: no embedded ground truth, skipped\n" f)
      files
  | None, Some fam_name -> (
    match Pbca_codegen.Family.name_of_string fam_name with
    | None ->
      Printf.eprintf "unknown family %s (stripped, overlap, obfuscated)\n"
        fam_name;
      exit 2
    | Some fam ->
      for i = 0 to count - 1 do
        let r = Pbca_codegen.Family.generate fam i in
        incr total;
        if
          not
            (check_one pool ?config classes verbose discovery
               (Pbca_codegen.Family.profile fam i).Pbca_codegen.Profile.name
               r.image r.ground_truth)
        then incr dirty
      done)
  | None, None ->
    for i = 0 to count - 1 do
      let p = Pbca_codegen.Profile.coreutils_like i in
      let r = Pbca_codegen.Emit.generate p in
      incr total;
      if
        not
          (check_one pool ?config classes verbose discovery p.name r.image
             r.ground_truth)
      then incr dirty
    done);
  Printf.printf "\n%d/%d binaries fully explained\n" (!total - !dirty) !total;
  Printf.printf "expected difference classes (paper Section 8.1):\n";
  Hashtbl.iter (fun cls n -> Printf.printf "  %-40s %d functions\n" cls n) classes;
  (match discovery with
  | Some acc ->
    let sum f = List.fold_left (fun a d -> a + f d) 0 !acc in
    let relevant = sum (fun d -> d.Pbca_checker.Checker.ds_relevant) in
    let found = sum (fun d -> d.Pbca_checker.Checker.ds_found) in
    let spurious = sum (fun d -> d.Pbca_checker.Checker.ds_spurious) in
    let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
    Printf.printf
      "entry discovery: relevant=%d found=%d spurious=%d precision=%.4f \
       recall=%.4f\n"
      relevant found spurious
      (ratio found (found + spurious))
      (ratio found relevant)
  | None -> ());
  if !dirty > 0 then exit 1

let count = Arg.(value & opt int 113 & info [ "n" ] ~doc:"Corpus size")
let verbose = Arg.(value & flag & info [ "v" ] ~doc:"Print every report")

let dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "dir" ] ~doc:"Verify .sbf files in this directory instead of generating")

let family =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "family" ]
        ~doc:
          "Generate and verify a wild-binary family (stripped, overlap, \
           obfuscated) instead of the coreutils corpus")

let gap =
  Arg.(
    value & flag
    & info [ "gap" ]
        ~doc:
          "Parse with gap discovery enabled and print aggregate \
           entry-discovery precision/recall")

let cmd =
  Cmd.v
    (Cmd.info "checker" ~doc:"Verify parsed CFGs against ground truth")
    Term.(const run $ count $ Pbca_cli.threads $ verbose $ dir $ family $ gap)

let () = exit (Cmd.eval cmd)
