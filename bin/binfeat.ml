(* Feature-extraction CLI (the BinFeat case study). *)

open Cmdliner

let run dir threads top simulate =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sbf")
    |> List.sort compare
    |> List.map (fun f -> Filename.concat dir f)
  in
  if files = [] then Printf.eprintf "no .sbf files in %s\n" dir
  else begin
    let images = List.map Pbca_binfmt.Image.load files in
    let pool = Pbca_concurrent.Task_pool.create ~threads in
    let r = Pbca_binfeat.Binfeat.extract ~pool images in
    Printf.printf "%d binaries, %d functions, %d distinct features\n"
      r.n_binaries r.n_funcs r.n_features;
    List.iter
      (fun (s : Pbca_binfeat.Binfeat.stage) ->
        Printf.printf "%-4s %8.4fs work=%d" s.st_name s.st_wall s.st_work;
        if simulate then
          Printf.printf "  sim-speedup@16=%.2f @64=%.2f"
            (Pbca_simsched.Replay.speedup ~threads:16 s.st_trace)
            (Pbca_simsched.Replay.speedup ~threads:64 s.st_trace);
        print_newline ())
      r.stages;
    List.iter
      (fun (f, c) -> Printf.printf "  %-24s %d\n" f c)
      (Pbca_binfeat.Binfeat.top_features r top)
  end

let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"CORPUS_DIR")
let threads = Arg.(value & opt int 4 & info [ "j"; "threads" ] ~doc:"Worker threads")
let top = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Show the N most frequent features")

let simulate =
  Arg.(value & flag & info [ "simulate" ] ~doc:"Replay traces at 16/64 threads")

let cmd =
  Cmd.v
    (Cmd.info "binfeat" ~doc:"Extract forensic features from a corpus")
    Term.(const run $ dir $ threads $ top $ simulate)

let () = exit (Cmd.eval cmd)
