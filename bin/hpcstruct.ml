(* Program-structure recovery CLI (the hpcstruct case study). *)

open Cmdliner

let run path threads out simulate =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let bytes = Bytes.create n in
  really_input ic bytes 0 n;
  close_in ic;
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let r = Pbca_hpcstruct.Hpcstruct.run ~pool bytes in
  Printf.printf "%-9s %10s %10s" "phase" "wall(s)" "work";
  if simulate then Printf.printf "  %s" "sim-speedup@{1,16,64}";
  print_newline ();
  List.iter
    (fun (p : Pbca_hpcstruct.Hpcstruct.phase) ->
      Printf.printf "%-9s %10.4f %10d" p.ph_name p.ph_wall p.ph_work;
      (match (simulate, p.ph_trace) with
      | true, Some tr ->
        Printf.printf "  %.2f / %.2f / %.2f"
          (Pbca_simsched.Replay.speedup ~threads:1 tr)
          (Pbca_simsched.Replay.speedup ~threads:16 tr)
          (Pbca_simsched.Replay.speedup ~threads:64 tr)
      | _ -> ());
      print_newline ())
    r.phases;
  Printf.printf "total %.4fs: %d functions, %d loops, %d statements\n"
    (Pbca_hpcstruct.Hpcstruct.total_wall r)
    r.n_funcs r.n_loops r.n_stmts;
  match out with
  | Some path ->
    let oc = open_out path in
    output_string oc r.output;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" path (String.length r.output)
  | None -> ()

let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY")
let threads = Arg.(value & opt int 4 & info [ "j"; "threads" ] ~doc:"Worker threads")

let out =
  Arg.(value & opt (some string) None & info [ "o" ] ~doc:"Write structure file")

let simulate =
  Arg.(value & flag & info [ "simulate" ] ~doc:"Replay traces at 1/16/64 threads")

let cmd =
  Cmd.v
    (Cmd.info "hpcstruct" ~doc:"Recover program structure from a binary")
    Term.(const run $ path $ threads $ out $ simulate)

let () = exit (Cmd.eval cmd)
