(* Disassembler CLI: objdump-style listing of an SBF binary, annotated with
   the parsed CFG (function headers, block boundaries, edge summaries). A
   malformed binary exits 2. *)

open Cmdliner

let listing image threads func_filter dot_out =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let g = Pbca_core.Parallel.parse_and_finalize ~pool image in
  let funcs = Pbca_core.Cfg.funcs_list g in
  let funcs =
    match func_filter with
    | Some name ->
      List.filter (fun (f : Pbca_core.Cfg.func) -> f.f_name = name) funcs
    | None -> funcs
  in
  (match (dot_out, funcs) with
  | Some dot_path, f :: _ ->
    Pbca_core.Dot.write_func g f dot_path;
    Printf.printf "wrote %s\n" dot_path
  | Some _, [] -> prerr_endline "no function matched for --dot"
  | None, _ -> ());
  List.iter
    (fun (f : Pbca_core.Cfg.func) ->
      Printf.printf "\n%08x <%s>%s:\n" f.f_entry_addr f.f_name
        (match Atomic.get f.f_ret with
        | Pbca_core.Cfg.Noreturn -> " [noreturn]"
        | _ -> "");
      List.iter
        (fun (b : Pbca_core.Cfg.block) ->
          let edges =
            String.concat ", "
              (List.map
                 (fun (e : Pbca_core.Cfg.edge) ->
                   Printf.sprintf "%s->0x%x"
                     (Format.asprintf "%a" Pbca_core.Cfg.pp_edge_kind e.e_kind)
                     e.e_dst.Pbca_core.Cfg.b_start)
                 (Pbca_core.Cfg.out_edges b))
          in
          Printf.printf "  ; block [0x%x, 0x%x)%s\n" b.b_start
            (Pbca_core.Cfg.block_end b)
            (if edges = "" then "" else "  -> " ^ edges);
          List.iter
            (fun (a, insn, _) ->
              Printf.printf "  %8x:\t%s\n" a (Pbca_isa.Insn.to_string insn))
            (Pbca_core.Disasm.block_insns g b))
        f.f_blocks)
    funcs

let run path threads func_filter dot_out =
  match Pbca_cli.or_malformed path (fun () -> Pbca_binfmt.Image.load path) with
  | Error _ -> 2
  | Ok image ->
    listing image threads func_filter dot_out;
    0

let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY")

let func =
  Arg.(value & opt (some string) None & info [ "f"; "func" ] ~doc:"Only this function")

let dot =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~doc:"Write the (first matched) function's CFG as Graphviz")

let cmd =
  Cmd.v
    (Cmd.info "bdisasm" ~doc:"Disassemble a binary with CFG annotations")
    Term.(const run $ path $ Pbca_cli.threads $ func $ dot)

let () = exit (Cmd.eval' cmd)
