(* Command-line arguments and input handling shared by the tools. *)

open Cmdliner

(* A worker count below 1 is a usage error: Cmdliner rejects it with its
   usage exit (124) before the tool runs. *)
let threads =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 ->
      Error
        (`Msg
          (Printf.sprintf
             "invalid value '%d', expected a worker count of at least 1" n))
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 4
    & info [ "j"; "threads" ] ~docv:"N" ~doc:"Worker threads (at least 1)")

let or_malformed path f =
  try Ok (f ())
  with Pbca_binfmt.Parse_error.Error e ->
    let msg = Pbca_binfmt.Parse_error.to_string e in
    Format.eprintf "%s: malformed: %s@." path msg;
    Error msg
