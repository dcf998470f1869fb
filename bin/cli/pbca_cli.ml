(* Command-line arguments shared by the tools. *)

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
