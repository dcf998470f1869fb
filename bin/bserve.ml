(* bserve: resident analysis-as-a-service daemon.

   Accepts parse / hpcstruct / binfeat requests over a unix-domain socket
   (the CRC-framed Wire protocol) and answers every one — including
   overload, expiry, garbage frames and worker crashes — with a
   structured reply. See lib/serve for the service contracts.

   Exit codes: 0 clean shutdown (signal, wire Shutdown request, or
   --max-seconds), 1 startup failure (bad socket path, bind error). *)

open Cmdliner
module Serve = Pbca_serve.Serve
module Config = Pbca_core.Config
module Trace = Pbca_obs.Trace
module Metrics = Pbca_obs.Metrics

let run sock workers acceptors queue cache retries default_deadline_ms
    read_timeout max_image_kb max_seconds analysis_deadline trace_out
    print_metrics =
  let stop_flag = Atomic.make false in
  let on_signal _ = Atomic.set stop_flag true in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  let trace =
    match trace_out with Some _ -> Trace.create () | None -> Trace.disabled
  in
  let cfg =
    { (Serve.default_config ~sock) with
      Serve.sc_workers = workers;
      sc_acceptors = acceptors;
      sc_queue = queue;
      sc_cache_dir = cache;
      sc_retries = retries;
      sc_default_deadline_ms = default_deadline_ms;
      sc_read_timeout_s = read_timeout;
      sc_max_image_bytes = max_image_kb * 1024;
      sc_analysis =
        { Config.default with Config.deadline_s = analysis_deadline };
    }
  in
  match Serve.start ~trace cfg with
  | exception Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "bserve: cannot start on %s: %s (%s %s)\n" sock
      (Unix.error_message e) fn arg;
    1
  | t ->
    Printf.printf "bserve: listening on %s (%d workers, queue %d%s)\n%!" sock
      workers queue
      (match cache with Some d -> ", cache " ^ d | None -> "");
    let t0 = Unix.gettimeofday () in
    let rec wait () =
      if
        Atomic.get stop_flag
        || Serve.shutdown_requested t
        || (max_seconds > 0.0 && Unix.gettimeofday () -. t0 >= max_seconds)
      then ()
      else begin
        Unix.sleepf 0.1;
        wait ()
      end
    in
    wait ();
    Printf.printf "bserve: draining\n%!";
    Serve.stop t;
    if print_metrics then
      Format.printf "%a@." Metrics.pp (Serve.metrics t);
    (match trace_out with
    | Some path ->
      Trace.write_chrome trace path;
      Printf.printf "trace: %s\n" path
    | None -> ());
    Printf.printf "bserve: stopped\n%!";
    0

let sock =
  Arg.(
    value
    & opt string "/tmp/bserve.sock"
    & info [ "sock" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let workers =
  Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Worker domains")

let acceptors =
  Arg.(value & opt int 2 & info [ "acceptors" ] ~doc:"Acceptor domains")

let queue =
  Arg.(
    value & opt int 16
    & info [ "queue" ]
        ~doc:"Admission queue bound; a full queue sheds load (Overloaded)")

let cache =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Result cache directory: parse replies stored by image content \
           and analysis config, read back on a hit; omitted = no cache")

let retries =
  Arg.(
    value & opt int 2
    & info [ "retries" ]
        ~doc:"Supervisor restart budget per request before Failed")

let default_deadline_ms =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ]
        ~doc:"Default per-request deadline for requests that carry none; 0 = none")

let read_timeout =
  Arg.(
    value & opt float 2.0
    & info [ "read-timeout" ]
        ~doc:"Seconds before a stalled client is evicted")

let max_image_kb =
  Arg.(
    value & opt int 8192
    & info [ "max-image-kb" ] ~doc:"Reject images larger than this")

let max_seconds =
  Arg.(
    value & opt float 0.0
    & info [ "max-seconds" ]
        ~doc:"Auto-drain after this many seconds; 0 = run until signalled")

let analysis_deadline =
  Arg.(
    value & opt float 0.0
    & info [ "analysis-deadline" ]
        ~doc:"Base per-parse analysis deadline (seconds); 0 = none")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write Chrome trace-event JSON of all service spans at drain")

let print_metrics =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the metrics registry at drain")

let cmd =
  Cmd.v
    (Cmd.info "bserve" ~doc:"Analysis-as-a-service daemon")
    Term.(
      const run $ sock $ workers $ acceptors $ queue $ cache $ retries
      $ default_deadline_ms $ read_timeout $ max_image_kb $ max_seconds
      $ analysis_deadline $ trace_out $ print_metrics)

let () = exit (Cmd.eval' cmd)
