(* Parse SBF binaries and report their CFGs.

   Durability: [--checkpoint CP] journals every construction op to
   CP.journal and snapshots the graph to CP at quiescent rounds;
   [--resume] seeds the parse from those artifacts instead of starting
   over; [--batch] runs every FILE as a supervised job, restarting it
   (resuming from its artifacts) when a crash kills the analysis;
   [--fault-crash N] arms a simulated kill at task ordinal N, for
   exercising the recovery path end to end.

   Discovery: [--gap] turns on gap parsing — after the symbol-seeded
   parse, unclaimed .text gaps are scanned for entry candidates
   (prologue, call-target and alignment heuristics), which then flow
   through the normal parallel traversal tagged [From_heuristic].

   Exit codes: 0 clean, 1 degraded (budgets hit, tasks contained, or any
   function resting on heuristic evidence under --gap: the CFG is a
   partial or best-effort over-approximation), 2 malformed input —
   including a corrupt checkpoint under --resume — and 3 internal error
   or unrecovered crash. Malformed input is the binary's fault; exit 3
   is ours. In batch mode the process exit is the worst per-file code. *)

open Cmdliner
module Cfg = Pbca_core.Cfg
module Parallel = Pbca_core.Parallel
module Recover = Pbca_core.Recover
module Parse_error = Pbca_binfmt.Parse_error
module Fault = Pbca_concurrent.Fault
module Supervisor = Pbca_concurrent.Supervisor
module Trace = Pbca_obs.Trace
module Clock = Pbca_obs.Clock

type opts = {
  threads : int;
  dump_funcs : bool;
  diff_with : string option;
  gap : bool;
}

type artifacts = { a_cp : string; a_journal : string }

(* One artifact pair per file: the base path as-is for a single file,
   suffixed with the positional index otherwise. *)
let artifacts base ~idx ~nfiles =
  let cp = if nfiles <= 1 then base else Printf.sprintf "%s.%d" base idx in
  { a_cp = cp; a_journal = cp ^ ".journal" }

let persist_of arts =
  Option.map
    (fun a ->
      { Parallel.p_journal = a.a_journal; p_checkpoint = a.a_cp; p_every = 1 })
    arts

let load_plan arts =
  Recover.load
    { Recover.src_checkpoint = Some arts.a_cp; src_journal = Some arts.a_journal }

(* summed measured parse wall across files: the denominator of the
   trace-coverage figure printed with --trace *)
let parse_wall_total = ref 0.0

let report_cfg ~opts ~dt ~old path g =
  parse_wall_total := !parse_wall_total +. dt;
  Format.printf "%s: %a@." path Pbca_core.Summary.pp_stats g;
  Format.printf "parsed in %.3fs (parallel, %d threads)@." dt opts.threads;
  (match old with
  | Some (old_path, old_image) ->
    (* the older build under the same config ([--gap] included), so the
       diff shows what changed between the images, not between configs *)
    let old_g =
      Pbca_core.Serial.parse_and_finalize ~config:g.Cfg.config old_image
    in
    Format.printf "diff vs %s:@ %a@." old_path Pbca_core.Cfg_diff.pp
      (Pbca_core.Cfg_diff.diff old_g g)
  | None -> ());
  if opts.dump_funcs then
    List.iter
      (fun (f : Cfg.func) ->
        let ranges = Pbca_core.Summary.func_ranges g f in
        Format.printf "  %s @0x%x %s blocks=%d ranges=%s@." f.f_name
          f.f_entry_addr
          (match Atomic.get f.f_ret with
          | Cfg.Returns -> "ret"
          | Cfg.Noreturn -> "noret"
          | Cfg.Unset -> "unset")
          (List.length f.f_blocks)
          (String.concat ","
             (List.map (fun (a, b) -> Printf.sprintf "[0x%x,0x%x)" a b) ranges)))
      (Cfg.funcs_list g)

(* [resume_mode]: [`Strict] surfaces a damaged checkpoint as Rejected
   (the operator asked to resume; lying about it would hide corruption),
   [`Best_effort] falls back to a fresh parse (a supervised restart must
   make progress even when the crash mangled the artifacts). *)
let run_one ~pool ~opts ~trace ~persist ~resume_mode ~attempt path :
    Supervisor.outcome =
  let load p = Pbca_cli.or_malformed p (fun () -> Pbca_binfmt.Image.load p) in
  (* the --diff image is input too: a malformed one is rejected up front,
     not found after the parse *)
  let images =
    Result.bind (load path) (fun image ->
        match opts.diff_with with
        | None -> Ok (image, None)
        | Some old_path -> (
          match load old_path with
          | Ok old -> Ok (image, Some (old_path, old))
          | Error msg -> Error (old_path ^ ": " ^ msg)))
  in
  match images with
  | Error msg -> Supervisor.Rejected msg
  | Ok (image, old) -> (
    let resume =
      match resume_mode with
      | `No -> Ok None
      | `Strict arts -> (
        match load_plan arts with
        | Ok p -> Ok (Some p)
        | Error e -> Error e)
      | `Best_effort arts -> (
        match load_plan arts with
        | Ok p -> Ok (Some p)
        | Error e ->
          Format.eprintf "%s: artifacts unusable (%s), restarting fresh@." path
            (Parse_error.to_string e);
          Ok None)
    in
    match resume with
    | Error e ->
      let msg = Parse_error.to_string e in
      Format.eprintf "%s: checkpoint rejected: %s@." path msg;
      Supervisor.Rejected msg
    | Ok resume -> (
      let t0 = Clock.now () in
      (* crashed attempts still ran (and traced) for this long, so they
         count toward the span-coverage denominator too *)
      let count_wall () =
        parse_wall_total := !parse_wall_total +. Clock.elapsed t0
      in
      try
        let config =
          if opts.gap then
            Some { Pbca_core.Config.default with gap_parse = true }
          else None
        in
        let g =
          Parallel.parse_and_finalize ?config ~trace ?persist ?resume ~pool
            image
        in
        Atomic.set g.Cfg.stats.Cfg.supervisor_restarts attempt;
        report_cfg ~opts ~dt:(Clock.elapsed t0) ~old path g;
        let _, _, heuristic_funcs = Cfg.conf_counts g in
        if
          Cfg.degraded_count g > 0
          || Cfg.task_failure_count g > 0
          || heuristic_funcs > 0
        then Supervisor.Ok_degraded
        else Supervisor.Ok_clean
      with
      | Fault.Crashed k ->
        count_wall ();
        Format.eprintf "%s: crashed (simulated kill at task %d)@." path k;
        Supervisor.Crashed (Printf.sprintf "simulated kill at task %d" k)
      | e ->
        count_wall ();
        Format.eprintf "%s: internal error: %s@." path (Printexc.to_string e);
        Supervisor.Crashed (Printexc.to_string e)))

let outcome_str = function
  | Supervisor.Ok_clean -> "clean"
  | Supervisor.Ok_degraded -> "degraded"
  | Supervisor.Rejected m -> "rejected: " ^ m
  | Supervisor.Crashed m -> "crashed: " ^ m

let main files opts checkpoint resume batch fault_crash trace_out =
  let pool = Pbca_concurrent.Task_pool.create ~threads:opts.threads in
  let trace =
    match trace_out with
    | Some _ -> Trace.create ()
    | None -> Trace.disabled
  in
  let nfiles = List.length files in
  let arts_for i = Option.map (fun b -> artifacts b ~idx:i ~nfiles) checkpoint in
  let finish code =
    (match trace_out with
    | None -> ()
    | Some path ->
      Trace.write_chrome trace path;
      let wall = !parse_wall_total in
      let cov = Trace.covered_wall trace in
      Format.printf "trace: %s (%d spans, %.1f%% of %.3fs parse wall)@." path
        (List.length (Trace.spans trace))
        (if wall > 0.0 then 100.0 *. cov /. wall else 0.0)
        wall);
    code
  in
  finish
  @@
  if batch then begin
    let jobs =
      List.mapi
        (fun i path ->
          let arts = arts_for i in
          {
            Supervisor.j_id = path;
            j_run =
              (fun ~attempt ->
                (* the simulated kill hits the first attempt only: the
                   supervised restart must then recover *)
                if attempt = 0 && fault_crash >= 0 then
                  Fault.arm_at [ fault_crash ] Fault.Crash
                else Fault.disarm ();
                Fun.protect
                  ~finally:(fun () -> if fault_crash >= 0 then Fault.disarm ())
                  (fun () ->
                    let resume_mode =
                      match arts with
                      | Some a when attempt > 0 || resume -> `Best_effort a
                      | _ -> `No
                    in
                    run_one ~pool ~opts ~trace ~persist:(persist_of arts)
                      ~resume_mode ~attempt path));
          })
        files
    in
    let reports = Supervisor.run ~trace jobs in
    List.iter
      (fun (r : Supervisor.report) ->
        Printf.printf "%s: %s (%d restart%s)\n" r.r_id (outcome_str r.r_outcome)
          r.r_restarts
          (if r.r_restarts = 1 then "" else "s"))
      reports;
    Supervisor.worst_exit reports
  end
  else
    List.mapi
      (fun i path ->
        let arts = arts_for i in
        if fault_crash >= 0 then Fault.arm_at [ fault_crash ] Fault.Crash;
        Fun.protect
          ~finally:(fun () -> if fault_crash >= 0 then Fault.disarm ())
          (fun () ->
            let resume_mode =
              match arts with Some a when resume -> `Strict a | _ -> `No
            in
            Supervisor.exit_code
              (run_one ~pool ~opts ~trace ~persist:(persist_of arts)
                 ~resume_mode ~attempt:0 path)))
      files
    |> List.fold_left max 0

let run files threads dump diff_with checkpoint resume batch fault_crash
    trace_out gap =
  if files = [] then `Error (true, "at least one BINARY is required")
  else if resume && checkpoint = None then
    `Error (true, "--resume requires --checkpoint")
  else if fault_crash >= 0 && checkpoint = None then
    `Error (true, "--fault-crash requires --checkpoint")
  else
    let opts = { threads; dump_funcs = dump; diff_with; gap } in
    `Ok (main files opts checkpoint resume batch fault_crash trace_out)

let files = Arg.(value & pos_all file [] & info [] ~docv:"BINARY")

let dump = Arg.(value & flag & info [ "funcs" ] ~doc:"Dump per-function details")

let diff_with =
  Arg.(
    value
    & opt (some file) None
    & info [ "diff" ] ~doc:"Diff against an older build of the same binary")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"CP"
        ~doc:
          "Write crash-recovery artifacts: a CFG snapshot at $(docv) and an \
           operation journal at $(docv).journal (with several BINARY \
           arguments, $(docv).$(i,IDX) per file)")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Seed the parse from the --checkpoint artifacts instead of starting \
           over; a damaged checkpoint is a malformed-input error (exit 2)")

let batch =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Supervise each BINARY as a restartable job: a crashed analysis is \
           retried with exponential backoff, resuming from its artifacts; the \
           process exits with the worst per-file code")

let fault_crash =
  Arg.(
    value & opt int (-1)
    & info [ "fault-crash" ] ~docv:"N"
        ~doc:
          "Simulate a kill at task ordinal $(docv): the parse aborts before \
           its next journal commit, leaving artifacts as a real crash would")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record per-domain execution spans and write them to $(docv) as \
           Chrome trace-event JSON (open in chrome://tracing or Perfetto); \
           also prints a per-phase wall breakdown in the summary")

let gap =
  Arg.(
    value & flag
    & info [ "gap" ]
        ~doc:
          "Scan unclaimed .text gaps for function entries after the \
           symbol-seeded parse (stripped binaries); discovered functions are \
           confidence-tagged and their presence makes the run degraded \
           (exit 1)")

let cmd =
  Cmd.v
    (Cmd.info "bparse" ~doc:"Construct and summarize a binary's CFG")
    Term.(
      ret
        (const run $ files $ Pbca_cli.threads $ dump $ diff_with $ checkpoint
       $ resume $ batch $ fault_crash $ trace_out $ gap))

let () = exit (Cmd.eval' cmd)
