(* Mutation fuzzer for the SBF parser, the CFG analyses and the crash
   recovery path.

   Generates well-formed binaries, mutates them (header bits, truncation,
   byte flips, code splices, table smashes, symbol lies) and checks the
   robustness contract on every mutant: the parser never crashes, never
   runs past the deadline, and always returns either a clean CFG, a partial
   CFG with degradation marks, or a structured parse error.

   The seventh axis (artifact-rot) fuzzes recovery instead of parsing: a
   checkpointed parse is killed partway through by an injected crash, one
   of its recovery artifacts is corrupted the way a dying disk would, and
   the resume must either reject the checkpoint with a structured error
   (exit-2 class) or converge to the exact CFG of an uninterrupted run —
   never crash, never return a silently different graph.

   Exit codes (corpus mode): 0 when every mutant upheld the contract,
   3 when any crashed or hung. With a positional FILE the same codes as
   bparse apply: 0 clean, 1 degraded, 2 malformed, 3 internal bug. *)

open Cmdliner
module Image = Pbca_binfmt.Image
module Parse_error = Pbca_binfmt.Parse_error
module Cfg = Pbca_core.Cfg
module Config = Pbca_core.Config
module Parallel = Pbca_core.Parallel
module Recover = Pbca_core.Recover
module Summary = Pbca_core.Summary
module Fault = Pbca_concurrent.Fault
module Mutate = Pbca_codegen.Mutate
module Rng = Pbca_codegen.Rng
module Profile = Pbca_codegen.Profile
module Trace = Pbca_obs.Trace
module Clock = Pbca_obs.Clock
module Metrics = Pbca_obs.Metrics
module Serve = Pbca_serve.Serve
module Wire = Pbca_serve.Wire
module Sclient = Pbca_serve.Sclient

type outcome = Clean | Degraded | Malformed of string | Crash of string

(* observability sinks shared by every mutant: spans append to [obs_trace],
   each mutant's per-run registry merges into [obs_metrics] *)
type obs = { obs_trace : Trace.t; obs_metrics : Metrics.t option }

let record_metrics obs (g : Cfg.t) =
  match obs.obs_metrics with
  | Some acc -> Metrics.merge ~into:acc g.Cfg.metrics
  | None -> ()

let classify ~pool ~config ~obs bytes =
  match Image.read_result bytes with
  | Error e -> Malformed (Parse_error.to_string e)
  | Ok img -> (
    try
      let g =
        Pbca_core.Parallel.parse_and_finalize ~config ~trace:obs.obs_trace
          ~pool img
      in
      record_metrics obs g;
      if Cfg.degraded_count g > 0 || Cfg.task_failure_count g > 0 then Degraded
      else Clean
    with e -> Crash (Printexc.to_string e))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_file path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b)

let with_artifacts f =
  let cp = Filename.temp_file "bfuzz" ".cp" in
  let j = cp ^ ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ cp; j; cp ^ ".tmp" ])
    (fun () -> f cp j)

let corrupt_file ~rng path =
  if Sys.file_exists path then
    write_file path (Mutate.corrupt_artifact ~rng (read_file path))

(* The artifact-rot scenario: crash a checkpointed parse partway through
   (the kill point is drawn from the seed stream, so some seeds die in
   init, some mid-rounds, some not at all), rot one artifact, resume.
   A rejected checkpoint is the malformed outcome; a resume that loads
   must reproduce the uninterrupted run's CFG bit for bit. *)
let classify_resume ~pool ~config ~obs ~rng ~clean_sum img =
  with_artifacts (fun cp j ->
      let persist =
        { Parallel.p_journal = j; p_checkpoint = cp; p_every = 1 }
      in
      Fun.protect
        ~finally:(fun () -> Fault.disarm ())
        (fun () ->
          Fault.arm_at [ Rng.int rng 600 ] Fault.Crash;
          try
            ignore
              (Parallel.parse_and_finalize ~config ~trace:obs.obs_trace
                 ~persist ~pool img)
          with _ -> ());
      corrupt_file ~rng (if Rng.bool rng 0.5 then cp else j);
      match
        Recover.load
          { Recover.src_checkpoint = Some cp; src_journal = Some j }
      with
      | Error e -> Malformed (Parse_error.to_string e)
      | Ok plan -> (
        try
          let g =
            Parallel.parse_and_finalize ~config ~trace:obs.obs_trace
              ~resume:plan ~pool img
          in
          record_metrics obs g;
          if Summary.equal (Summary.of_cfg g) clean_sum then
            if Cfg.degraded_count g > 0 || Cfg.task_failure_count g > 0 then
              Degraded
            else Clean
          else Crash "resumed CFG differs from the uninterrupted parse"
        with e -> Crash (Printexc.to_string e)))

let base_images () =
  List.map
    (fun p -> (Pbca_codegen.Emit.generate p).Pbca_codegen.Emit.image)
    [ Profile.coreutils_like 1; Profile.coreutils_like 2 ]

type tally = {
  mutable clean : int;
  mutable degraded : int;
  mutable malformed : int;
  mutable crash : int;
}

let make_obs ~trace_out ~metrics =
  {
    obs_trace =
      (match trace_out with
      | Some _ -> Trace.create ()
      | None -> Trace.disabled);
    obs_metrics = (if metrics then Some (Metrics.create ()) else None);
  }

let finish_obs obs ~trace_out code =
  (match trace_out with
  | None -> ()
  | Some path ->
    Trace.write_chrome obs.obs_trace path;
    Printf.printf "trace: %s (%d spans)\n" path
      (List.length (Trace.spans obs.obs_trace)));
  (match obs.obs_metrics with
  | None -> ()
  | Some acc ->
    Format.printf "metrics (all runs merged):@.%a@." Metrics.pp acc);
  code

let run_corpus ~threads ~seeds ~base_seed ~deadline ~obs =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let config = { Config.default with Config.deadline_s = deadline } in
  let bases = base_images () in
  let nb = List.length bases in
  (* uninterrupted-run summaries, the artifact-rot equality oracle *)
  let clean_sums =
    List.map
      (fun img ->
        Summary.of_cfg (Pbca_core.Parallel.parse_and_finalize ~config ~pool img))
      bases
  in
  let per_kind = Hashtbl.create 8 in
  let tally_of kind =
    let name = Mutate.kind_name kind in
    match Hashtbl.find_opt per_kind name with
    | Some t -> t
    | None ->
      let t = { clean = 0; degraded = 0; malformed = 0; crash = 0 } in
      Hashtbl.add per_kind name t;
      t
  in
  let crashes = ref [] in
  let hangs = ref [] in
  (* the deadline is best-effort (checked between work units), so allow a
     generous grace before calling a run hung *)
  let grace = 3.0 in
  for s = 0 to seeds - 1 do
    let rng = Rng.create (base_seed + s) in
    let img = List.nth bases (s mod nb) in
    let kind = Rng.choose_arr rng Mutate.all_kinds in
    let t0 = Clock.now () in
    let outcome =
      match kind with
      | Mutate.Artifact_rot ->
        classify_resume ~pool ~config ~obs ~rng
          ~clean_sum:(List.nth clean_sums (s mod nb))
          img
      | k -> classify ~pool ~config ~obs (Mutate.apply ~rng k img)
    in
    let dt = Clock.elapsed t0 in
    let t = tally_of kind in
    (match outcome with
    | Clean -> t.clean <- t.clean + 1
    | Degraded -> t.degraded <- t.degraded + 1
    | Malformed _ -> t.malformed <- t.malformed + 1
    | Crash e ->
      t.crash <- t.crash + 1;
      crashes := (base_seed + s, Mutate.kind_name kind, e) :: !crashes);
    if deadline > 0.0 && dt > deadline +. grace then
      hangs := (base_seed + s, Mutate.kind_name kind, dt) :: !hangs
  done;
  let names = Array.map Mutate.kind_name Mutate.all_kinds in
  Array.iter
    (fun name ->
      match Hashtbl.find_opt per_kind name with
      | None -> ()
      | Some t ->
        Printf.printf "%-12s clean=%-5d degraded=%-5d malformed=%-5d crash=%d\n"
          name t.clean t.degraded t.malformed t.crash)
    names;
  List.iter
    (fun (seed, kind, e) ->
      Printf.printf "CRASH seed=%d kind=%s: %s\n" seed kind e)
    (List.rev !crashes);
  List.iter
    (fun (seed, kind, dt) ->
      Printf.printf "HANG seed=%d kind=%s: %.2fs past a %.2fs deadline\n" seed
        kind dt deadline)
    (List.rev !hangs);
  Printf.printf "%d mutants: %d crashes, %d deadline violations\n" seeds
    (List.length !crashes) (List.length !hangs);
  if !crashes = [] && !hangs = [] then 0 else 3

(* --serve mode: the same zero-crash contract, asserted at the service
   layer. An in-process daemon takes real socket traffic — well-formed
   requests, mutated images, garbled frames, raw garbage, stalled
   clients — while the service fault plan kills workers, tears replies,
   stalls services and rots cache artifacts. Every request must end in a
   structured reply or a structured client-side error; a Timeout or
   Unavailable means the daemon hung or died, which is the only failure.
   Well-formed clean parse replies must carry the fingerprint of a local
   one-shot parse of the same image. *)
let fingerprint_of_body body =
  let prefix = "fingerprint=" in
  if String.length body > String.length prefix
     && String.sub body 0 (String.length prefix) = prefix
  then
    let rest = String.sub body (String.length prefix)
        (String.length body - String.length prefix) in
    match String.index_opt rest ' ' with
    | Some i -> Some (String.sub rest 0 i)
    | None -> Some rest
  else None

let run_serve ~seeds ~base_seed ~obs =
  let dir = Filename.temp_file "bfuzz-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config ~sock) with
      Serve.sc_workers = 2;
      sc_acceptors = 2;
      sc_queue = 8;
      sc_cache_dir = Some (Filename.concat dir "cache");
      sc_read_timeout_s = 0.25;
      sc_retries = 2;
      sc_backoff_base_s = 0.002;
    }
  in
  (* local one-shot oracle for the well-formed requests *)
  let pool = Pbca_concurrent.Task_pool.create ~threads:1 in
  let bases = base_images () in
  let nb = List.length bases in
  let base_bytes = List.map Image.write bases in
  let fps =
    List.map
      (fun img ->
        Summary.fingerprint
          (Summary.of_cfg
             (Parallel.parse_and_finalize ~config:cfg.Serve.sc_analysis ~pool
                img)))
      bases
  in
  let tally = Hashtbl.create 16 in
  let bump k =
    Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
  in
  let failures = ref [] in
  let fail s msg = failures := (base_seed + s, msg) :: !failures in
  let t = Serve.start ~trace:obs.obs_trace cfg in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_service ();
      (try Serve.stop t
       with e -> fail (-1) ("daemon crashed at drain: " ^ Printexc.to_string e));
      (match obs.obs_metrics with
      | Some acc -> Metrics.merge ~into:acc (Serve.metrics t)
      | None -> ());
      (try
         Array.iter
           (fun e -> try Sys.remove (Filename.concat (Filename.concat dir "cache") e) with Sys_error _ -> ())
           (try Sys.readdir (Filename.concat dir "cache") with Sys_error _ -> [||]);
         (try Unix.rmdir (Filename.concat dir "cache") with Unix.Unix_error _ -> ());
         (try Sys.remove sock with Sys_error _ -> ());
         Unix.rmdir dir
       with Unix.Unix_error _ | Sys_error _ -> ()))
    (fun () ->
      Fault.arm_service ~seed:base_seed ~n:(max 1 (seeds / 10)) ~window:seeds
        [ Fault.Kill_worker 1; Fault.Kill_worker 9; Fault.Torn_reply;
          Fault.Stall 0.05; Fault.Cache_rot ];
      let classify_result s = function
        | Ok (r : Wire.reply) -> bump (Wire.status_name r.Wire.rp_status)
        | Error (Sclient.Torn _) ->
          (* torn replies are injected on purpose; the client error is
             structured, which is all the contract asks *)
          bump "client-torn"
        | Error (Sclient.Io m) -> bump ("client-io:" ^ m)
        | Error Sclient.Timeout ->
          bump "client-timeout";
          fail s "client timed out: daemon hung"
        | Error (Sclient.Unavailable m) ->
          bump "client-unavailable";
          fail s ("daemon unavailable: " ^ m)
      in
      for s = 0 to seeds - 1 do
        let rng = Rng.create (base_seed + s) in
        let i = s mod nb in
        let bytes = List.nth base_bytes i in
        if s mod 50 = 13 then begin
          (* stalled client: write a third of a frame, hold past the
             daemon's read timeout; the daemon must evict us *)
          bump "stalled-client";
          match
            Sclient.stall ~hold_s:0.3 ~sock
              (Wire.encode_request (Wire.request ~image:bytes Wire.Parse))
          with
          | Ok () | Error _ -> ()
        end
        else
          match s mod 5 with
          | 0 ->
            (* well-formed parse; clean replies must match the oracle *)
            let no_cache = Rng.bool rng 0.3 in
            let req = Wire.request ~no_cache ~image:bytes Wire.Parse in
            let res = Sclient.roundtrip ~timeout_s:20.0 ~sock req in
            (match res with
            | Ok r when r.Wire.rp_status = Wire.Ok_clean -> (
              match fingerprint_of_body r.Wire.rp_body with
              | Some fp when fp = List.nth fps i -> ()
              | Some fp ->
                fail s
                  (Printf.sprintf
                     "fingerprint mismatch: daemon %s vs local %s%s" fp
                     (List.nth fps i)
                     (if r.Wire.rp_cache_hit then " (cache hit)" else ""))
              | None -> fail s ("malformed parse body: " ^ r.Wire.rp_body))
            | _ -> ());
            classify_result s res
          | 1 ->
            (* hostile image, well-formed framing *)
            let kind = Rng.choose_arr rng Mutate.image_kinds in
            let mutant = Mutate.apply ~rng kind (List.nth bases i) in
            classify_result s
              (Sclient.roundtrip ~timeout_s:20.0 ~sock
                 (Wire.request ~image:mutant Wire.Parse))
          | 2 ->
            (* well-formed request, garbled framing (the 8th axis) *)
            let frame =
              Mutate.garble_frame ~rng
                (Wire.encode_request (Wire.request ~image:bytes Wire.Parse))
            in
            classify_result s (Sclient.send_raw ~timeout_s:20.0 ~sock frame)
          | 3 ->
            (* raw garbage bytes *)
            let junk =
              Bytes.init (Rng.int rng 200) (fun _ -> Char.chr (Rng.int rng 256))
            in
            classify_result s (Sclient.send_raw ~timeout_s:20.0 ~sock junk)
          | _ ->
            (* the other analysis kinds *)
            let kind = if s mod 2 = 0 then Wire.Hpcstruct else Wire.Binfeat in
            classify_result s
              (Sclient.roundtrip ~timeout_s:20.0 ~sock
                 (Wire.request ~image:bytes kind))
      done;
      (* liveness: after everything above, the daemon must still answer *)
      (match Sclient.roundtrip ~timeout_s:5.0 ~sock (Wire.request Wire.Ping) with
      | Ok { Wire.rp_status = Wire.Ok_clean; rp_body = "pong"; _ } -> ()
      | Ok r ->
        fail seeds ("final ping answered " ^ Wire.status_name r.Wire.rp_status)
      | Error e ->
        fail seeds ("final ping failed: " ^ Sclient.error_to_string e));
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
      |> List.sort compare
      |> List.iter (fun (k, v) -> Printf.printf "%-20s %d\n" k v);
      List.iter
        (fun (seed, msg) -> Printf.printf "VIOLATION seed=%d: %s\n" seed msg)
        (List.rev !failures);
      Printf.printf
        "%d serve requests: %d contract violations (service faults drawn: %d)\n"
        seeds
        (List.length !failures)
        (Fault.service_injected_count ());
      if !failures = [] then 0 else 3)

let run_file ~threads ~deadline ~obs path =
  let pool = Pbca_concurrent.Task_pool.create ~threads in
  let config = { Config.default with Config.deadline_s = deadline } in
  match classify ~pool ~config ~obs (read_file path) with
  | Clean ->
    Printf.printf "%s: clean\n" path;
    0
  | Degraded ->
    Printf.printf "%s: degraded (partial CFG, see marks)\n" path;
    1
  | Malformed e ->
    Printf.printf "%s: malformed: %s\n" path e;
    2
  | Crash e ->
    Printf.eprintf "%s: internal error: %s\n" path e;
    3

let run file smoke serve seeds seed threads deadline trace_out metrics =
  let obs = make_obs ~trace_out ~metrics in
  finish_obs obs ~trace_out
  @@
  match file with
  | Some path -> run_file ~threads ~deadline ~obs path
  | None when serve ->
    let seeds = if smoke then 120 else seeds in
    run_serve ~seeds ~base_seed:seed ~obs
  | None ->
    let seeds = if smoke then 200 else seeds in
    run_corpus ~threads ~seeds ~base_seed:seed ~deadline ~obs

let file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Classify one binary instead of fuzzing")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"Quick fixed-seed run (200 mutants), for CI")

let serve =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Fuzz the bserve daemon instead of the parser: an in-process \
           daemon takes mutated images, garbled frames, raw garbage and \
           stalled clients under injected service faults; every request \
           must end in a structured reply, the daemon must never crash or \
           hang, and clean parse replies must match a local one-shot parse")

let seeds =
  Arg.(value & opt int 1000 & info [ "seeds" ] ~doc:"Number of mutants")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed")

let deadline =
  Arg.(
    value & opt float 2.0
    & info [ "deadline" ] ~doc:"Per-mutant work-unit deadline in seconds")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record execution spans across every mutant parse and write them \
           to $(docv) as Chrome trace-event JSON")

let metrics =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Merge every mutant's metrics registry and print the aggregate at \
           the end")

let cmd =
  Cmd.v
    (Cmd.info "bfuzz" ~doc:"Mutation-fuzz the binary parser")
    Term.(
      const run $ file $ smoke $ serve $ seeds $ seed $ Pbca_cli.threads
      $ deadline $ trace_out $ metrics)

let () = exit (Cmd.eval' cmd)
