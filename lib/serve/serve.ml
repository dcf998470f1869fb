module Channel = Pbca_concurrent.Channel
module Task_pool = Pbca_concurrent.Task_pool
module Supervisor = Pbca_concurrent.Supervisor
module Fault = Pbca_concurrent.Fault
module Clock = Pbca_obs.Clock
module Metrics = Pbca_obs.Metrics
module Trace = Pbca_obs.Trace
module Image = Pbca_binfmt.Image
module Parse_error = Pbca_binfmt.Parse_error
module Parallel = Pbca_core.Parallel
module Cfg = Pbca_core.Cfg
module Summary = Pbca_core.Summary
module Aconfig = Pbca_core.Config

type config = {
  sc_sock : string;
  sc_acceptors : int;
  sc_workers : int;
  sc_queue : int;
  sc_cache_dir : string option;
  sc_max_image_bytes : int;
  sc_read_timeout_s : float;
  sc_retries : int;
  sc_backoff_base_s : float;
  sc_parse_threads : int;
  sc_default_deadline_ms : int;
  sc_analysis : Aconfig.t;
  sc_rot_seed : int;
}

let default_config ~sock =
  {
    sc_sock = sock;
    sc_acceptors = 2;
    sc_workers = 2;
    sc_queue = 16;
    sc_cache_dir = None;
    sc_max_image_bytes = 8 * 1024 * 1024;
    sc_read_timeout_s = 2.0;
    sc_retries = 2;
    sc_backoff_base_s = 0.002;
    sc_parse_threads = 1;
    sc_default_deadline_ms = 0;
    sc_analysis = Aconfig.default;
    sc_rot_seed = 0x5eed;
  }

type job = {
  jb_fd : Unix.file_descr;
  jb_req : Wire.request;
  jb_fault : Fault.service option;
  jb_admit : float;  (* Clock.now at admission *)
  jb_deadline : float;  (* absolute Clock time; infinity = none *)
}

type counters = {
  c_accepted : Metrics.counter;
  c_replies : Metrics.counter;
  c_shed : Metrics.counter;
  c_expired : Metrics.counter;
  c_bad_frames : Metrics.counter;
  c_rejected : Metrics.counter;
  c_failed : Metrics.counter;
  c_retries : Metrics.counter;
  c_crashes : Metrics.counter;
  c_cache_hits : Metrics.counter;
  c_cache_misses : Metrics.counter;
  c_stalled : Metrics.counter;
  c_torn : Metrics.counter;
  c_draining : Metrics.counter;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  queue : job Channel.t;
  draining : bool Atomic.t;
  shutdown_req : bool Atomic.t;
  stopped : bool Atomic.t;
  cache : Cache.t option;
  metrics : Metrics.t;
  otrace : Trace.t;
  cnt : counters;
  h_wait : Metrics.histogram;
  h_latency : Metrics.histogram;
  h_latency_hit : Metrics.histogram;
  h_latency_cold : Metrics.histogram;
  rot_rng : Pbca_codegen.Rng.t;
  mutable acceptors : unit Domain.t array;
  mutable workers : unit Domain.t array;
}

let metrics t = t.metrics
let sock_path t = t.cfg.sc_sock
let draining t = Atomic.get t.draining
let shutdown_requested t = Atomic.get t.shutdown_req

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink_quiet p = try Unix.unlink p with Unix.Unix_error _ -> ()

let send_reply t fd reply =
  let frame = Wire.encode_reply reply in
  match Wire.write_frame fd frame with
  | Ok () ->
    Metrics.incr t.cnt.c_replies;
    true
  | Error _ ->
    (* peer vanished or stopped reading; its loss, never ours *)
    false

(* Torn_reply fault: emit only a prefix of the frame, then the caller
   closes — the client must surface a structured torn-frame error. *)
let send_torn t fd reply =
  let frame = Wire.encode_reply reply in
  let cut = max 1 (Bytes.length frame / 2) in
  Metrics.incr t.cnt.c_torn;
  (match Wire.write_frame fd (Bytes.sub frame 0 cut) with
  | Ok () | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Worker side: one admitted request, end to end.                      *)

let us_of span = int_of_float (span *. 1e6)

let body_of_parse cfg_graph =
  let s = Summary.of_cfg cfg_graph in
  (* provenance census rides in every reply: a client of a gap-parsed
     (stripped) image sees exactly how much of the answer rests on
     heuristics rather than symbols *)
  let conf c =
    List.length
      (List.filter (fun (f : Summary.func_sum) -> f.Summary.fs_conf = c) s.Summary.funcs)
  in
  Printf.sprintf
    "fingerprint=%s blocks=%d edges=%d funcs=%d conf_symbol=%d \
     conf_call_target=%d conf_heuristic=%d"
    (Summary.fingerprint s)
    (List.length s.Summary.blocks)
    (List.length s.Summary.edges)
    (List.length s.Summary.funcs)
    (conf 0) (conf 1) (conf 2)

let index_digest index =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) index [] in
  let entries = List.sort compare entries in
  let buf = Buffer.create 4096 in
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v))
    entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type service_result = {
  sv_body : string;
  sv_degraded : bool;
  sv_cache_hit : bool;
}

exception Killed_by_fault of int

(* Run the analysis for one attempt. Every outcome the supervisor can
   retry or surface maps onto the reply taxonomy:
   - malformed image        -> Rejected (final, never retried)
   - analysis exception     -> Crashed  (retried with backoff)
   - budget/deadline cuts   -> Ok_degraded with a well-formed body *)
let run_attempt t pool job ~attempt result_cell =
  (match job.jb_fault with
  | Some (Fault.Kill_worker k) when attempt < k ->
    raise (Killed_by_fault attempt)
  | _ -> ());
  match Image.read_result job.jb_req.Wire.rq_image with
  | Error e -> Supervisor.Rejected (Parse_error.to_string e)
  | Ok img ->
    let remaining = job.jb_deadline -. Clock.now () in
    let acfg =
      if job.jb_deadline = infinity then t.cfg.sc_analysis
      else
        { t.cfg.sc_analysis with
          Aconfig.deadline_s = Float.max 0.001 remaining }
    in
    let finish ?(cache_hit = false) ~degraded body =
      result_cell :=
        Some { sv_body = body; sv_degraded = degraded; sv_cache_hit = cache_hit };
      if degraded then Supervisor.Ok_degraded else Supervisor.Ok_clean
    in
    (* heuristic gap discoveries are honest degradation too: the graph is
       complete but parts of it rest on guessed entry points *)
    let heuristic g =
      let _, _, h = Cfg.conf_counts g in
      h > 0
    in
    (match job.jb_req.Wire.rq_kind with
    | Wire.Parse -> (
      (* the digest costs two passes over the image: take it only when a
         lookup or an injected rot needs it *)
      let key =
        lazy (Cache.reply_key t.cfg.sc_analysis job.jb_req.Wire.rq_image)
      in
      (match (t.cache, job.jb_fault) with
      | Some c, Some Fault.Cache_rot ->
        ignore (Cache.rot ~rng:t.rot_rng c (Lazy.force key))
      | _ -> ());
      let cache = if job.jb_req.Wire.rq_no_cache then None else t.cache in
      match Option.bind cache (fun c -> Cache.find c (Lazy.force key)) with
      | Some r ->
        Metrics.incr t.cnt.c_cache_hits;
        finish ~cache_hit:true
          ~degraded:(r.Wire.rp_status = Wire.Ok_degraded)
          r.Wire.rp_body
      | None ->
        if cache <> None then Metrics.incr t.cnt.c_cache_misses;
        let g =
          Parallel.parse_and_finalize ~config:acfg ~otrace:t.otrace ~pool img
        in
        let budget_cut = Cfg.degraded_count g > 0 in
        let degraded = budget_cut || heuristic g in
        let body = body_of_parse g in
        (* a budget-cut reply would pin the deadline cut forever; a
           heuristic one is stored, and a hit keeps its Ok_degraded *)
        let status = if degraded then Wire.Ok_degraded else Wire.Ok_clean in
        if not budget_cut then
          Option.iter
            (fun c -> Cache.store c (Lazy.force key) (Wire.reply ~body status))
            cache;
        finish ~degraded body)
    | Wire.Hpcstruct ->
      let r = Pbca_hpcstruct.Hpcstruct.run_image ~config:acfg ~pool img in
      finish
        ~degraded:(Cfg.degraded_count r.Pbca_hpcstruct.Hpcstruct.cfg > 0)
        r.Pbca_hpcstruct.Hpcstruct.output
    | Wire.Binfeat ->
      let r = Pbca_binfeat.Binfeat.extract ~config:acfg ~pool [ img ] in
      finish ~degraded:false
        (Printf.sprintf "n_funcs=%d n_features=%d index=%s"
           r.Pbca_binfeat.Binfeat.n_funcs r.Pbca_binfeat.Binfeat.n_features
           (index_digest r.Pbca_binfeat.Binfeat.index))
    | Wire.Ping | Wire.Stats | Wire.Shutdown ->
      (* control kinds never reach the queue *)
      Supervisor.Rejected "control request routed to worker")

let serve_job t pool job =
  let reply_and_close reply =
    (match job.jb_fault with
    | Some Fault.Torn_reply -> send_torn t job.jb_fd reply
    | _ -> ignore (send_reply t job.jb_fd reply));
    close_quiet job.jb_fd
  in
  let start = Clock.now () in
  let wait_us = us_of (start -. job.jb_admit) in
  Metrics.observe t.h_wait (start -. job.jb_admit);
  (* Stall fault: the daemon sits on the request before servicing it,
     exercising client-side timeouts and queue backpressure. The stall
     counts against the request's own deadline. *)
  (match job.jb_fault with
  | Some (Fault.Stall d) -> Unix.sleepf d
  | _ -> ());
  if Clock.now () > job.jb_deadline then begin
    Metrics.incr t.cnt.c_expired;
    reply_and_close
      (Wire.reply ~wait_us ~msg:"deadline expired before service"
         Wire.Expired)
  end
  else begin
    let result_cell = ref None in
    let sup_cfg =
      { Supervisor.max_restarts = t.cfg.sc_retries;
        backoff_base_s = t.cfg.sc_backoff_base_s;
        backoff_cap_s = 0.25 }
    in
    let should_stop () =
      Atomic.get t.draining || Clock.now () > job.jb_deadline
    in
    let job_id = Wire.kind_name job.jb_req.Wire.rq_kind in
    let reports =
      Supervisor.run ~config:sup_cfg ~trace:t.otrace ~should_stop
        [ { Supervisor.j_id = job_id;
            j_run = (fun ~attempt -> run_attempt t pool job ~attempt result_cell) } ]
    in
    let report = List.hd reports in
    let retries = report.Supervisor.r_restarts in
    if retries > 0 then Metrics.add t.cnt.c_retries retries;
    let run_us = us_of (Clock.elapsed start) in
    let reply =
      match report.Supervisor.r_outcome with
      | Supervisor.Ok_clean | Supervisor.Ok_degraded -> (
        match !result_cell with
        | Some r ->
          let status =
            if r.sv_degraded then Wire.Ok_degraded else Wire.Ok_clean
          in
          Wire.reply ~cache_hit:r.sv_cache_hit ~retries ~wait_us ~run_us
            ~body:r.sv_body status
        | None ->
          Wire.reply ~retries ~wait_us ~run_us ~msg:"internal: no result"
            Wire.Failed)
      | Supervisor.Rejected msg ->
        Metrics.incr t.cnt.c_rejected;
        Wire.reply ~retries ~wait_us ~run_us ~msg Wire.Rejected
      | Supervisor.Crashed msg ->
        Metrics.incr t.cnt.c_crashes;
        if Clock.now () > job.jb_deadline then begin
          Metrics.incr t.cnt.c_expired;
          Wire.reply ~retries ~wait_us ~run_us
            ~msg:"deadline expired during service" Wire.Expired
        end
        else begin
          Metrics.incr t.cnt.c_failed;
          Wire.reply ~retries ~wait_us ~run_us ~msg Wire.Failed
        end
    in
    let total = Clock.elapsed job.jb_admit in
    Metrics.observe t.h_latency total;
    (match reply.Wire.rp_status with
    | Wire.Ok_clean | Wire.Ok_degraded ->
      Metrics.observe
        (if reply.Wire.rp_cache_hit then t.h_latency_hit else t.h_latency_cold)
        total
    | _ -> ());
    reply_and_close reply
  end

let worker_loop t =
  (* own pool per worker domain; threads:1 runs every analysis task
     inline on this domain (no nested domain spawns) *)
  let pool = Task_pool.create ~threads:t.cfg.sc_parse_threads in
  let rec loop () =
    match Channel.recv t.queue with
    | None -> ()
    | Some job ->
      (try serve_job t pool job
       with e ->
         (* last-ditch containment: a bug in the service path must cost
            one request, not the daemon *)
         Metrics.incr t.cnt.c_failed;
         ignore
           (send_reply t job.jb_fd
              (Wire.reply ~msg:(Printexc.to_string e) Wire.Failed));
         close_quiet job.jb_fd);
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Acceptor side: admission control.                                   *)

let deadline_of t req now =
  let ms =
    if req.Wire.rq_deadline_ms > 0 then req.Wire.rq_deadline_ms
    else t.cfg.sc_default_deadline_ms
  in
  if ms <= 0 then infinity else now +. (float_of_int ms /. 1000.)

(* Returns [`Continue] to keep reading requests from this connection,
   [`Close] when ownership moved to a worker or the peer is done. *)
let handle_request t fd req =
  match req.Wire.rq_kind with
  | Wire.Ping ->
    ignore (send_reply t fd (Wire.reply ~body:"pong" Wire.Ok_clean));
    `Continue
  | Wire.Stats ->
    let body = Format.asprintf "%a" Metrics.pp t.metrics in
    ignore (send_reply t fd (Wire.reply ~body Wire.Ok_clean));
    `Continue
  | Wire.Shutdown ->
    ignore (send_reply t fd (Wire.reply ~body:"draining" Wire.Ok_clean));
    Atomic.set t.shutdown_req true;
    `Continue
  | Wire.Parse | Wire.Hpcstruct | Wire.Binfeat ->
    if Atomic.get t.draining then begin
      Metrics.incr t.cnt.c_draining;
      ignore
        (send_reply t fd
           (Wire.reply ~msg:"daemon is draining" Wire.Draining));
      `Continue
    end
    else if Bytes.length req.Wire.rq_image > t.cfg.sc_max_image_bytes then begin
      Metrics.incr t.cnt.c_rejected;
      ignore
        (send_reply t fd
           (Wire.reply
              ~msg:
                (Printf.sprintf "image exceeds %d bytes"
                   t.cfg.sc_max_image_bytes)
              Wire.Rejected));
      `Continue
    end
    else begin
      let now = Clock.now () in
      (* one service-fault draw per admitted work request *)
      let fault = Fault.service_next () in
      let job =
        { jb_fd = fd; jb_req = req; jb_fault = fault; jb_admit = now;
          jb_deadline = deadline_of t req now }
      in
      match Channel.try_send t.queue job with
      | true ->
        Metrics.incr t.cnt.c_accepted;
        `Close_moved
      | false ->
        (* explicit load shedding: the queue bound is the contract — a
           full daemon says so immediately instead of queueing latency *)
        Metrics.incr t.cnt.c_shed;
        ignore
          (send_reply t fd
             (Wire.reply ~msg:"admission queue full" Wire.Overloaded));
        `Continue
      | exception Channel.Closed ->
        Metrics.incr t.cnt.c_draining;
        ignore
          (send_reply t fd (Wire.reply ~msg:"daemon stopped" Wire.Draining));
        `Continue
    end

let handle_conn t fd =
  let rec loop () =
    match Wire.read_request ~timeout_s:t.cfg.sc_read_timeout_s fd with
    | Ok req -> (
      match handle_request t fd req with
      | `Continue -> if Atomic.get t.stopped then close_quiet fd else loop ()
      | `Close_moved -> () (* fd now owned by a worker *))
    | Error Wire.Peer_closed -> close_quiet fd
    | Error Wire.Stalled ->
      (* a client that stops mid-frame cannot hold an acceptor hostage *)
      Metrics.incr t.cnt.c_stalled;
      close_quiet fd
    | Error (Wire.Frame e) ->
      (* garbage on the stream: answer structurally, then drop the
         connection — framing cannot be resynchronized after a bad
         length field *)
      Metrics.incr t.cnt.c_bad_frames;
      ignore
        (send_reply t fd
           (Wire.reply ~msg:(Wire.frame_error_to_string e) Wire.Bad_frame));
      close_quiet fd
  in
  loop ()

let acceptor_loop t =
  let rec loop () =
    if Atomic.get t.draining then ()
    else begin
      (match Unix.select [ t.lsock ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept t.lsock with
        | fd, _ -> handle_conn t fd
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> Unix.sleepf 0.01);
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let start ?(otrace = Trace.disabled) cfg =
  (* a peer closing mid-write must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  unlink_quiet cfg.sc_sock;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock lsock;
  Unix.bind lsock (Unix.ADDR_UNIX cfg.sc_sock);
  Unix.listen lsock 64;
  let metrics = Metrics.create () in
  let cnt =
    {
      c_accepted = Metrics.counter metrics "serve_accepted";
      c_replies = Metrics.counter metrics "serve_replies";
      c_shed = Metrics.counter metrics "serve_shed";
      c_expired = Metrics.counter metrics "serve_expired";
      c_bad_frames = Metrics.counter metrics "serve_bad_frames";
      c_rejected = Metrics.counter metrics "serve_rejected";
      c_failed = Metrics.counter metrics "serve_failed";
      c_retries = Metrics.counter metrics "serve_retries";
      c_crashes = Metrics.counter metrics "serve_worker_crashes";
      c_cache_hits = Metrics.counter metrics "serve_cache_hits";
      c_cache_misses = Metrics.counter metrics "serve_cache_misses";
      c_stalled = Metrics.counter metrics "serve_stalled_clients";
      c_torn = Metrics.counter metrics "serve_torn_replies";
      c_draining = Metrics.counter metrics "serve_draining_replies";
    }
  in
  let queue =
    Channel.create ~otrace ~name:"serve_admission" ~capacity:cfg.sc_queue ()
  in
  Metrics.register_gauge_fn metrics "serve_queue_depth" (fun () ->
      float_of_int (Channel.length queue));
  let t =
    {
      cfg;
      lsock;
      queue;
      draining = Atomic.make false;
      shutdown_req = Atomic.make false;
      stopped = Atomic.make false;
      cache = Option.map (fun dir -> Cache.create ~dir) cfg.sc_cache_dir;
      metrics;
      otrace;
      cnt;
      h_wait = Metrics.histogram metrics "serve_wait_s";
      h_latency = Metrics.histogram metrics "serve_latency_s";
      h_latency_hit = Metrics.histogram metrics "serve_latency_hit_s";
      h_latency_cold = Metrics.histogram metrics "serve_latency_cold_s";
      rot_rng = Pbca_codegen.Rng.create cfg.sc_rot_seed;
      acceptors = [||];
      workers = [||];
    }
  in
  t.workers <-
    Array.init cfg.sc_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t.acceptors <-
    Array.init cfg.sc_acceptors (fun _ ->
        Domain.spawn (fun () -> acceptor_loop t));
  t

(* Drain discipline: stop admitting (acceptors answer [Draining] and then
   exit), close the listening socket, close the queue, and let the
   workers finish every already-admitted request — each gets a real
   reply, so a drain loses zero in-flight work. *)
let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.draining true;
    Array.iter Domain.join t.acceptors;
    close_quiet t.lsock;
    unlink_quiet t.cfg.sc_sock;
    Channel.close t.queue;
    Array.iter Domain.join t.workers;
    if Trace.enabled t.otrace then Trace.drain t.otrace
  end

let with_server ?otrace cfg f =
  let t = start ?otrace cfg in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
