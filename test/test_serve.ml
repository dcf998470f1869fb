(* The bserve daemon: wire-protocol totality, admission control and load
   shedding, end-to-end deadlines, supervised per-request isolation, the
   result cache keyed by image and config (rot served as a miss), and the
   zero-loss drain discipline. Plus the two concurrency satellites:
   interruptible supervisor backoff and monotonic Fault.Delay. *)

open Tutil
module Wire = Pbca_serve.Wire
module Serve = Pbca_serve.Serve
module Sclient = Pbca_serve.Sclient
module Cache = Pbca_serve.Cache
module Fault = Pbca_concurrent.Fault
module Supervisor = Pbca_concurrent.Supervisor
module Task_pool = Pbca_concurrent.Task_pool
module Clock = Pbca_obs.Clock
module Metrics = Pbca_obs.Metrics
module Mutate = Pbca_codegen.Mutate
module Rng = Pbca_codegen.Rng
module Summary = Pbca_core.Summary
module Config = Pbca_core.Config

let image_bytes seed =
  Pbca_binfmt.Image.write
    (Emit.generate (Profile.coreutils_like seed)).Emit.image

(* every daemon test gets a private socket + cache dir and always tears
   the daemon and the process-global service-fault plan down *)
let with_daemon ?(tweak = fun c -> c) f =
  let dir = Filename.temp_file "test_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    tweak
      { (Serve.default_config ~sock) with
        Serve.sc_workers = 1;
        sc_acceptors = 1;
        sc_queue = 4;
        sc_read_timeout_s = 0.5;
        sc_retries = 2;
        sc_backoff_base_s = 0.002;
        sc_cache_dir = Some (Filename.concat dir "cache");
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_service ();
      (try
         let cache = Filename.concat dir "cache" in
         (try
            Array.iter
              (fun e -> try Sys.remove (Filename.concat cache e) with _ -> ())
              (Sys.readdir cache)
          with Sys_error _ -> ());
         (try Unix.rmdir cache with Unix.Unix_error _ -> ());
         (try Sys.remove sock with Sys_error _ -> ());
         Unix.rmdir dir
       with Unix.Unix_error _ | Sys_error _ -> ()))
    (fun () -> Serve.with_server cfg (fun t -> f t sock))

let counter_value t name =
  match List.assoc_opt name (Metrics.snapshot (Serve.metrics t)) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let ok_roundtrip ~sock req =
  match Sclient.roundtrip ~timeout_s:20.0 ~sock req with
  | Ok r -> r
  | Error e -> Alcotest.failf "roundtrip failed: %s" (Sclient.error_to_string e)

let status = Alcotest.testable
    (Fmt.of_to_string Wire.status_name)
    (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* Wire protocol.                                                      *)

let test_wire_roundtrip () =
  let img = image_bytes 1 in
  let req = Wire.request ~deadline_ms:250 ~no_cache:true ~image:img Wire.Parse in
  (match Wire.decode_request (Wire.encode_request req) with
  | Ok r ->
    Alcotest.(check bool) "kind" true (r.Wire.rq_kind = Wire.Parse);
    Alcotest.(check int) "deadline" 250 r.Wire.rq_deadline_ms;
    Alcotest.(check bool) "no_cache" true r.Wire.rq_no_cache;
    Alcotest.(check bytes) "image" img r.Wire.rq_image
  | Error e -> Alcotest.failf "request: %s" (Wire.frame_error_to_string e));
  let rep =
    Wire.reply ~cache_hit:true ~retries:2 ~wait_us:11 ~run_us:22
      ~msg:"note" ~body:"fingerprint=abc" Wire.Ok_degraded
  in
  match Wire.decode_reply (Wire.encode_reply rep) with
  | Ok r ->
    Alcotest.check status "status" Wire.Ok_degraded r.Wire.rp_status;
    Alcotest.(check bool) "hit" true r.Wire.rp_cache_hit;
    Alcotest.(check int) "retries" 2 r.Wire.rp_retries;
    Alcotest.(check string) "msg" "note" r.Wire.rp_msg;
    Alcotest.(check string) "body" "fingerprint=abc" r.Wire.rp_body
  | Error e -> Alcotest.failf "reply: %s" (Wire.frame_error_to_string e)

(* the 8th mutation axis against the pure decoder: decoding hostile
   frames is total, and a frame that still decodes carries the exact
   original payload (CRC discipline: no silent partial decode) *)
let test_wire_garble_total () =
  let payload = Bytes.of_string "serve payload \x00\x01\x02 bytes" in
  let frame = Wire.frame_of_payload payload in
  let survived = ref 0 in
  for seed = 0 to 199 do
    let rng = Rng.create seed in
    let garbled = Mutate.garble_frame ~rng frame in
    match Wire.decode_frame garbled with
    | Ok p ->
      incr survived;
      Alcotest.(check bytes) "identical payload on Ok" payload p
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "decoder raised on seed %d: %s" seed (Printexc.to_string e)
  done;
  (* nearly every garble must be caught; a rare coincidental survival
     (e.g. the length field mutated to its own value) is acceptable *)
  Alcotest.(check bool) "garbles rejected" true (!survived <= 5)

let test_wire_decode_empty_and_short () =
  Alcotest.(check bool) "empty is torn" true
    (match Wire.decode_frame (Bytes.create 0) with
    | Error (Wire.Torn _) -> true
    | _ -> false);
  Alcotest.(check bool) "bad magic detected" true
    (match Wire.decode_frame (Bytes.of_string "XXXXXXXXXXXXXXXX") with
    | Error Wire.Bad_magic -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Daemon behavior.                                                    *)

let test_ping_and_stats () =
  with_daemon (fun t sock ->
      let r = ok_roundtrip ~sock (Wire.request Wire.Ping) in
      Alcotest.check status "ping ok" Wire.Ok_clean r.Wire.rp_status;
      Alcotest.(check string) "pong" "pong" r.Wire.rp_body;
      let r = ok_roundtrip ~sock (Wire.request Wire.Stats) in
      Alcotest.check status "stats ok" Wire.Ok_clean r.Wire.rp_status;
      Alcotest.(check bool) "stats body mentions counters" true
        (String.length r.Wire.rp_body > 0);
      ignore t)

let test_parse_matches_local () =
  with_daemon (fun _ sock ->
      let img = image_bytes 1 in
      let r = ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse) in
      Alcotest.check status "clean" Wire.Ok_clean r.Wire.rp_status;
      let pool = Task_pool.create ~threads:1 in
      let local =
        Summary.fingerprint
          (Summary.of_cfg
             (Pbca_core.Parallel.parse_and_finalize ~pool
                (Pbca_binfmt.Image.read img)))
      in
      Alcotest.(check bool) "daemon body carries local fingerprint" true
        (let prefix = "fingerprint=" ^ local in
         String.length r.Wire.rp_body >= String.length prefix
         && String.sub r.Wire.rp_body 0 (String.length prefix) = prefix))

let test_shed_at_full_queue () =
  with_daemon
    ~tweak:(fun c -> { c with Serve.sc_queue = 2; sc_cache_dir = None })
    (fun t sock ->
      (* the single worker sits on request #0 long enough for the burst
         to pile up behind the queue bound *)
      Fault.arm_service_at [ (0, Fault.Stall 0.6) ];
      let img = image_bytes 1 in
      let reqs = List.init 6 (fun _ -> Wire.request ~image:img Wire.Parse) in
      let replies = Sclient.burst ~timeout_s:30.0 ~sock reqs in
      let count st =
        List.length
          (List.filter
             (function
               | Ok (r : Wire.reply) -> r.Wire.rp_status = st
               | Error _ -> false)
             replies)
      in
      let errors =
        List.filter (function Error _ -> true | Ok _ -> false) replies
      in
      Alcotest.(check int) "every burst request got a structured reply" 0
        (List.length errors);
      Alcotest.(check bool) "load was shed" true (count Wire.Overloaded >= 1);
      Alcotest.(check bool) "admitted requests served" true
        (count Wire.Ok_clean >= 1);
      Alcotest.(check bool) "shed counter advanced" true
        (counter_value t "serve_shed" >= 1);
      Alcotest.(check int) "shed + accepted covers the burst" 6
        (counter_value t "serve_shed" + counter_value t "serve_accepted"))

let test_deadline_expired_structured () =
  with_daemon (fun t sock ->
      (* the stall outlives the request deadline: expiry must be noticed
         before service starts and answered structurally *)
      Fault.arm_service_at [ (0, Fault.Stall 0.3) ];
      let img = image_bytes 1 in
      let r =
        ok_roundtrip ~sock (Wire.request ~deadline_ms:50 ~image:img Wire.Parse)
      in
      Alcotest.check status "expired" Wire.Expired r.Wire.rp_status;
      Alcotest.(check bool) "message says so" true (r.Wire.rp_msg <> "");
      Alcotest.(check bool) "expired counter" true
        (counter_value t "serve_expired" >= 1))

let test_worker_crash_retried () =
  with_daemon (fun t sock ->
      (* first attempt killed, retry succeeds *)
      Fault.arm_service_at [ (0, Fault.Kill_worker 1) ];
      let img = image_bytes 1 in
      let r = ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse) in
      Alcotest.check status "recovered" Wire.Ok_clean r.Wire.rp_status;
      Alcotest.(check int) "one restart consumed" 1 r.Wire.rp_retries;
      Alcotest.(check bool) "crash counted" true
        (counter_value t "serve_worker_crashes" >= 0))

let test_worker_crash_bounded () =
  with_daemon (fun t sock ->
      (* every attempt killed: after the restart budget the request must
         fail structurally and the daemon must stay up *)
      Fault.arm_service_at [ (0, Fault.Kill_worker 99) ];
      let img = image_bytes 1 in
      let r = ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse) in
      Alcotest.check status "failed" Wire.Failed r.Wire.rp_status;
      Alcotest.(check int) "full restart budget consumed" 2 r.Wire.rp_retries;
      let ping = ok_roundtrip ~sock (Wire.request Wire.Ping) in
      Alcotest.check status "daemon alive after crash storm" Wire.Ok_clean
        ping.Wire.rp_status;
      Alcotest.(check bool) "failure counted" true
        (counter_value t "serve_failed" >= 1))

let test_cache_hit_and_rot_as_miss () =
  with_daemon (fun t sock ->
      let img = image_bytes 2 in
      let req = Wire.request ~image:img Wire.Parse in
      let cold = ok_roundtrip ~sock req in
      Alcotest.check status "cold ok" Wire.Ok_clean cold.Wire.rp_status;
      Alcotest.(check bool) "cold is a miss" false cold.Wire.rp_cache_hit;
      let hit = ok_roundtrip ~sock req in
      Alcotest.check status "hit ok" Wire.Ok_clean hit.Wire.rp_status;
      Alcotest.(check bool) "second request hits" true hit.Wire.rp_cache_hit;
      Alcotest.(check string) "hit body identical to cold body"
        cold.Wire.rp_body hit.Wire.rp_body;
      (* rot the stored reply before the next lookup: the daemon must
         treat it as a miss and still produce the identical result
         (arming resets the request-ordinal counter, so the next request
         draws ordinal 0) *)
      Fault.arm_service_at [ (0, Fault.Cache_rot) ];
      let rotted = ok_roundtrip ~sock req in
      Alcotest.check status "rot still ok" Wire.Ok_clean rotted.Wire.rp_status;
      Alcotest.(check string) "rot body identical" cold.Wire.rp_body
        rotted.Wire.rp_body;
      Alcotest.(check bool) "hits and misses counted" true
        (counter_value t "serve_cache_hits" >= 1
        && counter_value t "serve_cache_misses" >= 2))

let test_no_cache_flag_bypasses () =
  with_daemon (fun _ sock ->
      let img = image_bytes 1 in
      let req = Wire.request ~image:img Wire.Parse in
      ignore (ok_roundtrip ~sock req);
      let bypass = ok_roundtrip ~sock (Wire.request ~no_cache:true ~image:img Wire.Parse) in
      Alcotest.(check bool) "no-cache never hits" false bypass.Wire.rp_cache_hit)

let test_bad_frame_structured () =
  with_daemon (fun t sock ->
      let junk = Bytes.of_string "GARBAGEGARBAGEGARBAGE" in
      (match Sclient.send_raw ~timeout_s:5.0 ~sock junk with
      | Ok r -> Alcotest.check status "bad frame" Wire.Bad_frame r.Wire.rp_status
      | Error e -> Alcotest.failf "wanted a structured reply, got %s"
                     (Sclient.error_to_string e));
      Alcotest.(check bool) "counted" true
        (counter_value t "serve_bad_frames" >= 1))

let test_rejected_image () =
  with_daemon (fun _ sock ->
      (* valid framing, hostile payload image: a structured rejection,
         and no retry (rejections are final) *)
      let r =
        ok_roundtrip ~sock
          (Wire.request ~image:(Bytes.of_string "not an sbf image") Wire.Parse)
      in
      Alcotest.check status "rejected" Wire.Rejected r.Wire.rp_status;
      Alcotest.(check int) "never retried" 0 r.Wire.rp_retries;
      Alcotest.(check bool) "reason given" true (r.Wire.rp_msg <> ""))

let test_drain_zero_loss () =
  let dir = Filename.temp_file "test_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config ~sock) with
      Serve.sc_workers = 1;
      sc_acceptors = 1;
      sc_queue = 4;
      sc_cache_dir = None;
      sc_read_timeout_s = 0.5;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_service ();
      (try Sys.remove sock with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let t = Serve.start cfg in
      (* slow the worker down so all three requests are still in flight
         (one being served, two queued) when the drain begins *)
      Fault.arm_service_at
        [ (0, Fault.Stall 0.25); (1, Fault.Stall 0.05); (2, Fault.Stall 0.05) ];
      let img = image_bytes 1 in
      let conns =
        List.init 3 (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            (match
               Wire.write_frame fd
                 (Wire.encode_request (Wire.request ~image:img Wire.Parse))
             with
            | Ok () -> ()
            | Error m -> Alcotest.failf "send failed: %s" m);
            fd)
      in
      (* give the acceptor time to admit all three, then drain *)
      Unix.sleepf 0.1;
      Alcotest.(check int) "all three admitted before drain" 3
        (counter_value t "serve_accepted");
      Serve.stop t;
      (* every admitted request must have been answered during the drain *)
      List.iteri
        (fun i fd ->
          (match Wire.read_reply ~timeout_s:5.0 fd with
          | Ok r ->
            Alcotest.check status
              (Printf.sprintf "in-flight request %d served through drain" i)
              Wire.Ok_clean r.Wire.rp_status
          | Error e ->
            Alcotest.failf "request %d lost in drain: %s" i
              (Wire.io_error_to_string e));
          Unix.close fd)
        conns;
      (* and late arrivals are refused cleanly, not ignored *)
      match Sclient.roundtrip ~timeout_s:2.0 ~sock (Wire.request Wire.Ping) with
      | Error (Sclient.Unavailable _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "socket should be gone after stop")

(* ------------------------------------------------------------------ *)
(* Satellites: supervisor backoff interruption, monotonic delay.       *)

let test_supervisor_backoff_interruptible () =
  let stop = Atomic.make false in
  let job =
    { Supervisor.j_id = "always-crash";
      j_run = (fun ~attempt:_ -> Supervisor.Crashed "boom") }
  in
  let cfg =
    { Supervisor.max_restarts = 4; backoff_base_s = 5.0; backoff_cap_s = 5.0 }
  in
  let t0 = Clock.now () in
  let stopper =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set stop true)
  in
  let reports =
    Supervisor.run ~config:cfg ~should_stop:(fun () -> Atomic.get stop) [ job ]
  in
  Domain.join stopper;
  let dt = Clock.elapsed t0 in
  (match reports with
  | [ r ] ->
    Alcotest.(check bool) "kept the crashed outcome" true
      (match r.Supervisor.r_outcome with
      | Supervisor.Crashed _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "one report expected");
  (* without interruption this would sleep 5s before the next attempt *)
  Alcotest.(check bool)
    (Printf.sprintf "drain interrupted the backoff (%.3fs)" dt)
    true (dt < 1.0)

let test_fault_delay_monotonic () =
  Fun.protect
    ~finally:(fun () -> Fault.disarm ())
    (fun () ->
      Fault.arm_at [ 0 ] (Fault.Delay 0.05);
      let pool = Task_pool.create ~threads:1 in
      let t0 = Clock.now () in
      Task_pool.run pool (fun spawn -> spawn (fun () -> ()));
      let dt = Clock.elapsed t0 in
      Alcotest.(check bool)
        (Printf.sprintf "injected delay visible on the monotonic clock (%.3fs)"
           dt)
        true (dt >= 0.05))

(* PR9: a daemon configured for gap parsing tells stripped-image clients
   the truth — Ok_degraded status, heuristic entries counted in the body. *)
let test_gap_confidence_in_reply () =
  with_daemon
    ~tweak:(fun c ->
      { c with
        Serve.sc_analysis = { Config.default with Config.gap_parse = true } })
    (fun _ sock ->
      let img =
        Pbca_binfmt.Image.write
          (Pbca_codegen.Family.generate Pbca_codegen.Family.Stripped 0)
            .Emit.image
      in
      let r = ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse) in
      Alcotest.(check status)
        "heuristic graph reported degraded" Wire.Ok_degraded r.Wire.rp_status;
      let heur =
        Scanf.sscanf r.Wire.rp_body
          "fingerprint=%s blocks=%d edges=%d funcs=%d conf_symbol=%d \
           conf_call_target=%d conf_heuristic=%d"
          (fun _ _ _ _ _ _ h -> h)
      in
      Alcotest.(check bool)
        (Printf.sprintf "reply census has heuristic entries (%d)" heur)
        true (heur > 0);
      (* heuristic results are stored, and a hit keeps their status *)
      let again = ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse) in
      Alcotest.(check bool) "repeat is a hit" true again.Wire.rp_cache_hit;
      Alcotest.(check status)
        "hit keeps the degraded status" Wire.Ok_degraded again.Wire.rp_status;
      Alcotest.(check string) "hit body identical" r.Wire.rp_body
        again.Wire.rp_body)

(* Daemons run one after another over one cache directory. One with the
   same config is answered from the stored reply alone (nothing of the
   first daemon survives in memory), and so is one that differs only in
   its deadline; one with a different analysis config must miss and
   answer as a daemon without a cache does. *)
let test_cache_keyed_by_config () =
  let shared = Filename.temp_file "test_serve_cache" "" in
  Sys.remove shared;
  let img =
    Pbca_binfmt.Image.write
      (Pbca_codegen.Family.generate Pbca_codegen.Family.Stripped 0).Emit.image
  in
  let gap = { Config.default with Config.gap_parse = true } in
  let parse ?(cached = true) analysis =
    with_daemon
      ~tweak:(fun c ->
        { c with
          Serve.sc_analysis = analysis;
          sc_cache_dir = (if cached then Some shared else None) })
      (fun _ sock -> ok_roundtrip ~sock (Wire.request ~image:img Wire.Parse))
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e -> try Sys.remove (Filename.concat shared e) with _ -> ())
           (Sys.readdir shared)
       with Sys_error _ -> ());
      try Unix.rmdir shared with Unix.Unix_error _ -> ())
    (fun () ->
      let first = parse Config.default in
      Alcotest.(check bool) "first daemon misses" false first.Wire.rp_cache_hit;
      let again = parse Config.default in
      Alcotest.(check bool) "same config after restart hits" true
        again.Wire.rp_cache_hit;
      Alcotest.check status "same status" first.Wire.rp_status
        again.Wire.rp_status;
      Alcotest.(check string) "same body" first.Wire.rp_body again.Wire.rp_body;
      (* only a budget cut depends on the deadline, and cut results are
         never stored: a generous deadline keys like none *)
      let timed = parse { Config.default with Config.deadline_s = 60.0 } in
      Alcotest.(check bool) "deadline left out of the key" true
        timed.Wire.rp_cache_hit;
      let gapped = parse gap in
      let fresh = parse ~cached:false gap in
      Alcotest.(check bool) "other config misses" false gapped.Wire.rp_cache_hit;
      Alcotest.check status "other config answers its own status"
        fresh.Wire.rp_status gapped.Wire.rp_status;
      Alcotest.(check string) "other config answers its own body"
        fresh.Wire.rp_body gapped.Wire.rp_body)

let suite =
  [
    quick "wire: request/reply round-trip" test_wire_roundtrip;
    quick "wire: garbled frames rejected, never crash" test_wire_garble_total;
    quick "wire: empty/short/bad-magic frames" test_wire_decode_empty_and_short;
    quick "daemon: ping + stats" test_ping_and_stats;
    quick "daemon: parse equals local one-shot" test_parse_matches_local;
    quick "daemon: full queue sheds with Overloaded" test_shed_at_full_queue;
    quick "daemon: expired deadline is structured" test_deadline_expired_structured;
    quick "daemon: worker crash retried then ok" test_worker_crash_retried;
    quick "daemon: crash storm bounded, daemon survives"
      test_worker_crash_bounded;
    quick "daemon: cache hit; rot served as miss" test_cache_hit_and_rot_as_miss;
    quick "daemon: no-cache flag bypasses" test_no_cache_flag_bypasses;
    quick "daemon: cache keyed by image and analysis config"
      test_cache_keyed_by_config;
    quick "daemon: garbage frames answered Bad_frame" test_bad_frame_structured;
    quick "daemon: malformed image rejected, not retried" test_rejected_image;
    quick "daemon: drain loses zero in-flight requests" test_drain_zero_loss;
    quick "daemon: gap confidence surfaces in reply"
      test_gap_confidence_in_reply;
    quick "supervisor: backoff interruptible by drain"
      test_supervisor_backoff_interruptible;
    quick "fault: Delay accounted on monotonic clock" test_fault_delay_monotonic;
  ]
