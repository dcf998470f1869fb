(* Observability layer: the monotonic/fake clock, the per-run metrics
   registry under parallel hammering, and per-domain execution spans
   exported as Chrome trace-event JSON. *)

module Clock = Pbca_obs.Clock
module Metrics = Pbca_obs.Metrics
module Trace = Pbca_obs.Trace
module Json = Pbca_obs.Json
module TP = Pbca_concurrent.Task_pool
module Profile = Pbca_codegen.Profile

(* ------------------------------ clock --------------------------------- *)

let test_clock_monotonic () =
  let t0 = Clock.now () in
  let last = ref t0 in
  for _ = 1 to 10_000 do
    let t = Clock.now () in
    if t < !last then Alcotest.failf "clock went backwards: %g < %g" t !last;
    last := t
  done;
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed t0 >= 0.0)

let test_clock_fake () =
  Alcotest.(check bool) "real source by default" false (Clock.is_fake ());
  let cell = ref 42.0 in
  Clock.with_fake
    (fun () -> !cell)
    (fun () ->
      Alcotest.(check bool) "fake installed" true (Clock.is_fake ());
      Alcotest.(check (float 0.0)) "now reads the fake" 42.0 (Clock.now ());
      cell := 43.5;
      Alcotest.(check (float 1e-9)) "elapsed via the fake" 1.5
        (Clock.elapsed 42.0));
  Alcotest.(check bool) "restored after the body" false (Clock.is_fake ());
  (match
     Clock.with_fake (fun () -> 0.0) (fun () -> failwith "boom")
   with
  | () -> Alcotest.fail "body must raise"
  | exception Failure _ -> ());
  Alcotest.(check bool) "restored after an exception" false (Clock.is_fake ())

(* ----------------------------- metrics -------------------------------- *)

(* Hammer one registry from every worker: find-or-create interning must
   hand every domain the same cell, and the final count must equal the
   exact number of increments (each increment is an atomic RMW). *)
let test_metrics_parallel_counters () =
  let m = Metrics.create () in
  let pool = TP.create ~threads:4 in
  let n = 20_000 in
  TP.parallel_for pool ~chunk:64 0 n (fun i ->
      Metrics.incr (Metrics.counter m "hits");
      if i land 1 = 0 then Metrics.add (Metrics.counter m "evens") 2);
  Alcotest.(check int) "every increment counted" n
    (Metrics.count (Metrics.counter m "hits"));
  Alcotest.(check int) "adds counted" n
    (Metrics.count (Metrics.counter m "evens"))

let test_metrics_parallel_histogram () =
  let m = Metrics.create () in
  let pool = TP.create ~threads:4 in
  let h = Metrics.histogram m "lat" in
  let n = 8_000 in
  TP.parallel_for pool ~chunk:64 0 n (fun i ->
      Metrics.observe h (float_of_int (i mod 10) *. 1e-4));
  Alcotest.(check int) "observation count" n (Metrics.hist_count h);
  match List.assoc "lat" (Metrics.snapshot m) with
  | Metrics.Histogram { n = hn; buckets; _ } ->
    Alcotest.(check int) "snapshot count" n hn;
    Alcotest.(check int) "bucket occupancies sum to the count" n
      (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets)
  | _ -> Alcotest.fail "lat is not a histogram"

let test_metrics_adopt_and_kinds () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "counted");
  Metrics.register_gauge_fn m "computed" (fun () -> 7.5);
  (match List.assoc "computed" (Metrics.snapshot m) with
  | Metrics.Gauge v -> Alcotest.(check (float 0.0)) "gauge fn" 7.5 v
  | _ -> Alcotest.fail "computed is not a gauge");
  match Metrics.gauge m "counted" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ()

let test_metrics_merge_diff () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "c") 5;
  Metrics.add (Metrics.counter b "c") 7;
  Metrics.set (Metrics.gauge b "g") 2.5;
  Metrics.observe (Metrics.histogram b "h") 0.001;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add on merge" 12
    (Metrics.count (Metrics.counter a "c"));
  Alcotest.(check (float 0.0)) "gauges take the source" 2.5
    (Metrics.value (Metrics.gauge a "g"));
  Alcotest.(check int) "histograms add on merge" 1
    (Metrics.hist_count (Metrics.histogram a "h"));
  let before = Metrics.snapshot a in
  Metrics.add (Metrics.counter a "c") 3;
  (match List.assoc "c" (Metrics.diff ~before ~after:(Metrics.snapshot a)) with
  | Metrics.Counter d -> Alcotest.(check int) "diff subtracts counters" 3 d
  | _ -> Alcotest.fail "c is not a counter")

(* Ten buckets per decade: a quantile read from the buckets is a value
   within one bucket's width (x1.26) of the truth, not a decade edge. *)
let test_metrics_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for _ = 1 to 900 do
    Metrics.observe h 0.003
  done;
  for _ = 1 to 100 do
    Metrics.observe h 0.070
  done;
  (match List.assoc "lat" (Metrics.snapshot m) with
  | Metrics.Histogram { buckets; _ } ->
    let within what truth v =
      if Float.abs (v -. truth) > 0.26 *. truth then
        Alcotest.failf "%s = %g, not within 26%% of %g" what v truth
    in
    within "p50" 0.003 (Metrics.quantile 0.50 buckets);
    within "p99" 0.070 (Metrics.quantile 0.99 buckets)
  | _ -> Alcotest.fail "lat is not a histogram");
  (* the dump carries the quantiles and only the occupied buckets *)
  let txt = Format.asprintf "%a" Metrics.pp m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("dump shows " ^ needle)
        true
        (Tutil.contains txt needle))
    [ "p50="; "p99=" ];
  Alcotest.(check bool)
    "dump skips empty buckets" false
    (Tutil.contains txt ":0;" || Tutil.contains txt ":0]")

(* ------------------------------ trace --------------------------------- *)

let traced_parse () =
  let r = Pbca_codegen.Emit.generate (Profile.coreutils_like 1) in
  let pool = TP.create ~threads:4 in
  let trace = Trace.create () in
  let t0 = Clock.now () in
  let g =
    Pbca_core.Parallel.parse_and_finalize ~trace ~pool
      r.Pbca_codegen.Emit.image
  in
  (g, trace, Clock.elapsed t0)

let test_trace_chrome_json () =
  let g, t, wall = traced_parse () in
  ignore g;
  let s = Trace.to_chrome_string t in
  Alcotest.(check bool) "chrome export is well-formed JSON" true
    (Json.json_well_formed s);
  Alcotest.(check bool) "spans recorded" true (Trace.spans t <> []);
  (* the root "parse" span opens right after Cfg.create and closes after
     the last round, so span coverage tracks the measured wall closely;
     0.90 leaves slack for registry setup and a GC pause *)
  Alcotest.(check bool) "spans cover the parse wall" true
    (Trace.covered_wall t >= 0.90 *. wall);
  match Trace.phase_walls t with
  | [] -> Alcotest.fail "no phase breakdown"
  | phases ->
    Alcotest.(check bool) "total phase present" true
      (List.mem_assoc "total" phases);
    Alcotest.(check bool) "finalize phase wall recorded" true
      (match List.assoc_opt "finalize" phases with
      | Some w -> w > 0.0
      | None -> false)

(* Per-domain span discipline: every span on a domain comes from that
   domain's (synchronous) call stack, so sorted by start time they must
   nest or be disjoint — never partially overlap — and their begin
   ordinals must increase with strictly increasing start times. *)
let check_span_discipline t =
  let spans = Trace.spans t in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Trace.sp_t0 <= b.Trace.sp_t0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "globally sorted by start" true (sorted spans);
  List.iter
    (fun sp ->
      if sp.Trace.sp_t1 < sp.Trace.sp_t0 || sp.Trace.sp_t0 < 0 then
        Alcotest.failf "span %s has a negative interval [%d,%d]"
          sp.Trace.sp_name sp.Trace.sp_t0 sp.Trace.sp_t1)
    spans;
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_tid sp.Trace.sp_tid)
      in
      Hashtbl.replace by_tid sp.Trace.sp_tid (sp :: prev))
    spans;
  Hashtbl.iter
    (fun tid sps ->
      (* earlier start first; on a tie the longer (enclosing) span first *)
      let sps =
        List.sort
          (fun a b ->
            compare
              (a.Trace.sp_t0, -a.Trace.sp_t1)
              (b.Trace.sp_t0, -b.Trace.sp_t1))
          sps
      in
      let stack = ref [] in
      let last : Trace.span option ref = ref None in
      List.iter
        (fun sp ->
          (match !last with
          | Some p
            when p.Trace.sp_t0 < sp.Trace.sp_t0
                 && p.Trace.sp_ordinal >= sp.Trace.sp_ordinal ->
            Alcotest.failf "tid %d: ordinals not monotone (%d then %d)" tid
              p.Trace.sp_ordinal sp.Trace.sp_ordinal
          | _ -> ());
          last := Some sp;
          let rec pop () =
            match !stack with
            | top :: rest when top.Trace.sp_t1 <= sp.Trace.sp_t0 ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | top :: _ when sp.Trace.sp_t1 > top.Trace.sp_t1 ->
            Alcotest.failf
              "tid %d: span %s [%d,%d] partially overlaps %s [%d,%d]" tid
              sp.Trace.sp_name sp.Trace.sp_t0 sp.Trace.sp_t1
              top.Trace.sp_name top.Trace.sp_t0 top.Trace.sp_t1
          | _ -> ());
          stack := sp :: !stack)
        sps)
    by_tid

(* Two recorders: a traced parse, and the cfg phase of an hpcstruct run,
   whose tasks and phase spans share one recorder. *)
let test_trace_span_discipline () =
  let _g, t, _wall = traced_parse () in
  check_span_discipline t;
  let module H = Pbca_hpcstruct.Hpcstruct in
  let r =
    H.run_image ~pool:(TP.create ~threads:4)
      (Pbca_codegen.Emit.generate (Profile.coreutils_like 1))
        .Pbca_codegen.Emit.image
  in
  match List.find (fun (p : H.phase) -> p.ph_name = "cfg") r.phases with
  | { ph_trace = Some t; _ } -> check_span_discipline t
  | _ -> Alcotest.fail "hpcstruct cfg phase has no recorder"

(* Tracing stays cheap: traced over untraced parse wall, and the span
   coverage of the traced wall, each a median over alternating pairs. The
   subject parses in tens of milliseconds; a parse of a millisecond or two
   measures the scheduler, not the tracer. *)
let test_trace_overhead () =
  let r =
    Pbca_codegen.Emit.generate
      { (Profile.coreutils_like 1) with Profile.n_funcs = 400 }
  in
  let pool = TP.create ~threads:2 in
  let parse ?trace () =
    let t0 = Clock.now () in
    ignore
      (Pbca_core.Parallel.parse_and_finalize ?trace ~pool
         r.Pbca_codegen.Emit.image
        : Pbca_core.Cfg.t);
    Clock.elapsed t0
  in
  (* warm-up: fault pages in and fill the image's decode cache, so both
     sides of every pair see the same cache state *)
  ignore (parse ());
  let coverage = ref [] in
  let traced () =
    let t = Trace.create () in
    let w = parse ~trace:t () in
    coverage := (Trace.covered_wall t /. w) :: !coverage;
    w
  in
  let overhead =
    Tutil.median_paired_ratio ~pairs:10 traced (fun () -> parse ())
  in
  let coverage = Tutil.median !coverage in
  if overhead >= 2.0 then
    Alcotest.failf "tracing overhead %.2fx (bound 2.0)" overhead;
  if coverage < 0.95 then
    Alcotest.failf "spans cover %.3f of the traced parse wall (bound 0.95)"
      coverage

(* A recorder keeps its per-domain state itself, behind one process-wide
   DLS slot: recorders that are created, used and dropped leave no live
   heap behind. A DLS key per recorder is never freed, and every domain's
   DLS array keeps the recorder's state: about 35 bytes per recorder. *)
let test_trace_recorders_freed () =
  let cycle () =
    let t = Trace.create () in
    Trace.with_task t ~deps:[] "t" (fun () -> Trace.tick t 1);
    ignore (Trace.total_work t)
  in
  let live_words () =
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  cycle ();
  let w0 = live_words () in
  for _ = 1 to 100_000 do
    cycle ()
  done;
  let grown =
    float_of_int ((live_words () - w0) * (Sys.word_size / 8)) /. 1e6
  in
  if grown >= 0.5 then
    Alcotest.failf "100,000 dropped recorders grew live heap by %.2f MB" grown

(* Summary.pp_stats renders the graph's registry: every nonzero counter
   shows as a [name=value] token, finalize and the confidence census
   included, followed by the trace's phase walls. *)
let test_pp_stats_renders_registry () =
  let module Family = Pbca_codegen.Family in
  let r =
    Family.strip (Pbca_codegen.Emit.generate (Family.profile Stripped 0))
  in
  let trace = Trace.create () in
  let g =
    Pbca_core.Parallel.parse_and_finalize
      ~config:{ Pbca_core.Config.default with gap_parse = true }
      ~trace ~pool:(TP.create ~threads:2) r.Pbca_codegen.Emit.image
  in
  let txt = Format.asprintf "%a" Pbca_core.Summary.pp_stats g in
  let tokens =
    String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) txt)
  in
  let has tok = List.mem tok tokens in
  let snapshot = Metrics.snapshot g.Pbca_core.Cfg.metrics in
  List.iter
    (function
      | name, Metrics.Counter n when n <> 0 ->
        let tok = Printf.sprintf "%s=%d" name n in
        if not (has tok) then Alcotest.failf "pp_stats lacks %s in %S" tok txt
      | _ -> ())
    snapshot;
  List.iter
    (fun prefix ->
      Alcotest.(check bool)
        ("pp_stats shows " ^ prefix)
        true
        (List.exists (String.starts_with ~prefix) tokens))
    [
      "insns_decoded=";
      "finalize_rounds=";
      "gap_entries_accepted=";
      "conf_heuristic=";
      "phase_wall_ms:";
    ]

let test_trace_disabled_is_free () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.with_span t ~phase:"x" "noop" (fun () -> ());
  Trace.with_task t ~deps:[ Trace.capture t ] "task" (fun () ->
      Trace.tick t 1);
  Trace.drain t;
  Alcotest.(check bool) "no spans collected" true (Trace.spans t = [])

let suite =
  [
    Tutil.quick "clock: monotonic non-decreasing" test_clock_monotonic;
    Tutil.quick "clock: fake install/restore" test_clock_fake;
    Tutil.quick "metrics: parallel counter hammering"
      test_metrics_parallel_counters;
    Tutil.quick "metrics: parallel histogram" test_metrics_parallel_histogram;
    Tutil.quick "metrics: adoption and kind safety"
      test_metrics_adopt_and_kinds;
    Tutil.quick "metrics: merge and diff" test_metrics_merge_diff;
    Tutil.quick "metrics: p50 and p99 within a bucket of the truth"
      test_metrics_quantiles;
    Tutil.quick "trace: chrome JSON well-formed, covers wall"
      test_trace_chrome_json;
    Tutil.quick "trace: per-domain spans nest, ordinals monotone"
      test_trace_span_discipline;
    Tutil.quick "trace: disabled trace records nothing"
      test_trace_disabled_is_free;
    Tutil.quick "trace: dropped recorders leave no live heap"
      test_trace_recorders_freed;
    Tutil.quick "summary: pp_stats renders every registry counter"
      test_pp_stats_renders_registry;
    Tutil.slow "trace: overhead and span coverage, paired medians"
      test_trace_overhead;
  ]
