(* Observability layer: the monotonic/fake clock, the per-run metrics
   registry under parallel hammering, and per-domain execution spans
   exported as Chrome trace-event JSON. *)

module Clock = Pbca_obs.Clock
module Metrics = Pbca_obs.Metrics
module Otrace = Pbca_obs.Trace
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
  let cell = Atomic.make 0 in
  Metrics.register_counter m "adopted" cell;
  Atomic.incr cell;
  Atomic.incr cell;
  (* the registry reads the very cell the hot path increments *)
  Alcotest.(check int) "adopted cell is shared" 2
    (Metrics.count (Metrics.counter m "adopted"));
  Metrics.register_gauge_fn m "computed" (fun () -> 7.5);
  (match List.assoc "computed" (Metrics.snapshot m) with
  | Metrics.Gauge v -> Alcotest.(check (float 0.0)) "gauge fn" 7.5 v
  | _ -> Alcotest.fail "computed is not a gauge");
  match Metrics.gauge m "adopted" with
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

(* ------------------------------ trace --------------------------------- *)

let traced_parse () =
  let r = Pbca_codegen.Emit.generate (Profile.coreutils_like 1) in
  let pool = TP.create ~threads:4 in
  let otrace = Otrace.create () in
  let t0 = Clock.now () in
  let g =
    Pbca_core.Parallel.parse_and_finalize ~otrace ~pool
      r.Pbca_codegen.Emit.image
  in
  (g, otrace, Clock.elapsed t0)

let test_trace_chrome_json () =
  let g, t, wall = traced_parse () in
  ignore g;
  let s = Otrace.to_chrome_string t in
  Alcotest.(check bool) "chrome export is well-formed JSON" true
    (Json.json_well_formed s);
  Alcotest.(check bool) "spans recorded" true (Otrace.spans t <> []);
  (* the root "parse" span opens right after Cfg.create and closes after
     the last round, so span coverage tracks the measured wall closely;
     0.90 leaves slack for registry setup and a GC pause *)
  Alcotest.(check bool) "spans cover the parse wall" true
    (Otrace.covered_wall t >= 0.90 *. wall);
  match Otrace.phase_walls t with
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
let test_trace_span_discipline () =
  let _g, t, _wall = traced_parse () in
  let spans = Otrace.spans t in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Otrace.sp_t0 <= b.Otrace.sp_t0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "globally sorted by start" true (sorted spans);
  List.iter
    (fun sp ->
      if sp.Otrace.sp_t1 < sp.Otrace.sp_t0 || sp.Otrace.sp_t0 < 0.0 then
        Alcotest.failf "span %s has a negative interval [%g,%g]"
          sp.Otrace.sp_name sp.Otrace.sp_t0 sp.Otrace.sp_t1)
    spans;
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_tid sp.Otrace.sp_tid)
      in
      Hashtbl.replace by_tid sp.Otrace.sp_tid (sp :: prev))
    spans;
  Hashtbl.iter
    (fun tid sps ->
      (* earlier start first; on a tie the longer (enclosing) span first *)
      let sps =
        List.sort
          (fun a b ->
            compare
              (a.Otrace.sp_t0, -.a.Otrace.sp_t1)
              (b.Otrace.sp_t0, -.b.Otrace.sp_t1))
          sps
      in
      let stack = ref [] in
      let last : Otrace.span option ref = ref None in
      List.iter
        (fun sp ->
          (match !last with
          | Some p
            when p.Otrace.sp_t0 < sp.Otrace.sp_t0
                 && p.Otrace.sp_ordinal >= sp.Otrace.sp_ordinal ->
            Alcotest.failf "tid %d: ordinals not monotone (%d then %d)" tid
              p.Otrace.sp_ordinal sp.Otrace.sp_ordinal
          | _ -> ());
          last := Some sp;
          let rec pop () =
            match !stack with
            | top :: rest when top.Otrace.sp_t1 <= sp.Otrace.sp_t0 ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | top :: _ when sp.Otrace.sp_t1 > top.Otrace.sp_t1 ->
            Alcotest.failf
              "tid %d: span %s [%g,%g] partially overlaps %s [%g,%g]" tid
              sp.Otrace.sp_name sp.Otrace.sp_t0 sp.Otrace.sp_t1
              top.Otrace.sp_name top.Otrace.sp_t0 top.Otrace.sp_t1
          | _ -> ());
          stack := sp :: !stack)
        sps)
    by_tid

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
  let parse ?otrace () =
    let t0 = Clock.now () in
    ignore
      (Pbca_core.Parallel.parse_and_finalize ?otrace ~pool
         r.Pbca_codegen.Emit.image
        : Pbca_core.Cfg.t);
    Clock.elapsed t0
  in
  (* warm-up: fault pages in and fill the image's decode cache, so both
     sides of every pair see the same cache state *)
  ignore (parse ());
  let coverage = ref [] in
  let traced () =
    let t = Otrace.create () in
    let w = parse ~otrace:t () in
    coverage := (Otrace.covered_wall t /. w) :: !coverage;
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

let test_trace_disabled_is_free () =
  let t = Otrace.disabled in
  Alcotest.(check bool) "disabled" false (Otrace.enabled t);
  let sp = Otrace.begin_span t ~phase:"x" "noop" in
  Otrace.end_span t sp;
  Otrace.drain t;
  Alcotest.(check bool) "no spans collected" true (Otrace.spans t = [])

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
    Tutil.quick "trace: chrome JSON well-formed, covers wall"
      test_trace_chrome_json;
    Tutil.quick "trace: per-domain spans nest, ordinals monotone"
      test_trace_span_discipline;
    Tutil.quick "trace: disabled trace records nothing"
      test_trace_disabled_is_free;
    Tutil.slow "trace: overhead and span coverage, paired medians"
      test_trace_overhead;
  ]
