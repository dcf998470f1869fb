(* pbench: one measurement of the repository benchmark.

     pbench.exe --workload W --seed N --seconds S --trace 0|1 --dir D
       [--spans FILE]

   Set-up forks a child that generates the workload's inputs from the
   seed and computes the output oracles and entry scores ({!Inputs}),
   reads the inputs back, creates the 1-domain and n-domain pools and,
   for serve_mixed, starts the daemon. It runs once before the
   measurement and twice after it; setup_s is the median of the three.
   The run then discards one warm-up pass per pool and interleaves j1 and
   jn passes for at most S seconds, with a full major GC before
   every pass, outside its timing. Outputs are checked after each timed
   region; a wrong output counts as a failure and never stops the run.
   With --trace 1 every round adds one traced pass per pool: the
   per-layer metrics come from those, the end-to-end ones always from the
   untraced passes. The last line of stdout is the JSON result; stderr
   gets a readable report of every metric. D holds scratch files (cache,
   socket, inputs) and is removed at exit. perfbench/NOTES.md describes
   the workloads and metrics. *)

module Clock = Pbca_obs.Clock
module Task_pool = Pbca_concurrent.Task_pool
module Image = Pbca_binfmt.Image
module Section = Pbca_binfmt.Section
module Decode_cache = Pbca_binfmt.Decode_cache
module Cfg = Pbca_core.Cfg
module Parallel = Pbca_core.Parallel
module Finalize = Pbca_core.Finalize
module Recover = Pbca_core.Recover
module Hpcstruct = Pbca_hpcstruct.Hpcstruct
module Binfeat = Pbca_binfeat.Binfeat
module Func_view = Pbca_analysis.Func_view
module Serve = Pbca_serve.Serve
module Wire = Pbca_serve.Wire
module Sclient = Pbca_serve.Sclient
module Cache = Pbca_serve.Cache

let jn_threads = max 2 (min 8 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* mean of the values left after dropping the lowest and the highest
   quarter *)
let interquartile_mean xs =
  let a = sorted_array xs in
  let n = Array.length a in
  let q = n / 4 in
  if n = 0 then 0.0 else mean (Array.to_list (Array.sub a q (n - (2 * q))))

(* nearest-rank percentile *)
let percentile q xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable divergent : int;  (* j_n gap-parse outputs unlike the serial oracle *)
  mutable jn_outputs : int;
}

let check tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type outcome = {
  wall : float;  (** the timed region *)
  counters : (string * float) list;  (** per-layer counts of this pass *)
  verify : unit -> unit;  (** output checks, run after the pass's GC reading *)
}

type workload = {
  pass : sp:Span.t -> pool:Task_pool.t -> jn:bool -> outcome;
  breakdown : sp:Span.t -> pool:Task_pool.t -> (string * float) list;
      (** traced run only: layer calls timed apart from the pass; returns
          per-layer counts the pass cannot see *)
  score : float * float;  (** entry precision and recall, from set-up *)
  extra : unit -> (string * float * string) list;
      (** run-level metrics of the workload: name, value, unit *)
  close : unit -> unit;
  min_rounds : int;  (** measure at least this many rounds, however long *)
}

let timed sp f =
  let t0 = Clock.now () in
  let v = Span.with_span sp "pass" f in
  (v, Clock.elapsed t0)

let protect f = try Some (f ()) with _ -> None

let read_image sp b =
  match Span.with_span sp "binfmt.read" (fun () -> Image.read_result b) with
  | Ok img -> Some img
  | Error _ -> None

let parse_finalize sp ?config ~pool img =
  protect (fun () ->
      let g = Span.with_span sp "core.parse" (fun () -> Parallel.parse ?config ~pool img) in
      Span.with_span sp "core.finalize" (fun () -> Finalize.run ~pool g);
      g)

let graph_counters graphs =
  let sum f = float_of_int (List.fold_left (fun acc g -> acc + f g) 0 graphs) in
  let dc (g : Cfg.t) = g.Cfg.image.Image.dcache in
  let st (g : Cfg.t) = g.Cfg.stats in
  [
    ("insns_decoded", sum (fun g -> Atomic.get (st g).Cfg.insns_decoded));
    ("decode_hits", sum (fun g -> Decode_cache.hits (dc g)));
    ("decode_lookups", sum (fun g -> Decode_cache.hits (dc g) + Decode_cache.misses (dc g)));
    ("gap_proposed", sum (fun g -> Atomic.get (st g).Cfg.gap_entries_proposed));
    ("gap_accepted", sum (fun g -> Atomic.get (st g).Cfg.gap_entries_accepted));
  ]

let no_breakdown ~sp:_ ~pool:_ = []

(* cfg_large: two large symboled images through read, parse, finalize and
   summary; block traversal is the whole wall. *)
let cfg_large (inp : Inputs.t) bytes tally =
  let pass ~sp ~pool ~jn:_ =
    let outs, wall =
      timed sp (fun () ->
          Array.map
            (fun b ->
              Option.bind (read_image sp b) (fun img ->
                  Option.map
                    (fun g -> (g, Span.with_span sp "core.summary" (fun () -> Inputs.fingerprint g)))
                    (parse_finalize sp ~pool img)))
            bytes)
    in
    let graphs = Array.to_list (Array.map (Option.map fst) outs) in
    {
      wall;
      counters = graph_counters (List.filter_map Fun.id graphs);
      verify =
        (fun () ->
          Array.iteri
            (fun k o ->
              check tally
                (match o with
                | Some (_, fp) -> fp = inp.members.(k).serial_fp
                | None -> false))
            outs);
    }
  in
  { pass;
    breakdown = no_breakdown;
    score = inp.oracle_score;
    extra = (fun () -> []);
    close = ignore;
    min_rounds = 3 }

(* hpcstruct_debug: one image with a large .debug section through
   Hpcstruct.run_image. hpcstruct.self_s is the call's wall minus the
   walls its result reports for the DWARF, line-map and CFG phases of the
   same call. The breakdown times those library calls on their own. *)
let hpcstruct_debug (inp : Inputs.t) bytes tally =
  let b = bytes.(0) in
  let pass ~sp ~pool ~jn:_ =
    let r, wall =
      timed sp (fun () ->
          Option.bind (read_image sp b) (fun img ->
              protect (fun () ->
                  Span.with_span sp "hpcstruct.run_image" (fun () ->
                      let t0 = Clock.now () in
                      let r = Hpcstruct.run_image ~pool img in
                      (r, Clock.elapsed t0)))))
    in
    let self =
      match r with
      | Some (r, t) ->
        [ ("hpcstruct_self",
           List.fold_left (fun acc ph -> acc -. Hpcstruct.phase_wall r ph) t
             [ "dwarf"; "linemap"; "cfg" ]) ]
      | None -> []
    in
    let r = Option.map fst r in
    {
      wall;
      counters = self @ graph_counters (Option.to_list (Option.map (fun r -> r.Hpcstruct.cfg) r));
      verify =
        (fun () ->
          check tally
            (match r with
            | Some r ->
              Digest.to_hex (Digest.string r.Hpcstruct.output) = inp.members.(0).out_digest
            | None -> false));
    }
  in
  let breakdown ~sp ~pool =
    match Image.read_result b with
    | Error _ ->
      check tally false;
      []
    | Ok img ->
      let debug =
        match Image.section img ".debug" with
        | Some s -> s.Section.data
        | None -> Bytes.empty
      in
      let dbg =
        Span.with_span sp "debuginfo.decode" (fun () ->
            Pbca_debuginfo.Codec.decode ~pool debug)
      in
      ignore
        (Span.with_span sp "debuginfo.linemap" (fun () -> Pbca_debuginfo.Line_map.build dbg));
      ignore (parse_finalize sp ~pool img);
      []
  in
  { pass;
    breakdown;
    score = inp.oracle_score;
    extra = (fun () -> []);
    close = ignore;
    min_rounds = 3 }

(* BinFeat's per-function calls on one function, each in its own span. *)
let features sp g f =
  let fv = Span.with_span sp "analysis.func_view" (fun () -> Func_view.make g f) in
  List.iter
    (fun (name, extract) ->
      ignore (Span.with_span sp name (fun () -> extract g Pbca_simsched.Trace.disabled fv)))
    [
      ("binfeat.if", Binfeat.insn_features);
      ("binfeat.cf", Binfeat.cf_features);
      ("binfeat.df", Binfeat.df_features);
    ]

(* forensics_wild: Binfeat.extract with gap parsing over a corpus of small
   binaries. A pass reads every member's bytes and runs the library's
   extract over the whole corpus; its index is checked against the
   1-domain index computed at set-up. A j_n index unlike the oracle is the
   known gap-parse nondeterminism (blocks missing from a stripped member's
   graph) and is counted apart, so a flaky count cannot gate unrelated
   changes; a 1-domain one is a failure. Extract returns no graphs, so the
   breakdown reads and parses each member on its own (its graph checked
   against the serial oracle) and runs BinFeat's per-function calls on one
   Func_view per function, where extract builds one per stage. *)
let forensics_wild (inp : Inputs.t) bytes tally =
  let config = Inputs.wild_config in
  let pass ~sp ~pool ~jn =
    let index, wall =
      timed sp (fun () ->
          let images = Array.to_list (Array.map (read_image sp) bytes) in
          if List.mem None images then None
          else
            protect (fun () ->
                Span.with_span sp "binfeat.extract" (fun () ->
                    (Binfeat.extract ~config ~pool (List.filter_map Fun.id images)).Binfeat.index)))
    in
    {
      wall;
      counters = [];
      verify =
        (fun () ->
          match index with
          | None -> check tally false
          | Some index ->
            let same = Inputs.index_digest index = inp.corpus_digest in
            if not jn then check tally same
            else begin
              tally.jn_outputs <- tally.jn_outputs + 1;
              tally.attempted <- tally.attempted + 1;
              if not same then tally.divergent <- tally.divergent + 1
            end);
    }
  in
  let breakdown ~sp ~pool =
    let graphs =
      Array.to_list
        (Array.mapi
           (fun k b ->
             (* unspanned: the pass already times the reads *)
             let g =
               Option.bind (Result.to_option (Image.read_result b)) (fun img ->
                   parse_finalize sp ~config ~pool img)
             in
             check tally
               (match g with
               | Some g -> Inputs.fingerprint g = inp.members.(k).serial_fp
               | None -> false);
             g)
           bytes)
      |> List.filter_map Fun.id
    in
    (* read before the feature calls, which go through the decode cache *)
    let counters = graph_counters graphs in
    List.iter (fun g -> List.iter (features sp g) (Cfg.funcs_list g)) graphs;
    counters
  in
  { pass;
    breakdown;
    score = inp.oracle_score;
    extra = (fun () -> []);
    close = ignore;
    min_rounds = 3 }

(* ---- serve_mixed ------------------------------------------------- *)

type request = {
  rq : Wire.request;
  base : int;  (* index of the base image: its oracle *)
  first : bool;  (* first sighting of these bytes: a cache miss *)
}

type reply_stat = { lat : float; wait : float; run : float; hit : bool }

let batch_size = 40
let batch_misses = 8
let hit_window = 24

let fingerprint_of_body body =
  let prefix = "fingerprint=" in
  let n = String.length prefix in
  if String.length body < n || String.sub body 0 n <> prefix then ""
  else
    let stop = Option.value (String.index_opt body ' ') ~default:(String.length body) in
    String.sub body n (stop - n)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* serve_mixed: a bserve daemon in this process, driven by a closed loop.
   A pass sends a batch of [batch_size] Parse requests from the seeded
   stream over 1 connection (j1) or [jn_threads] connections (jn); each
   connection sends its next request when the previous reply has been
   decoded. [batch_misses] requests per batch are first sightings (a new
   copy of a base image under a new name: same graph, new cache key);
   the rest repeat one of the last [hit_window] images already served.
   The mix is an assumption, not a measured trace: nothing defines a
   request mix for the daemon beyond "most requests repeat". The run
   reports serve.cold_run_share, the share of the daemon's run time spent
   on misses, so a reader can see which path the wall metrics gate. *)
let serve_mixed ~dir ~seed ~rep (inp : Inputs.t) bytes tally =
  let sock = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir (Printf.sprintf "cache-%d" rep) in
  let local_dir = Filename.concat dir (Printf.sprintf "local-cache-%d" rep) in
  let cfg =
    { (Serve.default_config ~sock) with
      Serve.sc_workers = jn_threads;
      sc_acceptors = 1;
      sc_queue = 16;
      sc_cache_dir = Some cache_dir;
      sc_read_timeout_s = 10.0;
    }
  in
  let server = Serve.start cfg in
  (match Sclient.roundtrip ~timeout_s:10.0 ~sock (Wire.request Wire.Ping) with
  | Ok _ -> ()
  | Error e ->
    Serve.stop server;
    failwith ("daemon did not answer: " ^ Sclient.error_to_string e));
  let bases = Array.map (fun b -> Image.read b) bytes in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let copies = ref 0 in
  let copy base =
    incr copies;
    let img = bases.(base) in
    Image.write { img with Image.name = Printf.sprintf "%s.copy%d" img.Image.name !copies }
  in
  let window = ref [] in
  let make_batch () =
    let misses = Array.init batch_size (fun i -> i < batch_misses) in
    for i = batch_size - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = misses.(i) in
      misses.(i) <- misses.(j);
      misses.(j) <- t
    done;
    let win = Array.of_list !window in
    Array.map
      (fun miss ->
        if miss || win = [||] then
          let base = Random.State.int rng (Array.length bases) in
          { rq = Wire.request ~image:(copy base) Wire.Parse; base; first = true }
        else { (win.(Random.State.int rng (Array.length win))) with first = false })
      misses
  in
  let latencies = ref [] and replies = ref [] in
  let ok_count = ref 0 and jn_wall = ref 0.0 in
  let next_req = ref 0 in
  let pass ~sp ~pool:_ ~jn =
    let batch = make_batch () in
    let n = Array.length batch in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let req0 = !next_req in
    next_req := !next_req + n;
    let client () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = Clock.now () in
          let r =
            Span.with_span sp ~req:(req0 + i) "serve.request" (fun () ->
                try Sclient.roundtrip ~timeout_s:30.0 ~sock batch.(i).rq
                with e -> Error (Sclient.Io (Printexc.to_string e)))
          in
          results.(i) <- Some (r, Clock.elapsed t0);
          go ()
        end
      in
      go ()
    in
    let clients = if jn then jn_threads else 1 in
    let (), wall =
      timed sp (fun () ->
          let others = List.init (clients - 1) (fun _ -> Domain.spawn client) in
          client ();
          List.iter Domain.join others)
    in
    let measured = jn && not sp.Span.on in
    {
      wall;
      counters = [];
      verify =
        (fun () ->
          let fresh = ref [] in
          Array.iteri
            (fun i res ->
              let it = batch.(i) in
              match res with
              | Some (Ok (r : Wire.reply), lat)
                when r.Wire.rp_status = Wire.Ok_clean
                     && fingerprint_of_body r.Wire.rp_body = inp.members.(it.base).serial_fp ->
                check tally true;
                if it.first then fresh := it :: !fresh;
                if measured then begin
                  incr ok_count;
                  latencies := lat :: !latencies;
                  replies :=
                    {
                      lat;
                      wait = float_of_int r.Wire.rp_wait_us /. 1e6;
                      run = float_of_int r.Wire.rp_run_us /. 1e6;
                      hit = r.Wire.rp_cache_hit;
                    }
                    :: !replies
                end
              | _ ->
                check tally false;
                (* a failed request lies beyond any latency limit *)
                if measured then latencies := infinity :: !latencies)
            results;
          if measured then jn_wall := !jn_wall +. wall;
          window := List.filteri (fun i _ -> i < hit_window) (!fresh @ !window));
    }
  in
  (* One miss and one hit of a fresh copy, replayed through the calls the
     daemon makes, against a local cache: the layer breakdown of the
     request path that the client cannot see. *)
  let local = Cache.create ~dir:local_dir in
  let breakdown ~sp ~pool =
    let base = !next_req mod Array.length bases in
    let bytes = copy base in
    let rq = Wire.request ~image:bytes Wire.Parse in
    let codec_ok =
      Span.with_span sp "wire.codec" (fun () ->
          match Wire.decode_request (Wire.encode_request rq) with
          | Ok r -> Bytes.equal r.Wire.rq_image bytes
          | Error _ -> false)
    in
    let fp =
      protect (fun () ->
          let img = Image.read bytes in
          let key = Cache.key bytes in
          assert (Cache.lookup local key = None);
          Span.with_span sp "serve.cold_persist" (fun () ->
              let st = Cache.stage local key in
              ignore
                (Parallel.parse_and_finalize ~pool
                   ~persist:
                     { Parallel.p_journal = st.Cache.st_journal;
                       p_checkpoint = st.Cache.st_checkpoint;
                       p_every = 4 }
                   img);
              ignore (Cache.promote local key st));
          (* load the artifact into the memory tier, where the daemon's
             steady-state hits find it *)
          ignore (Cache.lookup local key);
          let key = Span.with_span sp "serve.key" (fun () -> Cache.key bytes) in
          let plan = Option.get (Span.with_span sp "serve.lookup" (fun () -> Cache.lookup local key)) in
          let g = Cfg.create (Image.read bytes) in
          ignore
            (Span.with_span sp "core.replay" (fun () ->
                 Recover.apply g plan ~on_jt_pending:(fun ~end_:_ ~reg:_ -> ())));
          Span.with_span sp "core.finalize" (fun () -> Finalize.run ~pool g);
          Span.with_span sp "core.summary" (fun () -> Inputs.fingerprint g))
    in
    check tally (codec_ok && fp = Some inp.members.(base).serial_fp);
    []
  in
  let extra () =
    let rs = !replies in
    let ms f l = 1000.0 *. median (List.map f l) in
    let hits = List.filter (fun r -> r.hit) rs and colds = List.filter (fun r -> not r.hit) rs in
    let run_sum l = List.fold_left (fun acc r -> acc +. r.run) 0.0 l in
    [
      ("serve.latency_p50_ms", 1000.0 *. percentile 0.50 !latencies, "ms");
      ("serve.latency_p95_ms", Float.min 1e9 (1000.0 *. percentile 0.95 !latencies), "ms");
      ("serve.latency_samples", float_of_int (List.length !latencies), "count");
      ("serve.throughput_rps", ratio (float_of_int !ok_count) !jn_wall, "1/s");
      ("serve.wait_ms", ms (fun r -> r.wait) rs, "ms");
      ("serve.run_hit_ms", ms (fun r -> r.run) hits, "ms");
      ("serve.run_cold_ms", ms (fun r -> r.run) colds, "ms");
      ("serve.transport_ms", ms (fun r -> r.lat -. r.wait -. r.run) rs, "ms");
      ( "serve.hit_ratio",
        ratio (float_of_int (List.length hits)) (float_of_int (List.length rs)),
        "ratio" );
      ("serve.cold_run_share", ratio (run_sum colds) (run_sum rs), "ratio");
    ]
  in
  let close () =
    Serve.stop server;
    remove_tree cache_dir;
    remove_tree local_dir
  in
  (* enough rounds that more than ten latencies lie beyond p95 *)
  let min_rounds = (220 + batch_size - 1) / batch_size in
  { pass; breakdown; score = inp.oracle_score; extra; close; min_rounds }

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* Generation runs in a child process (this executable with --generate),
   so its heap never sets this process's peak memory. *)
let generate ~dir workload seed =
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--generate"; "--workload"; workload;
         "--seed"; string_of_int seed; "--dir"; dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Inputs.read ~dir
  | _ -> failwith "input generation failed"

let setup ~dir ~workload ~seed ~rep tally =
  let t0 = Clock.now () in
  let inp, bytes = generate ~dir workload seed in
  let p1 = Task_pool.create ~threads:1 and pn = Task_pool.create ~threads:jn_threads in
  let w =
    match workload with
    | "cfg_large" -> cfg_large inp bytes tally
    | "hpcstruct_debug" -> hpcstruct_debug inp bytes tally
    | "forensics_wild" -> forensics_wild inp bytes tally
    | _ -> serve_mixed ~dir ~seed ~rep inp bytes tally
  in
  (Clock.elapsed t0, (w, p1, pn))

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

type pass = {
  jn : bool;
  traced : bool;
  p_wall : float;
  p_counters : (string * float) list;
  spans : Span.span list;
}

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let run_pass w ~p1 ~pn sp ~jn ~traced =
  Gc.full_major ();
  let pool = if jn then pn else p1 in
  let sp = if traced then sp else Span.disabled in
  let m = Span.mark sp in
  let s0 = Task_pool.stats pool and g0 = Gc.quick_stat () in
  let o = w.pass ~sp ~pool ~jn in
  let g1 = Gc.quick_stat () and s1 = Task_pool.stats pool in
  o.verify ();
  let seen = if traced && not jn then w.breakdown ~sp ~pool:p1 else [] in
  let d = Task_pool.diff_stats ~before:s0 ~after:s1 in
  {
    jn;
    traced;
    p_wall = o.wall;
    p_counters =
      [
        ("steals", float_of_int d.Task_pool.steals);
        ("steal_attempts", float_of_int d.Task_pool.steal_attempts);
        ("idle_sleeps", float_of_int d.Task_pool.idle_sleeps);
        ("gc_minor_mb", mb_of_words (g1.Gc.minor_words -. g0.Gc.minor_words));
        ("gc_promoted_mb", mb_of_words (g1.Gc.promoted_words -. g0.Gc.promoted_words));
        ( "gc_major_collections",
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ]
      @ o.counters @ seen;
    spans = (if traced then Span.since sp m else []);
  }

let run_measurement w ~p1 ~pn sp ~seconds ~traced_run =
  (* warm-up: one discarded pass per pool *)
  ignore (run_pass w ~p1 ~pn sp ~jn:false ~traced:false);
  ignore (run_pass w ~p1 ~pn sp ~jn:true ~traced:false);
  let round =
    if traced_run then [ (false, false); (false, true); (true, false); (true, true) ]
    else [ (false, false); (true, false) ]
  in
  (* a round starts only if, at the mean round time so far, it ends
     within the measuring time *)
  let start = Clock.now () in
  let rec loop acc rounds =
    let now = Clock.now () in
    let round_s = if rounds = 0 then 0.0 else (now -. start) /. float_of_int rounds in
    if rounds >= w.min_rounds && now +. round_s > start +. seconds then acc
    else
      loop
        (List.rev_append
           (List.map (fun (jn, traced) -> run_pass w ~p1 ~pn sp ~jn ~traced) round)
           acc)
        (rounds + 1)
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec find () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> find ()
      | exception End_of_file -> nan
    in
    Fun.protect ~finally:(fun () -> close_in ic) find

let select passes ~jn ~traced = List.filter (fun p -> p.jn = jn && p.traced = traced) passes
let counter p name = Option.value (List.assoc_opt name p.p_counters) ~default:0.0
let median_of passes f = median (List.map f passes)

(* The wall metrics are the interquartile mean of the pass walls. On a
   shared virtual machine the CPU speed switches between levels for
   seconds at a time, so pass walls are bimodal and their median jumps
   from one level to the other between runs; and when the host is loaded,
   single j_n passes can take twice the usual time waiting for a
   descheduled domain. The mean of the middle half moves only with the
   share of time spent at each level, and drops those spikes. *)
let end_to_end passes tally w ~peak_rss ~setup_s =
  let wall jn = interquartile_mean (List.map (fun p -> p.p_wall) (select passes ~jn ~traced:false)) in
  let precision, recall = w.score in
  [
    ("wall_s_j1", wall false, "s");
    ("wall_s_jn", wall true, "s");
    ( "ok_frac",
      1.0 -. ratio (float_of_int tally.failed) (float_of_int tally.attempted),
      "ratio" );
    ("entry_precision", precision, "ratio");
    ("entry_recall", recall, "ratio");
    ("peak_rss_mb", peak_rss, "MB");
    ("setup_s", setup_s, "s");
  ]

(* per-layer time metrics: span name, metric name, unit scale *)
let span_metrics =
  [
    ("binfmt.read", "binfmt.read_s", 1.0);
    ("core.parse", "core.parse_s", 1.0);
    ("core.finalize", "core.finalize_s", 1.0);
    ("core.summary", "core.summary_s", 1.0);
    ("core.replay", "core.replay_s", 1.0);
    ("debuginfo.decode", "debuginfo.decode_s", 1.0);
    ("debuginfo.linemap", "debuginfo.linemap_s", 1.0);
    ("analysis.func_view", "analysis.func_view_s", 1.0);
    ("binfeat.if", "binfeat.if_s", 1.0);
    ("binfeat.cf", "binfeat.cf_s", 1.0);
    ("binfeat.df", "binfeat.df_s", 1.0);
    ("serve.key", "serve.key_ms", 1000.0);
    ("serve.lookup", "serve.lookup_ms", 1000.0);
    ("serve.cold_persist", "serve.cold_persist_ms", 1000.0);
    ("wire.codec", "wire.codec_ms", 1000.0);
  ]

(* minor allocation per layer call: metric name, span names *)
let gc_layers =
  [
    ("gc.read_minor_mb", [ "binfmt.read" ]);
    ("gc.parse_minor_mb", [ "core.parse" ]);
    ("gc.finalize_minor_mb", [ "core.finalize" ]);
    ("gc.summary_minor_mb", [ "core.summary" ]);
    ("gc.replay_minor_mb", [ "core.replay" ]);
    ("gc.hpcstruct_minor_mb", [ "hpcstruct.run_image" ]);
    ( "gc.features_minor_mb",
      [ "analysis.func_view"; "binfeat.if"; "binfeat.cf"; "binfeat.df" ] );
  ]

let per_layer passes tally =
  let traced_j1 = select passes ~jn:false ~traced:true in
  let untraced_j1 = select passes ~jn:false ~traced:false in
  let untraced_jn = select passes ~jn:true ~traced:false in
  let totals = List.map (fun p -> (p, Span.totals p.spans)) traced_j1 in
  let get tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0 in
  let span_median f = median (List.map (fun (_, (dur, self, words)) -> f dur self words) totals) in
  let times =
    List.map
      (fun (span, metric, scale) ->
        (metric, scale *. span_median (fun dur _ _ -> get dur span), if scale = 1.0 then "s" else "ms"))
      span_metrics
  in
  let gcs =
    List.map
      (fun (metric, spans) ->
        ( metric,
          span_median (fun _ _ words ->
              mb_of_words (List.fold_left (fun acc s -> acc +. get words s) 0.0 spans)),
          "MB" ))
      gc_layers
  in
  let coverage =
    span_median (fun dur self _ ->
        let root = get dur "pass" in
        ratio (root -. get self "pass") root)
  in
  (* a count is the median over the passes that report it: forensics_wild
     counts its graphs in the traced breakdown, the others in the pass *)
  let reported passes name = List.filter (fun p -> List.mem_assoc name p.p_counters) passes in
  let c passes name = median_of (reported passes name) (fun p -> counter p name) in
  let per_pass_ratio passes num den =
    median_of (reported passes den) (fun p -> ratio (counter p num) (counter p den))
  in
  let j1 = untraced_j1 @ traced_j1 in
  times
  @ [
      ("hpcstruct.self_s", c untraced_j1 "hpcstruct_self", "s");
      ("core.insns_decoded", c j1 "insns_decoded", "count");
      ("core.decode_lookups", c j1 "decode_lookups", "count");
      ("core.decode_hit_rate", per_pass_ratio j1 "decode_hits" "decode_lookups", "ratio");
      ("core.gap_entries_proposed", c j1 "gap_proposed", "count");
      ("core.gap_accept_rate", per_pass_ratio j1 "gap_accepted" "gap_proposed", "ratio");
      ("core.jn_divergent", float_of_int tally.divergent, "count");
      ("core.jn_outputs", float_of_int tally.jn_outputs, "count");
      ("concurrent.steals", c untraced_jn "steals", "count");
      ("concurrent.steal_attempts", c untraced_jn "steal_attempts", "count");
      ("concurrent.idle_sleeps", c untraced_jn "idle_sleeps", "count");
      ("gc.minor_mb", c untraced_j1 "gc_minor_mb", "MB");
      ("gc.promoted_mb", c untraced_j1 "gc_promoted_mb", "MB");
      ("gc.major_collections", c untraced_j1 "gc_major_collections", "count");
    ]
  @ gcs
  @ [
      ( "obs.trace_overhead",
        ratio
          (mean (List.map (fun p -> p.p_wall) traced_j1))
          (mean (List.map (fun p -> p.p_wall) untraced_j1)),
        "ratio" );
      ("obs.self_coverage", coverage, "ratio");
    ]

(* The serve metrics the daemon workload adds; zero elsewhere, so every
   run prints the same per-layer names. *)
let serve_names =
  [
    ("serve.latency_p50_ms", "ms");
    ("serve.latency_p95_ms", "ms");
    ("serve.latency_samples", "count");
    ("serve.throughput_rps", "1/s");
    ("serve.wait_ms", "ms");
    ("serve.run_hit_ms", "ms");
    ("serve.run_cold_ms", "ms");
    ("serve.transport_ms", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.cold_run_share", "ratio");
  ]

let with_serve_defaults extra =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) extra with
      | Some m -> m
      | None -> (name, 0.0, unit))
    serve_names

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       metrics)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and dir = ref "" and spans_out = ref "" in
  let generate_only = ref false in
  Arg.parse
    [
      ("--generate", Arg.Set generate_only, " write the inputs into DIR and exit (set-up child)");
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Inputs.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--dir", Arg.Set_string dir, "DIR scratch directory (created, removed at exit)");
      ("--spans", Arg.Set_string spans_out, "FILE write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbench --workload W --seed N --seconds S --trace 0|1 --dir DIR";
  if not (List.mem !workload Inputs.workloads) then begin
    prerr_endline ("pbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !dir = "" then begin
    prerr_endline "pbench: --dir is required";
    exit 2
  end;
  let dir = !dir in
  if !generate_only then begin
    Inputs.write ~dir (Inputs.generate !workload !seed);
    exit 0
  end;
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let tally = { attempted = 0; failed = 0; divergent = 0; jn_outputs = 0 } in
  (* setup_s is the median of three set-ups: the one the measurement
     uses and two after it, so that the set-ups sample the host's speed
     at both ends of the run *)
  let times = ref [] in
  let setup_once rep =
    Gc.full_major ();
    let t, env = setup ~dir ~workload:!workload ~seed:!seed ~rep tally in
    times := t :: !times;
    env
  in
  let discard (w, _, _) = w.close () in
  let w, p1, pn = setup_once 1 in
  let traced_run = !trace = 1 in
  let sp = Span.create ~on:traced_run in
  let passes =
    Fun.protect ~finally:w.close (fun () ->
        run_measurement w ~p1 ~pn sp ~seconds:!seconds ~traced_run)
  in
  (* the measurement's peak, before the later set-ups read their inputs *)
  let peak_rss = peak_rss_mb () in
  List.iter (fun rep -> discard (setup_once rep)) [ 2; 3 ];
  let e2e = end_to_end passes tally w ~peak_rss ~setup_s:(median !times) in
  let extra = w.extra () in
  let layers = if traced_run then per_layer passes tally @ with_serve_defaults extra else [] in
  if traced_run && !spans_out <> "" then Span.write sp !spans_out;
  let n kind = List.length (List.filter (fun p -> p.jn = kind) passes) in
  Printf.eprintf "pbench %s seed=%d: %d j1 + %d jn passes (jn = %d domains), %d checked, %d failed\n"
    !workload !seed (n false) (n true) jn_threads tally.attempted tally.failed;
  Printf.eprintf "  set-up walls (s):%s\n"
    (String.concat "" (List.rev_map (Printf.sprintf " %.3f") !times));
  List.iter
    (fun (jn, traced) ->
      match select passes ~jn ~traced with
      | [] -> ()
      | ps ->
        Printf.eprintf "  %s%s pass walls (s):%s\n"
          (if jn then "jn" else "j1")
          (if traced then " traced" else "")
          (String.concat "" (List.rev_map (fun p -> Printf.sprintf " %.3f" p.p_wall) ps)))
    [ (false, false); (true, false); (false, true); (true, true) ];
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-28s %14.6f %s\n" name v unit)
    (e2e @ (if traced_run then layers else extra));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed
    (json_metrics (if traced_run then layers else e2e))
