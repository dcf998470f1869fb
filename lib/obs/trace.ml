type dep = { dep_task : int; dep_offset : int }

type span = {
  sp_name : string;
  sp_phase : string;
  sp_tid : int; (* domain id, the Chrome "thread" lane *)
  sp_ordinal : int; (* ordinal at begin *)
  sp_addr : int; (* address payload, -1 when not address-shaped *)
  sp_t0 : int; (* nanoseconds since the trace was created *)
  mutable sp_t1 : int; (* set when the span closes *)
  mutable sp_cost : int; (* a task's work units; 0 for a phase span *)
  sp_deps : dep list; (* a task's dependencies *)
  sp_epoch : int; (* a task's barrier epoch; -1 marks a phase span *)
}

type task = {
  id : int;
  label : string;
  cost : int;
  deps : dep list;
  epoch : int;
}

(* Per-domain state: the completed-span buffer and the innermost open
   task, which receives ticks ([no_task] outside any task; the tasks it
   suspended wait on the OCaml stack of [with_task]). Only its owner
   domain [dom] touches it; [drain] (master, at a barrier, no task
   running — the Journal discipline) moves the buffer's batch out. *)
type local = { dom : int; mutable pending : span list; mutable top : span }

type t = {
  enabled : bool;
  origin : float;
  next_ordinal : int Atomic.t;
  epoch : int Atomic.t; (* barriers so far *)
  locals : local list Atomic.t; (* every per-domain state ever created *)
  drained : span list list Atomic.t; (* batches moved out at barriers *)
}

let rec push_atomic cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (x :: cur)) then push_atomic cell x

let no_task =
  {
    sp_name = "";
    sp_phase = "";
    sp_tid = -1;
    sp_ordinal = -1;
    sp_addr = -1;
    sp_t0 = 0;
    sp_t1 = 0;
    sp_cost = 0;
    sp_deps = [];
    sp_epoch = -1;
  }

let make ~enabled =
  {
    enabled;
    origin = Clock.now ();
    next_ordinal = Atomic.make 0;
    epoch = Atomic.make 0;
    locals = Atomic.make [];
    drained = Atomic.make [];
  }

(* One process-wide DLS slot, not one per recorder: OCaml never frees a
   DLS key, and every domain's DLS array would keep each recorder's
   state alive. The slot caches the state of the recorder this domain
   touched last, identified by its [locals] cell; on a miss the state is
   looked up by domain id among the recorder's [locals], or created. *)
type cache = { mutable owner : local list Atomic.t; mutable cached : local }

let cache_key =
  Domain.DLS.new_key (fun () ->
      {
        owner = Atomic.make [];
        cached = { dom = -1; pending = []; top = no_task };
      })

let[@inline never] local_miss t c =
  let dom = (Domain.self () :> int) in
  let l =
    match List.find_opt (fun l -> l.dom = dom) (Atomic.get t.locals) with
    | Some l -> l
    | None ->
      let l = { dom; pending = []; top = no_task } in
      push_atomic t.locals l;
      l
  in
  c.owner <- t.locals;
  c.cached <- l;
  l

let[@inline] local t =
  let c = Domain.DLS.get cache_key in
  if c.owner == t.locals then c.cached else local_miss t c

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.enabled

(* Integer nanoseconds: a span holds no boxed float, and closing it is a
   plain store. *)
let now_ns t = int_of_float ((Clock.now () -. t.origin) *. 1e9)

let open_span t ~phase ~addr ~deps ~epoch name =
  {
    sp_name = name;
    sp_phase = phase;
    sp_tid = (Domain.self () :> int);
    sp_ordinal = Atomic.fetch_and_add t.next_ordinal 1;
    sp_addr = addr;
    sp_t0 = now_ns t;
    sp_t1 = 0;
    sp_cost = 0;
    sp_deps = deps;
    sp_epoch = epoch;
  }

let close_span t l s =
  s.sp_t1 <- now_ns t;
  l.pending <- s :: l.pending

let with_span t ~phase ?(addr = -1) name f =
  if not t.enabled then f ()
  else begin
    let s = open_span t ~phase ~addr ~deps:[] ~epoch:(-1) name in
    match f () with
    | v ->
      close_span t (local t) s;
      v
    | exception e ->
      close_span t (local t) s;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Tasks: spans with a cost, dependency edges and a barrier epoch.     *)

let end_task t l ~outer s =
  l.top <- outer;
  s.sp_cost <- max 1 s.sp_cost;
  close_span t l s

let with_task t ?(addr = -1) ~deps label f =
  if not t.enabled then f ()
  else begin
    let s =
      open_span t ~phase:label ~addr
        ~deps:(List.filter_map Fun.id deps)
        ~epoch:(Atomic.get t.epoch) label
    in
    let l = local t in
    let outer = l.top in
    l.top <- s;
    match f () with
    | v ->
      end_task t l ~outer s;
      v
    | exception e ->
      end_task t l ~outer s;
      raise e
  end

let capture t =
  if not t.enabled then None
  else
    let s = (local t).top in
    if s == no_task then None
    else Some { dep_task = s.sp_ordinal; dep_offset = s.sp_cost }

let tick t n =
  if t.enabled then
    let s = (local t).top in
    if s != no_task then s.sp_cost <- s.sp_cost + n

let barrier t = if t.enabled then Atomic.incr t.epoch

(* Barrier-time drain: take every buffer's batch. Caller guarantees
   quiescence (no span mid-append), exactly like [Journal.flush]. *)
let drain t =
  if t.enabled then
    List.iter
      (fun l ->
        match l.pending with
        | [] -> ()
        | batch ->
          l.pending <- [];
          push_atomic t.drained batch)
      (Atomic.get t.locals)

let fold_spans t f acc =
  drain t;
  List.fold_left (List.fold_left f) acc (Atomic.get t.drained)

let tasks t =
  fold_spans t
    (fun acc s ->
      if s.sp_epoch < 0 then acc
      else
        {
          id = s.sp_ordinal;
          label = s.sp_name;
          cost = s.sp_cost;
          deps = s.sp_deps;
          epoch = s.sp_epoch;
        }
        :: acc)
    []

let total_work t =
  fold_spans t (fun acc s -> if s.sp_epoch < 0 then acc else acc + s.sp_cost) 0

let spans t =
  fold_spans t (fun acc s -> s :: acc) []
  |> List.sort (fun a b -> compare (a.sp_t0, a.sp_t1) (b.sp_t0, b.sp_t1))

(* Union length of the span intervals: the "observed" fraction of a
   measured wall time, for the coverage acceptance check. *)
let covered_wall t =
  let iv =
    List.sort compare (fold_spans t (fun acc s -> (s.sp_t0, s.sp_t1) :: acc) [])
  in
  let rec go acc = function
    | [] -> acc
    | (lo, hi) :: rest ->
      let rec absorb hi = function
        | (lo2, hi2) :: rest2 when lo2 <= hi -> absorb (max hi hi2) rest2
        | rest2 -> (hi, rest2)
      in
      let hi, rest = absorb hi rest in
      go (acc + (hi - lo)) rest
  in
  float_of_int (go 0 iv) *. 1e-9

(* Per-phase wall aggregation, for the Summary phase breakdown. Nested
   spans of the same phase double-count there; the breakdown therefore
   reports leaf-ish phases (callers pick disjoint phase names). *)
let phase_walls t =
  let tbl = Hashtbl.create 16 in
  fold_spans t
    (fun () s ->
      let cur = Option.value (Hashtbl.find_opt tbl s.sp_phase) ~default:0.0 in
      Hashtbl.replace tbl s.sp_phase
        (cur +. (float_of_int (s.sp_t1 - s.sp_t0) *. 1e-9)))
    ();
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export: an array of complete ("ph":"X") events,
   timestamps in microseconds, one Chrome thread lane per domain.
   Loadable in chrome://tracing and Perfetto.                          *)

let chrome_json t =
  let open Json in
  let ev (s : span) =
    let args =
      (if s.sp_ordinal >= 0 then [ ("ordinal", J_int s.sp_ordinal) ] else [])
      @ (if s.sp_epoch >= 0 then [ ("work", J_int s.sp_cost) ] else [])
      @
      if s.sp_addr >= 0 then
        [ ("addr", J_str (Printf.sprintf "0x%x" s.sp_addr)) ]
      else []
    in
    J_obj
      ([
         ("name", J_str s.sp_name);
         ("cat", J_str s.sp_phase);
         ("ph", J_str "X");
         (* integer microseconds: Json floats print %.6g, which would
            round a multi-second ts to ~10us and jumble lane ordering *)
         ("ts", J_int (s.sp_t0 / 1000));
         ("dur", J_int (max 1 ((s.sp_t1 - s.sp_t0) / 1000)));
         ("pid", J_int 1);
         ("tid", J_int s.sp_tid);
       ]
      @ match args with [] -> [] | a -> [ ("args", J_obj a) ])
  in
  J_arr (List.map ev (spans t))

let to_chrome_string t = Json.json_to_string (chrome_json t)

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_string t))
