(* Scheduler counters are per-pool (cumulative across the pool's
   regions), never process-global: two pools running concurrently each
   count their own steals. Bench harnesses snapshot-diff them around a
   run. *)
type t = {
  n : int;
  steals_ctr : int Atomic.t;
  steal_attempts_ctr : int Atomic.t;
  idle_sleeps_ctr : int Atomic.t;
}

type region = {
  deques : (unit -> unit) Wsdeque.t array;
  pending : int Atomic.t; (* spawned-but-unfinished tasks *)
  failures : exn list Atomic.t;
  pool : t; (* owning pool: regions bump its counters *)
}

let create ~threads =
  if threads < 1 then invalid_arg "Task_pool.create: threads must be >= 1";
  {
    n = threads;
    steals_ctr = Atomic.make 0;
    steal_attempts_ctr = Atomic.make 0;
    idle_sleeps_ctr = Atomic.make 0;
  }

let threads t = t.n

type pool_stats = { steals : int; steal_attempts : int; idle_sleeps : int }

let stats t =
  {
    steals = Atomic.get t.steals_ctr;
    steal_attempts = Atomic.get t.steal_attempts_ctr;
    idle_sleeps = Atomic.get t.idle_sleeps_ctr;
  }

let diff_stats ~before ~after =
  {
    steals = after.steals - before.steals;
    steal_attempts = after.steal_attempts - before.steal_attempts;
    idle_sleeps = after.idle_sleeps - before.idle_sleeps;
  }

exception Task_failures of exn list

let rec push_failure region e =
  let cur = Atomic.get region.failures in
  if not (Atomic.compare_and_set region.failures cur (e :: cur)) then
    push_failure region e

(* Deque index of the current domain in the region it is working on. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let worker_index () = Domain.DLS.get slot_key

let spawn_in region task =
  let me = worker_index () in
  Atomic.incr region.pending;
  Wsdeque.push region.deques.(me mod Array.length region.deques) task

let run_task region task =
  (* A crashing task must not wedge the region: every failure (including a
     fault injected by [Fault.on_task]) is collected, the pending count
     still drops, and every sibling still runs. *)
  (match
     Fault.on_task ();
     task ()
   with
  | () -> ()
  | exception e -> push_failure region e);
  Atomic.decr region.pending

(* Own pop first, then steal round-robin over the region's other deques,
   starting after [me]. *)
let find_work region me =
  match Wsdeque.pop region.deques.(me) with
  | Some _ as task -> task
  | None ->
    let pool = region.pool in
    let n = Array.length region.deques in
    let rec try_steal i =
      if i >= n then None
      else begin
        ignore (Atomic.fetch_and_add pool.steal_attempts_ctr 1);
        match Wsdeque.steal region.deques.((me + i) mod n) with
        | Some _ as task ->
          ignore (Atomic.fetch_and_add pool.steals_ctr 1);
          task
        | None -> try_steal (i + 1)
      end
    in
    try_steal 1

(* Idle back-off: spin briefly (work usually reappears within a few steal
   attempts), then sleep with exponentially growing, capped pauses so an
   idle worker neither burns a shared core nor adds fixed 200 us latency
   the moment the deques run momentarily dry. *)
let spin_limit = 64
let sleep_base = 2e-6
let sleep_cap = 2e-4

(* Work until [region] has drained. The slot is saved/restored so a task
   that opens a nested region returns to its outer slot. *)
let worker_loop region me =
  let saved = Domain.DLS.get slot_key in
  Domain.DLS.set slot_key me;
  let idle_spins = ref 0 in
  let rec loop () =
    if Atomic.get region.pending = 0 then ()
    else
      match find_work region me with
      | Some task ->
        idle_spins := 0;
        run_task region task;
        loop ()
      | None ->
        incr idle_spins;
        if !idle_spins > spin_limit then begin
          ignore (Atomic.fetch_and_add region.pool.idle_sleeps_ctr 1);
          let exp = min (!idle_spins - spin_limit) 7 in
          Unix.sleepf (Float.min sleep_cap (sleep_base *. float_of_int (1 lsl exp)))
        end
        else Domain.cpu_relax ();
        loop ()
  in
  loop ();
  Domain.DLS.set slot_key saved

let run_collect t root =
  let region =
    {
      deques = Array.init t.n (fun _ -> Wsdeque.create ());
      pending = Atomic.make 1;
      failures = Atomic.make [];
      pool = t;
    }
  in
  Wsdeque.push region.deques.(0) (fun () -> root (spawn_in region));
  let helpers =
    Array.init (t.n - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop region (i + 1)))
  in
  worker_loop region 0;
  Array.iter Domain.join helpers;
  List.rev (Atomic.get region.failures)

let raise_failures = function
  | [] -> ()
  | [ e ] -> raise e
  | es -> raise (Task_failures es)

let run t root = raise_failures (run_collect t root)

(* Sampled once: the machine's core count does not change mid-process,
   and [parallel_for] consults it on every call. *)
let hw_cores = Domain.recommended_domain_count ()

let parallel_for t ?chunk lo hi f =
  if hi > lo then begin
    let count = hi - lo in
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (count / (t.n * 8))
    in
    (* Per-index containment: an [f i] that raises must not take the rest
       of its chunk (or its worker's whole grab loop) down with it — every
       other index is still visited, and all failures are reported. *)
    let errs = Atomic.make [] in
    let rec push e =
      let cur = Atomic.get errs in
      if not (Atomic.compare_and_set errs cur (e :: cur)) then push e
    in
    if t.n = 1 || count <= chunk || hw_cores = 1 then begin
      (* Inline fast path: a single worker would execute every index
         anyway (one thread, one chunk, or one hardware core), so skip
         the region entirely — spawning and joining [t.n - 1] domains
         costs milliseconds per call on a loaded single-core box, which
         is exactly the finalize bottleneck. [parallel_for] promises no
         concurrency between bodies, so running them on the caller is
         observationally equal; the fault hook still fires once, like
         the single task a [threads:1] region would run. *)
      (match Fault.on_task () with
      | () ->
        for i = lo to hi - 1 do
          try f i with e -> push e
        done
      | exception e -> push e)
    end
    else begin
      let next = Atomic.make lo in
      let body () =
        let rec grab () =
          let start = Atomic.fetch_and_add next chunk in
          if start < hi then begin
            let stop = min hi (start + chunk) in
            for i = start to stop - 1 do
              try f i with e -> push e
            done;
            grab ()
          end
        in
        grab ()
      in
      run t (fun spawn ->
          for _ = 2 to t.n do
            spawn body
          done;
          body ())
    end;
    raise_failures (List.rev (Atomic.get errs))
  end

let parallel_for_reduce t ?chunk lo hi ~init ~map ~combine =
  (* one heap-allocated ref per worker: each accumulator lives in its own
     block, so workers never write adjacent words of a shared array (the
     false-sharing trap of packing partials into one flat array). Each
     body claims its accumulator from an atomic ticket. *)
  if hi <= lo then init
  else begin
    let count = hi - lo in
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (count / (t.n * 8))
    in
    let partials = Array.init t.n (fun _ -> ref init) in
    let ticket = Atomic.make 0 in
    let errs = Atomic.make [] in
    let rec push e =
      let cur = Atomic.get errs in
      if not (Atomic.compare_and_set errs cur (e :: cur)) then push e
    in
    let next = Atomic.make lo in
    let body () =
      let acc = partials.(Atomic.fetch_and_add ticket 1) in
      let rec grab () =
        let start = Atomic.fetch_and_add next chunk in
        if start < hi then begin
          let stop = min hi (start + chunk) in
          for i = start to stop - 1 do
            try acc := combine !acc (map i) with e -> push e
          done;
          grab ()
        end
      in
      grab ()
    in
    if t.n = 1 || count <= chunk || hw_cores = 1 then begin
      (match Fault.on_task () with
      | () -> body ()
      | exception e -> push e)
    end
    else
      run t (fun spawn ->
          for _ = 2 to t.n do
            spawn body
          done;
          body ());
    raise_failures (List.rev (Atomic.get errs));
    Array.fold_left (fun acc r -> combine acc !r) init partials
  end

let parallel_iter_list t xs f =
  let arr = Array.of_list xs in
  parallel_for t 0 (Array.length arr) (fun i -> f arr.(i))
