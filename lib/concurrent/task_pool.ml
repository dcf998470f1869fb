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
  helpers_in : int Atomic.t;
      (* hand-offs neither taken back nor finished: the opener returns only
         at 0, so no helper still touches the region or its pool *)
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

(* One back-off step after [polls] fruitless polls in a row. *)
let back_off polls =
  if polls <= spin_limit then Domain.cpu_relax ()
  else
    let exp = min (polls - spin_limit) 7 in
    Unix.sleepf (Float.min sleep_cap (sleep_base *. float_of_int (1 lsl exp)))

(* Work until [region] has drained. The slot is saved/restored so a task
   that opens a nested region returns to its outer slot. *)
let worker_loop region me =
  let saved = Domain.DLS.get slot_key in
  Domain.DLS.set slot_key me;
  let rec loop polls =
    if Atomic.get region.pending > 0 then
      match find_work region me with
      | Some task ->
        run_task region task;
        loop 0
      | None ->
        let polls = polls + 1 in
        if polls > spin_limit then
          ignore (Atomic.fetch_and_add region.pool.idle_sleeps_ctr 1);
        back_off polls;
        loop polls
  in
  loop 0;
  Domain.DLS.set slot_key saved

(* The crew: helper domains shared by every pool in the process and kept
   alive between regions. A helper is an atomic job cell. An opener moves it from [Idle] to
   [Assigned]; the helper claims the assignment by moving it to [Busy].
   Each [Assigned] value is allocated for one hand-off, so a take-back
   (a CAS from that value back to [Idle]) succeeds only while this very
   assignment is unclaimed, never on a later region's hand-off to the same
   helper. An idle helper retires after about [linger_sleeps] capped
   back-off sleeps (20 ms), so an idle process runs no extra domain: every
   live domain must join each stop-the-world minor collection. *)
type job = Idle | Assigned of region * int | Busy | Retired

let crew : job Atomic.t list Atomic.t = Atomic.make []
let linger_sleeps = 100

let rec update_crew f =
  let cur = Atomic.get crew in
  if not (Atomic.compare_and_set crew cur (f cur)) then update_crew f

let rec helper_loop h polls =
  match Atomic.get h with
  | Assigned (region, slot) as a ->
    if Atomic.compare_and_set h a Busy then begin
      worker_loop region slot;
      (* idle again before the opener can return, so its next region
         finds this helper *)
      Atomic.set h Idle;
      Atomic.decr region.helpers_in;
      helper_loop h 0
    end
    else helper_loop h polls
  | Idle when polls > spin_limit + linger_sleeps ->
    if Atomic.compare_and_set h Idle Retired then
      update_crew (List.filter (fun h' -> h' != h))
    else helper_loop h polls
  | Idle ->
    back_off (polls + 1);
    helper_loop h (polls + 1)
  | Busy | Retired -> assert false (* only the helper itself sets these *)

(* Hand [region]'s slots [1 .. n - 1] to idle crew helpers, and spawn a
   helper (which then joins the crew) for each slot none of them took.
   Returns the hand-offs for the take-back. *)
let hand_out region n =
  let rec from_crew slot handed = function
    | h :: rest when slot < n ->
      let a = Assigned (region, slot) in
      if Atomic.compare_and_set h Idle a then
        from_crew (slot + 1) ((h, a) :: handed) rest
      else from_crew slot handed rest
    | _ -> (slot, handed)
  in
  let first_unfilled, handed = from_crew 1 [] (Atomic.get crew) in
  let handed = ref handed in
  for slot = first_unfilled to n - 1 do
    let a = Assigned (region, slot) in
    let h = Atomic.make a in
    ignore
      (Domain.spawn (fun () ->
           update_crew (List.cons h);
           helper_loop h 0)
        : unit Domain.t);
    handed := (h, a) :: !handed
  done;
  !handed

let run_collect t root =
  let region =
    {
      deques = Array.init t.n (fun _ -> Wsdeque.create ());
      pending = Atomic.make 1;
      failures = Atomic.make [];
      pool = t;
      helpers_in = Atomic.make (t.n - 1);
    }
  in
  Wsdeque.push region.deques.(0) (fun () -> root (spawn_in region));
  let handed = hand_out region t.n in
  worker_loop region 0;
  (* The region has drained. A helper that has not claimed its hand-off
     yet is taken back; one that has is waited for, as [Domain.join]
     would. *)
  List.iter
    (fun (h, a) ->
      if Atomic.compare_and_set h a Idle then Atomic.decr region.helpers_in)
    handed;
  let rec await polls =
    if Atomic.get region.helpers_in > 0 then begin
      back_off (polls + 1);
      await (polls + 1)
    end
  in
  await 0;
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
         the region and its hand-off to the crew. [parallel_for] promises
         no concurrency between bodies, so running them on the caller is
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
