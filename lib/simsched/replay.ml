module Trace = Pbca_obs.Trace

type result = {
  makespan : int;
  total_work : int;
  critical_path : int;
  busy : float;
}

(* Tasks arrive with sparse ids (span ordinals, shared by every domain
   and by phase spans) and in no particular order; normalize to dense
   indices sorted by id so replay is deterministic. *)
let normalize (tasks : Trace.task list) =
  let arr = Array.of_list tasks in
  Array.sort (fun (a : Trace.task) b -> compare a.id b.id) arr;
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i (t : Trace.task) -> Hashtbl.replace index t.id i) arr;
  (arr, index)

let run_schedule ~threads (arr : Trace.task array) index =
  let n = Array.length arr in
  if n = 0 then (0, 0)
  else begin
    let start_time = Array.make n (-1) in
    let n_deps = Array.make n 0 in
    let dependents = Array.make n [] in
    (* dependency edges, dropping references to unknown tasks *)
    Array.iteri
      (fun i (t : Trace.task) ->
        List.iter
          (fun (d : Trace.dep) ->
            match Hashtbl.find_opt index d.dep_task with
            | Some j when j <> i ->
              n_deps.(i) <- n_deps.(i) + 1;
              dependents.(j) <- (i, d.dep_offset) :: dependents.(j)
            | _ -> ())
          t.deps)
      arr;
    (* avail.(i): earliest time all deps have made enough progress *)
    let avail = Array.make n 0 in
    let ready = Heap.create () in
    Array.iteri
      (fun i (t : Trace.task) ->
        ignore t;
        if n_deps.(i) = 0 then Heap.push ready ~key:avail.(i) ~payload:i)
      arr;
    let workers = Heap.create () in
    for w = 0 to threads - 1 do
      Heap.push workers ~key:0 ~payload:w
    done;
    let finish_time = ref 0 in
    let busy_units = ref 0 in
    let scheduled = ref 0 in
    while not (Heap.is_empty ready) do
      let r, i = Option.get (Heap.pop ready) in
      let free, w = Option.get (Heap.pop workers) in
      let s = max r free in
      start_time.(i) <- s;
      let e = s + arr.(i).cost in
      busy_units := !busy_units + arr.(i).cost;
      incr scheduled;
      finish_time := max !finish_time e;
      Heap.push workers ~key:e ~payload:w;
      (* release dependents *)
      List.iter
        (fun (j, off) ->
          let satisfied = s + min off arr.(i).cost in
          avail.(j) <- max avail.(j) satisfied;
          n_deps.(j) <- n_deps.(j) - 1;
          if n_deps.(j) = 0 then Heap.push ready ~key:avail.(j) ~payload:j)
        dependents.(i)
    done;
    (* dependency cycles (should not happen) leave tasks unscheduled; account
       for their work serially so the result is still conservative *)
    if !scheduled < n then
      Array.iteri
        (fun i (t : Trace.task) ->
          if start_time.(i) < 0 then finish_time := !finish_time + t.cost)
        arr;
    (!finish_time, !busy_units)
  end

(* Barriers split the trace into epochs simulated back to back: a task in a
   later epoch cannot start before every earlier epoch has drained.
   Cross-epoch dependencies are therefore satisfied by construction and
   dropped by [normalize] per epoch. *)
let simulate ?(bus = 0.04) ~threads tasks =
  let by_epoch : (int, Trace.task list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (t : Trace.task) ->
      match Hashtbl.find_opt by_epoch t.epoch with
      | Some l -> l := t :: !l
      | None -> Hashtbl.replace by_epoch t.epoch (ref [ t ]))
    tasks;
  let epochs =
    Hashtbl.fold (fun e l acc -> (e, !l) :: acc) by_epoch []
    |> List.sort compare
  in
  let makespan = ref 0 and critical_path = ref 0 and total_work = ref 0 in
  List.iter
    (fun (_, ts) ->
      let arr, index = normalize ts in
      total_work :=
        !total_work
        + Array.fold_left (fun acc (t : Trace.task) -> acc + t.cost) 0 arr;
      let work =
        Array.fold_left (fun acc (t : Trace.task) -> acc + t.cost) 0 arr
      in
      let m, _ = run_schedule ~threads arr index in
      let c, _ = run_schedule ~threads:(max 1 (Array.length arr)) arr index in
      (* shared-memory ceiling: with >1 thread the bus serializes a
         fraction of every unit of work *)
      let floor_units =
        if threads > 1 then int_of_float (bus *. float_of_int work) else 0
      in
      makespan := !makespan + max m floor_units;
      critical_path := !critical_path + max c floor_units)
    epochs;
  let busy =
    if !makespan = 0 || threads = 0 then 1.0
    else
      float_of_int !total_work
      /. (float_of_int !makespan *. float_of_int threads)
  in
  {
    makespan = !makespan;
    total_work = !total_work;
    critical_path = !critical_path;
    busy;
  }

let speedup ?bus ~threads t =
  let r = simulate ?bus ~threads (Trace.tasks t) in
  if r.makespan = 0 then 1.0
  else float_of_int r.total_work /. float_of_int r.makespan
