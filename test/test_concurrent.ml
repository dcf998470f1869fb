(* Tests for the concurrency substrate: the OCaml equivalents of the TBB
   concurrent hash map and the OpenMP task runtime the paper builds on. *)

open Tutil
module TP = Pbca_concurrent.Task_pool
module Bag = Pbca_concurrent.Conc_bag
module Barrier = Pbca_concurrent.Barrier
module Ch = Pbca_concurrent.Channel
module Wsdeque = Pbca_concurrent.Wsdeque
module TL = Pbca_concurrent.Thread_local

module IMap = Pbca_concurrent.Conc_hash.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module LMap = Pbca_concurrent.Lockfree_map.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* the mutex-sharded map with Addr_map's key hash: the baseline the
   lock-free address maps replaced *)
module MutexMap = Pbca_concurrent.Conc_hash.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = (a * 0x9E3779B1) lxor (a lsr 16)
end)

module ISet = Pbca_concurrent.Atomic_intset
module Contention = Pbca_concurrent.Contention

let in_domains n f =
  let ds = List.init n (fun i -> Domain.spawn (fun () -> f i)) in
  List.map Domain.join ds

(* ------------------------------ conc_hash ----------------------------- *)

let test_map_basic () =
  let m = IMap.create () in
  Alcotest.(check bool) "insert new" true (IMap.insert_if_absent m 1 "a");
  Alcotest.(check bool) "insert dup" false (IMap.insert_if_absent m 1 "b");
  Alcotest.(check (option string)) "find" (Some "a") (IMap.find m 1);
  Alcotest.(check int) "length" 1 (IMap.length m);
  ignore (IMap.remove m 1);
  Alcotest.(check (option string)) "removed" None (IMap.find m 1)

let test_map_find_or_insert () =
  let m = IMap.create () in
  let v1, c1 = IMap.find_or_insert m 7 (fun () -> "x") in
  let v2, c2 = IMap.find_or_insert m 7 (fun () -> "y") in
  Alcotest.(check string) "first" "x" v1;
  Alcotest.(check bool) "created" true c1;
  Alcotest.(check string) "second sees first" "x" v2;
  Alcotest.(check bool) "not created" false c2

let test_map_update_atomic () =
  let m = IMap.create () in
  ignore (IMap.insert_if_absent m 0 0);
  ignore
    (in_domains 4 (fun _ ->
         for _ = 1 to 2500 do
           IMap.update m 0 (fun cur ->
               (Some (Option.value cur ~default:0 + 1), ()))
         done));
  Alcotest.(check (option int)) "10000 increments" (Some 10000) (IMap.find m 0)

let test_map_unique_winner () =
  (* Invariant 1: when many threads create the same key, exactly one wins *)
  let m = IMap.create () in
  let results =
    in_domains 4 (fun d ->
        List.init 500 (fun i -> IMap.insert_if_absent m i d))
  in
  for i = 0 to 499 do
    let winners =
      List.fold_left
        (fun acc per_domain -> acc + if List.nth per_domain i then 1 else 0)
        0 results
    in
    if winners <> 1 then Alcotest.failf "key %d has %d winners" i winners
  done

let test_map_fold () =
  let m = IMap.create () in
  for i = 1 to 100 do
    ignore (IMap.insert_if_absent m i i)
  done;
  let sum = IMap.fold (fun _ v acc -> acc + v) m 0 in
  Alcotest.(check int) "fold sums values" 5050 sum

let test_map_model =
  qcheck ~count:200 "conc_hash behaves like Hashtbl (sequential)"
    QCheck2.Gen.(list (pair (int_bound 50) (int_bound 1000)))
    (fun ops ->
      let m = IMap.create ~shards:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if v mod 3 = 0 then begin
            ignore (IMap.remove m k);
            Hashtbl.remove h k
          end
          else begin
            ignore (IMap.insert_if_absent m k v);
            if not (Hashtbl.mem h k) then Hashtbl.add h k v
          end)
        ops;
      List.for_all
        (fun (k, _) -> IMap.find m k = Hashtbl.find_opt h k)
        ops
      && IMap.length m = Hashtbl.length h)

(* ----------------------------- lockfree_map --------------------------- *)

let test_lmap_basic () =
  let m = LMap.create () in
  Alcotest.(check bool) "insert new" true (LMap.insert_if_absent m 1 "a");
  Alcotest.(check bool) "insert dup" false (LMap.insert_if_absent m 1 "b");
  Alcotest.(check (option string)) "find" (Some "a") (LMap.find m 1);
  Alcotest.(check bool) "mem" true (LMap.mem m 1);
  Alcotest.(check int) "length" 1 (LMap.length m);
  Alcotest.(check (option string)) "remove" (Some "a") (LMap.remove m 1);
  Alcotest.(check (option string)) "removed" None (LMap.find m 1);
  Alcotest.(check int) "length after remove" 0 (LMap.length m)

let test_lmap_resize_preserves () =
  (* start tiny so growth happens many times; nothing may be lost *)
  let m = LMap.create ~shards:2 () in
  for i = 0 to 9999 do
    ignore (LMap.insert_if_absent m i (i * 3))
  done;
  Alcotest.(check int) "length" 10000 (LMap.length m);
  for i = 0 to 9999 do
    if LMap.find m i <> Some (i * 3) then Alcotest.failf "lost key %d" i
  done;
  Alcotest.(check bool) "resized at least once" true
    (Atomic.get (LMap.counters m).Contention.resizes >= 1)

let test_lmap_unique_winner () =
  (* Invariant 1 on the lock-free map: concurrent creators of the same key,
     exactly one winner, losers observe the winner's value *)
  let m = LMap.create ~shards:2 () in
  let results =
    in_domains 4 (fun d ->
        List.init 500 (fun i -> (LMap.insert_if_absent m i d, LMap.find m i)))
  in
  for i = 0 to 499 do
    let winners =
      List.fold_left
        (fun acc per_domain ->
          acc + if fst (List.nth per_domain i) then 1 else 0)
        0 results
    in
    if winners <> 1 then Alcotest.failf "key %d has %d winners" i winners;
    let v = Option.get (LMap.find m i) in
    List.iter
      (fun per_domain ->
        match snd (List.nth per_domain i) with
        | Some seen when seen <> v ->
          Alcotest.failf "key %d: a loser saw %d, winner wrote %d" i seen v
        | _ -> ())
      results
  done

let test_lmap_update_atomic () =
  let m = LMap.create () in
  ignore (LMap.insert_if_absent m 0 0);
  ignore
    (in_domains 4 (fun _ ->
         for _ = 1 to 2500 do
           LMap.update m 0 (fun cur ->
               (Some (Option.value cur ~default:0 + 1), ()))
         done));
  Alcotest.(check (option int)) "10000 increments" (Some 10000) (LMap.find m 0)

let test_lmap_concurrent_vs_model =
  (* linearizability smoke: N domains race disjoint-and-overlapping
     insert/find/mem traffic (insert-only: grow-only maps need no remove
     linearization); afterwards the map must agree with a sequential model
     that applies every key once *)
  qcheck ~count:30 "lockfree_map: concurrent inserts match model"
    QCheck2.Gen.(list_size (return 400) (int_bound 127))
    (fun keys ->
      let m = LMap.create ~shards:2 () in
      let arr = Array.of_list keys in
      ignore
        (in_domains 4 (fun d ->
             Array.iteri
               (fun i k ->
                 (* every domain tries every key; values differ per domain *)
                 ignore (LMap.insert_if_absent m k ((d * 1000) + i));
                 ignore (LMap.mem m k);
                 ignore (LMap.find m k))
               arr));
      let model = Hashtbl.create 16 in
      List.iter (fun k -> Hashtbl.replace model k ()) keys;
      LMap.length m = Hashtbl.length model
      && List.for_all (fun k -> LMap.mem m k) keys
      && LMap.fold (fun k _ acc -> acc && Hashtbl.mem model k) m true)

let test_lmap_model =
  qcheck ~count:200 "lockfree_map behaves like Hashtbl (sequential)"
    QCheck2.Gen.(list (pair (int_bound 50) (int_bound 1000)))
    (fun ops ->
      let m = LMap.create ~shards:4 () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if v mod 3 = 0 then begin
            ignore (LMap.remove m k);
            Hashtbl.remove h k
          end
          else begin
            ignore (LMap.insert_if_absent m k v);
            if not (Hashtbl.mem h k) then Hashtbl.add h k v
          end)
        ops;
      List.for_all (fun (k, _) -> LMap.find m k = Hashtbl.find_opt h k) ops
      && LMap.length m = Hashtbl.length h)

(* Read-heavy traffic, the shape of the parser's address maps: lock-free
   reads must beat the mutex-sharded map they replaced. *)
let test_lockfree_reads_beat_mutex () =
  let keys = 512 and rounds = 50 in
  let mutex = MutexMap.create ~shards:64 () in
  let lockfree = Pbca_core.Addr_map.create ~shards:64 () in
  for i = 0 to keys - 1 do
    ignore (MutexMap.insert_if_absent mutex (i * 16) i);
    ignore (Pbca_core.Addr_map.insert_if_absent lockfree (i * 16) i)
  done;
  let time_reads find () =
    let t0 = Pbca_obs.Clock.now () in
    for _ = 1 to rounds do
      for i = 0 to keys - 1 do
        ignore (find (i * 16) : int option)
      done
    done;
    Pbca_obs.Clock.elapsed t0
  in
  let speedup =
    median_paired_ratio ~pairs:5
      (time_reads (MutexMap.find mutex))
      (time_reads (Pbca_core.Addr_map.find lockfree))
  in
  if speedup <= 1.0 then
    Alcotest.failf "lock-free reads at %.2fx the mutex-sharded map's speed"
      speedup

(* ----------------------------- atomic_intset --------------------------- *)

let test_iset_basic () =
  let s = ISet.create () in
  Alcotest.(check bool) "add new" true (ISet.add s 42);
  Alcotest.(check bool) "add dup" false (ISet.add s 42);
  Alcotest.(check bool) "mem" true (ISet.mem s 42);
  Alcotest.(check bool) "not mem" false (ISet.mem s 43);
  Alcotest.(check int) "cardinal" 1 (ISet.cardinal s);
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Atomic_intset.add: negative key") (fun () ->
      ignore (ISet.add s (-1)))

let test_iset_resize_preserves () =
  let s = ISet.create ~capacity:4 () in
  for i = 0 to 9999 do
    ignore (ISet.add s (i * 7))
  done;
  Alcotest.(check int) "cardinal" 10000 (ISet.cardinal s);
  for i = 0 to 9999 do
    if not (ISet.mem s (i * 7)) then Alcotest.failf "lost %d" (i * 7)
  done;
  Alcotest.(check bool) "non-members stay out" false (ISet.mem s 3)

let test_iset_unique_winner () =
  (* the traversal's "first visitor wins" primitive: exactly one of any
     number of concurrent adds of a key returns true *)
  let s = ISet.create ~capacity:4 () in
  let results =
    in_domains 4 (fun _ -> List.init 500 (fun i -> ISet.add s i))
  in
  for i = 0 to 499 do
    let winners =
      List.fold_left
        (fun acc per_domain -> acc + if List.nth per_domain i then 1 else 0)
        0 results
    in
    if winners <> 1 then Alcotest.failf "key %d has %d winners" i winners
  done;
  Alcotest.(check int) "cardinal" 500 (ISet.cardinal s)

let test_iset_concurrent_vs_model =
  (* linearizability smoke vs a sequential set model, with resizes in
     flight: domains hammer random keys while the table doubles *)
  qcheck ~count:30 "atomic_intset: concurrent adds match model"
    QCheck2.Gen.(list_size (return 300) (int_bound 100_000))
    (fun keys ->
      let s = ISet.create ~capacity:4 () in
      let arr = Array.of_list keys in
      ignore
        (in_domains 4 (fun _ ->
             Array.iter
               (fun k ->
                 ignore (ISet.add s k);
                 ignore (ISet.mem s k))
               arr));
      let module S = Set.Make (Int) in
      let model = S.of_list keys in
      ISet.cardinal s = S.cardinal model
      && S.for_all (fun k -> ISet.mem s k) model
      && List.for_all (fun k -> S.mem k model) (ISet.to_list s))

(* ------------------------------ wsdeque ------------------------------- *)

let test_deque_lifo_fifo () =
  let d = Wsdeque.create () in
  Wsdeque.push d 1;
  Wsdeque.push d 2;
  Wsdeque.push d 3;
  Alcotest.(check (option int)) "owner pops newest" (Some 3) (Wsdeque.pop d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (Wsdeque.steal d);
  Alcotest.(check (option int)) "remaining" (Some 2) (Wsdeque.pop d);
  Alcotest.(check (option int)) "empty pop" None (Wsdeque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Wsdeque.steal d)

let test_deque_no_loss () =
  let d = Wsdeque.create () in
  for i = 0 to 9999 do
    Wsdeque.push d i
  done;
  let seen = Array.make 10000 false in
  let lost = Atomic.make 0 in
  ignore
    (in_domains 4 (fun k ->
         let rec go () =
           let item = if k mod 2 = 0 then Wsdeque.pop d else Wsdeque.steal d in
           match item with
           | Some i ->
             if seen.(i) then Atomic.incr lost;
             seen.(i) <- true;
             go ()
           | None -> ()
         in
         go ()));
  Alcotest.(check int) "no duplicates" 0 (Atomic.get lost);
  Alcotest.(check bool) "all drained" true (Array.for_all (fun x -> x) seen)

(* ------------------------------ task_pool ----------------------------- *)

let test_pool_runs_all () =
  let pool = TP.create ~threads:4 in
  let count = Atomic.make 0 in
  TP.run pool (fun spawn ->
      for _ = 1 to 100 do
        spawn (fun () -> Atomic.incr count)
      done);
  Alcotest.(check int) "all tasks ran" 100 (Atomic.get count)

let test_pool_nested_spawn () =
  let pool = TP.create ~threads:3 in
  let count = Atomic.make 0 in
  TP.run pool (fun spawn ->
      let rec tree depth =
        Atomic.incr count;
        if depth > 0 then
          for _ = 1 to 2 do
            spawn (fun () -> tree (depth - 1))
          done
      in
      tree 6);
  (* 2^7 - 1 nodes *)
  Alcotest.(check int) "binary task tree" 127 (Atomic.get count)

let test_pool_serial_inline () =
  let pool = TP.create ~threads:1 in
  let order = ref [] in
  TP.run pool (fun spawn ->
      spawn (fun () -> order := 1 :: !order);
      spawn (fun () -> order := 2 :: !order));
  Alcotest.(check int) "both ran" 2 (List.length !order)

let test_pool_exception () =
  let pool = TP.create ~threads:2 in
  let raised =
    try
      TP.run pool (fun spawn -> spawn (fun () -> failwith "boom"));
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "exception propagated" true raised;
  (* pool remains usable *)
  let ok = Atomic.make 0 in
  TP.run pool (fun spawn -> spawn (fun () -> Atomic.incr ok));
  Alcotest.(check int) "pool reusable after failure" 1 (Atomic.get ok)

(* A crashing task must not wedge the region: every sibling still runs and
   the region drains. *)
let test_pool_failure_drains () =
  let pool = TP.create ~threads:4 in
  let ran = Atomic.make 0 in
  let raised =
    try
      TP.run pool (fun spawn ->
          for i = 0 to 99 do
            spawn (fun () ->
                if i = 50 then failwith "boom" else Atomic.incr ran)
          done);
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "failure reported" true raised;
  Alcotest.(check int) "all siblings ran" 99 (Atomic.get ran)

let test_pool_multiple_failures () =
  let pool = TP.create ~threads:4 in
  let msgs =
    try
      TP.run pool (fun spawn ->
          for i = 0 to 9 do
            spawn (fun () -> failwith (string_of_int i))
          done);
      []
    with
    | TP.Task_failures es ->
      List.filter_map (function Failure m -> Some m | _ -> None) es
    | Failure m -> [ m ]
  in
  (* at least one failure must surface; with >1 collected, all are kept *)
  Alcotest.(check bool) "failures reported" true (msgs <> []);
  Alcotest.(check bool) "no duplicates" true
    (List.length (List.sort_uniq compare msgs) = List.length msgs)

let test_pool_run_collect () =
  let pool = TP.create ~threads:4 in
  let ran = Atomic.make 0 in
  let errs =
    TP.run_collect pool (fun spawn ->
        for i = 0 to 19 do
          spawn (fun () ->
              if i mod 5 = 0 then failwith "x" else Atomic.incr ran)
        done)
  in
  Alcotest.(check int) "all failures collected" 4 (List.length errs);
  Alcotest.(check int) "all other tasks ran" 16 (Atomic.get ran);
  (* collect mode does not raise, and the pool stays usable *)
  Alcotest.(check (list string)) "second region clean" []
    (List.map Printexc.to_string (TP.run_collect pool (fun _ -> ())))

let test_pool_nested_run () =
  (* a task may open and drain a nested region: every nested task runs,
     and the worker's slot is restored when the nested run returns *)
  let pool = TP.create ~threads:2 in
  let inner = Atomic.make 0 in
  let slots_ok = Atomic.make true in
  TP.run pool (fun spawn ->
      for _ = 1 to 4 do
        spawn (fun () ->
            let me = TP.worker_index () in
            TP.run pool (fun spawn' ->
                for _ = 1 to 8 do
                  spawn' (fun () -> Atomic.incr inner)
                done);
            if TP.worker_index () <> me then Atomic.set slots_ok false)
      done);
  Alcotest.(check int) "every nested task ran" 32 (Atomic.get inner);
  Alcotest.(check bool) "slot restored" true (Atomic.get slots_ok)

let test_pool_nested_fault () =
  (* a failure in a nested region surfaces from the nested run_collect
     only: the enclosing region and its other tasks complete untouched *)
  let pool = TP.create ~threads:2 in
  let nested = Atomic.make [] in
  let outer_done = Atomic.make 0 in
  let outer_errs =
    TP.run_collect pool (fun spawn ->
        spawn (fun () ->
            Atomic.set nested
              (TP.run_collect pool (fun spawn' ->
                   spawn' (fun () -> failwith "inner");
                   spawn' (fun () -> ()))));
        for _ = 1 to 8 do
          spawn (fun () -> Atomic.incr outer_done)
        done)
  in
  Alcotest.(check (list string)) "nested failure captured" [ "inner" ]
    (List.filter_map
       (function Failure m -> Some m | _ -> None)
       (Atomic.get nested));
  Alcotest.(check (list string)) "enclosing region clean" []
    (List.map Printexc.to_string outer_errs);
  Alcotest.(check int) "enclosing tasks unaffected" 8 (Atomic.get outer_done)

let test_parallel_for_fault_containment () =
  let pool = TP.create ~threads:4 in
  let hits = Array.make 200 0 in
  let raised =
    try
      TP.parallel_for pool 0 200 (fun i ->
          if i = 77 then failwith "mid-range" else hits.(i) <- hits.(i) + 1);
      false
    with Failure m -> m = "mid-range"
  in
  Alcotest.(check bool) "fault propagated" true raised;
  let others_ok = ref true in
  Array.iteri (fun i h -> if i <> 77 && h <> 1 then others_ok := false) hits;
  Alcotest.(check bool) "every other index visited once" true !others_ok;
  Alcotest.(check int) "faulting index not completed" 0 hits.(77)

let test_fault_injection () =
  let module Fault = Pbca_concurrent.Fault in
  let pool = TP.create ~threads:4 in
  Fun.protect ~finally:Fault.disarm (fun () ->
      Fault.arm_at [ 3; 7 ] Fault.Raise;
      let ran = Atomic.make 0 in
      let errs =
        TP.run_collect pool (fun spawn ->
            for _ = 0 to 19 do
              spawn (fun () -> Atomic.incr ran)
            done)
      in
      Alcotest.(check int) "two faults injected" 2 (List.length errs);
      Alcotest.(check bool) "faults are Injected" true
        (List.for_all (function Fault.Injected _ -> true | _ -> false) errs);
      Alcotest.(check int) "injection counter" 2 (Fault.injected_count ());
      Alcotest.(check int) "non-faulted tasks all ran" 18 (Atomic.get ran);
      Fault.disarm ();
      (* pool usable and clean after disarm *)
      Alcotest.(check (list string)) "clean after disarm" []
        (List.map Printexc.to_string
           (TP.run_collect pool (fun spawn -> spawn (fun () -> ())))))

let test_parallel_for_coverage () =
  let pool = TP.create ~threads:4 in
  let hits = Array.make 1000 0 in
  TP.parallel_for pool 0 1000 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_parallel_for_empty () =
  let pool = TP.create ~threads:2 in
  TP.parallel_for pool 5 5 (fun _ -> Alcotest.fail "must not run");
  TP.parallel_for pool 5 3 (fun _ -> Alcotest.fail "must not run")

let test_parallel_for_reduce () =
  let pool = TP.create ~threads:4 in
  let sum =
    TP.parallel_for_reduce pool 1 1001 ~init:0 ~map:(fun i -> i)
      ~combine:( + )
  in
  Alcotest.(check int) "sum 1..1000" 500500 sum

let test_parallel_iter_list () =
  let pool = TP.create ~threads:3 in
  let acc = Bag.create () in
  TP.parallel_iter_list pool [ "a"; "b"; "c"; "d" ] (fun s -> Bag.add acc s);
  Alcotest.(check int) "all visited" 4 (Bag.length acc)

(* ------------------------------- channel ------------------------------ *)

let test_channel_fifo_sequential () =
  let ch = Ch.create ~capacity:4 () in
  for i = 1 to 4 do
    Ch.send ch i
  done;
  Alcotest.(check bool) "full" false (Ch.try_send ch 5);
  Alcotest.(check int) "length" 4 (Ch.length ch);
  for i = 1 to 4 do
    Alcotest.(check (option int)) "fifo" (Some i) (Ch.recv ch)
  done;
  Alcotest.(check int) "empty" 0 (Ch.length ch);
  Ch.close ch;
  Alcotest.(check (option int)) "closed" None (Ch.recv ch);
  Alcotest.(check bool) "send after close raises" true
    (try
       Ch.send ch 9;
       false
     with Ch.Closed -> true)

let test_channel_bounded_blocking () =
  (* a producer pushing N items through a capacity-2 channel must block
     until the consumer drains: no depth the producer samples exceeds the
     bound, and the FIFO order proves delivery *)
  let n = 200 in
  let ch = Ch.create ~capacity:2 () in
  let producer =
    Domain.spawn (fun () ->
        let deepest = ref 0 in
        for i = 0 to n - 1 do
          Ch.send ch i;
          deepest := max !deepest (Ch.length ch)
        done;
        Ch.close ch;
        !deepest)
  in
  let got = ref [] in
  let rec drain () =
    match Ch.recv ch with
    | Some v ->
      got := v :: !got;
      drain ()
    | None -> ()
  in
  drain ();
  let deepest = Domain.join producer in
  Alcotest.(check (list int)) "all items in order"
    (List.init n (fun i -> i))
    (List.rev !got);
  Alcotest.(check bool) "bound respected" true (deepest <= 2);
  (* at the bound, a non-blocking send is refused *)
  let full = Ch.create ~capacity:2 () in
  Ch.send full 0;
  Ch.send full 1;
  Alcotest.(check bool) "try_send refused when full" false (Ch.try_send full 2);
  Alcotest.(check int) "nothing enqueued past the bound" 2 (Ch.length full)

let test_channel_mpmc () =
  (* 2 producers x 2 consumers; every item delivered exactly once, and
     each consumer's view of any single producer is in sending order
     (FIFO queue + exactly-once pops) *)
  let per_producer = 500 in
  let ch = Ch.create ~capacity:8 () in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              Ch.send ch (p, i)
            done))
  in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Ch.recv ch with
              | Some v -> loop (v :: acc)
              | None -> List.rev acc
            in
            loop []))
  in
  List.iter Domain.join producers;
  Ch.close ch;
  let views = List.map Domain.join consumers in
  let all = List.concat views in
  Alcotest.(check int) "exactly once (count)" (2 * per_producer)
    (List.length all);
  let expect =
    List.concat_map
      (fun p -> List.init per_producer (fun i -> (p, i)))
      [ 0; 1 ]
  in
  Alcotest.(check bool) "exactly once (multiset)" true
    (List.sort compare all = expect);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  List.iter
    (fun view ->
      List.iter
        (fun p ->
          let seqs =
            List.filter_map (fun (p', i) -> if p' = p then Some i else None) view
          in
          Alcotest.(check bool) "per-producer order" true (increasing seqs))
        [ 0; 1 ])
    views

let test_channel_close_while_blocked () =
  (* consumer blocked on empty: close must wake it with None *)
  let ch = Ch.create ~capacity:2 () in
  let consumer = Domain.spawn (fun () -> Ch.recv ch) in
  Unix.sleepf 0.02;
  Ch.close ch;
  Alcotest.(check (option int)) "woken with None" None (Domain.join consumer);
  (* producer blocked on full: close must wake it with Closed *)
  let ch2 = Ch.create ~capacity:1 () in
  Ch.send ch2 1;
  let producer =
    Domain.spawn (fun () ->
        try
          Ch.send ch2 2;
          false
        with Ch.Closed -> true)
  in
  Unix.sleepf 0.02;
  Ch.close ch2;
  Alcotest.(check bool) "woken with Closed" true (Domain.join producer);
  (* the blocked value was not delivered; the pre-close one drains *)
  Alcotest.(check (option int)) "drains pre-close item" (Some 1)
    (Ch.recv ch2);
  Alcotest.(check (option int)) "then closed" None (Ch.recv ch2)

(* ------------------------------ others -------------------------------- *)

let test_bag () =
  let b = Bag.create () in
  Alcotest.(check bool) "fresh empty" true (Bag.is_empty b);
  ignore (in_domains 4 (fun d -> List.iter (Bag.add b) (List.init 100 (fun i -> (d * 100) + i))));
  Alcotest.(check int) "all added" 400 (Bag.length b);
  let drained = Bag.drain b in
  Alcotest.(check int) "drain returns all" 400 (List.length drained);
  Alcotest.(check bool) "empty after drain" true (Bag.is_empty b);
  Alcotest.(check int) "distinct elements survive"
    400
    (List.length (List.sort_uniq compare drained))

let test_thread_local () =
  let tl = TL.create (fun () -> ref 0) in
  ignore
    (in_domains 3 (fun _ ->
         let r = TL.get tl in
         for _ = 1 to 100 do
           incr r
         done;
         !r));
  let total = TL.fold tl ~init:0 ~f:(fun acc r -> acc + !r) in
  Alcotest.(check int) "per-domain instances summed" 300 total

let test_barrier_cyclic () =
  let b = Barrier.create 4 in
  let phase = Atomic.make 0 in
  let bad = Atomic.make 0 in
  ignore
    (in_domains 4 (fun _ ->
         for p = 1 to 5 do
           Barrier.await b;
           if Atomic.get phase > p then Atomic.incr bad;
           Barrier.await b;
           ignore (Atomic.compare_and_set phase (p - 1) p)
         done));
  Alcotest.(check int) "phases in lock-step" 0 (Atomic.get bad)

let suite =
  [
    quick "conc_hash: basic ops" test_map_basic;
    quick "conc_hash: find_or_insert" test_map_find_or_insert;
    quick "conc_hash: update is atomic" test_map_update_atomic;
    quick "conc_hash: unique creation winner (Invariant 1)" test_map_unique_winner;
    quick "conc_hash: fold" test_map_fold;
    test_map_model;
    quick "lockfree_map: basic ops" test_lmap_basic;
    quick "lockfree_map: resize loses nothing" test_lmap_resize_preserves;
    quick "lockfree_map: unique creation winner (Invariant 1)"
      test_lmap_unique_winner;
    quick "lockfree_map: update is atomic" test_lmap_update_atomic;
    test_lmap_concurrent_vs_model;
    test_lmap_model;
    quick "atomic_intset: basic ops" test_iset_basic;
    quick "atomic_intset: resize loses nothing" test_iset_resize_preserves;
    quick "atomic_intset: unique add winner" test_iset_unique_winner;
    test_iset_concurrent_vs_model;
    quick "wsdeque: lifo owner, fifo thief" test_deque_lifo_fifo;
    quick "wsdeque: concurrent drain, no loss" test_deque_no_loss;
    quick "task_pool: runs all tasks" test_pool_runs_all;
    quick "task_pool: nested spawns" test_pool_nested_spawn;
    quick "task_pool: single thread inline" test_pool_serial_inline;
    quick "task_pool: exception propagation" test_pool_exception;
    quick "task_pool: failing task drains region" test_pool_failure_drains;
    quick "task_pool: multiple failures all reported"
      test_pool_multiple_failures;
    quick "task_pool: run_collect contains failures" test_pool_run_collect;
    quick "task_pool: nested run drains" test_pool_nested_run;
    quick "task_pool: nested fault contained" test_pool_nested_fault;
    quick "parallel_for: fault mid-range contained"
      test_parallel_for_fault_containment;
    quick "fault injection: deterministic ordinals" test_fault_injection;
    quick "parallel_for: exact coverage" test_parallel_for_coverage;
    quick "parallel_for: empty ranges" test_parallel_for_empty;
    quick "parallel_for_reduce: sum" test_parallel_for_reduce;
    quick "parallel_iter_list" test_parallel_iter_list;
    quick "channel: fifo sequential" test_channel_fifo_sequential;
    quick "channel: bounded blocking" test_channel_bounded_blocking;
    quick "channel: mpmc across domains" test_channel_mpmc;
    quick "channel: close while blocked" test_channel_close_while_blocked;
    quick "conc_bag: concurrent adds and drain" test_bag;
    quick "thread_local: per-domain instances" test_thread_local;
    quick "barrier: cyclic phases" test_barrier_cyclic;
    quick "lockfree_map: reads beat the mutex-sharded map"
      test_lockfree_reads_beat_mutex;
  ]
