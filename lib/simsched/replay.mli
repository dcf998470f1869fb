(** Deterministic replay of a recorded task DAG on P simulated threads.

    Greedy non-preemptive list scheduling: when a simulated worker becomes
    free it takes the available task with the earliest availability time
    (ties broken by task id), where a task becomes available once each of
    its dependencies [(d, off)] has executed [off] of its work units. This
    models a work-conserving task pool — the same assumption behind
    OpenMP-task and work-stealing runtimes — so the resulting makespans
    reproduce the shape of the paper's scaling curves: Amdahl limits from
    serial segments, dependency stalls from non-returning-function chains,
    and tail effects from imbalanced task sizes. *)

type result = {
  makespan : int;  (** simulated completion time in work units *)
  total_work : int;
  critical_path : int;  (** makespan with unbounded threads *)
  busy : float;  (** worker utilization in [0, 1] *)
}

val simulate : ?bus:float -> threads:int -> Pbca_obs.Trace.task list -> result
(** [bus] models the shared memory system: every work unit consumes that
    fraction of a single shared resource, so an epoch cannot finish faster
    than [bus * total_work] regardless of thread count (speedups cap near
    [1 / bus]). Defaults to 0.04 — a ~25x ceiling, which is where the
    paper's best CFG-construction scaling lands on real hardware. Set to
    0.0 for the pure task-graph bound. *)

val speedup : ?bus:float -> threads:int -> Pbca_obs.Trace.t -> float
(** [total_work / makespan(threads)] — speedup over a single thread running
    the same work. *)
