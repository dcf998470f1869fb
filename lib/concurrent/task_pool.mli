(** Work-stealing task pool over OCaml domains.

    The paper's implementation moved from OpenMP parallel-for loops to OpenMP
    tasks so that a newly discovered function starts being analyzed
    immediately instead of waiting for the current loop to drain (Section
    6.3). This pool provides the same model: a parallel region in which any
    task may [spawn] further tasks, with per-worker deques and round-robin
    stealing for load balance. The region ends when every transitively
    spawned task has completed.

    Each {!run} opens one region and drains it before returning: the
    calling domain and [threads - 1] helper domains work only on that
    region's tasks. The helpers come from one crew of domains shared by
    every pool in the process and kept alive between regions, as an OpenMP
    runtime keeps its thread team. A region takes idle crew helpers and
    spawns a new one, which then joins the crew, only when none is idle (a
    nested region, or regions opened from several domains at once). A
    helper idle for about 20 ms exits, so an idle process runs no extra
    domain. A task may itself call {!run}; the calling worker's slot is
    restored when the nested region completes. A failing task is contained
    in its region.

    A pool with [threads = 1] executes everything on the calling domain and
    never uses the crew, which serves as the serial baseline
    configuration. *)

type t

(** [create ~threads] builds a pool descriptor. [threads] counts the calling
    domain, so each region of a [threads = 4] pool is worked by the caller
    and 3 crew helpers. *)
val create : threads:int -> t

val threads : t -> int

exception Task_failures of exn list
(** Raised when more than one task of a region failed; carries every
    collected exception in roughly completion order. A single failure is
    re-raised as itself. *)

(** [run t root] opens a parallel region and drains it: [root] receives
    [spawn], which may be called from any task in the region to add work.
    It returns only after every helper handed the region has left it.
    A crashing task never wedges the region: every sibling still runs, the
    region always drains, and all collected exceptions are re-raised
    afterwards. While {!Fault} is armed, each task execution first passes
    through [Fault.on_task]. *)
val run : t -> (((unit -> unit) -> unit) -> unit) -> unit

(** [run_collect t root] is [run] but returns the collected task failures
    instead of raising, for callers that degrade gracefully (the parallel
    parser records them as [Task_failed] diagnostics and keeps the partial
    CFG). *)
val run_collect : t -> (((unit -> unit) -> unit) -> unit) -> exn list

(** [parallel_for t ?chunk lo hi f] applies [f] to every [i] in [lo, hi)
    using dynamic (guided-by-chunk) scheduling, as in
    [#pragma omp parallel for schedule(dynamic)] of paper Listing 7.
    A raising [f i] does not prevent any other index from being visited;
    failures are re-raised after the loop completes (several as
    {!Task_failures}).

    When a parallel region cannot help — one pool thread, one chunk's
    worth of indices, or one hardware core — the loop runs inline on the
    calling domain with no region opened. [parallel_for] promises no
    concurrency between bodies, so this is observationally equal, and it
    saves the region's set-up and hand-off (about 1 us for an empty
    2-thread region on a 2-core host) and leaves the crew free for other
    regions. The inline path still passes through [Fault.on_task] exactly
    once, like the one task a [threads:1] region would run. *)
val parallel_for : t -> ?chunk:int -> int -> int -> (int -> unit) -> unit

(** [parallel_for_reduce t ?chunk lo hi ~init ~map ~combine] folds [map i]
    over the index space; per-worker partial results are combined with
    [combine] (order unspecified, so [combine] should be associative and
    commutative up to the caller's needs). *)
val parallel_for_reduce :
  t ->
  ?chunk:int ->
  int ->
  int ->
  init:'b ->
  map:(int -> 'b) ->
  combine:('b -> 'b -> 'b) ->
  'b

(** [worker_index ()] is the caller's deque slot in the region it is
    working on: 0 for the domain that called {!run} (and outside any
    region), [1 .. threads - 1] for the helpers. Two tasks running at
    the same time in one region never share a slot, so per-worker
    accumulators may be indexed by it. *)
val worker_index : unit -> int

(** Cumulative scheduler counters, scoped to one pool (summed over its
    regions): steals (successful / attempted) and idle back-off sleeps
    taken by workers that found their own deque and every victim empty.
    Idle workers back off exponentially (spin, then sleeps doubling from
    2 us up to a 200 us cap), so [idle_sleeps] is a direct measure of
    starvation. Per-pool scoping means concurrent pools never mix their
    numbers. For per-run numbers, snapshot [stats] around the run and use
    {!diff_stats}. *)

type pool_stats = { steals : int; steal_attempts : int; idle_sleeps : int }

val stats : t -> pool_stats
val diff_stats : before:pool_stats -> after:pool_stats -> pool_stats
