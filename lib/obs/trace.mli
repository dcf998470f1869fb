(** The one run recorder: per-domain spans, some of which are tasks.

    Every span records a real wall-time interval — which domain spent
    which microseconds in which phase — so a run can be opened in
    chrome://tracing / Perfetto and the phase breakdown printed next to
    the parse summary. Spans carry the phase (Chrome category), a
    process-wide ordinal assigned when the span opens, and an optional
    code address.

    A {e task} is a span that also carries the task DAG the schedule
    simulator replays ([Pbca_simsched.Replay], DESIGN.md substitution
    3): its cost in abstract work units ({!tick}), its dependencies
    ({!capture} at the spawn point, plus wake-ups such as "this
    call-fall-through could only be created once the callee's return
    status was known") and the barrier epoch it started in
    ({!barrier}). Its ordinal is its id. A {e phase span} carries no
    work: only tasks receive ticks and reach {!tasks}, and a phase span
    opened inside a task leaves the ticks to the task.

    Concurrency discipline (same as [Journal]): a completed span is
    appended to a lock-free {e per-domain} buffer (plain mutable list,
    owner-only writes, zero shared-cache traffic on the hot path);
    {!drain} runs at barriers, when no span is mid-append, and moves
    every buffer's batch into the shared collected set. Each domain also
    keeps its innermost open task there. The per-domain states belong to
    the recorder: one process-wide DLS slot caches the calling domain's
    state for the recorder it touched last, so a dropped recorder is
    freed whole (a DLS key per recorder never would be). A disabled
    trace costs one branch per call site. *)

type dep = { dep_task : int; dep_offset : int }
(** Satisfied once the task whose ordinal is [dep_task] has executed
    [dep_offset] work units. *)

type span = {
  sp_name : string;
  sp_phase : string;
  sp_tid : int;  (** domain id: the Chrome thread lane *)
  sp_ordinal : int;  (** ordinal at begin *)
  sp_addr : int;  (** address payload, -1 when absent *)
  sp_t0 : int;  (** nanoseconds since the trace was created *)
  mutable sp_t1 : int;  (** end time *)
  mutable sp_cost : int;  (** a task's work units; 0 for a phase span *)
  sp_deps : dep list;  (** a task's dependencies; [] for a phase span *)
  sp_epoch : int;  (** a task's barrier epoch; -1 for a phase span *)
}

type t

val disabled : t
(** Every operation is a no-op (one branch). *)

val create : unit -> t
(** A live trace; span times count from [Clock.now] at creation. *)

val enabled : t -> bool

val with_span : t -> phase:string -> ?addr:int -> string -> (unit -> 'a) -> 'a
(** [with_span t ~phase name f] records [f]'s execution as one phase span
    on the calling domain; closed on exception too. *)

val with_task :
  t -> ?addr:int -> deps:dep option list -> string -> (unit -> 'a) -> 'a
(** [with_task t ~deps label f] records [f]'s execution as one task: a
    span whose name and phase are [label]. Nestable per domain (the
    inner task suspends the outer one's accounting). [None] deps are
    dropped. A span closes on the domain that opened it: tasks do not
    migrate mid-execution. *)

val capture : t -> dep option
(** Dependency on the calling task's current progress point: the thing
    to pass to a task spawned right now. [None] when recording is
    disabled or the caller is outside any task. *)

val tick : t -> int -> unit
(** Add work units to the calling domain's innermost open task. No-op
    outside a task. *)

val barrier : t -> unit
(** Record a full synchronization point: tasks recorded after the
    barrier cannot start, in replay, before every earlier task has
    finished. The parallel parser emits one per quiescence round, and
    sequential per-binary parsing in a corpus emits one per binary —
    modelling the phase-based synchronization whose cost the paper's
    methodology flags (Section 6.4, step 4). *)

type task = {
  id : int;  (** the task span's ordinal *)
  label : string;
  cost : int;  (** at least 1 *)
  deps : dep list;
  epoch : int;  (** barrier epoch the task started in *)
}

val tasks : t -> task list
(** Every completed task (drains first), in no particular order. *)

val total_work : t -> int
(** Sum of the completed tasks' costs (drains first). *)

val drain : t -> unit
(** Move every per-domain batch into the collected set. Call only at
    barriers / quiescent points (the caller guarantees that no span
    closes concurrently), exactly like [Journal.flush]. *)

val spans : t -> span list
(** All completed spans, tasks included (drains first), sorted by start
    time. *)

val covered_wall : t -> float
(** Union length of all span intervals — the numerator of the
    "spans cover >= 95% of parse wall time" acceptance check. *)

val phase_walls : t -> (string * float) list
(** Total span seconds per phase, sorted by phase name. *)

val to_chrome_string : t -> string

val write_chrome : t -> string -> unit
(** Write the Chrome trace-event JSON array to a file. *)
