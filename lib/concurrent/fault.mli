(** Deterministic fault injection for the task runtime.

    While armed, {!Task_pool} consults this module at the start of every
    task execution. The task whose process-wide ordinal (0-based, counted
    from arming) is in the armed set suffers the configured fault:

    - [Raise] — the task dies with {!Injected}; the pool must collect the
      exception and still drain the region.
    - [Delay d] — the task is stalled for [d] seconds before running,
      exercising deadline budgets.
    - [Starve] — analysis budgets collapse to 1 from this point on
      (consumers read {!starved}), forcing degradation paths.
    - [Crash] — the task dies with {!Injected} AND a process-wide crash
      flag is latched; the driver checks {!check_crash} at its next
      quiescent point and aborts with {!Crashed}, simulating a kill
      between two journal commits.

    With a single-threaded pool, task execution order — and therefore which
    logical task is hit — is fully deterministic; with more threads the
    ordinal is still deterministic in count but maps to whichever task a
    worker picked up Nth. Tests arm, run, assert, then {!disarm} in a
    [Fun.protect] finalizer so no state leaks between cases. *)

type mode = Raise | Delay of float | Starve | Crash

(** Service-layer fault points (PR8), injected per {e request} by the
    bserve daemon rather than per task by the pool:

    - [Kill_worker k] — the first [k] supervised attempts at the request
      die as if the worker crashed mid-request; with [k] larger than the
      daemon's retry budget the request must end in a structured failure
      reply, never a daemon crash.
    - [Torn_reply] — the daemon truncates its reply frame partway,
      exercising the client's torn-frame handling.
    - [Stall d] — the daemon stalls [d] seconds before replying,
      exercising client timeouts and queue backpressure.
    - [Cache_rot] — the request's cached checkpoint artifact is
      corrupted before lookup; the daemon must serve it as a miss. *)
type service =
  | Kill_worker of int
  | Torn_reply
  | Stall of float
  | Cache_rot

exception Injected of int
(** Carries the ordinal of the murdered task. *)

exception Crashed of int
(** Raised by {!check_crash} on the driver once a [Crash] fault has fired;
    carries the faulting ordinal. The run must abandon in-flight work
    without flushing its journal — exactly what a [kill -9] would do. *)

val arm_at : int list -> mode -> unit
(** Fault exactly the given task ordinals (resets the ordinal counter). *)

val arm : seed:int -> n:int -> window:int -> mode -> unit
(** Seed-driven: fault [n] distinct ordinals drawn uniformly from
    [\[0, window)]. The same seed always picks the same ordinals. *)

val disarm : unit -> unit
(** Clear the plan, the ordinal counter, the starvation flag and the
    injection count. *)

val armed : unit -> bool

val on_task : unit -> unit
(** Called by the pool before each task body. May raise {!Injected}. *)

val starved : unit -> bool
(** True once a [Starve] fault has fired. Budget consumers treat their
    limit as 1 while set. *)

val injected_count : unit -> int
(** Faults fired since arming. *)

val check_crash : unit -> unit
(** Consume a pending crash: raises {!Crashed} if one fired, else no-op.
    Drivers call this at quiescent points, {e before} committing state. *)

(** {2 Service-layer plan}

    Independent of the task plan: arming one never perturbs the other,
    and {!disarm} does not clear the service plan (use
    {!disarm_service}). [Delay] faults and supervisor backoffs are
    accounted on the monotonic {!Pbca_obs.Clock}, so injected service
    stalls line up with trace spans. *)

val arm_service_at : (int * service) list -> unit
(** Fault exactly the given request ordinals (resets the request
    counter). *)

val arm_service : seed:int -> n:int -> window:int -> service list -> unit
(** Seed-driven: fault [n] distinct request ordinals drawn uniformly
    from [\[0, window)], each assigned a fault from [services] by the
    same deterministic stream. The same seed always builds the same
    plan. *)

val disarm_service : unit -> unit

val service_next : unit -> service option
(** Called by the daemon once per admitted work request; returns the
    fault planned for this request ordinal, if any. *)

val service_injected_count : unit -> int
(** Service faults drawn since arming. *)
