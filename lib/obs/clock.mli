(** Monotonic time for every duration and deadline in the tree.

    [Unix.gettimeofday] is wall-clock time: an NTP step moves it in
    either direction, so deltas taken across a step come out negative
    (or wildly large), checkpoint progress accounting goes wrong, and an
    absolute wall-clock deadline can fire early or never. This module
    reads [CLOCK_MONOTONIC] via a tiny C stub instead; its epoch is
    arbitrary (boot time on Linux), so readings are only meaningful as
    differences — which is the only way the tree uses them.

    A deterministic fake source can be installed for tests: deadline
    latch and span-ordering tests advance time by hand instead of
    sleeping. The source is process-wide; tests restore it with
    {!with_fake} / {!use_monotonic}. *)

val now : unit -> float
(** Current monotonic reading in seconds, from an arbitrary epoch.
    Never decreases (even under the gettimeofday fallback, which is
    latched through a CAS max). *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0]: the duration since an earlier
    [now] reading. *)

val use_monotonic : unit -> unit
(** Restore the real monotonic source. *)

val with_fake : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_fake f body] runs [body] with [f] installed, restoring the
    monotonic source afterwards (also on exception). *)

val is_fake : unit -> bool
(** Whether a fake source is currently installed. *)

val have_monotonic : bool
(** Whether CLOCK_MONOTONIC is available (always true on Linux); when
    false, [now] falls back to latched [Unix.gettimeofday]. *)
