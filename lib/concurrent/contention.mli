(** Shared contention counters for the lock-free containers.

    One record can be threaded through any number of {!Lockfree_map} and
    {!Atomic_intset} instances so a whole subsystem (e.g. every map of one
    CFG) aggregates into a single set of counters. The counters measure the
    events that would have been serialization points under locks:

    - [probes]: extra bucket/slot steps past the first on the read path —
      hash-collision pressure. Wait-free reads that hit their first slot do
      not touch the counter at all, keeping the hot path store-free.
    - [cas_retries]: failed compare-and-set attempts on the write path —
      genuine write-write contention on one bucket.
    - [resizes]: table growths.
    - [frozen_waits]: writer spins against a bucket frozen by an in-flight
      resize.

    All fields are plain [Atomic] counters; incrementing them is the
    caller's (i.e. the container's) job. A CFG builds its record from
    cells of its metrics registry ([contention_probes] and so on), so
    the registry reports them; {!create} makes standalone cells. *)

type t = {
  probes : int Atomic.t;
  cas_retries : int Atomic.t;
  resizes : int Atomic.t;
  frozen_waits : int Atomic.t;
}

val create : unit -> t
