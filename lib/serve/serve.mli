(** bserve: a fault-tolerant analysis-as-a-service daemon (PR8).

    A resident process accepting parse / hpcstruct / binfeat requests over
    a unix-domain socket in the {!Wire} protocol. Designed around three
    contracts:

    - {b Admission control and load shedding}: work enters a bounded
      {!Pbca_concurrent.Channel}; when it is full the request is answered
      [Overloaded] {e immediately} — queueing latency is never silently
      inflicted, and nothing is silently dropped.
    - {b Isolation}: each request runs under
      {!Pbca_concurrent.Supervisor} with a bounded restart budget and
      interruptible backoff; a worker crash costs that request (a
      structured [Failed] reply after the retries), never the daemon.
    - {b Deadlines end-to-end}: a request carries a deadline; expiry in
      the queue yields [Expired], expiry during service degrades the
      analysis through the PR3 {!Pbca_core.Config} deadline budget and
      returns [Ok_degraded] with a well-formed body.

    Parse replies are cached, keyed by image content and analysis config
    ({!Cache}): a hit reads the stored reply instead of building a graph;
    a damaged entry is a miss, never an error.

    Topology on the inside: [sc_acceptors] domains select/accept and do
    admission; [sc_workers] domains drain the queue, each with its own
    {!Pbca_concurrent.Task_pool} of [sc_parse_threads] threads.

    Service-layer fault injection ({!Pbca_concurrent.Fault.service}) is
    consulted once per admitted request: worker kills, torn replies,
    stalls and cache rot all exercise the structured failure paths. *)

type config = {
  sc_sock : string;  (** unix-domain socket path (note the 108-byte cap) *)
  sc_acceptors : int;
  sc_workers : int;
  sc_queue : int;  (** admission queue bound — the shedding threshold *)
  sc_cache_dir : string option;  (** [None] disables the result cache *)
  sc_max_image_bytes : int;  (** larger images are [Rejected] *)
  sc_read_timeout_s : float;  (** stalled-client eviction timeout *)
  sc_retries : int;  (** supervisor restart budget per request *)
  sc_backoff_base_s : float;
  sc_parse_threads : int;
  sc_default_deadline_ms : int;  (** for requests that carry none; 0 = none *)
  sc_analysis : Pbca_core.Config.t;  (** PR3 budget/deadline base config *)
  sc_rot_seed : int;  (** rng seed for injected cache rot *)
}

val default_config : sock:string -> config

type t

val start : ?otrace:Pbca_obs.Trace.t -> config -> t
(** Bind, listen, spawn acceptor and worker domains, return immediately.
    Ignores SIGPIPE process-wide (a dead peer must surface as a write
    error, not a signal). *)

val stop : t -> unit
(** Graceful drain: stop admitting (late arrivals get a [Draining]
    reply), join acceptors, close the socket, close the queue, and let
    workers finish {e every} already-admitted request — zero in-flight
    requests are lost. Idempotent. *)

val with_server : ?otrace:Pbca_obs.Trace.t -> config -> (t -> 'a) -> 'a
(** [start] / run / [stop], stopping on exception too. *)

val metrics : t -> Pbca_obs.Metrics.t
(** Live registry: [serve_accepted], [serve_shed], [serve_expired],
    [serve_bad_frames], [serve_retries], [serve_worker_crashes],
    [serve_cache_hits]/[serve_cache_misses], [serve_stalled_clients],
    [serve_torn_replies], the [serve_queue_depth] gauge and the
    wait/latency histograms (overall, cache-hit, cold). *)

val sock_path : t -> string
val draining : t -> bool

val shutdown_requested : t -> bool
(** Latched when a [Shutdown] request arrives on the wire; the owning
    process polls this and calls {!stop}. *)
