(** Named counter / gauge / histogram registry with per-run scoping.

    One registry is created per analysis run (each {!Pbca_core.Cfg.t}
    owns one and holds every statistic of its graph in it), so two
    concurrent runs never share handles and resetting one run's numbers
    cannot clobber another's — the race the old process-global scheduler
    counters had. A counter handle is the [int Atomic.t] cell the
    registry stores, so a hot path that keeps the handle in a record
    field pays nothing for the registry.

    Registration (find-or-create by name) takes a mutex; handle updates
    are plain atomics. Updates are linearizable: each increment is an
    [Atomic] RMW on a single cell. A snapshot reads each cell atomically
    (it is not a cross-cell consistent cut, which no caller needs). *)

type t

type counter = int Atomic.t
type gauge = float Atomic.t
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered with a different kind. *)

val gauge : t -> string -> gauge

val register_gauge_fn : t -> string -> (unit -> float) -> unit
(** Named gauge computed at snapshot time (e.g. a map's length). *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are upper bucket bounds, strictly increasing; an implicit
    +inf bucket is appended. Default: durations from 1us to 10s, ten
    log-spaced bounds per decade (each bucket spans x1.26). *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int
val set : gauge -> float -> unit
val value : gauge -> float
val observe : histogram -> float -> unit
val hist_count : histogram -> int

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { n : int; sum : float; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (last is [infinity]) with its
          occupancy. *)

val snapshot : t -> (string * value) list
(** Current values, sorted by name. *)

val quantile : float -> (float * int) list -> float
(** [quantile q buckets] estimates the [q]-quantile ([0 <= q <= 1]) of a
    snapshot's histogram buckets: the bucket that holds rank [q * n],
    interpolated linearly between its lower and upper bound. With the
    default bounds the estimate is within 26% of the true value; a rank
    in the +inf bucket reads the last finite bound. [nan] when empty. *)

val merge : into:t -> t -> unit
(** Fold a registry's current values into another: counters and
    histograms add, gauges take the source's value. Used to aggregate
    per-run registries across a corpus (bfuzz [--metrics]). *)

val diff :
  before:(string * value) list ->
  after:(string * value) list ->
  (string * value) list
(** What happened between two snapshots of one registry: counters and
    histogram buckets subtract, gauges keep the [after] value. *)

val pp_value : Format.formatter -> value -> unit
(** A counter or integral gauge as an integer, other gauges with [%g], a
    histogram as [n= sum= p50= p99= buckets=[...]] listing only its
    non-empty buckets. *)

val pp : Format.formatter -> t -> unit
(** One [name value] line per entry, sorted by name. *)
