(** Named counter / gauge / histogram registry with per-run scoping.

    One registry is created per analysis run (each {!Pbca_core.Cfg.t}
    owns one), so two concurrent runs never share handles and resetting
    one run's numbers cannot clobber another's — the race the old
    process-global scheduler counters had. Existing hot-path
    atomics are adopted with {!register_counter} (the registry stores
    the same [Atomic.t] the mutating code increments), so unification
    costs the hot paths nothing.

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

val register_counter : t -> string -> int Atomic.t -> unit
(** Adopt an existing atomic as the named counter: the registry reads
    the very cell the caller keeps incrementing. *)

val gauge : t -> string -> gauge

val register_gauge_fn : t -> string -> (unit -> float) -> unit
(** Named gauge computed at snapshot time (e.g. a map's length). *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are upper bucket bounds, strictly increasing; an implicit
    +inf bucket is appended. Default: log-spaced 1us..10s durations. *)

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int
val set : gauge -> float -> unit
val value : gauge -> float
val observe : histogram -> float -> unit
val hist_count : histogram -> int
val hist_sum : histogram -> float

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { n : int; sum : float; buckets : (float * int) list }
      (** [buckets] pairs each upper bound (last is [infinity]) with its
          occupancy. *)

val snapshot : t -> (string * value) list
(** Current values, sorted by name. *)

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

val pp : Format.formatter -> t -> unit
(** One [name value] line per entry, sorted by name. *)
