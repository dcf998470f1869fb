(** Read-mostly concurrent hash map with wait-free reads.

    A drop-in replacement for {!Conc_hash} on read-dominated workloads. The
    paper's parallel CFG construction queries its address-keyed maps (block
    lookups, end-ownership checks, function lookups) orders of magnitude
    more often than it writes them; under {!Conc_hash} every one of those
    reads takes a shard mutex, re-serializing paths the five invariants
    made commutative. Here the structure is:

    - Buckets are {e immutable} association lists published through an
      [Atomic] cell. [find]/[mem] read one atomic and walk an immutable
      list: wait-free, lock-free, no stores on the hot path (collision
      probes are counted, but a first-cell hit touches no shared counter).
    - Writes ([insert_if_absent], [find_or_insert], [remove]) are a single
      CAS replacing the bucket list, retried on contention. Lists are
      freshly allocated on every change and CAS compares physically, so
      there is no ABA hazard. Failed CAS attempts are counted in the
      {!Contention.t} record.
    - Resize is amortized and freeze-based: one elected resizer CASes every
      bucket to a [Frozen] copy (readers still read frozen buckets —
      reads remain wait-free during migration; writers wait), rehashes
      into a table of twice the capacity and publishes it with one atomic
      store. Every write that adds a binding, [update] included, grows
      the table once it holds more bindings than buckets, so chains stay
      O(1) long whichever operation filled the map.
    - [update] — the accessor of paper Listing 5, needed only by the
      [ends] map's split protocol — is the single locking operation: a
      striped mutex serializes updates of the same key, the callback runs
      exactly once, and its result is applied by CAS. Reads never touch the
      stripes, so the read path stays lock-free even while a split runs.

    Semantic differences from {!Conc_hash}, both deliberate:

    - [find_or_insert]'s [mk] may run speculatively and its result be
      discarded when the CAS loses the race; exactly one caller still
      observes [created = true] (Invariant 1 is preserved — losers return
      the winner's value).
    - [update] is atomic only with respect to other [update]s of the same
      key. Concurrently mixing [update] and direct writes {e of the same
      key} is unsupported; the CFG never does (the [ends] map is written
      exclusively through [update] while parsing runs). Callbacks must not
      re-enter the same map. *)

module Make (H : Hashtbl.HashedType) : sig
  type key = H.t
  type 'a t

  (** [create ?shards ?counters ()] makes an empty map. [shards] (the name
      kept for {!Conc_hash} compatibility) is the initial bucket count,
      rounded up to a power of two; the table grows beyond it on demand.
      [counters] lets several maps aggregate contention events into one
      shared {!Contention.t}. *)
  val create : ?shards:int -> ?counters:Contention.t -> unit -> 'a t

  val counters : 'a t -> Contention.t

  val find : 'a t -> key -> 'a option
  (** Wait-free. *)

  val mem : 'a t -> key -> bool
  (** Wait-free. *)

  val insert_if_absent : 'a t -> key -> 'a -> bool
  (** First inserter wins (Invariants 1 and 5, paper Listing 4); lock-free. *)

  val find_or_insert : 'a t -> key -> (unit -> 'a) -> 'a * bool
  (** Lock-free; [mk] may run speculatively (see above). *)

  val update : 'a t -> key -> ('a option -> 'a option * 'r) -> 'r
  (** Entry-atomic read-modify-write under a striped lock; the callback
      runs exactly once. When it adds a binding and the map then holds
      more bindings than buckets, the table grows after the stripe is
      released, as for the lock-free writes. See the caveats above. *)

  val remove : 'a t -> key -> 'a option

  val length : 'a t -> int
  (** O(1): maintained counter, exact when writers use this interface. *)

  (** Whole-table iteration over an atomic snapshot of the bucket array;
      consistent only when no writers are active (the quiescent phases
      between parallel stages). *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val to_list : 'a t -> (key * 'a) list
end
