(** Concurrent hash map with entry-level atomicity.

    This is the OCaml counterpart of TBB's [concurrent_hash_map], the data
    structure at the heart of the paper's five parallel-parsing invariants
    (Listings 4-6). The table is sharded; each shard is protected by its own
    mutex, so operations on keys that hash to different shards proceed
    independently, while operations on the same key are serialized — exactly
    the "threads branching to the same address synchronize, threads branching
    to different addresses proceed independently" requirement of Invariant 1.

    [update] provides the accessor semantics of Listing 5: the callback runs
    while the entry's shard lock is held, so a read-modify-write of one entry
    is atomic with respect to all other operations on that entry. Callbacks
    must not re-enter the same map (same-shard re-entry would deadlock). *)

module Make (H : Hashtbl.HashedType) : sig
  type key = H.t
  type 'a t

  (** [create ?shards ()] makes an empty map. [shards] defaults to 64 and is
      rounded up to a power of two. *)
  val create : ?shards:int -> unit -> 'a t

  val find : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool

  (** [insert_if_absent t k v] inserts [k -> v] if [k] is unbound and returns
      [true]; if [k] is already bound it leaves the map unchanged and returns
      [false]. This is the "first inserter wins" primitive of Invariants 1
      and 5 (paper Listing 4). *)
  val insert_if_absent : 'a t -> key -> 'a -> bool

  (** [find_or_insert t k mk] returns the binding of [k], creating it with
      [mk ()] first if absent. The boolean is [true] iff this call created
      the binding. [mk] runs under the shard lock. *)
  val find_or_insert : 'a t -> key -> (unit -> 'a) -> 'a * bool

  (** [update t k f] atomically replaces the binding of [k]: [f] receives the
      current binding (or [None]) and returns the new binding (or [None] to
      remove) along with a result passed back to the caller. *)
  val update : 'a t -> key -> ('a option -> 'a option * 'r) -> 'r

  (** [remove t k] removes the binding, returning it if present. *)
  val remove : 'a t -> key -> 'a option

  val length : 'a t -> int

  (** Whole-table iteration. These lock one shard at a time and therefore see
      a consistent snapshot only when no writers are active; they are meant
      for the quiescent phases between parallel stages (paper Section 7.2:
      after construction the CFG is read-only). *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val to_list : 'a t -> (key * 'a) list
end
