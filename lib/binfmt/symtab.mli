(** Multi-keyed parallel symbol table (paper Section 6.2, Listing 6).

    Supports lookup by offset, mangled name, pretty name and typed name. The
    original Dyninst structure was a Boost [multi_index_container] behind one
    mutex; the redesign — reproduced here — keys a master concurrent map by
    the symbol itself. Only the thread that wins the master insertion
    touches the four secondary indices: after the insertion returns, it
    pushes the symbol onto each index's entry through that map's per-key
    atomic [update]. So every symbol lands exactly once in every index,
    however many threads insert it; the order of the symbols within one
    entry is unspecified. Lookups are only issued in quiescent phases, so
    they need no locking discipline beyond the per-entry atomicity the maps
    already give. *)

type t

val create : unit -> t

val insert : t -> Symbol.t -> bool
(** [insert t s] adds [s] to every index. Returns [false] (and changes
    nothing) if an equal symbol was already present. Safe to call from many
    domains concurrently. *)

val by_offset : t -> int -> Symbol.t list
val by_mangled : t -> string -> Symbol.t list
val by_pretty : t -> string -> Symbol.t list
val by_typed : t -> string -> Symbol.t list
val length : t -> int

val functions : t -> Symbol.t list
(** All [Func] symbols, unordered. *)

val fold : (Symbol.t -> 'a -> 'a) -> t -> 'a -> 'a
val write : Bio.W.t -> t -> unit

val read : Bio.R.t -> t
(** Raises [Parse_error.Error (Truncated _)] when the reader runs dry
    mid-table. *)
