(** Shared per-image decoded-instruction cache.

    One slot per [.text] byte offset memoizing {!Pbca_isa.Codec.decode} at
    that address — including decode {e failures}, which jump-table target
    validation probes repeatedly. Decoding is pure, so the cache is written
    racily without per-slot synchronization: concurrent writers store
    semantically identical values, and a stale read merely costs one
    redundant decode (the rationale is spelled out in the implementation).

    This replaces per-call-site re-decoding in block queries
    ([Disasm.block_insns]), finalization's instruction recount, and the
    jump-table slicer, and supersedes the parser's old thread-local decoded
    set: every thread now benefits from every other thread's decode work.

    Hit/miss counters are the observability half: a healthy parallel parse
    shows a high hit rate because blocks are re-walked by traversal,
    slicing and finalization long after their first linear scan. *)

type slot = Unknown | Bad | Ins of Pbca_isa.Insn.t * int
(** [Bad]: the address decodes to nothing (memoized failure). [Ins (i,
    len)]: instruction and its encoded length. *)

type t

val create : base:int -> size:int -> t
(** Cache for addresses [base, base + size). *)

val find : t -> int -> slot
(** [Unknown] for out-of-range addresses or not-yet-decoded slots; counts
    a hit or miss for in-range lookups. *)

val store : t -> int -> (Pbca_isa.Insn.t * int) option -> unit
(** Memoize a decode result; out-of-range stores are ignored. *)

val hits : t -> int
val misses : t -> int
