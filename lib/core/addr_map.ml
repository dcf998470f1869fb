(* Concurrent map keyed by virtual address.

   Backed by the lock-free table so the parser's read-dominated paths —
   block lookups in [find_or_create_block], candidate checks against the
   global blocks map, function lookups — never take a lock. The mutex-
   sharded [Conc_hash] remains available for write-heavy tables (Symtab)
   and as the baseline test_concurrent times these reads against. *)
include Pbca_concurrent.Lockfree_map.Make (struct
  type t = int

  let equal = Int.equal

  (* Addresses are 16-byte-aligned-ish; fold the high bits in so bucket
     selection stays uniform. *)
  let hash a = (a * 0x9E3779B1) lxor (a lsr 16)
end)
