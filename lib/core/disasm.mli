(** Pure disassembly helpers over an image. All functions are stateless and
    safe to call from any number of threads. *)

val insns_between :
  Pbca_binfmt.Image.t -> lo:int -> hi:int -> (int * Pbca_isa.Insn.t * int) list
(** Linear decode of [lo, hi): [(addr, insn, len)] triples. Stops early at
    an undecodable byte. *)

val block_insns : Cfg.t -> Cfg.block -> (int * Pbca_isa.Insn.t * int) list
(** Instructions of a resolved block. Empty for candidates. *)

val terminator : Cfg.t -> Cfg.block -> (int * Pbca_isa.Insn.t * int) option
(** Last instruction of a resolved block, if it is a control-flow
    instruction. *)
