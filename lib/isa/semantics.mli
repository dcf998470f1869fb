(** Architecture-independent queries on instructions.

    This mirrors Dyninst's instructionAPI role in the paper (Section 2.2):
    the CFG construction and the data-flow analyses never pattern-match on
    encodings, only on these queries. *)

type flow =
  | Fallthrough  (** ordinary instruction; control continues at next pc *)
  | Jump of int  (** unconditional direct jump to the given address *)
  | Cond_jump of int  (** conditional jump; taken target given *)
  | Jump_indirect  (** target computed at run time (jump tables) *)
  | Call_direct of int
  | Call_indirect
  | Return
  | Stop  (** trap/halt: no successor *)

val flow : addr:int -> len:int -> Insn.t -> flow
(** Control-flow classification with absolute targets resolved from the
    instruction's address and length. *)

val is_control_flow : Insn.t -> bool
(** True for every instruction that ends a basic block. *)

val is_stack_teardown : Insn.t -> bool
(** True for [Leave] — the frame tear-down that the tail-call heuristic
    looks for just before a branch (paper Section 2.1). *)

val defs : Insn.t -> Reg.Set.t
(** Registers written. *)

val uses : Insn.t -> Reg.Set.t
(** Registers read. *)

val reads_mem : Insn.t -> bool

val sp_delta : Insn.t -> int option
(** Effect on the stack pointer in bytes ([Push] = -8, [Pop] = +8, [Enter n]
    = -(8+n), [Leave] restores the frame). [None] when the effect is not a
    compile-time constant. Used by the stack-height analysis. *)
