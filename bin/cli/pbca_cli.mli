(** Command-line arguments shared by the tools. *)

(** [-j N], [--threads N]: the worker count for the tool's task pool,
    default 4. A value below 1 is a usage error (exit 124). *)
val threads : int Cmdliner.Term.t
