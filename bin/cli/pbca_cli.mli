(** Command-line arguments and input handling shared by the tools. *)

(** [-j N], [--threads N]: the worker count for the tool's task pool,
    default 4. A value below 1 is a usage error (exit 124). *)
val threads : int Cmdliner.Term.t

(** [or_malformed path f] runs [f], which reads the input file [path]. A
    structured [Parse_error] from it means malformed input: it is reported
    on stderr as [PATH: malformed: MSG] and returned as [Error MSG], on
    which the tools exit 2. *)
val or_malformed : string -> (unit -> 'a) -> ('a, string) result
