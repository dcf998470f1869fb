(** Minimal JSON document tree shared by the bench reports and the
    Chrome trace exporter.

    Deliberately tiny: a constructor per JSON value, a pretty-printing
    emitter, a self-contained well-formedness validator (used by the
    bench gates and the trace tests so a malformed report fails instead
    of shipping), and path accessors for assertions over emitted
    documents. This is an emitter, not a parser — [json_well_formed]
    validates text without building a tree. *)

type json =
  | J_int of int
  | J_float of float  (** non-finite floats emit as [null] *)
  | J_bool of bool
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val json_emit : Buffer.t -> int -> json -> unit
(** [json_emit b ind j] appends [j] to [b] at indentation [ind]. *)

val json_to_string : json -> string

val json_well_formed : string -> bool
(** Validate that a string is a single well-formed JSON value. *)

val json_field : json -> string list -> json option
(** Follow a path of object keys. *)

val json_num : json -> string list -> float
(** Numeric field at a path; [nan] when absent or non-numeric. *)
