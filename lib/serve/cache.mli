(** Content-addressed result cache for the bserve daemon.

    A Parse result is kept as its reply: the status and body of a
    completed parse, stored as one CRC-checked {!Wire.encode_reply} frame
    in [<image digest>-<config digest>.reply]. A hit decodes that file and
    answers without building a graph. Any damage — a torn file, a CRC
    mismatch, an undecodable frame, a status other than [Ok_clean] or
    [Ok_degraded] — evicts the file and is a {e miss} (recompute), never
    an error, because the cache is a derived acceleration structure.

    Concurrency: a reply is written to a unique staging file and renamed
    into place, so a concurrent {!find} sees either the complete old
    reply or the complete new one. Budget-cut results must not be stored:
    they encode a deadline cut that the next request may not suffer.

    The plan API at the end ({!stage}, {!promote}, {!lookup}) keeps the
    checkpoint + journal of a parse on disk and decodes them into a
    {!Pbca_core.Recover.plan}. The daemon does not call it; its only
    caller is the [serve_mixed] layer breakdown in [perfbench/pbench.ml]. *)

type t

val create : dir:string -> t
(** Create/open a cache directory (made if absent). *)

val key : Bytes.t -> string
(** Stable content digest of an image's bytes (32 hex chars). *)

val reply_key : Pbca_core.Config.t -> Bytes.t -> string
(** [key image] joined with a digest of the analysis config: every
    {!Pbca_core.Config.t} field except [deadline_s], which only budget-cut
    results depend on. *)

val find : t -> string -> Wire.reply option
(** The reply stored under a {!reply_key}, if healthy; a damaged one is
    evicted and reported as [None]. *)

val store : t -> string -> Wire.reply -> unit
(** Stage and rename a reply into place; on an IO error the cache simply
    stays cold. *)

val rot : rng:Pbca_codegen.Rng.t -> t -> string -> bool
(** Fault injection: corrupt the stored reply bytes in place (via
    {!Pbca_codegen.Mutate.corrupt_artifact}). [false] if absent. *)

(** {2 Plan artifacts} *)

type staged = { st_checkpoint : string; st_journal : string }

val stage : t -> string -> staged
(** Unique staging paths for a fresh parse's checkpoint and journal,
    under an image {!key}. *)

val promote : t -> string -> staged -> bool
(** Rename staged artifacts into place; on failure the staging files are
    removed and [false] is returned. *)

val lookup : t -> string -> Pbca_core.Recover.plan option
(** [Some plan] when a healthy artifact pair exists; corrupt or
    unreadable artifacts are evicted and reported as [None]. *)
