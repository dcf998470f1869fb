(** Serialization of debug information into a [.debug] section.

    Layout: a u32 CU count followed by length-prefixed CU blobs. The
    length prefixes let the parser enumerate CU boundaries with a cheap
    serial scan and then decode the blobs in parallel, exactly the
    per-compilation-unit parallelism the paper applies to libdw
    (Section 7.2). The [cu_pad] field is materialized as a pseudo-random
    blob that decoding must checksum, modelling the type-information bulk
    of real [.debug_info]. *)

val encode : Types.t -> Bytes.t
val decode_cu : Bytes.t -> Types.cu
(** Decode one CU blob. Raises [Failure] on corruption (checksum mismatch
    or truncation). *)

val cu_blobs : Bytes.t -> Bytes.t array
(** Split a [.debug] section into its CU blobs (the serial index scan). *)

val decode : ?pool:Pbca_concurrent.Task_pool.t -> Bytes.t -> Types.t
(** Full decode; CU blobs are decoded with [pool] when given. *)
