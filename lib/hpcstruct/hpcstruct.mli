(** Program-structure recovery: the hpcstruct case study (paper Section 7).

    Relates machine instructions back to source constructs: for every
    function, its source file and line, loop nests (with the line of each
    loop head), inline call contexts, and per-block line ranges — the
    information HPCToolkit uses to attribute performance measurements.

    Execution follows the seven phases of paper Figure 2:
    1. read the binary image from bytes           (serial)
    2. parse debug-info compilation units         (parallel)
    3. build the address-to-line lookup structure (serial, by design)
    4. construct the CFG                          (parallel)
    5. build output skeletons                     (serial)
    6. fill skeletons with loops/lines/inlines    (parallel)
    7. serialize                                  (serial tail)

    Each phase is timed and, when parallel, records a task trace so the
    schedule simulator can replay it at any thread count. *)

type phase = {
  ph_name : string;
  ph_wall : float;  (** measured wall-clock seconds on this machine *)
  ph_trace : Pbca_simsched.Trace.t option;  (** None for serial phases *)
  ph_work : int;  (** work units (trace total, or a serial estimate) *)
}

type result = {
  output : string;  (** the serialized structure file *)
  phases : phase list;
  cfg : Pbca_core.Cfg.t;
  n_funcs : int;
  n_loops : int;
  n_stmts : int;
}

val run :
  ?config:Pbca_core.Config.t ->
  pool:Pbca_concurrent.Task_pool.t ->
  Bytes.t ->
  result
(** [run ~pool bytes] processes a serialized SBF image. *)

val run_image :
  ?config:Pbca_core.Config.t ->
  pool:Pbca_concurrent.Task_pool.t ->
  Pbca_binfmt.Image.t ->
  result
(** Like {!run} but skips phase 1 (the image is already loaded). *)

val phase_wall : result -> string -> float
(** Total wall time of phases whose name contains the given substring. *)

val total_wall : result -> float
