(** Serial CFG construction baseline.

    Runs the same deterministic algorithm on a single-worker pool: the task
    queue degenerates to a plain worklist drained by the calling domain, so
    this is the classic serial control-flow traversal (Schwarz et al.;
    paper Section 2) with this implementation's semantics. Because the
    final CFG is a least fixed point independent of task order, the serial
    and parallel results are identical — which the test suite checks on
    every corpus. *)

val parse :
  ?config:Config.t ->
  ?trace:Pbca_obs.Trace.t ->
  Pbca_binfmt.Image.t ->
  Cfg.t

val parse_and_finalize :
  ?config:Config.t ->
  ?trace:Pbca_obs.Trace.t ->
  Pbca_binfmt.Image.t ->
  Cfg.t
