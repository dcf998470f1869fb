(** A disabled {!Pbca_obs.Trace}, under the name the repository benchmark
    passes to the BinFeat extractors. It exists only for [perfbench/];
    every other caller names {!Pbca_obs.Trace} directly. *)

val disabled : Pbca_obs.Trace.t
