(** Binary code feature extraction: the BinFeat case study (paper Sections
    7 and 8.3).

    Extracts the feature families used by machine-learning-based software
    forensics (compiler identification, authorship attribution):

    - IF, instruction features: opcode n-grams (n = 1, 2, 3) per function;
    - CF, control-flow features: block out-degree shapes, edge-kind
      histograms, loop counts and nesting depths;
    - DF, data-flow features: live-register counts and stack-height shapes
      (the costliest stage, dominated by large functions — the load
      imbalance discussed in Section 8.3).

    Extraction runs in the paper's four barrier-separated stages — CFG
    construction over the whole corpus, then IF, CF, DF extraction over
    all functions sorted large-first (Listing 7) — each stage timed and
    traced. The global feature index is a parallel reduction over
    per-worker partial counts. *)

type stage = {
  st_name : string;  (** "cfg", "if", "cf" or "df" *)
  st_wall : float;
  st_trace : Pbca_obs.Trace.t;
  st_work : int;
}

type index = (string, int) Hashtbl.t
(** feature -> occurrence count over the corpus *)

type result = {
  stages : stage list;
  index : index;
  n_binaries : int;
  n_funcs : int;
  n_features : int;
}

val extract :
  ?config:Pbca_core.Config.t ->
  pool:Pbca_concurrent.Task_pool.t ->
  Pbca_binfmt.Image.t list ->
  result

(** {2 Per-function extractors}

    Exposed for {!Similarity} and custom drivers; each returns a local
    feature table for one function and charges its cost to the trace. *)

val bump : (string, int) Hashtbl.t -> string -> int -> unit

val insn_features :
  Pbca_core.Cfg.t ->
  Pbca_obs.Trace.t ->
  Pbca_analysis.Func_view.t ->
  (string, int) Hashtbl.t

val cf_features :
  Pbca_core.Cfg.t ->
  Pbca_obs.Trace.t ->
  Pbca_analysis.Func_view.t ->
  (string, int) Hashtbl.t

val df_features :
  Pbca_core.Cfg.t ->
  Pbca_obs.Trace.t ->
  Pbca_analysis.Func_view.t ->
  (string, int) Hashtbl.t

val stage_wall : result -> string -> float
val total_wall : result -> float
val top_features : result -> int -> (string * int) list
