(** Correctness evaluation against ground truth (paper Section 8.1).

    Compares a parsed CFG with the ground truth emitted at generation time:
    function boundaries as coalesced address ranges, return statuses,
    jump-table sizes and targets, and non-returning call sites.

    The paper found four difference classes, all rooted in individual
    operation imperfections rather than parallelism: (1) calls to the
    conditionally-returning [error] are not recognized as non-returning,
    (2) outlined [foo.cold] fragments are separate functions to the parser
    but part of [foo] to DWARF, (3) jump tables whose computation spills
    through the stack resist slicing, and (4) knock-on effects of (1). This
    checker reproduces that taxonomy automatically: ground-truth flags mark
    the direct roots, and a taint fixpoint over the (decoded) call graph
    propagates them to the functions whose boundaries or statuses they can
    legitimately perturb. A difference in an untainted function is a real
    bug; the test suite requires there are none.

    PR9 adds a second axis: heuristic gap discovery on stripped images.
    Differences it can legitimately cause get their own [Expected]
    buckets — ["heuristic-miss"] (entry not in the symtab and the gap scan
    did not find it), ["heuristic-ranges"] (a gap proposal's best-effort
    boundary), ["heuristic-spurious"] (a proposal matching no ground-truth
    entry) and ["not-in-symtab"] (stripped entry, gap parsing off) — kept
    strictly apart from PR3's budget-degradation classes. A related
    stripped-input class, ["tail-call-absorption"], explains a traversal
    that swallowed a tail-called symbol-less function whole: without the
    symbol the branch is indistinguishable from an intra-procedural jump.
    The quantitative judgement of the gap scanner itself is
    {!score_discovery}. *)

type verdict =
  | Match
  | Expected of string  (** difference explained by a known class *)
  | Mismatch of string  (** unexplained: a real defect *)

type report = {
  binary : string;
  func_total : int;
  func_match : int;
  func_expected : (string * string) list;  (** function name, class *)
  func_mismatch : (string * string) list;  (** function name, detail *)
  extra_funcs : (int * verdict) list;  (** parser functions absent from GT *)
  jt_total : int;
  jt_ok : int;
  jt_expected_unresolved : int;
  jt_mismatch : int;
  nr_total : int;
  nr_ok : int;
  nr_expected_miss : int;
  nr_mismatch : int;
}

val check :
  Pbca_codegen.Ground_truth.t -> Pbca_core.Cfg.t -> report

val clean : report -> bool
(** No unexplained differences anywhere. *)

val pp : Format.formatter -> report -> unit

(** Entry-discovery score: which function entries exist in the parse,
    against ground truth as the universe of real entries. True positives
    are bucketed by {!Pbca_core.Cfg.confidence}; precision counts every
    spurious live function against the parser, recall counts every
    ground-truth entry with no live function. Empty denominators score
    1.0. *)
type discovery = {
  ds_relevant : int;  (** ground-truth entries *)
  ds_found : int;  (** live functions matching a ground-truth entry *)
  ds_missed : int;
  ds_spurious : int;  (** live functions matching no ground-truth entry *)
  ds_spurious_heuristic : int;  (** ... of which gap proposals *)
  ds_found_symbol : int;
  ds_found_call_target : int;
  ds_found_heuristic : int;
  ds_precision : float;  (** found / (found + spurious) *)
  ds_recall : float;  (** found / relevant *)
}

val score_discovery :
  Pbca_codegen.Ground_truth.t -> Pbca_core.Cfg.t -> discovery
