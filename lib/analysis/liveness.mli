(** Register liveness (analysis capability AC6).

    Classic backward may-analysis over a function view, with register sets
    as 16-bit masks: live-in(b) = use(b) ∪ (live-out(b) \ def(b)),
    live-out(b) = ∪ live-in(succ). BinFeat extracts live-register counts as
    data-flow features; the paper notes this stage has the highest time
    complexity of the feature extractors (Section 8.3). *)

type t = {
  live_in : Pbca_isa.Reg.Set.t array;
  live_out : Pbca_isa.Reg.Set.t array;
}

val compute : Pbca_core.Cfg.t -> Func_view.t -> t
