module Reg = Pbca_isa.Reg
module Semantics = Pbca_isa.Semantics

type t = { live_in : Reg.Set.t array; live_out : Reg.Set.t array }

let block_use_def g fv i =
  (* compute use (upward-exposed) and def sets in forward order *)
  let use = ref Reg.Set.empty and def = ref Reg.Set.empty in
  List.iter
    (fun (_, insn, _) ->
      let u = Semantics.uses insn and d = Semantics.defs insn in
      use := Reg.Set.union !use (Reg.Set.diff u !def);
      def := Reg.Set.union !def d)
    (Func_view.insns g fv i);
  (!use, !def)

let compute g (fv : Func_view.t) =
  let n = Func_view.n_blocks fv in
  let use = Array.make n Reg.Set.empty in
  let def = Array.make n Reg.Set.empty in
  for i = 0 to n - 1 do
    let u, d = block_use_def g fv i in
    use.(i) <- u;
    def.(i) <- d
  done;
  let live_in = Array.make n Reg.Set.empty in
  let live_out = Array.make n Reg.Set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    (* each sweep visits every block: the fixpoint is superlinear in the
       function size, which is what makes data-flow extraction dominated by
       the largest functions (paper Section 8.3) *)
    Pbca_obs.Trace.tick g.Pbca_core.Cfg.trace n;
    for i = n - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> Reg.Set.union acc live_in.(s))
          Reg.Set.empty fv.succ.(i)
      in
      let inn = Reg.Set.union use.(i) (Reg.Set.diff out def.(i)) in
      if out <> live_out.(i) || inn <> live_in.(i) then begin
        live_out.(i) <- out;
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  { live_in; live_out }
