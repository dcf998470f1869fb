module Semantics = Pbca_isa.Semantics

type height = Bottom | Height of int | Top
type t = { at_entry : height array; at_exit : height array }

let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Top, _ | _, Top -> Top
  | Height x, Height y -> if x = y then Height x else Top

let transfer g fv i h =
  List.fold_left
    (fun h (_, insn, _) ->
      match h with
      | Bottom | Top -> h
      | Height v -> (
        match Semantics.sp_delta insn with
        | Some d -> Height (v + d)
        | None -> Top))
    h
    (Func_view.insns g fv i)

let compute g (fv : Func_view.t) =
  let n = Func_view.n_blocks fv in
  let at_entry = Array.make n Bottom in
  let at_exit = Array.make n Bottom in
  if n > 0 then begin
    let entry = Func_view.entry_index fv in
    at_entry.(entry) <- Height 0;
    let changed = ref true in
    while !changed do
      changed := false;
      Pbca_obs.Trace.tick g.Pbca_core.Cfg.trace n;
      for i = 0 to n - 1 do
        let inh =
          if i = entry then Height 0
          else
            List.fold_left
              (fun acc p -> join acc at_exit.(p))
              Bottom fv.pred.(i)
        in
        let outh = transfer g fv i inh in
        if inh <> at_entry.(i) || outh <> at_exit.(i) then begin
          at_entry.(i) <- inh;
          at_exit.(i) <- outh;
          changed := true
        end
      done
    done
  end;
  { at_entry; at_exit }

let pp_height fmt = function
  | Bottom -> Format.pp_print_string fmt "_"
  | Top -> Format.pp_print_string fmt "T"
  | Height h -> Format.fprintf fmt "%d" h
