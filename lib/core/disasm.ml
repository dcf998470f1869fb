module Image = Pbca_binfmt.Image
module Semantics = Pbca_isa.Semantics

let insns_between image ~lo ~hi =
  let rec go a acc =
    if a >= hi then List.rev acc
    else
      match Image.decode_at image a with
      | Some (i, len) when a + len <= hi -> go (a + len) ((a, i, len) :: acc)
      | _ -> List.rev acc
  in
  go lo []

let block_insns (g : Cfg.t) (b : Cfg.block) =
  let e = Cfg.block_end b in
  if e < 0 then [] else insns_between g.Cfg.image ~lo:b.Cfg.b_start ~hi:e

let terminator g b =
  match Atomic.get b.Cfg.b_term with
  | Some i ->
    (* the parser stored the terminator when it registered the block end:
       reconstruct (addr, insn, len) from it instead of re-decoding the
       whole block *)
    let len = Pbca_isa.Codec.encoded_length i in
    Some (Cfg.block_end b - len, i, len)
  | None -> (
    (* split fall-through fragments and candidates carry no terminator;
       only then decode to check the final instruction *)
    match List.rev (block_insns g b) with
    | ((_, i, _) as last) :: _ when Semantics.is_control_flow i -> Some last
    | _ -> None)
