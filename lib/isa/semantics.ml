type flow =
  | Fallthrough
  | Jump of int
  | Cond_jump of int
  | Jump_indirect
  | Call_direct of int
  | Call_indirect
  | Return
  | Stop

let flow ~addr ~len (i : Insn.t) =
  let next = addr + len in
  match i with
  | Jmp rel -> Jump (next + rel)
  | Jcc (_, rel) -> Cond_jump (next + rel)
  | Jmp_ind _ -> Jump_indirect
  | Call rel -> Call_direct (next + rel)
  | Call_ind _ -> Call_indirect
  | Ret -> Return
  | Halt -> Stop
  | Nop | Mov_rr _ | Mov_ri _ | Load _ | Store _ | Lea _ | Add _ | Sub _
  | Mul _ | And_ _ | Or_ _ | Xor _ | Shl _ | Shr _ | Add_ri _ | Cmp_rr _
  | Cmp_ri _ | Push _ | Pop _ | Enter _ | Leave | Load_idx _ ->
    Fallthrough

let is_control_flow (i : Insn.t) =
  match i with
  | Jmp _ | Jcc _ | Jmp_ind _ | Call _ | Call_ind _ | Ret | Halt -> true
  | Nop | Mov_rr _ | Mov_ri _ | Load _ | Store _ | Lea _ | Add _ | Sub _
  | Mul _ | And_ _ | Or_ _ | Xor _ | Shl _ | Shr _ | Add_ri _ | Cmp_rr _
  | Cmp_ri _ | Push _ | Pop _ | Enter _ | Leave | Load_idx _ ->
    false

let is_stack_teardown (i : Insn.t) = match i with Leave -> true | _ -> false

let set = Reg.Set.of_list

let defs (i : Insn.t) =
  match i with
  | Mov_rr (d, _) | Mov_ri (d, _) | Load (d, _, _) | Lea (d, _) -> set [ d ]
  | Add (d, _) | Sub (d, _) | Mul (d, _) | And_ (d, _) | Or_ (d, _)
  | Xor (d, _) | Shl (d, _) | Shr (d, _) | Add_ri (d, _) ->
    set [ d ]
  | Load_idx (d, _, _, _) -> set [ d ]
  | Pop d -> set [ d; Reg.sp ]
  | Push _ -> set [ Reg.sp ]
  | Enter _ -> set [ Reg.sp; Reg.fp ]
  | Leave -> set [ Reg.sp; Reg.fp ]
  | Call _ | Call_ind _ ->
    (* Calls clobber the return-value register and scratch registers per the
       synthetic ABI: r0 (return) and the argument registers. *)
    set [ Reg.r0; Reg.r1; Reg.r2; Reg.r3; Reg.r4; Reg.r5 ]
  | Nop | Halt | Store _ | Cmp_rr _ | Cmp_ri _ | Jmp _ | Jcc _ | Jmp_ind _
  | Ret ->
    Reg.Set.empty

let uses (i : Insn.t) =
  match i with
  | Mov_rr (_, s) -> set [ s ]
  | Load (_, base, _) -> set [ base ]
  | Store (base, _, s) -> set [ base; s ]
  | Add (d, s) | Sub (d, s) | Mul (d, s) | And_ (d, s) | Or_ (d, s)
  | Xor (d, s) ->
    set [ d; s ]
  | Shl (d, _) | Shr (d, _) | Add_ri (d, _) -> set [ d ]
  | Cmp_rr (x, y) -> set [ x; y ]
  | Cmp_ri (x, _) -> set [ x ]
  | Push s -> set [ s; Reg.sp ]
  | Pop _ -> set [ Reg.sp ]
  | Enter _ -> set [ Reg.sp; Reg.fp ]
  | Leave -> set [ Reg.fp ]
  | Jmp_ind s | Call_ind s -> set [ s ]
  | Load_idx (_, base, idx, _) -> set [ base; idx ]
  | Call _ -> set [ Reg.r1; Reg.r2; Reg.r3 ]
  | Ret -> set [ Reg.r0; Reg.sp ]
  | Nop | Halt | Mov_ri _ | Lea _ | Jmp _ | Jcc _ -> Reg.Set.empty

let reads_mem (i : Insn.t) =
  match i with
  | Load _ | Load_idx _ | Pop _ | Leave | Ret -> true
  | _ -> false

let sp_delta (i : Insn.t) =
  match i with
  | Push _ -> Some (-8)
  | Pop _ -> Some 8
  | Enter n -> Some (-(8 + n))
  | Call _ | Call_ind _ -> Some 0 (* balanced across the call *)
  | Leave -> None (* restores sp from fp: not a constant delta *)
  | _ -> Some 0
