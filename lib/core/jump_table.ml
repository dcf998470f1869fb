module Insn = Pbca_isa.Insn
module Reg = Pbca_isa.Reg
module Semantics = Pbca_isa.Semantics
module Image = Pbca_binfmt.Image

type outcome = {
  targets : int list;
  base : int option;
  bounded : bool;
  entries : int;
}

let empty_outcome = { targets = []; base = None; bounded = false; entries = 0 }

type value = V_const of int | V_table of { base : int; scale : int; index : Reg.t }

let defines reg insn = Reg.Set.mem reg (Semantics.defs insn)

(* Predecessors reachable through intra-procedural edges, for slicing across
   block boundaries. *)
let slice_preds (b : Cfg.block) =
  List.filter_map
    (fun (e : Cfg.edge) ->
      match e.e_kind with
      | Cfg.Fallthrough | Cfg.Cond_fall | Cfg.Jump | Cfg.Cond_taken ->
        Some e.e_src
      | Cfg.Call | Cfg.Call_fallthrough | Cfg.Indirect | Cfg.Tail_call -> None)
    (Cfg.in_edges b)

(* Backward chase of [reg]'s definition, starting just above instruction
   index [idx] of [block]. Returns the possible values and whether every
   explored path produced one. [steps] is the remaining slice budget
   (decremented per instruction visited across the whole slice, all paths
   included); when it runs dry [exhausted] is set and the slice gives up,
   which the caller records as a [B_slice] degradation. *)
let rec resolve g ~steps ~exhausted (block : Cfg.block) insns idx reg depth :
    value list * bool =
  Pbca_obs.Trace.tick g.Cfg.trace 1;
  if depth <= 0 then ([], false)
  else begin
    let rec scan i =
      if !exhausted then ([], false)
      else if i < 0 then from_preds ()
      else begin
        decr steps;
        if !steps < 0 then begin
          exhausted := true;
          ([], false)
        end
        else
          let _, insn, _ = List.nth insns i in
          if defines reg insn then
            match insn with
            | Insn.Mov_ri (_, v) -> ([ V_const v ], true)
            | Insn.Lea (_, disp) ->
              let a, _, len = List.nth insns i in
              ([ V_const (a + len + disp) ], true)
            | Insn.Mov_rr (_, src) ->
              resolve g ~steps ~exhausted block insns i src depth
            | Insn.Load_idx (_, base_r, idx_r, sc) ->
              let bases, ok =
                resolve g ~steps ~exhausted block insns i base_r depth
              in
              let tables =
                List.filter_map
                  (function
                    | V_const b -> Some (V_table { base = b; scale = sc; index = idx_r })
                    | V_table _ -> None)
                  bases
              in
              (tables, ok && List.length tables = List.length bases)
            | _ -> ([], false) (* arithmetic, pop, load...: give up on this path *)
          else scan (i - 1)
      end
    and from_preds () =
      match slice_preds block with
      | [] -> ([], false)
      | preds ->
        List.fold_left
          (fun (acc, ok) (p : Cfg.block) ->
            let pinsns = Disasm.block_insns g p in
            let vs, pok =
              resolve g ~steps ~exhausted p pinsns (List.length pinsns) reg
                (depth - 1)
            in
            (vs @ acc, ok && pok))
          ([], true) preds
    in
    scan (idx - 1)
  end

(* Find an upper bound for [index]: a dominating [Cmp_ri (index, k)] feeding
   a [Jcc (Ge|Gt)] whose not-taken path leads here. *)
let find_bound g (block : Cfg.block) insns index =
  (* nearest dominating compare wins; stop at any redefinition of the
     index register *)
  let in_block_bound insns limit =
    let rec scan i =
      if i < 0 || i >= limit then None
      else
        let _, insn, _ = List.nth insns i in
        match insn with
        | Insn.Cmp_ri (r, k) when Reg.equal r index -> Some k
        | _ when defines index insn -> None
        | _ -> scan (i - 1)
    in
    scan (limit - 1)
  in
  match in_block_bound insns (List.length insns) with
  | Some k -> Some k
  | None ->
    (* look in conditional predecessors: [cmp index, k; jge default] with the
       fall-through edge entering this block *)
    let bounds =
      List.filter_map
        (fun (e : Cfg.edge) ->
          match e.e_kind with
          | Cfg.Cond_fall | Cfg.Fallthrough -> begin
            let p = e.e_src in
            match Disasm.terminator g p with
            | Some (_, Insn.Jcc (Insn.Ge, _), _) ->
              let pinsns = Disasm.block_insns g p in
              in_block_bound pinsns (List.length pinsns)
            | Some (_, Insn.Jcc (Insn.Gt, _), _) ->
              let pinsns = Disasm.block_insns g p in
              Option.map (fun k -> k + 1)
                (in_block_bound pinsns (List.length pinsns))
            | _ -> None
          end
          | _ -> None)
        (Cfg.in_edges block)
    in
    (match bounds with [] -> None | bs -> Some (List.fold_left max 0 bs))

let is_static_entry g addr = Addr_map.mem g.Cfg.static_entries addr

let valid_unbounded_target g addr =
  Image.in_text g.Cfg.image addr
  && (not (is_static_entry g addr))
  && Option.is_some (Image.decode_at g.Cfg.image addr)

(* Over-approximation cap on a table whose bound is not recoverable. *)
let max_scan = 128

(* The third result is true when the scan was cut by the
   [max_table_entries] budget while entries were still flowing — as opposed
   to stopping at the recovered bound or the [max_scan]
   over-approximation cap, which are normal outcomes. *)
let read_table g ~base ~scale ~bound =
  let image = g.Cfg.image in
  let read i = Image.u32 image (base + (i * scale)) in
  let budget = Cfg.effective_budget g.Cfg.config.Config.max_table_entries in
  let limit = if budget > 0 then budget else max_int in
  match bound with
  | Some k ->
    let rec go i acc =
      if i >= min k limit then (List.rev acc, i, i >= limit && limit < k)
      else
        match read i with
        | Some t when Image.in_text image t -> go (i + 1) (t :: acc)
        | _ -> (List.rev acc, i, false)
    in
    go 0 []
  | None ->
    (* over-approximating scan: accept entries while they look like code
       addresses that are not known function entries *)
    let rec go i acc =
      if i >= min max_scan limit then
        (List.rev acc, i, i >= limit && limit < max_scan)
      else
        match read i with
        | Some t when valid_unbounded_target g t -> go (i + 1) (t :: acc)
        | _ -> (List.rev acc, i, false)
    in
    go 0 []

(* Mark the table's block and jump-instruction addresses degraded so the
   checker can attribute the resulting unresolved table (and any function
   shape change downstream of it) to the budget cut. *)
let degrade_table g (block : Cfg.block) site =
  Cfg.record_degraded g site block.Cfg.b_start;
  (match Disasm.terminator g block with
  | Some (a, _, _) -> Cfg.mark_degraded g a
  | None -> ())

let analyze g (block : Cfg.block) reg : outcome =
  Atomic.incr g.Cfg.stats.jt_analyses;
  let insns = Disasm.block_insns g block in
  let n = List.length insns in
  Pbca_obs.Trace.tick g.Cfg.trace (8 * n);
  let budget = Cfg.effective_budget g.Cfg.config.Config.max_slice_steps in
  let steps = ref (if budget > 0 then budget else max_int) in
  let exhausted = ref false in
  let values, all_ok = resolve g ~steps ~exhausted block insns n reg 4 in
  if !exhausted then degrade_table g block Cfg.B_slice;
  let values = if all_ok || g.Cfg.config.Config.jt_union then values else [] in
  let tables =
    List.filter_map
      (function
        | V_table { base; scale; index } -> Some (base, scale, index)
        | V_const _ -> None)
      values
  in
  match tables with
  | [] ->
    Atomic.incr g.Cfg.stats.jt_unresolved;
    empty_outcome
  | _ ->
    let targets = ref [] in
    let first_base = ref None in
    let any_bounded = ref false in
    let max_entries = ref 0 in
    let capped = ref false in
    List.iter
      (fun (base, scale, index) ->
        if scale = 4 then begin
          let bound = find_bound g block insns index in
          if bound <> None then any_bounded := true;
          let ts, entries, cut = read_table g ~base ~scale ~bound in
          Pbca_obs.Trace.tick g.Cfg.trace (4 * entries);
          if cut then capped := true;
          if !first_base = None then first_base := Some base;
          max_entries := max !max_entries entries;
          targets := !targets @ ts
        end)
      tables;
    if !capped then begin
      (* a truncated target list is not a safe answer; degrade the whole
         table to the unresolved over-approximation *)
      degrade_table g block Cfg.B_table;
      Atomic.incr g.Cfg.stats.jt_unresolved;
      empty_outcome
    end
    else begin
      if !targets = [] then Atomic.incr g.Cfg.stats.jt_unresolved;
      {
        targets = !targets;
        base = !first_base;
        bounded = !any_bounded;
        entries = !max_entries;
      }
    end
