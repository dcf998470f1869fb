module GT = Pbca_codegen.Ground_truth
module Cfg = Pbca_core.Cfg
module Summary = Pbca_core.Summary
module Disasm = Pbca_core.Disasm
module Semantics = Pbca_isa.Semantics

type verdict = Match | Expected of string | Mismatch of string

type report = {
  binary : string;
  func_total : int;
  func_match : int;
  func_expected : (string * string) list;
  func_mismatch : (string * string) list;
  extra_funcs : (int * verdict) list;
  jt_total : int;
  jt_ok : int;
  jt_expected_unresolved : int;
  jt_mismatch : int;
  nr_total : int;
  nr_ok : int;
  nr_expected_miss : int;
  nr_mismatch : int;
}

let in_ranges ranges a = List.exists (fun (lo, hi) -> a >= lo && a < hi) ranges

(* Taint fixpoint: direct roots are the paper's difference classes 1 and 3;
   callers (and tail-callers) of tainted functions inherit the taint, since
   their fall-through edges and return statuses depend on the callee. *)
let compute_taint (g : Cfg.t) (gt : GT.t) =
  let taint : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let add entry cls =
    if not (Hashtbl.mem taint entry) then Hashtbl.replace taint entry cls
  in
  List.iter
    (fun (gf : GT.gfun) ->
      List.iter
        (fun (c : GT.nr_call) ->
          if (not c.nc_matchable) && in_ranges gf.gf_ranges c.nc_call_addr then
            add gf.gf_entry "error-noreturn-call")
        gt.gt_nr_calls;
      List.iter
        (fun (t : GT.jump_table) ->
          if (not t.jt_resolvable) && in_ranges gf.gf_ranges t.jt_jump_addr
          then add gf.gf_entry "stack-spilled-jump-table")
        gt.gt_tables)
    gt.gt_funcs;
  (* call-graph propagation over the ground-truth ranges *)
  let entries = List.map (fun (f : GT.gfun) -> f.gf_entry) gt.gt_funcs in
  let entry_set = Hashtbl.create 128 in
  List.iter (fun e -> Hashtbl.replace entry_set e ()) entries;
  let callees_of (gf : GT.gfun) =
    List.concat_map
      (fun (lo, hi) ->
        List.filter_map
          (fun (a, insn, len) ->
            match Semantics.flow ~addr:a ~len insn with
            | Semantics.Call_direct t | Semantics.Jump t
            | Semantics.Cond_jump t
              when Hashtbl.mem entry_set t ->
              Some t
            | _ -> None)
          (Disasm.insns_between g.Cfg.image ~lo ~hi))
      gf.gf_ranges
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (gf : GT.gfun) ->
        if not (Hashtbl.mem taint gf.gf_entry) then
          match
            List.find_opt (fun t -> Hashtbl.mem taint t) (callees_of gf)
          with
          | Some t ->
            let root = Hashtbl.find taint t in
            let root =
              if String.length root > 8 && String.sub root 0 8 = "cascade:"
              then root
              else "cascade:" ^ root
            in
            Hashtbl.replace taint gf.gf_entry root;
            changed := true
          | None -> ())
      gt.gt_funcs
  done;
  taint

(* Degradation marks (budget cuts, deadline skips, contained task crashes)
   explain differences the same way taint does: the parser announced it gave
   up on that territory, so a divergence there is the documented safe
   over-approximation, not a silent error. *)
let gf_degraded g (gf : GT.gfun) =
  Cfg.degraded_at g gf.gf_entry
  || List.exists (fun (lo, hi) -> Cfg.degraded_within g ~lo ~hi) gf.gf_ranges

let degraded_verdict g ?f (gf : GT.gfun) =
  if
    gf_degraded g gf
    || (match f with Some f -> Cfg.func_degraded g f | None -> false)
  then Some (Expected "budget-degraded")
  else if Atomic.get g.Cfg.stats.Cfg.budget_deadline > 0 then
    (* past the deadline, function *discovery* itself is incomplete: a
       traversal that was skipped can no longer find tail-called entries,
       so even unmarked absences are the deadline's doing *)
    Some (Expected "deadline-degraded")
  else if Cfg.task_failure_count g > 0 then Some (Expected "task-failure")
  else None

(* The portions of [got] not covered by [cover] (both half-open lists). *)
let range_subtract got cover =
  let cover = List.sort compare cover in
  List.concat_map
    (fun (lo, hi) ->
      let rec cut lo hi acc = function
        | [] -> if lo < hi then (lo, hi) :: acc else acc
        | (clo, chi) :: tl ->
          if chi <= lo then cut lo hi acc tl
          else if clo >= hi then if lo < hi then (lo, hi) :: acc else acc
          else cut (max lo chi) hi (if clo > lo then (lo, clo) :: acc else acc) tl
      in
      List.rev (cut lo hi [] cover))
    got

(* Without symbols, a jump to another function's entry is indistinguishable
   from an intra-procedural branch, so a traversal legitimately absorbs the
   tail-called function's body into the caller. The verdict applies only
   when every absorbed byte belongs to a ground-truth function whose symbol
   was withheld — a range excess anywhere else stays a real mismatch. *)
let tail_call_absorbed (gt : GT.t) (gf : GT.gfun) ~got =
  match range_subtract got gf.GT.gf_ranges with
  | [] -> false (* no excess: the difference is elsewhere *)
  | extras ->
    range_subtract gf.GT.gf_ranges got = [] (* got covers all of gt *)
    && List.for_all
         (fun extra ->
           range_subtract [ extra ]
             (List.concat_map
                (fun (o : GT.gfun) ->
                  if o.gf_entry <> gf.GT.gf_entry && not o.gf_in_symtab then
                    o.gf_ranges
                  else [])
                gt.gt_funcs)
           = [])
         extras

let check_function g taint (gt : GT.t) (gf : GT.gfun) : verdict =
  match Pbca_core.Addr_map.find g.Cfg.funcs gf.gf_entry with
  | None -> (
    match Hashtbl.find_opt taint gf.gf_entry with
    | Some cls -> Expected cls
    | None -> (
      match degraded_verdict g gf with
      | Some v -> v
      | None ->
        if not gf.GT.gf_in_symtab then
          (* the symbol was withheld: with gap parsing on this is a
             heuristic recall miss ([score_discovery] charges it);
             without it the parser was never given a way to find the
             entry at all *)
          if g.Cfg.config.Pbca_core.Config.gap_parse then
            Expected "heuristic-miss"
          else Expected "not-in-symtab"
        else Mismatch "function not found"))
  | Some f ->
    let ranges = Summary.func_ranges g f in
    let returns = Atomic.get f.Cfg.f_ret = Cfg.Returns in
    if ranges = gf.gf_ranges && returns = gf.gf_returns then Match
    else begin
      match Hashtbl.find_opt taint gf.gf_entry with
      | Some cls -> Expected cls
      | None -> (
        match degraded_verdict g ~f gf with
        | Some v -> v
        | None when Cfg.func_confidence g f = Cfg.From_heuristic ->
          (* the entry itself was a gap proposal: its boundary is
             best-effort by construction, and [score_discovery] already
             gives entry discovery its own exact score *)
          Expected "heuristic-ranges"
        | None
          when returns = gf.gf_returns
               && tail_call_absorbed gt gf ~got:ranges ->
          Expected "tail-call-absorption"
        | None ->
          let show rs =
            String.concat " "
              (List.map (fun (a, b) -> Printf.sprintf "[0x%x,0x%x)" a b) rs)
          in
          if ranges <> gf.gf_ranges then
            Mismatch
              (Printf.sprintf "ranges gt=%s got=%s" (show gf.gf_ranges)
                 (show ranges))
          else
            Mismatch
              (Printf.sprintf "returns gt=%b got=%b" gf.gf_returns returns))
    end

(* is the address inside a tainted function's true ranges? then any local
   difference is a cascade of classes 1/3 (the paper's class 4: "an extra
   indirect jump target caused by failing to identify a non-returning
   call") *)
let addr_tainted taint (gt : GT.t) addr =
  List.exists
    (fun (gf : GT.gfun) ->
      Hashtbl.mem taint gf.gf_entry && in_ranges gf.gf_ranges addr)
    gt.gt_funcs

(* the address sits in degraded territory, or a contained task crash left
   the whole parse partial *)
let addr_degraded g (gt : GT.t) addr =
  Cfg.degraded_at g addr
  || Cfg.task_failure_count g > 0
  || List.exists
       (fun (gf : GT.gfun) -> in_ranges gf.gf_ranges addr && gf_degraded g gf)
       gt.gt_funcs

(* the address lies in territory whose ground-truth function had its
   symbol withheld and was never (re)discovered: everything inside it —
   jump tables, noreturn facts — is beyond the parser's reach, and the
   absence is already charged as a recall miss by [score_discovery] *)
let addr_in_missed_territory g (gt : GT.t) addr =
  List.exists
    (fun (gf : GT.gfun) ->
      (not gf.gf_in_symtab)
      && in_ranges gf.gf_ranges addr
      && Pbca_core.Addr_map.find g.Cfg.funcs gf.gf_entry = None)
    gt.gt_funcs

let check_tables g taint (gt : GT.t) =
  let parsed = Pbca_concurrent.Conc_bag.to_list g.Cfg.tables in
  let ok = ref 0 and expected = ref 0 and bad = ref 0 in
  List.iter
    (fun (t : GT.jump_table) ->
      let found =
        List.find_opt (fun (p : Cfg.jt_record) -> p.jt_jump_addr = t.jt_jump_addr) parsed
      in
      if not t.jt_resolvable then begin
        (* the stack-spilled computation must defeat the slicer *)
        match found with
        | None -> incr expected
        | Some p ->
          if p.Cfg.jt_count = 0 || addr_degraded g gt t.jt_jump_addr then
            incr expected
          else incr bad
      end
      else begin
        match found with
        | None ->
          if
            addr_tainted taint gt t.jt_jump_addr
            || addr_degraded g gt t.jt_jump_addr
            || addr_in_missed_territory g gt t.jt_jump_addr
          then incr expected
          else incr bad
        | Some p ->
          (* the paper evaluates jump-table *sizes*; we also require the
             target set to match *)
          let gt_targets = List.sort_uniq compare t.jt_targets in
          let live_targets =
            List.sort_uniq compare
              (List.filter_map
                 (fun (e : Cfg.edge) ->
                   if e.e_kind = Cfg.Indirect then Some e.e_dst.Cfg.b_start
                   else None)
                 (Cfg.out_edges p.Cfg.jt_block))
          in
          if
            p.Cfg.jt_count = List.length t.jt_targets
            && gt_targets = live_targets
          then incr ok
          else if
            addr_tainted taint gt t.jt_jump_addr
            || addr_degraded g gt t.jt_jump_addr
            || addr_in_missed_territory g gt t.jt_jump_addr
          then
            (* class 4: bogus control flow from a tainted region reached
               the slice and perturbed the table — or a budget cut left
               the table in its unresolved over-approximation *)
            incr expected
          else incr bad
      end)
    gt.gt_tables;
  (!ok, !expected, !bad)

let check_nr_calls g taint (gt : GT.t) =
  let ok = ref 0 and expected = ref 0 and bad = ref 0 in
  List.iter
    (fun (c : GT.nr_call) ->
      let has_ft =
        let call_end =
          match Pbca_binfmt.Image.decode_at g.Cfg.image c.nc_call_addr with
          | Some (_, len) -> c.nc_call_addr + len
          | None -> c.nc_call_addr
        in
        match Pbca_core.Addr_map.find g.Cfg.ends call_end with
        | Some b ->
          List.exists
            (fun (e : Cfg.edge) -> e.e_kind = Cfg.Call_fallthrough)
            (Cfg.out_edges b)
        | None -> false
      in
      if c.nc_matchable then
        if not has_ft then incr ok
        else if
          addr_tainted taint gt c.nc_call_addr
          || addr_degraded g gt c.nc_call_addr
          || addr_in_missed_territory g gt c.nc_call_addr
          || addr_in_missed_territory g gt c.nc_callee
        then incr expected
        else incr bad
      else if has_ft then incr expected (* paper difference 1 *)
      else incr ok)
    gt.gt_nr_calls;
  (!ok, !expected, !bad)

let check (gt : GT.t) (g : Cfg.t) : report =
  let taint = compute_taint g gt in
  let func_match = ref 0 in
  let func_expected = ref [] in
  let func_mismatch = ref [] in
  List.iter
    (fun (gf : GT.gfun) ->
      match check_function g taint gt gf with
      | Match -> incr func_match
      | Expected cls -> func_expected := (gf.gf_name, cls) :: !func_expected
      | Mismatch d -> func_mismatch := (gf.gf_name, d) :: !func_mismatch)
    gt.gt_funcs;
  let extra_funcs =
    List.filter_map
      (fun (f : Cfg.func) ->
        if List.exists (fun (gf : GT.gfun) -> gf.gf_entry = f.f_entry_addr) gt.gt_funcs
        then None
        else
          (* extra functions are acceptable only inside tainted territory *)
          let explained =
            Hashtbl.fold
              (fun entry cls acc ->
                match acc with
                | Some _ -> acc
                | None -> (
                  match GT.find_func gt entry with
                  | Some gf when in_ranges gf.gf_ranges f.Cfg.f_entry_addr ->
                    Some cls
                  | _ -> None))
              taint None
          in
          (* A gap-scan proposal that matches no ground-truth entry is the
             documented over-approximation of heuristic discovery, not a
             parser error — its own bucket, so budget degradations
             (PR3's classes) are never conflated with heuristic noise.
             [score_discovery] charges these against precision. *)
          let explained =
            match explained with
            | Some _ -> explained
            | None ->
              if Cfg.func_confidence g f = Cfg.From_heuristic then
                Some "heuristic-spurious"
              else None
          in
          (* ... or when discovered inside a tainted extension beyond any
             ground-truth range: attribute to the nearest preceding tainted
             function *)
          let explained =
            match explained with
            | Some _ -> explained
            | None ->
              if Hashtbl.length taint > 0 then Some "cascade:discovery"
              else if Cfg.degraded_count g > 0 || Cfg.task_failure_count g > 0
              then
                (* a degraded parse may discover entries the clean one
                   would not (or vice versa); the marks own the blame *)
                Some "degraded-discovery"
              else None
          in
          match explained with
          | Some cls -> Some (f.Cfg.f_entry_addr, Expected cls)
          | None -> Some (f.Cfg.f_entry_addr, Mismatch "unexpected function"))
      (Cfg.funcs_list g)
  in
  let jt_ok, jt_expected_unresolved, jt_mismatch = check_tables g taint gt in
  let nr_ok, nr_expected_miss, nr_mismatch = check_nr_calls g taint gt in
  {
    binary = gt.gt_binary;
    func_total = List.length gt.gt_funcs;
    func_match = !func_match;
    func_expected = !func_expected;
    func_mismatch = !func_mismatch;
    extra_funcs;
    jt_total = List.length gt.gt_tables;
    jt_ok;
    jt_expected_unresolved;
    jt_mismatch;
    nr_total = List.length gt.gt_nr_calls;
    nr_ok;
    nr_expected_miss;
    nr_mismatch;
  }

let clean r =
  r.func_mismatch = [] && r.jt_mismatch = 0 && r.nr_mismatch = 0
  && List.for_all
       (fun (_, v) -> match v with Mismatch _ -> false | _ -> true)
       r.extra_funcs

let pp fmt r =
  Format.fprintf fmt
    "@[<v>%s: funcs %d/%d exact, %d expected-diff, %d MISMATCH; extra %d;@ \
     jump tables %d/%d exact, %d expected-unresolved, %d MISMATCH;@ \
     noreturn calls %d/%d exact, %d expected-miss, %d MISMATCH@]"
    r.binary r.func_match r.func_total
    (List.length r.func_expected)
    (List.length r.func_mismatch)
    (List.length r.extra_funcs)
    r.jt_ok r.jt_total r.jt_expected_unresolved r.jt_mismatch r.nr_ok
    r.nr_total r.nr_expected_miss r.nr_mismatch;
  List.iter
    (fun (n, d) -> Format.fprintf fmt "@ MISMATCH %s: %s" n d)
    r.func_mismatch

(* ------------------------------------------------------------------ *)
(* Entry-discovery scoring (PR9). Orthogonal to [check]: that one judges
   the *shape* of what was found; this one judges *which entries exist*,
   the precision/recall frame the gap-parsing gate is stated in. Ground
   truth is the universe of real entries; every live function that
   matches one is a true positive (bucketed by provenance), every one
   that does not is spurious, every ground-truth entry with no live
   function is a miss.                                                  *)

type discovery = {
  ds_relevant : int;
  ds_found : int;
  ds_missed : int;
  ds_spurious : int;
  ds_spurious_heuristic : int;
  ds_found_symbol : int;
  ds_found_call_target : int;
  ds_found_heuristic : int;
  ds_precision : float;
  ds_recall : float;
}

let score_discovery (gt : GT.t) (g : Cfg.t) =
  let entry_set = Hashtbl.create 128 in
  List.iter
    (fun (gf : GT.gfun) -> Hashtbl.replace entry_set gf.gf_entry ())
    gt.gt_funcs;
  let found = ref 0 in
  let sym = ref 0 and ct = ref 0 and heur = ref 0 in
  let spurious = ref 0 and spurious_heur = ref 0 in
  List.iter
    (fun (f : Cfg.func) ->
      let conf = Cfg.func_confidence g f in
      if Hashtbl.mem entry_set f.Cfg.f_entry_addr then begin
        incr found;
        match conf with
        | Cfg.From_symbol -> incr sym
        | Cfg.From_call_target -> incr ct
        | Cfg.From_heuristic -> incr heur
      end
      else begin
        incr spurious;
        if conf = Cfg.From_heuristic then incr spurious_heur
      end)
    (Cfg.funcs_list g);
  let relevant = List.length gt.gt_funcs in
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  {
    ds_relevant = relevant;
    ds_found = !found;
    ds_missed = relevant - !found;
    ds_spurious = !spurious;
    ds_spurious_heuristic = !spurious_heur;
    ds_found_symbol = !sym;
    ds_found_call_target = !ct;
    ds_found_heuristic = !heur;
    ds_precision = ratio !found (!found + !spurious);
    ds_recall = ratio !found relevant;
  }
