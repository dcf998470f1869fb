module Image = Pbca_binfmt.Image
module Dbg = Pbca_debuginfo.Types
module Dbg_codec = Pbca_debuginfo.Codec
module Line_map = Pbca_debuginfo.Line_map
module Cfg = Pbca_core.Cfg
module Task_pool = Pbca_concurrent.Task_pool
module Trace = Pbca_simsched.Trace

type phase = {
  ph_name : string;
  ph_wall : float;
  ph_trace : Trace.t option;
  ph_work : int;
}

type result = {
  output : string;
  phases : phase list;
  cfg : Cfg.t;
  n_funcs : int;
  n_loops : int;
  n_stmts : int;
}

(* monotonic: a wall-clock step mid-phase must not skew phase walls *)
let time f =
  let t0 = Pbca_obs.Clock.now () in
  let v = f () in
  (v, Pbca_obs.Clock.elapsed t0)

(* phase 2: parallel per-CU debug parsing with task tracing *)
let parse_debug ~pool trace data =
  let blobs = Dbg_codec.cu_blobs data in
  let out = Array.make (Array.length blobs) None in
  Task_pool.run pool (fun spawn ->
      Array.iteri
        (fun i blob ->
          let d = Trace.capture trace in
          spawn (fun () ->
              Trace.run trace ~label:"cu" ~deps:[ d ] (fun () ->
                  Trace.tick trace (16 + (Bytes.length blob / 16));
                  out.(i) <- Some (Dbg_codec.decode_cu blob))))
        blobs);
  { Dbg.cus = Array.map Option.get out }

(* skeleton: one record per function, filled in parallel in phase 6 *)
type skeleton = {
  sk_func : Cfg.func;
  mutable sk_file : string;
  mutable sk_line : int;
  mutable sk_inline : string list;
  mutable sk_loops : (int * int * int) list;  (** header addr, depth, line *)
  mutable sk_stmts : (int * int) list;  (** addr, line *)
}

let make_skeleton f =
  {
    sk_func = f;
    sk_file = "";
    sk_line = 0;
    sk_inline = [];
    sk_loops = [];
    sk_stmts = [];
  }

let fill_skeleton g dbg line_map trace sk =
  let f = sk.sk_func in
  Trace.tick trace 4;
  let fv = Pbca_analysis.Func_view.make g f in
  let dom = Pbca_analysis.Dominators.compute fv in
  let loops = Pbca_analysis.Loops.compute fv dom in
  Trace.tick trace (4 * Pbca_analysis.Func_view.n_blocks fv);
  (match Line_map.lookup line_map f.Cfg.f_entry_addr with
  | Some le ->
    sk.sk_file <- le.Dbg.file;
    sk.sk_line <- le.Dbg.line
  | None -> ());
  sk.sk_inline <- Line_map.inline_context dbg f.Cfg.f_entry_addr;
  sk.sk_loops <-
    Array.to_list loops.Pbca_analysis.Loops.loops
    |> List.map (fun (l : Pbca_analysis.Loops.loop) ->
           let header_addr = fv.blocks.(l.header).Cfg.b_start in
           let line =
             match Line_map.lookup line_map header_addr with
             | Some le -> le.Dbg.line
             | None -> 0
           in
           ( header_addr,
             loops.Pbca_analysis.Loops.depth.(l.header),
             line ));
  (* statement list: one entry per block head *)
  sk.sk_stmts <-
    List.filter_map
      (fun (b : Cfg.block) ->
        Trace.tick trace 1;
        match Line_map.lookup line_map b.Cfg.b_start with
        | Some le -> Some (b.Cfg.b_start, le.Dbg.line)
        | None -> None)
      f.Cfg.f_blocks

let serialize skeletons =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "<structure>\n";
  List.iter
    (fun sk ->
      let f = sk.sk_func in
      Buffer.add_string buf
        (Printf.sprintf "  <func name=%S entry=\"0x%x\" file=%S line=\"%d\"%s>\n"
           f.Cfg.f_name f.Cfg.f_entry_addr sk.sk_file sk.sk_line
           (match sk.sk_inline with
           | [] -> ""
           | ctx -> Printf.sprintf " inline=%S" (String.concat "<" ctx)));
      List.iter
        (fun (addr, depth, line) ->
          Buffer.add_string buf
            (Printf.sprintf "    <loop head=\"0x%x\" depth=\"%d\" line=\"%d\"/>\n"
               addr depth line))
        (List.sort compare sk.sk_loops);
      List.iter
        (fun (addr, line) ->
          Buffer.add_string buf
            (Printf.sprintf "    <stmt addr=\"0x%x\" line=\"%d\"/>\n" addr line))
        (List.sort compare sk.sk_stmts);
      Buffer.add_string buf "  </func>\n")
    skeletons;
  Buffer.add_string buf "</structure>\n";
  Buffer.contents buf

let debug_section image =
  match Image.section image ".debug" with
  | Some s -> s.Pbca_binfmt.Section.data
  | None -> Bytes.empty

let run_phases ?(config = Pbca_core.Config.default) ~pool image read_phase =
  let phases = ref (Option.to_list read_phase) in
  let add name wall trace work =
    phases := { ph_name = name; ph_wall = wall; ph_trace = trace; ph_work = work } :: !phases
  in
  (* phase 2: DWARF *)
  let debug_data = debug_section image in
  let dwarf_trace = Trace.create () in
  let dbg, t2 = time (fun () -> parse_debug ~pool dwarf_trace debug_data) in
  add "dwarf" t2 (Some dwarf_trace) (Trace.total_work dwarf_trace);
  (* phase 3: line map (serial by design; paper footnote 3) *)
  let line_map, t3 = time (fun () -> Line_map.build dbg) in
  add "linemap" t3 None (Line_map.length line_map);
  (* phase 4: CFG *)
  let cfg_trace = Trace.create () in
  let g, t4 =
    time (fun () ->
        Pbca_core.Parallel.parse_and_finalize ~config ~trace:cfg_trace ~pool
          image)
  in
  add "cfg" t4 (Some cfg_trace) (Trace.total_work cfg_trace);
  (* phase 5: skeletons. The function array is materialized once here and
     passed through skeleton, fill and emit — the phases downstream must
     not re-walk the graph's function map for a list they already have. *)
  let funcs = Array.of_list (Cfg.funcs_list g) in
  let skeletons, t5 = time (fun () -> Array.map make_skeleton funcs) in
  add "skeleton" t5 None (Array.length funcs);
  (* phase 6: fill, parallel over functions sorted large-first for load
     balance (paper Listing 7). Schwartzian decorate: the block count is
     computed once per skeleton, not O(log n) times per element inside
     the comparator ([List.length] per comparison made the sort
     O(n log n * len)). *)
  let fill_trace = Trace.create () in
  let decorated =
    Array.map (fun sk -> (List.length sk.sk_func.Cfg.f_blocks, sk)) skeletons
  in
  Array.sort (fun (na, _) (nb, _) -> compare nb na) decorated;
  let (), t6 =
    time (fun () ->
        Task_pool.run pool (fun spawn ->
            Array.iter
              (fun (_, sk) ->
                let d = Trace.capture fill_trace in
                spawn (fun () ->
                    Trace.run fill_trace ~label:"fill" ~deps:[ d ] (fun () ->
                        fill_skeleton g dbg line_map fill_trace sk)))
              decorated))
  in
  add "fill" t6 (Some fill_trace) (Trace.total_work fill_trace);
  (* phase 7: serialize, in the skeleton array's (entry address) order *)
  let skeleton_list = Array.to_list skeletons in
  let output, t7 = time (fun () -> serialize skeleton_list) in
  add "emit" t7 None (String.length output / 64);
  let count f = Array.fold_left (fun acc sk -> acc + List.length (f sk)) 0 in
  {
    output;
    phases = List.rev !phases;
    cfg = g;
    n_funcs = Array.length skeletons;
    n_loops = count (fun sk -> sk.sk_loops) skeletons;
    n_stmts = count (fun sk -> sk.sk_stmts) skeletons;
  }

let run ?config ~pool bytes =
  let image, t1 = time (fun () -> Image.read bytes) in
  let read =
    {
      ph_name = "read";
      ph_wall = t1;
      ph_trace = None;
      ph_work = Bytes.length bytes / 256;
    }
  in
  run_phases ?config ~pool image (Some read)

let run_image ?config ~pool image = run_phases ?config ~pool image None

let phase_wall r sub =
  List.fold_left
    (fun acc p ->
      if
        String.length p.ph_name >= String.length sub
        && String.exists (fun _ -> true) p.ph_name
        &&
        (* substring containment *)
        let rec find i =
          if i + String.length sub > String.length p.ph_name then false
          else if String.sub p.ph_name i (String.length sub) = sub then true
          else find (i + 1)
        in
        find 0
      then acc +. p.ph_wall
      else acc)
    0.0 r.phases

let total_wall r = List.fold_left (fun acc p -> acc +. p.ph_wall) 0.0 r.phases
