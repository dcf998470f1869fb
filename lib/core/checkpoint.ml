module Parse_error = Pbca_binfmt.Parse_error

let magic = "PBCK"

(* v3: confidence tags ([Op_conf]) materialize with the graph and the gap
   counters join the header block. Strictly checked on load — a v2 file is
   rejected as unsupported, never half-read. *)
let version = 3

type snapshot = {
  cp_round : int;
  cp_resume_count : int;
  cp_seq_floor : int;
  cp_progress_s : float;
  cp_counters : int array;
  cp_ops : Journal.op list;
}

(* Counter order is part of the format (version-gated): a loader seeing a
   different count restores the prefix it knows about. Each name is the
   graph's registry counter of that name, saved and restored through
   [Metrics.counter]. *)
let counter_names =
  [|
    "insns_decoded";
    "splits";
    "jt_analyses";
    "jt_unresolved";
    "budget_block";
    "budget_slice";
    "budget_table";
    "journal_records";
    "replayed_ops";
    "gap_gaps_scanned";
    "gap_entries_proposed";
    "gap_entries_accepted";
    "gap_entries_rejected";
  |]

(* ------------------------------------------------------------------ *)
(* Materialization: the live (quiescent) graph compacted to an op
   stream. Only live state is described — dead edges, watcher lists and
   waiter lists are all reconstructed by the resumed traversal, and the
   journal's dead/move ops have already been applied to whatever
   produced this graph. Resolved return statuses ARE recorded (v2):
   they are monotone facts at the quiescent point, and replaying them
   lets a complete artifact skip the traversal re-seeding entirely.
   Confidence tags are recorded too (v3): provenance is a write-once
   fact, and a resumed gap scan must see which entries were already
   proposed heuristically.                                              *)

let materialize_ops ~pending (g : Cfg.t) =
  let ops = ref [] in
  let push op = ops := op :: !ops in
  let blocks = Cfg.blocks_list g in
  List.iter (fun (b : Cfg.block) -> push (Journal.Op_block b.Cfg.b_start)) blocks;
  List.iter
    (fun (b : Cfg.block) ->
      let e = Cfg.block_end b in
      if e >= 0 then begin
        push
          (Journal.Op_end
             {
               start = b.Cfg.b_start;
               end_ = e;
               ninsns = Atomic.get b.Cfg.b_ninsns;
             });
        match Atomic.get b.Cfg.b_term with
        | None -> ()
        | Some insn -> push (Journal.Op_term { start = b.Cfg.b_start; insn = Some insn })
      end)
    blocks;
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun (e : Cfg.edge) ->
          push
            (Journal.Op_edge
               {
                 src = e.Cfg.e_src.Cfg.b_start;
                 dst = e.Cfg.e_dst.Cfg.b_start;
                 kind = Cfg.edge_kind_code e.Cfg.e_kind;
                 jt = e.Cfg.e_jt;
               }))
        (Cfg.out_edges b))
    blocks;
  (* confidence tags strictly before the functions they describe: the
     replayed Op_func re-derives a call-target tag (write-once), so a
     stored heuristic tag must already be present when it lands *)
  List.iter
    (fun (addr, conf) -> push (Journal.Op_conf { addr; conf }))
    (Cfg.conf_list g);
  List.iter
    (fun (f : Cfg.func) ->
      push
        (Journal.Op_func
           {
             entry = f.Cfg.f_entry_addr;
             name = f.Cfg.f_name;
             from_symtab = f.Cfg.f_from_symtab;
           }))
    (Cfg.funcs_list g);
  List.iter
    (fun (f : Cfg.func) ->
      (* Returns only: it is the one monotone status. Noreturn at this
         quiescent point may just mean "return point not found yet" under
         a cut deadline — a resumed walk must be free to overturn it,
         and set_returns only flips Unset. *)
      match Atomic.get f.Cfg.f_ret with
      | Cfg.Returns ->
        push (Journal.Op_ret { entry = f.Cfg.f_entry_addr; status = 1 })
      | Cfg.Unset | Cfg.Noreturn -> ())
    (Cfg.funcs_list g);
  List.iter
    (fun (addr, deadline) -> push (Journal.Op_degraded { addr; deadline }))
    (Cfg.degraded_list g);
  List.iter
    (fun (end_, reg) -> push (Journal.Op_jt_pending { end_; reg }))
    (List.sort compare pending);
  List.rev !ops

(* ------------------------------------------------------------------ *)
(* Save. The header carries its own CRC-framed payload; op records use
   the journal framing with synthetic seqs, and the stream is terminated
   by an [Op_commit] footer — a load that never sees the footer knows the
   file is truncated. The write is atomic: tmp file + rename.           *)

let frame buf payload =
  let pb = Buffer.to_bytes payload in
  let len = Bytes.length pb in
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (Int32.of_int (Journal.crc32 pb 0 len));
  Buffer.add_bytes buf pb

let save ~path ~round ~pending ~seq_floor ~progress_s (g : Cfg.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int version);
  let hdr = Buffer.create 64 in
  Buffer.add_int32_le hdr (Int32.of_int round);
  Buffer.add_int32_le hdr (Int32.of_int (Atomic.get g.Cfg.stats.Cfg.resume_count));
  Buffer.add_int64_le hdr (Int64.of_int seq_floor);
  Buffer.add_int64_le hdr (Int64.bits_of_float progress_s);
  Buffer.add_uint16_le hdr (Array.length counter_names);
  Array.iter
    (fun name ->
      let v = Pbca_obs.Metrics.(count (counter g.Cfg.metrics name)) in
      Buffer.add_int64_le hdr (Int64.of_int v))
    counter_names;
  frame buf hdr;
  let seq = ref 0 in
  List.iter
    (fun op ->
      Journal.append_record buf ~seq:!seq op;
      incr seq)
    (materialize_ops ~pending g);
  Journal.append_record buf ~seq:!seq (Journal.Op_commit round);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Load: total, and strict. A checkpoint is trusted state — any framing
   damage is a hard structured error (the caller decides whether to fall
   back to journal-only recovery), unlike the journal whose tail is
   allowed to tear.                                                     *)

let err e = Error e

let load ~path =
  if not (Sys.file_exists path) then
    err (Parse_error.Truncated { what = "checkpoint"; pos = 0 })
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let hdr_len = String.length magic + 4 in
        let head = Bytes.create hdr_len in
        match really_input ic head 0 hdr_len with
        | exception End_of_file ->
          err (Parse_error.Truncated { what = "checkpoint header"; pos = 0 })
        | () ->
          if Bytes.sub_string head 0 (String.length magic) <> magic then
            err
              (Parse_error.Bad_magic
                 { got = Bytes.sub_string head 0 (String.length magic) })
          else begin
            let v =
              Int32.to_int (Bytes.get_int32_le head (String.length magic))
            in
            if v <> version then
              err
                (Parse_error.Bad_section
                   {
                     name = "checkpoint";
                     reason = Printf.sprintf "unsupported version %d" v;
                   })
            else begin
              (* header record: [u32 len][u32 crc][fields] *)
              let read_n n =
                let b = Bytes.create n in
                match really_input ic b 0 n with
                | exception End_of_file -> None
                | () -> Some b
              in
              match read_n 8 with
              | None ->
                err
                  (Parse_error.Truncated
                     { what = "checkpoint header"; pos = hdr_len })
              | Some fr -> (
                let len = Int32.to_int (Bytes.get_int32_le fr 0) in
                let crc =
                  Int32.to_int (Bytes.get_int32_le fr 4) land 0xFFFFFFFF
                in
                if len < 24 || len > 65536 then
                  err
                    (Parse_error.Bad_section
                       { name = "checkpoint"; reason = "bad header length" })
                else
                  match read_n len with
                  | None ->
                    err
                      (Parse_error.Truncated
                         { what = "checkpoint header"; pos = hdr_len + 8 })
                  | Some hb ->
                    if Journal.crc32 hb 0 len <> crc then
                      err
                        (Parse_error.Bad_section
                           {
                             name = "checkpoint";
                             reason = "header crc mismatch";
                           })
                    else begin
                      let cp_round = Int32.to_int (Bytes.get_int32_le hb 0) in
                      let cp_resume_count =
                        Int32.to_int (Bytes.get_int32_le hb 4)
                      in
                      let cp_seq_floor =
                        Int64.to_int (Bytes.get_int64_le hb 8)
                      in
                      let cp_progress_s =
                        Int64.float_of_bits (Bytes.get_int64_le hb 16)
                      in
                      let n = Bytes.get_uint16_le hb 24 in
                      if len < 26 + (8 * n) then
                        err
                          (Parse_error.Bad_section
                             {
                               name = "checkpoint";
                               reason = "counter block short";
                             })
                      else begin
                        let cp_counters =
                          Array.init n (fun i ->
                              Int64.to_int (Bytes.get_int64_le hb (26 + (8 * i))))
                        in
                        (* op records until the Op_commit footer *)
                        let ops = ref [] in
                        let rec go () =
                          match Journal.read_record ic with
                          | Journal.End_clean ->
                            err
                              (Parse_error.Truncated
                                 {
                                   what = "checkpoint (missing commit footer)";
                                   pos = pos_in ic;
                                 })
                          | Journal.End_torn reason ->
                            err
                              (Parse_error.Bad_section
                                 { name = "checkpoint"; reason })
                          | Journal.Rec (_, Journal.Op_commit r) ->
                            if r <> cp_round then
                              err
                                (Parse_error.Bad_section
                                   {
                                     name = "checkpoint";
                                     reason = "footer round mismatch";
                                   })
                            else
                              Ok
                                {
                                  cp_round;
                                  cp_resume_count;
                                  cp_seq_floor;
                                  cp_progress_s;
                                  cp_counters;
                                  cp_ops = List.rev !ops;
                                }
                          | Journal.Rec (_, op) ->
                            ops := op :: !ops;
                            go ()
                        in
                        go ()
                      end
                    end)
            end
          end)
  end
