(* Seeded workload inputs and their output oracles.

   [generate] runs in a child process forked at set-up, so the
   generator's heap never counts towards the measuring process's peak
   resident memory. The child writes each image's bytes to its own file
   and everything else (names, ground truth, oracles) to one marshalled
   file; [read] loads both back. Every profile keeps its shape but takes
   its rng seed from the workload seed, so a seed fixes the inputs. *)

module Profile = Pbca_codegen.Profile
module Family = Pbca_codegen.Family
module Emit = Pbca_codegen.Emit
module Ground_truth = Pbca_codegen.Ground_truth
module Image = Pbca_binfmt.Image
module Section = Pbca_binfmt.Section
module Config = Pbca_core.Config
module Summary = Pbca_core.Summary
module Serial = Pbca_core.Serial
module Task_pool = Pbca_concurrent.Task_pool
module Checker = Pbca_checker.Checker

type member = {
  name : string;
  gt : Ground_truth.t;
  scored : bool;  (** counts towards entry precision and recall *)
  serial_fp : string;
      (** [Serial.parse_and_finalize] fingerprint; [""] when unused *)
  out_digest : string;
      (** digest of the tool's 1-domain output; [""] when unused *)
}

type t = {
  members : member array;
  oracle_score : float * float;
      (** entry (precision, recall) of the set-up's deterministic graphs *)
  corpus_digest : string;
      (** digest of the 1-domain BinFeat index of the whole corpus; [""]
          when unused *)
}

let workloads = [ "cfg_large"; "hpcstruct_debug"; "forensics_wild"; "serve_mixed" ]

(* forensics_wild parses with gap parsing on: its corpus has stripped
   members whose entries only the gap scan can find *)
let wild_config = { Config.default with Config.gap_parse = true }

let seeded ws group (p : Profile.t) =
  { p with Profile.seed = Hashtbl.hash (ws, group, p.Profile.name) land 0x3fff_ffff }

let fingerprint g = Summary.fingerprint (Summary.of_cfg g)

let index_digest index =
  let entries = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) index []) in
  let buf = Buffer.create 4096 in
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v)) entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Entry precision and recall pooled over several graphs. *)
let score pairs =
  let found, spurious, relevant =
    List.fold_left
      (fun (f, s, r) (gt, g) ->
        let d = Checker.score_discovery gt g in
        (f + d.Checker.ds_found, s + d.Checker.ds_spurious, r + d.Checker.ds_relevant))
      (0, 0, 0) pairs
  in
  let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  (ratio found (found + spurious), ratio found relevant)

let member ?(scored = true) ?(serial_fp = "") ?(out_digest = "") (r : Emit.result) =
  { name = r.Emit.image.Image.name; gt = r.Emit.ground_truth; scored; serial_fp; out_digest }

(* cfg_large measures block traversal alone: the .debug section goes *)
let without_debug (img : Image.t) =
  Image.make ~name:img.Image.name ~entry:img.Image.entry
    ~sections:(List.filter (fun s -> s.Section.name <> ".debug") img.Image.sections)
    img.Image.symtab

let serial_fp ?config img = fingerprint (Serial.parse_and_finalize ?config img)

(* Each workload gives its members, their bytes, and the graph its
   entries are scored on: a serial or 1-domain parse, both deterministic. *)
let cfg_large ws =
  List.map
    (fun p ->
      let r = Emit.generate { (seeded ws 0 p) with Profile.debug_pad_per_cu = 256 } in
      let img = without_debug r.Emit.image in
      let g = Serial.parse_and_finalize img in
      (member ~serial_fp:(fingerprint g) r, Image.write img, g))
    [ Profile.llnl2; Profile.tensorflow ]

(* Half of tensorflow's functions and of its DWARF padding: DWARF decode
   still takes most of a pass, and a pass is short enough that a run
   holds enough of them for a steady median. *)
let hpcstruct_debug ws =
  let p = { (Profile.scale 0.5 Profile.tensorflow) with Profile.debug_pad_per_cu = 90_000 } in
  let r = Emit.generate (seeded ws 0 p) in
  let bytes = Image.write r.Emit.image in
  let h = Pbca_hpcstruct.Hpcstruct.run ~pool:(Task_pool.create ~threads:1) bytes in
  [ (member ~out_digest:(Digest.to_hex (Digest.string h.output)) r, bytes, h.cfg) ]

(* 46 symboled forensics members, 24 stripped, 4 overlapping and 4
   obfuscated ones. Member indices are fixed, so the function-count and
   block-count shapes they select are the same for every seed; the seed
   changes only the code drawn. Indices 1..46 include the one member with
   oversized functions (37) and leave out the multiples of 53 (single
   giant functions), whose superlinear data-flow cost would swing the
   wall time with the drawn block count. The output oracle is the index
   Binfeat.extract gives for the whole corpus on a 1-domain pool. *)
let forensics_wild ws =
  let pool = Task_pool.create ~threads:1 in
  let regular =
    List.init 46 (fun r -> r + 1)
    |> List.map (fun i -> (false, Emit.generate (seeded ws 1 (Profile.forensics_member i))))
  in
  let stripped =
    List.init 24 (fun i ->
        (true, Family.strip (Emit.generate (seeded ws 2 (Family.profile Family.Stripped i)))))
  in
  let hostile =
    List.concat_map
      (fun fam -> List.init 4 (fun i -> (false, Emit.generate (seeded ws 3 (Family.profile fam i)))))
      [ Family.Overlap; Family.Obfuscated ]
  in
  let all = regular @ stripped @ hostile in
  let images = List.map (fun (_, (r : Emit.result)) -> r.Emit.image) all in
  let index = (Pbca_binfeat.Binfeat.extract ~config:wild_config ~pool images).index in
  ( List.map
      (fun (scored, (r : Emit.result)) ->
        let img = r.Emit.image in
        ( member ~scored ~serial_fp:(serial_fp ~config:wild_config img) r,
          Image.write img,
          Pbca_core.Parallel.parse_and_finalize ~config:wild_config ~pool img ))
      all,
    index_digest index )

(* The base images of serve_mixed's request stream: 400-function
   coreutils-shaped binaries, the size at which a cache hit's replay is
   cheaper than re-discovery. *)
let serve_mixed ws =
  List.init 16 (fun i ->
      let r = Emit.generate (seeded ws 4 { (Profile.coreutils_like (i + 1)) with Profile.n_funcs = 400 }) in
      let g = Serial.parse_and_finalize r.Emit.image in
      (member ~serial_fp:(fingerprint g) r, Image.write r.Emit.image, g))

let generate workload ws =
  let l, corpus_digest =
    match workload with
    | "cfg_large" -> (cfg_large ws, "")
    | "hpcstruct_debug" -> (hpcstruct_debug ws, "")
    | "forensics_wild" -> forensics_wild ws
    | "serve_mixed" -> (serve_mixed ws, "")
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let oracle_score =
    score (List.filter_map (fun (m, _, g) -> if m.scored then Some (m.gt, g) else None) l)
  in
  ( { members = Array.of_list (List.map (fun (m, _, _) -> m) l); oracle_score; corpus_digest },
    List.map (fun (_, b, _) -> b) l )

let image_path dir k = Filename.concat dir (Printf.sprintf "input-%03d.sbf" k)
let meta_path dir = Filename.concat dir "inputs.bin"

let write ~dir (t, images) =
  List.iteri
    (fun k b ->
      let oc = open_out_bin (image_path dir k) in
      output_bytes oc b;
      close_out oc)
    images;
  let oc = open_out_bin (meta_path dir) in
  Marshal.to_channel oc (t : t) [];
  close_out oc

(* Read into a buffer of the file's size: a growing buffer would double
   the large images transiently and could set the peak memory. *)
let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

let read ~dir =
  let ic = open_in_bin (meta_path dir) in
  let (t : t) = Marshal.from_channel ic in
  close_in ic;
  (t, Array.mapi (fun k _ -> read_file (image_path dir k)) t.members)
