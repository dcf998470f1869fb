module Recover = Pbca_core.Recover
module Config = Pbca_core.Config

type t = {
  dir : string;
  seq : int Atomic.t;  (* unique staging suffixes within one process *)
}

let create ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  { dir; seq = Atomic.make 0 }

(* Content digest: two FNV-1a 64 passes with distinct offset bases, hex
   concatenated. Not cryptographic — the threat model is accidental
   collision across distinct analysis inputs, and 128 bits of mixed state
   over the full image bytes is ample for that. *)
let fnv1a64 ~basis b =
  let h = ref basis in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x100000001B3L
  done;
  !h

let key image =
  Printf.sprintf "%016Lx%016Lx"
    (fnv1a64 ~basis:0xCBF29CE484222325L image)
    (fnv1a64 ~basis:0x9AE16A3B2F90404FL image)

(* The whole record is marshalled, so a field added to Config.t joins the
   digest without this function changing; only the deadline is zeroed.
   No_sharing makes the bytes depend on field values alone, not on which
   boxed floats happen to be shared. *)
let reply_key config image =
  let c = { config with Config.deadline_s = 0.0 } in
  let bytes = Marshal.to_string c [ Marshal.No_sharing ] in
  key image ^ "-" ^ Digest.to_hex (Digest.string bytes)

let path t k ext = Filename.concat t.dir (k ^ ext)

let staging t k ext =
  let n = Atomic.fetch_and_add t.seq 1 in
  Filename.concat t.dir (Printf.sprintf ".stage-%s-%d%s" k n ext)

let unlink_quiet p = try Unix.unlink p with Unix.Unix_error _ -> ()

let file_exists p = try (Unix.stat p).Unix.st_kind = Unix.S_REG with _ -> false

(* Damage is a MISS, never an error: the stored reply is a derived
   acceleration structure, so a rotten file must cost a recompute, not a
   failed request. The frame's CRC catches torn and rotten bytes. *)
let find t k =
  let p = path t k ".reply" in
  match In_channel.with_open_bin p In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> (
    match Wire.decode_reply (Bytes.of_string s) with
    | Ok ({ Wire.rp_status = Wire.Ok_clean | Wire.Ok_degraded; _ } as r) ->
      Some r
    | Ok _ | Error _ ->
      unlink_quiet p;
      None)

(* Rename-into-place: a concurrent reader sees the old complete reply or
   the new one, never a half-written file. *)
let store t k reply =
  let tmp = staging t k ".reply" in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_bytes oc (Wire.encode_reply reply));
    Unix.rename tmp (path t k ".reply")
  with Sys_error _ | Unix.Unix_error _ -> unlink_quiet tmp

(* Fault-injection helper: rot the stored reply in place the way
   Mutate.corrupt_artifact damages recovery artifacts. *)
let rot ~rng t k =
  let p = path t k ".reply" in
  if file_exists p then begin
    let b = Bytes.of_string (In_channel.with_open_bin p In_channel.input_all) in
    let rotten = Pbca_codegen.Mutate.corrupt_artifact ~rng b in
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_bytes oc rotten);
    true
  end
  else false

type staged = { st_checkpoint : string; st_journal : string }

let stage t k =
  { st_checkpoint = staging t k ".cp"; st_journal = staging t k ".journal" }

(* The pair is not renamed as a unit, but [lookup] treats any
   inconsistency as a miss, so the worst case is one wasted recompute. *)
let promote t k staged =
  try
    Unix.rename staged.st_checkpoint (path t k ".cp");
    Unix.rename staged.st_journal (path t k ".journal");
    true
  with Unix.Unix_error _ ->
    unlink_quiet staged.st_checkpoint;
    unlink_quiet staged.st_journal;
    false

(* Recover's own trust model (checkpoint authoritative, journal advisory)
   surfaces damage as a structured error; that becomes eviction + None. *)
let lookup t k =
  let cp = path t k ".cp" and j = path t k ".journal" in
  if not (file_exists cp) then None
  else
    let src =
      { Recover.src_checkpoint = Some cp;
        src_journal = (if file_exists j then Some j else None) }
    in
    match Recover.load src with
    | Ok plan -> Some plan
    | Error _ | (exception _) ->
      unlink_quiet cp;
      unlink_quiet j;
      None
