module Thread_local = Pbca_concurrent.Thread_local

type op =
  | Op_block of int
  | Op_end of { start : int; end_ : int; ninsns : int }
  | Op_term of { start : int; insn : Pbca_isa.Insn.t option }
  | Op_edge of { src : int; dst : int; kind : int; jt : (int * int) option }
  | Op_edge_dead of { src : int; dst : int; kind : int }
  | Op_edge_move of { src : int; dst : int; kind : int; new_src : int }
  | Op_func of { entry : int; name : string; from_symtab : bool }
  | Op_jt_pending of { end_ : int; reg : int }
  | Op_degraded of { addr : int; deadline : bool }
  | Op_ret of { entry : int; status : int }
  | Op_conf of { addr : int; conf : int }
  | Op_commit of int

let magic = "PBCJ"
let version = 1

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, as in zlib).                          *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 b off len =
  let tbl = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := tbl.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  (!c lxor 0xFFFFFFFF) land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record encoding.                                                    *)

let tag_of_op = function
  | Op_block _ -> 1
  | Op_end _ -> 2
  | Op_term _ -> 3
  | Op_edge _ -> 4
  | Op_edge_dead _ -> 5
  | Op_edge_move _ -> 6
  | Op_func _ -> 7
  | Op_jt_pending _ -> 8
  | Op_degraded _ -> 9
  | Op_ret _ -> 11
  | Op_conf _ -> 12
  | Op_commit _ -> 10

let add_addr b a = Buffer.add_int64_le b (Int64.of_int a)

let encode_payload buf ~seq op =
  Buffer.add_int64_le buf (Int64.of_int seq);
  Buffer.add_uint8 buf (tag_of_op op);
  match op with
  | Op_block a -> add_addr buf a
  | Op_end { start; end_; ninsns } ->
    add_addr buf start;
    add_addr buf end_;
    Buffer.add_int32_le buf (Int32.of_int ninsns)
  | Op_term { start; insn } -> (
    add_addr buf start;
    match insn with
    | None -> Buffer.add_uint8 buf 0
    | Some i ->
      Buffer.add_uint8 buf 1;
      Buffer.add_uint8 buf (Pbca_isa.Codec.encoded_length i);
      Pbca_isa.Codec.encode buf i)
  | Op_edge { src; dst; kind; jt } -> (
    add_addr buf src;
    add_addr buf dst;
    Buffer.add_uint8 buf kind;
    match jt with
    | None -> Buffer.add_uint8 buf 0
    | Some (t, i) ->
      Buffer.add_uint8 buf 1;
      Buffer.add_int32_le buf (Int32.of_int t);
      Buffer.add_int32_le buf (Int32.of_int i))
  | Op_edge_dead { src; dst; kind } ->
    add_addr buf src;
    add_addr buf dst;
    Buffer.add_uint8 buf kind
  | Op_edge_move { src; dst; kind; new_src } ->
    add_addr buf src;
    add_addr buf dst;
    Buffer.add_uint8 buf kind;
    add_addr buf new_src
  | Op_func { entry; name; from_symtab } ->
    add_addr buf entry;
    Buffer.add_uint8 buf (if from_symtab then 1 else 0);
    let name =
      if String.length name > 0xffff then String.sub name 0 0xffff else name
    in
    Buffer.add_uint16_le buf (String.length name);
    Buffer.add_string buf name
  | Op_jt_pending { end_; reg } ->
    add_addr buf end_;
    Buffer.add_uint8 buf reg
  | Op_degraded { addr; deadline } ->
    add_addr buf addr;
    Buffer.add_uint8 buf (if deadline then 1 else 0)
  | Op_ret { entry; status } ->
    add_addr buf entry;
    Buffer.add_uint8 buf status
  | Op_conf { addr; conf } ->
    add_addr buf addr;
    Buffer.add_uint8 buf conf
  | Op_commit round -> Buffer.add_int32_le buf (Int32.of_int round)

let append_record buf ~seq op =
  let payload = Buffer.create 32 in
  encode_payload payload ~seq op;
  let pb = Buffer.to_bytes payload in
  let len = Bytes.length pb in
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_int32_le buf (Int32.of_int (crc32 pb 0 len));
  Buffer.add_bytes buf pb

(* ------------------------------------------------------------------ *)
(* Record decoding. A cursor over the payload bytes; any short read or
   malformed field surfaces as [End_torn] at the record level.          *)

exception Short

let get_addr b pos =
  if pos + 8 > Bytes.length b then raise Short;
  (Int64.to_int (Bytes.get_int64_le b pos), pos + 8)

let get_i32 b pos =
  if pos + 4 > Bytes.length b then raise Short;
  (Int32.to_int (Bytes.get_int32_le b pos), pos + 4)

let get_u8 b pos =
  if pos + 1 > Bytes.length b then raise Short;
  (Bytes.get_uint8 b pos, pos + 1)

let get_u16 b pos =
  if pos + 2 > Bytes.length b then raise Short;
  (Bytes.get_uint16_le b pos, pos + 2)

let decode_payload b =
  let seq, pos = get_addr b 0 in
  let tag, pos = get_u8 b pos in
  let op =
    match tag with
    | 1 ->
      let a, _ = get_addr b pos in
      Op_block a
    | 2 ->
      let start, pos = get_addr b pos in
      let end_, pos = get_addr b pos in
      let ninsns, _ = get_i32 b pos in
      Op_end { start; end_; ninsns }
    | 3 ->
      let start, pos = get_addr b pos in
      let flag, pos = get_u8 b pos in
      if flag = 0 then Op_term { start; insn = None }
      else begin
        let len, pos = get_u8 b pos in
        if pos + len > Bytes.length b then raise Short;
        match Pbca_isa.Codec.decode b ~pos with
        | Some (insn, l) when l = len -> Op_term { start; insn = Some insn }
        | _ -> raise Short
      end
    | 4 ->
      let src, pos = get_addr b pos in
      let dst, pos = get_addr b pos in
      let kind, pos = get_u8 b pos in
      let flag, pos = get_u8 b pos in
      if flag = 0 then Op_edge { src; dst; kind; jt = None }
      else
        let t, pos = get_i32 b pos in
        let i, _ = get_i32 b pos in
        Op_edge { src; dst; kind; jt = Some (t, i) }
    | 5 ->
      let src, pos = get_addr b pos in
      let dst, pos = get_addr b pos in
      let kind, _ = get_u8 b pos in
      Op_edge_dead { src; dst; kind }
    | 6 ->
      let src, pos = get_addr b pos in
      let dst, pos = get_addr b pos in
      let kind, pos = get_u8 b pos in
      let new_src, _ = get_addr b pos in
      Op_edge_move { src; dst; kind; new_src }
    | 7 ->
      let entry, pos = get_addr b pos in
      let fs, pos = get_u8 b pos in
      let n, pos = get_u16 b pos in
      if pos + n > Bytes.length b then raise Short;
      Op_func
        {
          entry;
          name = Bytes.sub_string b pos n;
          from_symtab = fs <> 0;
        }
    | 8 ->
      let end_, pos = get_addr b pos in
      let reg, _ = get_u8 b pos in
      Op_jt_pending { end_; reg }
    | 9 ->
      let addr, pos = get_addr b pos in
      let dl, _ = get_u8 b pos in
      Op_degraded { addr; deadline = dl <> 0 }
    | 10 ->
      let round, _ = get_i32 b pos in
      Op_commit round
    | 11 ->
      let entry, pos = get_addr b pos in
      let st, _ = get_u8 b pos in
      if st <> 1 && st <> 2 then raise Short;
      Op_ret { entry; status = st }
    | 12 ->
      let addr, pos = get_addr b pos in
      let conf, _ = get_u8 b pos in
      if conf > 2 then raise Short;
      Op_conf { addr; conf }
    | _ -> raise Short
  in
  (seq, op)

type read_outcome = Rec of int * op | End_clean | End_torn of string

(* An op payload is at most seq+tag+4 addresses and a name; anything
   claiming more than this is framing garbage, not a record. *)
let max_payload = 9 + 64 + 0x10000

let read_exact ic n =
  let b = Bytes.create n in
  try
    really_input ic b 0 n;
    Some b
  with End_of_file -> None

let read_record ic =
  match read_exact ic 4 with
  | None -> End_clean
  | Some lenb -> (
    let len = Int32.to_int (Bytes.get_int32_le lenb 0) in
    if len < 9 || len > max_payload then End_torn "bad record length"
    else
      match read_exact ic 4 with
      | None -> End_torn "torn crc"
      | Some crcb -> (
        let crc = Int32.to_int (Bytes.get_int32_le crcb 0) land 0xFFFFFFFF in
        match read_exact ic len with
        | None -> End_torn "torn payload"
        | Some payload ->
          if crc32 payload 0 len <> crc then End_torn "crc mismatch"
          else (
            try
              let seq, op = decode_payload payload in
              Rec (seq, op)
            with Short -> End_torn "malformed payload")))

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)

type dbuf = { mutable pending : (int * op) list }

type writer = {
  w_chan : out_channel;
  w_seq : int Atomic.t;
  w_bufs : dbuf Thread_local.t;
}

let write_header ch ~magic ~version =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int version);
  output_string ch (Buffer.contents b)

let create_writer ~path =
  let ch = open_out_bin path in
  write_header ch ~magic ~version;
  flush ch;
  {
    w_chan = ch;
    w_seq = Atomic.make 0;
    w_bufs = Thread_local.create (fun () -> { pending = [] });
  }

let set_seq_floor w floor =
  let rec go () =
    let cur = Atomic.get w.w_seq in
    if cur <= floor && not (Atomic.compare_and_set w.w_seq cur (floor + 1))
    then go ()
  in
  go ()

let emit w op =
  let seq = Atomic.fetch_and_add w.w_seq 1 in
  let b = Thread_local.get w.w_bufs in
  b.pending <- (seq, op) :: b.pending

let write_one w ~seq op =
  let b = Buffer.create 48 in
  append_record b ~seq op;
  output_string w.w_chan (Buffer.contents b)

let flush w ~round =
  let items =
    Thread_local.fold w.w_bufs ~init:[] ~f:(fun acc b ->
        let xs = b.pending in
        b.pending <- [];
        List.rev_append xs acc)
  in
  let items = List.sort (fun (a, _) (b, _) -> compare a b) items in
  List.iter (fun (seq, op) -> write_one w ~seq op) items;
  let cseq = Atomic.fetch_and_add w.w_seq 1 in
  write_one w ~seq:cseq (Op_commit round);
  Stdlib.flush w.w_chan

let last_seq w = Atomic.get w.w_seq - 1
let close w = close_out w.w_chan

(* ------------------------------------------------------------------ *)
(* Reader.                                                             *)

type tail = {
  t_ops : (int * op) list;
  t_last_round : int;
  t_max_seq : int;
  t_torn : bool;
}

let empty_tail ~torn =
  { t_ops = []; t_last_round = -1; t_max_seq = -1; t_torn = torn }

let read_committed path =
  if not (Sys.file_exists path) then empty_tail ~torn:false
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match read_exact ic (String.length magic + 4) with
        | None -> empty_tail ~torn:true
        | Some hdr
          when Bytes.sub_string hdr 0 (String.length magic) <> magic ->
          empty_tail ~torn:true
        | Some _ ->
          let committed = ref [] in
          let pending = ref [] in
          let last_round = ref (-1) in
          let max_seq = ref (-1) in
          let torn = ref false in
          let rec go () =
            match read_record ic with
            | End_clean -> ()
            | End_torn _ -> torn := true
            | Rec (seq, Op_commit round) ->
              (* [pending] is newest-first; keep [committed] newest-first
                 too, so the single final [List.rev] yields ascending seq *)
              committed := !pending @ !committed;
              pending := [];
              last_round := round;
              max_seq := seq;
              go ()
            | Rec (seq, op) ->
              pending := (seq, op) :: !pending;
              go ()
          in
          go ();
          {
            t_ops = List.rev !committed;
            t_last_round = !last_round;
            t_max_seq = !max_seq;
            t_torn = !torn;
          })
  end
