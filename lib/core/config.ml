type t = {
  eager_noreturn : bool;
  decode_cache : bool;
  jt_union : bool;
  max_block_bytes : int;
  max_slice_steps : int;
  max_table_entries : int;
  deadline_s : float;
  deadline_poll_every : int;
  csr_compact_threshold : float;
  gap_parse : bool;
}

let default =
  {
    eager_noreturn = true;
    decode_cache = true;
    jt_union = true;
    max_block_bytes = 65536;
    max_slice_steps = 4096;
    max_table_entries = 4096;
    deadline_s = 0.0;
    deadline_poll_every = 32;
    csr_compact_threshold = 0.25;
    gap_parse = false;
  }
