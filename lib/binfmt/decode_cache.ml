type slot = Unknown | Bad | Ins of Pbca_isa.Insn.t * int

type t = {
  base : int;
  slots : slot array;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ~base ~size =
  {
    base;
    slots = Array.make (max 0 size) Unknown;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let in_range t a = a >= t.base && a - t.base < Array.length t.slots

(* The slot array is written racily on purpose: decode is a pure function
   of the immutable image bytes, so every writer of a slot writes the same
   (semantically equal) value. Under the OCaml 5 memory model a racy read
   returns either the initial [Unknown] (harmless: the caller re-decodes)
   or some previously written slot, and published immutable blocks are
   always seen fully initialized — so the cache needs no per-slot atomics,
   keeping it one word per text byte. *)
let find t a =
  if not (in_range t a) then Unknown
  else begin
    let s = t.slots.(a - t.base) in
    (match s with
    | Unknown -> Atomic.incr t.misses
    | Bad | Ins _ -> Atomic.incr t.hits);
    s
  end

let store t a r =
  if in_range t a then
    t.slots.(a - t.base) <-
      (match r with None -> Bad | Some (i, len) -> Ins (i, len))

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
