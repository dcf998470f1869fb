module Sym_key = struct
  type t = Symbol.t

  let equal = Symbol.equal
  let hash = Symbol.hash
end

module Master = Pbca_concurrent.Conc_hash.Make (Sym_key)

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module By_int = Pbca_concurrent.Conc_hash.Make (Int_key)

module Str_key = struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end

module By_str = Pbca_concurrent.Conc_hash.Make (Str_key)

type t = {
  master : unit Master.t;
  by_offset : Symbol.t list By_int.t;
  by_mangled : Symbol.t list By_str.t;
  by_pretty : Symbol.t list By_str.t;
  by_typed : Symbol.t list By_str.t;
}

let create () =
  {
    master = Master.create ();
    by_offset = By_int.create ();
    by_mangled = By_str.create ();
    by_pretty = By_str.create ();
    by_typed = By_str.create ();
  }

let push_int m k s =
  By_int.update m k (fun cur ->
      (Some (s :: Option.value cur ~default:[]), ()))

let push_str m k s =
  By_str.update m k (fun cur ->
      (Some (s :: Option.value cur ~default:[]), ()))

let insert t s =
  (* The master insertion mediates between threads: only the winner updates
     the secondary indices (paper Listing 6). *)
  if Master.insert_if_absent t.master s () then begin
    push_int t.by_offset s.Symbol.offset s;
    push_str t.by_mangled s.Symbol.mangled s;
    push_str t.by_pretty (Symbol.pretty s) s;
    push_str t.by_typed (Symbol.typed s) s;
    true
  end
  else false

let by_offset t off = Option.value (By_int.find t.by_offset off) ~default:[]
let by_mangled t n = Option.value (By_str.find t.by_mangled n) ~default:[]
let by_pretty t n = Option.value (By_str.find t.by_pretty n) ~default:[]
let by_typed t n = Option.value (By_str.find t.by_typed n) ~default:[]
let length t = Master.length t.master
let fold f t init = Master.fold (fun s () acc -> f s acc) t.master init

let functions t =
  fold (fun s acc -> if Symbol.is_func s then s :: acc else acc) t []

let write w t =
  let all = fold (fun s acc -> s :: acc) t [] in
  let all =
    List.sort
      (fun a b ->
        match compare a.Symbol.offset b.Symbol.offset with
        | 0 -> compare a.Symbol.mangled b.Symbol.mangled
        | c -> c)
      all
  in
  Bio.W.u32 w (List.length all);
  List.iter (Symbol.write w) all

let read r =
  let n = Bio.R.u32 r in
  let t = create () in
  (try
     for _ = 1 to n do
       ignore (insert t (Symbol.read r))
     done
   with Bio.R.Truncated ->
     raise
       (Parse_error.Error
          (Parse_error.Truncated { what = "symbol table"; pos = Bio.R.pos r })));
  t
