(* Tests for the binary container: byte IO, mangling, symbols, the
   multi-keyed parallel symbol table (paper Section 6.2), images. *)

open Tutil
module Bio = Pbca_binfmt.Bio
module Mangle = Pbca_binfmt.Mangle
module Symbol = Pbca_binfmt.Symbol
module Symtab = Pbca_binfmt.Symtab
module Section = Pbca_binfmt.Section
module Image = Pbca_binfmt.Image
module Parse_error = Pbca_binfmt.Parse_error

(* ------------------------------- bio ---------------------------------- *)

let test_bio_roundtrip =
  qcheck ~count:300 "bio: scalar roundtrip"
    QCheck2.Gen.(
      tup4 (int_bound 0xff) (int_bound 0xffff) (int_bound 0xffffffff)
        (string_size (int_bound 40)))
    (fun (a, b, c, s) ->
      let w = Bio.W.create () in
      Bio.W.u8 w a;
      Bio.W.u16 w b;
      Bio.W.u32 w c;
      Bio.W.u64 w (c * 7);
      Bio.W.str w s;
      Bio.W.bytes w (Bytes.of_string s);
      let r = Bio.R.of_bytes (Bio.W.contents w) in
      Bio.R.u8 r = a && Bio.R.u16 r = b && Bio.R.u32 r = c
      && Bio.R.u64 r = c * 7
      && Bio.R.str r = s
      && Bytes.to_string (Bio.R.bytes r) = s
      && Bio.R.eof r)

let test_bio_truncated () =
  let r = Bio.R.of_bytes (Bytes.of_string "\x01") in
  ignore (Bio.R.u8 r);
  Alcotest.check_raises "reading past the end" Bio.R.Truncated (fun () ->
      ignore (Bio.R.u8 r))

(* ------------------------------ mangle -------------------------------- *)

let gen_name =
  QCheck2.Gen.(
    map
      (fun cs -> String.init (1 + (List.length cs mod 12)) (fun i ->
           Char.chr (97 + (List.nth cs (i mod max 1 (List.length cs)) mod 26))))
      (list_size (int_range 1 12) (int_bound 1000)))

let gen_args =
  QCheck2.Gen.(
    list_size (int_bound 4) (oneofl [ Mangle.Int; Mangle.Float; Mangle.Ptr ]))

let test_mangle_roundtrip =
  qcheck ~count:300 "mangle: demangle inverts mangle"
    (QCheck2.Gen.pair gen_name gen_args)
    (fun (name, args) ->
      Mangle.demangle (Mangle.mangle name args) = Some (name, args))

let test_mangle_pretty () =
  Alcotest.(check string) "pretty" "foo" (Mangle.pretty (Mangle.mangle "foo" [ Int; Ptr ]));
  Alcotest.(check string) "typed" "foo(int, ptr)"
    (Mangle.typed (Mangle.mangle "foo" [ Int; Ptr ]));
  Alcotest.(check string) "unmangled passthrough" "main" (Mangle.pretty "main");
  Alcotest.(check bool) "non-mangled demangle" true (Mangle.demangle "main" = None)

(* ------------------------------ symtab -------------------------------- *)

let test_symtab_multikey () =
  let t = Symtab.create () in
  let s1 = Symbol.make (Mangle.mangle "foo" [ Int ]) 0x100 in
  let s2 = Symbol.make (Mangle.mangle "foo" [ Float ]) 0x200 in
  Alcotest.(check bool) "insert s1" true (Symtab.insert t s1);
  Alcotest.(check bool) "insert s2" true (Symtab.insert t s2);
  Alcotest.(check bool) "duplicate rejected" false (Symtab.insert t s1);
  Alcotest.(check int) "by_offset" 1 (List.length (Symtab.by_offset t 0x100));
  Alcotest.(check int) "by_pretty finds both overloads" 2
    (List.length (Symtab.by_pretty t "foo"));
  Alcotest.(check int) "by_typed disambiguates" 1
    (List.length (Symtab.by_typed t "foo(int)"));
  Alcotest.(check int) "by_mangled" 1
    (List.length (Symtab.by_mangled t (Mangle.mangle "foo" [ Int ])));
  Alcotest.(check int) "length" 2 (Symtab.length t)

let test_symtab_parallel () =
  (* many domains inserting overlapping symbol sets: each symbol ends up in
     every index exactly once (the Listing 6 total-order argument) *)
  let t = Symtab.create () in
  let syms =
    List.init 200 (fun i -> Symbol.make (Printf.sprintf "sym_%d" i) (i * 16))
  in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.iter (fun s -> ignore (Symtab.insert t s)) syms))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "master unique" 200 (Symtab.length t);
  List.iter
    (fun (s : Symbol.t) ->
      Alcotest.(check int)
        (Printf.sprintf "offset index of %s" s.mangled)
        1
        (List.length (Symtab.by_offset t s.offset));
      Alcotest.(check int)
        (Printf.sprintf "pretty index of %s" s.mangled)
        1
        (List.length (Symtab.by_pretty t (Symbol.pretty s))))
    syms

let test_symtab_serialize () =
  let t = Symtab.create () in
  for i = 0 to 40 do
    ignore (Symtab.insert t (Symbol.make ~size:i (Printf.sprintf "s%d" i) (i * 8)))
  done;
  let w = Bio.W.create () in
  Symtab.write w t;
  let t2 = Symtab.read (Bio.R.of_bytes (Bio.W.contents w)) in
  Alcotest.(check int) "roundtrip length" (Symtab.length t) (Symtab.length t2);
  Alcotest.(check int) "lookup works" 1 (List.length (Symtab.by_pretty t2 "s7"))

(* ------------------------------ image --------------------------------- *)

let test_section () =
  let s = Section.make ~name:".x" ~addr:0x1000 (Bytes.of_string "\x01\x02\x03\x04\x05") in
  Alcotest.(check bool) "contains start" true (Section.contains s 0x1000);
  Alcotest.(check bool) "contains last" true (Section.contains s 0x1004);
  Alcotest.(check bool) "excludes end" false (Section.contains s 0x1005);
  Alcotest.(check int) "u8" 3 (Section.u8 s 0x1002);
  Alcotest.(check int) "u32 little-endian" 0x04030201 (Section.u32 s 0x1000)

let test_image_roundtrip () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 25 } in
  let img = r.image in
  let bytes = Image.write img in
  let img2 = Image.read bytes in
  Alcotest.(check int) "text size" (Image.text_size img) (Image.text_size img2);
  Alcotest.(check int) "total size" (Image.total_size img) (Image.total_size img2);
  Alcotest.(check int) "symbols"
    (Symtab.length img.symtab)
    (Symtab.length img2.symtab);
  Alcotest.(check int) "entry" img.entry img2.entry;
  (* decoding equivalence at entry *)
  let d1 = Image.decode_at img img.entry and d2 = Image.decode_at img2 img2.entry in
  Alcotest.(check bool) "same first instruction" true (d1 = d2)

let test_image_bad_magic () =
  Alcotest.(check bool) "bad magic rejected" true
    (try
       ignore (Image.read (Bytes.of_string "\x04\x00NOPE"));
       false
     with Parse_error.Error (Parse_error.Bad_magic { got = "NOPE" }) -> true);
  (* and the non-raising entry point classifies it the same way *)
  (match Image.read_result (Bytes.of_string "\x04\x00NOPE") with
  | Error (Parse_error.Bad_magic _) -> ()
  | Ok _ -> Alcotest.fail "read_result accepted bad magic"
  | Error e -> Alcotest.failf "wrong class: %s" (Parse_error.to_string e))

let test_image_lookups () =
  let r = Pbca_codegen.Emit.generate { Profile.default with n_funcs = 10 } in
  let img = r.image in
  Alcotest.(check bool) ".text present" true (Image.section img ".text" <> None);
  Alcotest.(check bool) ".rodata present" true (Image.section img ".rodata" <> None);
  Alcotest.(check bool) ".debug present" true (Image.section img ".debug" <> None);
  Alcotest.(check bool) "entry in text" true (Image.in_text img img.entry);
  Alcotest.(check bool) "u8 outside sections" true (Image.u8 img 0xfff_ffff = None)

let suite =
  [
    test_bio_roundtrip;
    quick "bio: truncation raises" test_bio_truncated;
    test_mangle_roundtrip;
    quick "mangle: pretty and typed forms" test_mangle_pretty;
    quick "symtab: four keys" test_symtab_multikey;
    quick "symtab: concurrent inserts unique (Listing 6)" test_symtab_parallel;
    quick "symtab: serialize roundtrip" test_symtab_serialize;
    quick "section: byte reads" test_section;
    quick "image: write/read roundtrip" test_image_roundtrip;
    quick "image: bad magic" test_image_bad_magic;
    quick "image: section lookups" test_image_lookups;
  ]

(* Listing 6 with shared secondary keys: distinct symbols that collide in
   a secondary index (overloads share a pretty name, aliases an offset,
   statics a mangled and typed name) are pushed onto one entry by
   concurrent master winners; none may be lost or doubled. *)
let test_symtab_shared_keys () =
  let sigs = Mangle.[ [ Int ]; [ Float ]; [ Ptr ]; [ Int; Ptr ]; [ Ptr; Float ] ] in
  let overloads =
    List.concat
      (List.init 8 (fun k ->
           List.mapi
             (fun j args ->
               Symbol.make
                 (Mangle.mangle (Printf.sprintf "fn%d" k) args)
                 (0x1000 + (16 * ((k * 5) + j))))
             sigs))
  in
  let aliases =
    List.concat
      (List.init 8 (fun g ->
           let off = 0x8000 + (16 * g) in
           [
             Symbol.make (Printf.sprintf "alias%d_a" g) off;
             Symbol.make (Printf.sprintf "alias%d_b" g) off;
             Symbol.make (Mangle.mangle "alias" [ Int ]) off;
             Symbol.make (Mangle.mangle "alias" [ Float ]) off;
           ]))
  in
  let statics = List.init 8 (fun i -> Symbol.make "helper" (0xa000 + (16 * i))) in
  let all = Array.of_list (overloads @ aliases @ statics) in
  let n = Array.length all in
  (* domain d skips every fourth symbol from its own phase and walks the
     rest from its own rotation, odd domains backward *)
  let list_of d =
    let xs =
      List.filter_map
        (fun i ->
          let i = (i + (d * 7)) mod n in
          if (i + d) mod 4 = 0 then None else Some all.(i))
        (List.init n Fun.id)
    in
    if d mod 2 = 1 then List.rev xs else xs
  in
  let keys =
    [
      ("offset", (fun (s : Symbol.t) -> string_of_int s.offset), fun t s ->
        Symtab.by_offset t s.Symbol.offset);
      ("pretty", Symbol.pretty, fun t s -> Symtab.by_pretty t (Symbol.pretty s));
      ("typed", Symbol.typed, fun t s -> Symtab.by_typed t (Symbol.typed s));
      ("mangled", (fun (s : Symbol.t) -> s.mangled), fun t s ->
        Symtab.by_mangled t s.Symbol.mangled);
    ]
  in
  for round = 1 to 10 do
    let t = Symtab.create () in
    let ds =
      List.init 4 (fun d ->
          let syms = list_of d in
          Domain.spawn (fun () -> List.iter (fun s -> ignore (Symtab.insert t s)) syms))
    in
    List.iter Domain.join ds;
    Alcotest.(check int) (Printf.sprintf "round %d: length" round) n (Symtab.length t);
    Array.iter
      (fun (s : Symbol.t) ->
        List.iter
          (fun (index, key, lookup) ->
            let entry = lookup t s in
            let sharers =
              Array.fold_left
                (fun acc x -> if key x = key s then acc + 1 else acc)
                0 all
            in
            Alcotest.(check int)
              (Printf.sprintf "round %d: %s once in the %s index" round
                 s.mangled index)
              1
              (List.length (List.filter (Symbol.equal s) entry));
            Alcotest.(check int)
              (Printf.sprintf "round %d: %s entry of %s" round index s.mangled)
              sharers (List.length entry))
          keys)
      all
  done

let suite =
  suite
  @ [
      quick "symtab: concurrent winners sharing secondary keys"
        test_symtab_shared_keys;
    ]
