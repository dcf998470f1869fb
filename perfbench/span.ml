(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into each
   library, never from inside a library. A span carries a name, start and
   end (monotonic seconds), its parent (the innermost span still open on
   the same domain, -1 for a root), an optional request id and the minor
   words the recording domain allocated inside it. Spans stay in memory
   until [write]. A disabled recorder runs the wrapped call directly. *)

module Clock = Pbca_obs.Clock

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  t0 : float;
  t1 : float;
  minor_words : float;
}

type t = {
  on : bool;
  next : int Atomic.t;
  mu : Mutex.t;
  mutable spans : span list;  (* newest first *)
}

let create ~on = { on; next = Atomic.make 0; mu = Mutex.create (); spans = [] }
let disabled = create ~on:false
let innermost : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let record t s =
  Mutex.lock t.mu;
  t.spans <- s :: t.spans;
  Mutex.unlock t.mu

let with_span t ?(req = -1) name f =
  if not t.on then f ()
  else begin
    let parent = Domain.DLS.get innermost in
    let id = Atomic.fetch_and_add t.next 1 in
    Domain.DLS.set innermost id;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let close () =
      let t1 = Clock.now () in
      Domain.DLS.set innermost parent;
      record t
        { id; parent; name; req; t0; t1; minor_words = Gc.minor_words () -. w0 }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* The id the next span will get: spans recorded after [mark] have ids at
   or above it. Read only at quiescent points. *)
let mark t = Atomic.get t.next
let since t m = List.filter (fun s -> s.id >= m) t.spans
let duration s = s.t1 -. s.t0

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Per-name totals of span duration, of self time (duration minus the
   children's durations: children run on their parent's domain, one after
   another, so their sum is the part of the parent they cover) and of
   minor words. *)
let totals spans =
  let child = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then add child s.parent (duration s)) spans;
  let dur = Hashtbl.create 16
  and self = Hashtbl.create 16
  and words = Hashtbl.create 16 in
  List.iter
    (fun s ->
      add dur s.name (duration s);
      add self s.name
        (duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id));
      add words s.name s.minor_words)
    spans;
  (dur, self, words)

let write t path =
  let open Pbca_obs.Json in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans in
  let us x = J_float ((x -. base) *. 1e6) in
  let j =
    J_arr
      (List.rev_map
         (fun s ->
           J_obj
             [
               ("id", J_int s.id);
               ("parent", J_int s.parent);
               ("name", J_str s.name);
               ("req", J_int s.req);
               ("start_us", us s.t0);
               ("end_us", us s.t1);
               ("minor_words", J_float s.minor_words);
             ])
         t.spans)
  in
  let oc = open_out path in
  output_string oc (json_to_string j);
  close_out oc
