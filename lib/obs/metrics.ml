type counter = int Atomic.t

type gauge = float Atomic.t

type histogram = {
  h_bounds : float array; (* upper bucket bounds, strictly increasing *)
  h_counts : counter array; (* length = Array.length h_bounds + 1 *)
  h_sum : gauge;
  h_n : counter;
}

type entry =
  | E_counter of counter
  | E_gauge of gauge
  | E_gauge_fn of (unit -> float)
  | E_histogram of histogram

type t = { lock : Mutex.t; tbl : (string, entry) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let mismatch name =
  invalid_arg (Printf.sprintf "Metrics: %S already registered with another kind" name)

(* Find-or-create is the only locked path; handle updates are plain
   atomics, so the hot path never touches the mutex. *)
let intern t name make match_ =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | Some e -> ( match match_ e with Some h -> h | None -> mismatch name)
      | None ->
        let h = make () in
        Hashtbl.replace t.tbl name h;
        (match match_ h with Some v -> v | None -> assert false))

let counter t name =
  intern t name
    (fun () -> E_counter (Atomic.make 0))
    (function E_counter c -> Some c | _ -> None)

let gauge t name =
  intern t name
    (fun () -> E_gauge (Atomic.make 0.0))
    (function E_gauge g -> Some g | _ -> None)

let register_gauge_fn t name f =
  let (_ : unit -> float) =
    intern t name
      (fun () -> E_gauge_fn f)
      (function E_gauge_fn f -> Some f | _ -> None)
  in
  ()

(* Duration buckets in seconds, 1 us .. 10 s, ten log-spaced bounds per
   decade: each bucket spans x1.26, so a quantile read from the buckets
   is within 26% of the true value, not a decade away. *)
let default_bounds =
  Array.init 71 (fun i -> 10. ** (float_of_int (i - 60) /. 10.))

let histogram ?(bounds = default_bounds) t name =
  intern t name
    (fun () ->
      E_histogram
        {
          h_bounds = bounds;
          h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.0;
          h_n = Atomic.make 0;
        })
    (function E_histogram h -> Some h | _ -> None)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let count c = Atomic.get c
let set g v = Atomic.set g v
let value g = Atomic.get g

let rec gauge_add g dv =
  let cur = Atomic.get g in
  if not (Atomic.compare_and_set g cur (cur +. dv)) then gauge_add g dv

(* The first bucket whose upper bound is >= v (binary search); the
   +inf bucket when v exceeds every bound. *)
let bucket_index bounds v =
  let lo = ref 0 and hi = ref (Array.length bounds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v > bounds.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

let observe h v =
  Atomic.incr h.h_counts.(bucket_index h.h_bounds v);
  Atomic.incr h.h_n;
  gauge_add h.h_sum v

let hist_count h = Atomic.get h.h_n

(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { n : int; sum : float; buckets : (float * int) list }

let read_entry = function
  | E_counter c -> Counter (Atomic.get c)
  | E_gauge g -> Gauge (Atomic.get g)
  | E_gauge_fn f -> Gauge (f ())
  | E_histogram h ->
    let buckets =
      List.init
        (Array.length h.h_counts)
        (fun i ->
          let bound =
            if i < Array.length h.h_bounds then h.h_bounds.(i) else infinity
          in
          (bound, Atomic.get h.h_counts.(i)))
    in
    Histogram { n = Atomic.get h.h_n; sum = Atomic.get h.h_sum; buckets }

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold (fun name e acc -> (name, read_entry e) :: acc) t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Fold one registry's current values into another (used to aggregate
   per-run registries across a corpus): counters and histograms add,
   gauges take the source's latest value. *)
let merge ~into src =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> add (counter into name) n
      | Gauge g -> set (gauge into name) g
      | Histogram { n = _; sum; buckets } ->
        let bounds =
          Array.of_list
            (List.filter_map
               (fun (b, _) -> if Float.is_finite b then Some b else None)
               buckets)
        in
        let h = histogram ~bounds into name in
        List.iteri
          (fun i (_, c) ->
            if i < Array.length h.h_counts then add h.h_counts.(i) c)
          buckets;
        add h.h_n
          (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
        gauge_add h.h_sum sum)
    (snapshot src)

(* Per-run scoping by subtraction: [diff ~before ~after] is what happened
   between two snapshots of the same registry. *)
let diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Counter a, Some (Counter b) -> Some (name, Counter (a - b))
      | Counter a, None -> Some (name, Counter a)
      | Gauge _, _ -> Some (name, v)
      | Histogram h, Some (Histogram h0) ->
        Some
          ( name,
            Histogram
              {
                n = h.n - h0.n;
                sum = h.sum -. h0.sum;
                buckets =
                  List.map2
                    (fun (b, c) (_, c0) -> (b, c - c0))
                    h.buckets h0.buckets;
              } )
      | Histogram _, _ -> Some (name, v)
      | _, Some _ -> Some (name, v))
    after

(* Rank [q * n] located in its bucket and interpolated linearly between
   the bucket's bounds (the first bucket starts at 0); a rank in the +inf
   bucket reads the last finite bound. *)
let quantile q buckets =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  let rank = q *. float_of_int n in
  let rec go lo below = function
    | [] -> nan
    | (hi, c) :: rest ->
      let upto = below + c in
      if c > 0 && float_of_int upto >= rank then
        if Float.is_finite hi then
          lo +. ((hi -. lo) *. (rank -. float_of_int below) /. float_of_int c)
        else lo
      else go hi upto rest
  in
  if n = 0 then nan else go 0.0 0 buckets

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge g when Float.is_integer g -> Format.fprintf fmt "%.0f" g
  | Gauge g -> Format.fprintf fmt "%g" g
  | Histogram { n; sum; buckets } ->
    Format.fprintf fmt "n=%d sum=%g p50=%g p99=%g buckets=[%s]" n sum
      (quantile 0.50 buckets) (quantile 0.99 buckets)
      (String.concat ";"
         (List.filter_map
            (fun (b, c) ->
              if c = 0 then None
              else if Float.is_finite b then Some (Printf.sprintf "<=%g:%d" b c)
              else Some (Printf.sprintf "inf:%d" c))
            buckets))

let pp fmt t =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%-28s %a@." name pp_value v)
    (snapshot t)
