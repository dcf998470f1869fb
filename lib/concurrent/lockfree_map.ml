(* Read-mostly concurrent hash map: wait-free reads over immutable bucket
   lists published through [Atomic], CAS insertion, freeze-based amortized
   resize. See the .mli for the full protocol. *)

module Make (H : Hashtbl.HashedType) = struct
  type key = H.t

  (* A bucket is an immutable association list. [Frozen] buckets belong to a
     table that is being migrated: they remain readable (reads stay
     wait-free during a resize) but reject writers, which must wait for the
     new table to be published. CAS on a bucket compares the list by
     physical equality; lists are freshly allocated on every change, so
     there is no ABA hazard. *)
  type 'a bucket = Alive of (key * 'a) list | Frozen of (key * 'a) list

  type 'a table = { buckets : 'a bucket Atomic.t array; mask : int }

  type 'a t = {
    tbl : 'a table Atomic.t;
    size : int Atomic.t;
    resizing : bool Atomic.t;
    stripes : Mutex.t array;  (* update-only entry locks, never on reads *)
    c : Contention.t;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let mk_table n =
    let n = next_pow2 (max 1 n) in
    { buckets = Array.init n (fun _ -> Atomic.make (Alive [])); mask = n - 1 }

  (* The doubled table of a resize. [Array.init] hands [Array.make] a
     freshly allocated first cell, and the runtime meets a large array
     with a young initial value by forcing a minor collection, which
     promotes the caller's whole working set early — once per doubling of
     every growing map. Starting from a cell of [old], which a minor
     collection has usually promoted by now, skips that; every slot is then
     replaced by a fresh cell. *)
  let grown_table old =
    let n = 2 * Array.length old.buckets in
    let buckets = Array.make n old.buckets.(0) in
    for i = 0 to n - 1 do
      buckets.(i) <- Atomic.make (Alive [])
    done;
    { buckets; mask = n - 1 }

  let n_stripes = 64

  let create ?(shards = 64) ?counters () =
    {
      tbl = Atomic.make (mk_table shards);
      size = Atomic.make 0;
      resizing = Atomic.make false;
      stripes = Array.init n_stripes (fun _ -> Mutex.create ());
      c = (match counters with Some c -> c | None -> Contention.create ());
    }

  let counters t = t.c
  let bucket tbl k = tbl.buckets.(H.hash k land tbl.mask)

  (* Linear search counting steps; collision probes (steps past the first
     cell) feed the shared counter, so an uncontended hit costs no atomic
     write at all. *)
  let search c k l =
    let rec go steps = function
      | [] ->
        if steps > 1 then ignore (Atomic.fetch_and_add c.Contention.probes (steps - 1));
        None
      | (k', v) :: rest ->
        if H.equal k k' then begin
          if steps > 1 then
            ignore (Atomic.fetch_and_add c.Contention.probes (steps - 1));
          Some v
        end
        else go (steps + 1) rest
    in
    go 1 l

  let find t k =
    match Atomic.get (bucket (Atomic.get t.tbl) k) with
    | Alive l | Frozen l -> search t.c k l

  let mem t k = find t k <> None

  (* Wait until an in-flight resize of [old] publishes its replacement. The
     resizer is another domain; on a saturated machine yield to it. *)
  let wait_resize t old =
    let spins = ref 0 in
    while Atomic.get t.tbl == old do
      incr spins;
      ignore (Atomic.fetch_and_add t.c.Contention.frozen_waits 1);
      if !spins > 1024 then Unix.sleepf 5e-5 else Domain.cpu_relax ()
    done

  let rec freeze cell =
    match Atomic.get cell with
    | Frozen l -> l
    | Alive l as cur ->
      if Atomic.compare_and_set cell cur (Frozen l) then l else freeze cell

  (* Single elected resizer: freeze every bucket of the current table (each
     freeze is a CAS, so racing inserts either land before the freeze and
     are copied, or fail and wait for the new table), rehash into a fresh
     table of double the capacity, publish, release. *)
  let resize t old =
    if Atomic.compare_and_set t.resizing false true then begin
      if Atomic.get t.tbl == old then begin
        ignore (Atomic.fetch_and_add t.c.Contention.resizes 1);
        let nt = grown_table old in
        Array.iter
          (fun cell ->
            List.iter
              (fun ((k, _) as cl) ->
                let dst = bucket nt k in
                match Atomic.get dst with
                | Alive l -> Atomic.set dst (Alive (cl :: l))
                | Frozen _ -> assert false (* unpublished: resizer-private *))
              (freeze cell))
          old.buckets;
        Atomic.set t.tbl nt
      end;
      Atomic.set t.resizing false
    end

  let maybe_resize t =
    let tbl = Atomic.get t.tbl in
    if Atomic.get t.size > Array.length tbl.buckets then resize t tbl

  let rec insert_if_absent t k v =
    let tbl = Atomic.get t.tbl in
    let cell = bucket tbl k in
    match Atomic.get cell with
    | Frozen _ ->
      wait_resize t tbl;
      insert_if_absent t k v
    | Alive l as cur -> (
      match search t.c k l with
      | Some _ -> false
      | None ->
        if Atomic.compare_and_set cell cur (Alive ((k, v) :: l)) then begin
          ignore (Atomic.fetch_and_add t.size 1);
          maybe_resize t;
          true
        end
        else begin
          ignore (Atomic.fetch_and_add t.c.Contention.cas_retries 1);
          insert_if_absent t k v
        end)

  let rec find_or_insert t k mk =
    let tbl = Atomic.get t.tbl in
    let cell = bucket tbl k in
    match Atomic.get cell with
    | Frozen _ ->
      wait_resize t tbl;
      find_or_insert t k mk
    | Alive l as cur -> (
      match search t.c k l with
      | Some v -> (v, false)
      | None ->
        (* [mk] runs speculatively: if the CAS loses, the value is dropped
           and the winner's binding is returned instead *)
        let v = mk () in
        if Atomic.compare_and_set cell cur (Alive ((k, v) :: l)) then begin
          ignore (Atomic.fetch_and_add t.size 1);
          maybe_resize t;
          (v, true)
        end
        else begin
          ignore (Atomic.fetch_and_add t.c.Contention.cas_retries 1);
          find_or_insert t k mk
        end)

  let remove_list k l =
    let rec go acc = function
      | [] -> None
      | ((k', v) as cl) :: rest ->
        if H.equal k k' then Some (v, List.rev_append acc rest)
        else go (cl :: acc) rest
    in
    go [] l

  let rec remove t k =
    let tbl = Atomic.get t.tbl in
    let cell = bucket tbl k in
    match Atomic.get cell with
    | Frozen _ ->
      wait_resize t tbl;
      remove t k
    | Alive l as cur -> (
      match remove_list k l with
      | None -> None
      | Some (v, rest) ->
        if Atomic.compare_and_set cell cur (Alive rest) then begin
          ignore (Atomic.fetch_and_add t.size (-1));
          Some v
        end
        else begin
          ignore (Atomic.fetch_and_add t.c.Contention.cas_retries 1);
          remove t k
        end)

  (* [update]: the only operation that needs read-modify-write atomicity of
     one entry with an arbitrary callback, so it is the only one that takes
     a lock — a striped mutex serializing updates of the same key (and,
     harmlessly, of other keys on the same stripe). The callback runs
     exactly once; its result is then applied with a CAS retry loop, which
     only re-reads the bucket to merge in concurrent changes to *other*
     keys. Mixing [update] with concurrent non-[update] writes to the same
     key is not supported (see the .mli). A binding it adds counts toward
     the load factor like any other write; the table grows once the stripe
     is released, so a map written only through [update] (the CFG's
     [ends]) keeps short chains too. *)
  let update t k f =
    let m = t.stripes.(H.hash k land (n_stripes - 1)) in
    let added = ref false in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.unlock m;
        if !added then maybe_resize t)
      (fun () ->
        let tbl0 = Atomic.get t.tbl in
        let cur_v =
          match Atomic.get (bucket tbl0 k) with
          | Alive l | Frozen l -> search t.c k l
        in
        let next, r = f cur_v in
        let rec apply () =
          let tbl = Atomic.get t.tbl in
          let cell = bucket tbl k in
          match Atomic.get cell with
          | Frozen _ ->
            wait_resize t tbl;
            apply ()
          | Alive l as cur -> (
            let without, delta =
              match remove_list k l with
              | Some (_, rest) -> (rest, -1)
              | None -> (l, 0)
            in
            let nl, delta =
              match next with
              | Some v -> ((k, v) :: without, delta + 1)
              | None -> (without, delta)
            in
            match (cur_v, next) with
            | None, None -> () (* no binding before or after: nothing to do *)
            | _ ->
              if Atomic.compare_and_set cell cur (Alive nl) then begin
                if delta <> 0 then ignore (Atomic.fetch_and_add t.size delta);
                added := delta > 0
              end
              else begin
                ignore (Atomic.fetch_and_add t.c.Contention.cas_retries 1);
                apply ()
              end)
        in
        apply ();
        r)

  let length t = Atomic.get t.size

  let snapshot t =
    Array.map
      (fun cell -> match Atomic.get cell with Alive l | Frozen l -> l)
      (Atomic.get t.tbl).buckets

  let iter f t =
    Array.iter (List.iter (fun (k, v) -> f k v)) (snapshot t)

  let fold f t init =
    Array.fold_left
      (fun acc l -> List.fold_left (fun acc (k, v) -> f k v acc) acc l)
      init (snapshot t)

  let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
end
