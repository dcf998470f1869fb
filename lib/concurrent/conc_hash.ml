module Make (H : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (H)

  type key = H.t

  type 'a shard = { lock : Mutex.t; table : 'a T.t }
  type 'a t = { shards : 'a shard array; mask : int }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ?(shards = 64) () =
    let n = next_pow2 (max 1 shards) in
    {
      shards =
        Array.init n (fun _ -> { lock = Mutex.create (); table = T.create 16 });
      mask = n - 1;
    }

  let shard_of t k = t.shards.(H.hash k land t.mask)

  let with_shard s f =
    Mutex.lock s.lock;
    match f s.table with
    | v ->
      Mutex.unlock s.lock;
      v
    | exception e ->
      Mutex.unlock s.lock;
      raise e

  let find t k = with_shard (shard_of t k) (fun tbl -> T.find_opt tbl k)
  let mem t k = with_shard (shard_of t k) (fun tbl -> T.mem tbl k)

  let insert_if_absent t k v =
    with_shard (shard_of t k) (fun tbl ->
        if T.mem tbl k then false
        else begin
          T.add tbl k v;
          true
        end)

  let find_or_insert t k mk =
    with_shard (shard_of t k) (fun tbl ->
        match T.find_opt tbl k with
        | Some v -> (v, false)
        | None ->
          let v = mk () in
          T.add tbl k v;
          (v, true))

  let update t k f =
    with_shard (shard_of t k) (fun tbl ->
        let cur = T.find_opt tbl k in
        let next, r = f cur in
        (match (cur, next) with
        | _, Some v -> T.replace tbl k v
        | Some _, None -> T.remove tbl k
        | None, None -> ());
        r)

  let remove t k =
    with_shard (shard_of t k) (fun tbl ->
        match T.find_opt tbl k with
        | Some v ->
          T.remove tbl k;
          Some v
        | None -> None)

  let length t =
    Array.fold_left (fun acc s -> acc + with_shard s T.length) 0 t.shards

  let iter f t =
    Array.iter (fun s -> with_shard s (fun tbl -> T.iter f tbl)) t.shards

  let fold f t init =
    Array.fold_left
      (fun acc s -> with_shard s (fun tbl -> T.fold f tbl acc))
      init t.shards

  let to_list t = fold (fun k v acc -> (k, v) :: acc) t []
end
