(** Lock-free hash table: a Harris linked list per bucket, exactly as in the
    paper's evaluation ("based on Harris et al.'s with a linked-list in
    every bucket", §6.1).  The bucket head fields, kept inline in one
    array, form the persistent root set.  Every head, and every node
    [next] born [Nil] at a chain's tail, starts on the table's one [Nil]
    birth ({!Mirror_prim.Prim.S.birth}): an insert-only table holds one
    such field per bucket, and none of them owns a birth cell.  The
    bucket count is fixed at creation (the paper sizes the table to the
    key range, ~1 node per bucket). *)

module Make (P : Mirror_prim.Prim.S) = struct
  module L = Linked_list.Make (P)

  type 'v t = {
    buckets : 'v L.head array;  (** bucket heads, inline *)
    nil : 'v L.nil;
        (** the one [Nil] birth of every head and every tail [next] *)
    ebr : Mirror_core.Ebr.t;  (** one reclamation domain for every bucket *)
    mask : int;
  }

  (* Fibonacci hashing: spreads consecutive keys across buckets. *)
  let hash t k = (k * 0x2545F4914F6CDD1D) lsr 16 land t.mask

  let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

  let create ?(buckets = 1024) () =
    let n = next_pow2 (max 2 buckets) 2 in
    let ebr = Mirror_core.Ebr.create () in
    let nil = L.nil () in
    {
      buckets = Array.init n (fun _ -> L.make_head nil);
      nil;
      ebr;
      mask = n - 1;
    }

  let bucket t k = t.buckets.(hash t k)
  let insert t k v = L.insert_at t.ebr t.nil (bucket t k) k v
  let remove t k = L.remove_at t.ebr (bucket t k) k
  let contains t k = L.contains_at t.ebr (bucket t k) k
  let find_opt t k = L.find_opt_at t.ebr (bucket t k) k

  let to_list t =
    Array.to_list t.buckets
    |> List.concat_map L.to_list_at
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let size t =
    Array.fold_left (fun a h -> a + List.length (L.to_list_at h)) 0 t.buckets

  let recover t = Array.iter L.recover_at t.buckets
end
