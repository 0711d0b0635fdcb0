(** Harris's lock-free linked list (Harris, DISC 2001), the first data
    structure the paper evaluates (§6.2.1–6.2.3) and the building block of
    its hash table.

    A node is a [Node] block holding its key, value and [next] field
    inline; the list ends at [Nil], an immediate.  A step of a walk reads
    the link record in [next] and then the node it targets directly: no
    option box sits between them.  The mark bit of the original (stolen
    from the pointer's low bit) is the [marked] field of that boxed [link]
    record.  CAS compares link records by physical identity, which is
    exactly a word CAS on the pointer.  Every write installs a freshly
    allocated link record, so a field never holds the same record twice
    and there is no ABA; nothing compares [target]s physically.

    The walks ([find], [lookup]) are top-level functions taking every
    input as an argument, so a lookup allocates nothing.

    The list is a functor over {!Mirror_prim.Prim.S}: the same code yields
    the original volatile list, the Izraelevitz and NVTraverse
    transformations, and the Mirror list, depending on the primitive. *)

module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = Nil | Node of { key : int; value : 'v; next : 'v link P.t }

  and 'v link = { target : 'v node; marked : bool }
  (** [marked = true] in [n.next] means [n] is logically deleted. *)

  type 'v head = 'v link P.t
  (** a bare root field: the operations below take it together with the
      reclamation domain, so a container of many lists (the hash table's
      bucket array) needs no record per list and no view per operation *)

  type 'v t = {
    head : 'v head;  (** the persistent root of the structure *)
    ebr : Mirror_core.Ebr.t;
  }

  let make_head () : 'v head = P.make { target = Nil; marked = false }

  let create ?ebr () =
    let ebr =
      match ebr with Some e -> e | None -> Mirror_core.Ebr.create ()
    in
    { head = make_head (); ebr }

  (* -- traversal ---------------------------------------------------------- *)

  (* [find ebr head k] returns [(pred_field, pred_link)] where
     [pred_link.target] is the first unmarked node with key >= k (or
     [Nil]), [pred_field] the link field of its unmarked predecessor (or
     the head) and [pred_link] the exact link box read there (the CAS
     witness).  Marked nodes encountered on the way are physically
     unlinked. *)
  let rec find ebr head k = find_from ebr head k head (P.load_t head)

  and find_from ebr head k (pred_field : 'v link P.t) (pred_link : 'v link) =
    match pred_link.target with
    | Nil -> (pred_field, pred_link)
    | Node curr ->
        let curr_link = P.load_t curr.next in
        if curr_link.marked then begin
          (* curr is logically deleted: unlink it *)
          let repl = { target = curr_link.target; marked = false } in
          if P.cas pred_field ~expected:pred_link ~desired:repl then begin
            Mirror_core.Ebr.retire ebr (fun () -> ());
            find_from ebr head k pred_field repl
          end
          else find ebr head k (* pred changed under us: restart *)
        end
        else if curr.key >= k then (pred_field, pred_link)
        else find_from ebr head k curr.next curr_link

  (* [lookup k field l] is the wait-free walk of [contains] and [find_opt]:
     it skips marked nodes without unlinking and returns the unmarked node
     with key [k], or [Nil].  [field] is where the current link [l] was
     read: when the walk decides "absent", that link is the deciding
     observation, and it must be persisted before the result is exposed
     (strategies whose [load] flushes) — a completed negative answer may
     depend on an unlinking CAS another thread has not persisted yet, and
     a crash would undo it. *)
  let rec lookup k (field : 'v link P.t) (l : 'v link) =
    match l.target with
    | Nil ->
        ignore (P.load field);
        Nil
    | Node curr as n ->
        if curr.key < k then lookup k curr.next (P.load_t curr.next)
        else begin
          ignore (P.load field);
          if curr.key > k then Nil
          else
            (* destination reads: the link into [curr] (reachability) and
               [curr]'s own mark decide the result, persisted by the
               strategies that must *)
            let cl = P.load curr.next in
            if cl.marked then Nil else n
        end

  (* -- operations --------------------------------------------------------- *)

  let contains_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let r =
      match lookup k head (P.load_t head) with Nil -> false | Node _ -> true
    in
    Mirror_core.Ebr.exit ebr;
    r

  let find_opt_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let r =
      match lookup k head (P.load_t head) with
      | Nil -> None
      | Node n -> Some n.value
    in
    Mirror_core.Ebr.exit ebr;
    r

  let insert_at ebr head k v =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, pred_link = find ebr head k in
      match pred_link.target with
      | Node c when c.key = k ->
          (* key present: the deciding reads are the link into [c] (its
             reachability may rest on an insert another thread has not
             persisted yet) and [c]'s own mark *)
          ignore (P.load pred_field);
          ignore (P.load c.next);
          false
      | _ ->
          Mirror_core.Alloc.count ~fields:1 ();
          (* place the new node's link on the predecessor field's cache
             line: the insert's allocation write-back and the CE's flush of
             [pred_field] then coalesce into one line flush *)
          let node =
            Node
              {
                key = k;
                value = v;
                next =
                  P.make_near pred_field
                    { target = pred_link.target; marked = false };
              }
          in
          (* destination write: persist the surrounding field first
             (NVTraverse's flush-the-destination; no-op elsewhere) *)
          P.persist pred_field;
          if
            P.cas pred_field ~expected:pred_link
              ~desired:{ target = node; marked = false }
          then true
          else attempt ()
    in
    let r = attempt () in
    Mirror_core.Ebr.exit ebr;
    r

  let remove_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, pred_link = find ebr head k in
      match pred_link.target with
      | Nil ->
          (* absent: the deciding observation is [pred_field]'s link jumping
             over [k]; persist it before returning (another thread's unlink
             of the victim may still be volatile — found by the crash-point
             model checker as a resurrected completed remove=false) *)
          ignore (P.load pred_field);
          false
      | Node c when c.key <> k ->
          ignore (P.load pred_field);
          false
      | Node c ->
          let c_link = P.load c.next in
          if c_link.marked then
            (* someone else is deleting it; restart to settle the race *)
            attempt ()
          else begin
            P.persist pred_field;
            P.persist c.next;
            if
              P.cas c.next ~expected:c_link
                ~desired:{ target = c_link.target; marked = true }
            then begin
              (* logical deletion done (linearization); physical unlink is
                 best-effort, find will complete it otherwise *)
              (if
                 P.cas pred_field ~expected:pred_link
                   ~desired:{ target = c_link.target; marked = false }
               then Mirror_core.Ebr.retire ebr (fun () -> ()));
              true
            end
            else attempt ()
          end
    in
    let r = attempt () in
    Mirror_core.Ebr.exit ebr;
    r

  let contains t k = contains_at t.ebr t.head k
  let find_opt t k = find_opt_at t.ebr t.head k
  let insert t k v = insert_at t.ebr t.head k v
  let remove t k = remove_at t.ebr t.head k

  (* -- inspection (tests; not concurrent-safe) ----------------------------- *)

  let to_list_at head =
    let rec go acc (l : 'v link) =
      match l.target with
      | Nil -> List.rev acc
      | Node n ->
          let nl = P.load_t n.next in
          let acc = if nl.marked then acc else (n.key, n.value) :: acc in
          go acc nl
    in
    go [] (P.load_t head)

  let to_list t = to_list_at t.head
  let size t = List.length (to_list t)

  (* -- weakly consistent iteration (live traversal; like a Java CHM
     iterator, it sees some elements of every state it overlaps) ---------- *)

  let fold f init t =
    let rec go acc (l : 'v link) =
      match l.target with
      | Nil -> acc
      | Node n ->
          let nl = P.load_t n.next in
          let acc = if nl.marked then acc else f acc n.key n.value in
          go acc nl
    in
    go init (P.load_t t.head)

  let iter f t = fold (fun () k v -> f k v) () t

  (** Entries with [lo <= key < hi], ascending. *)
  let range t ~lo ~hi =
    let rec go acc (l : 'v link) =
      match l.target with
      | Nil -> List.rev acc
      | Node n ->
          if n.key >= hi then List.rev acc
          else
            let nl = P.load_t n.next in
            let acc =
              if n.key >= lo && not nl.marked then (n.key, n.value) :: acc
              else acc
            in
            go acc nl
    in
    go [] (P.load_t t.head)

  (* -- recovery (the paper's tracing routine, §4.3.3) ---------------------- *)

  let recover_at head =
    P.recover head;
    let rec go (l : 'v link) =
      match l.target with
      | Node m ->
          P.recover m.next;
          go (P.load_recovery m.next)
      | Nil -> ()
    in
    go (P.load_recovery head)

  let recover t = recover_at t.head
end
