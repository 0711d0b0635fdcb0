(** Harris's lock-free linked list (Harris, DISC 2001), the first data
    structure the paper evaluates (§6.2.1–6.2.3) and the building block of
    its hash table.

    A node is a [Node] block holding its key, value and [next] field
    inline; the list ends at [Nil], an immediate.  A field holds its
    successor node directly, so a step of a walk reads the field and then
    the node: one dependent load.  The mark bit of the original (stolen
    from the pointer's low bit) is the [Marked] wrapper: a logically
    deleted node's [next] holds [Marked succ], its frozen successor.  CAS
    compares by physical identity, which is exactly a word CAS on the
    pointer.

    There is no ABA, by the argument of Michael's GC-based list: a node is
    linked once, by the insert that allocated it, and never relinked after
    its unlink, so an unmarked field that goes S → X → S holds the same
    successor, still linked, and is logically identical; a stale CAS that
    lands there is correct.  A [Marked] block is fresh at each mark and
    final — no CAS ever expects one — so a field cannot return to a mark
    it left, and a CAS that expects an unmarked value fails once the
    field's owner is marked.

    The walks ([find], [lookup], [recover_from]) are top-level functions
    taking every input as an argument, so a lookup and a recovery allocate
    nothing.

    The list is a functor over {!Mirror_prim.Prim.S}: the same code yields
    the original volatile list, the Izraelevitz and NVTraverse
    transformations, and the Mirror list, depending on the primitive. *)

module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node =
    | Nil
    | Node of { key : int; value : 'v; next : 'v node P.t }
    | Marked of 'v node
        (** only ever held by the [next] of a logically deleted node; the
            payload is its successor, never itself [Marked] *)

  type 'v head = 'v node P.t
  (** a bare root field: the operations below take it together with the
      reclamation domain, so a container of many lists (the hash table's
      bucket array) needs no record per list and no view per operation *)

  type 'v nil = 'v node P.birth
  (** the birth of every field born [Nil]: a list's head and the [next]
      of each node inserted at its tail start on this one immutable cell *)

  type 'v t = {
    head : 'v head;  (** the persistent root of the structure *)
    nil : 'v nil;
    ebr : Mirror_core.Ebr.t;
  }

  let nil () : 'v nil = P.birth Nil
  let make_head (nil : 'v nil) : 'v head = P.make_born nil

  let create ?ebr () =
    let ebr =
      match ebr with Some e -> e | None -> Mirror_core.Ebr.create ()
    in
    let nil = nil () in
    { head = make_head nil; nil; ebr }

  (* -- traversal ---------------------------------------------------------- *)

  (* [find ebr head k] returns [(pred_field, curr)] where [curr] is the
     first unmarked node with key >= k (or [Nil]) and [pred_field] the
     field of its unmarked predecessor (or the head) that [curr] was read
     from (the CAS witness).  Marked nodes encountered on the way are
     physically unlinked. *)
  let rec find ebr head k = find_from ebr head k head (P.load_t head)

  and find_from ebr head k (pred_field : 'v node P.t) (curr : 'v node) =
    match curr with
    | Node c -> (
        match P.load_t c.next with
        | Marked succ ->
            (* curr is logically deleted: unlink it *)
            if P.cas pred_field ~expected:curr ~desired:succ then begin
              Mirror_core.Ebr.retire ebr (fun () -> ());
              find_from ebr head k pred_field succ
            end
            else find ebr head k (* pred changed under us: restart *)
        | succ ->
            if c.key >= k then (pred_field, curr)
            else find_from ebr head k c.next succ)
    | Nil | Marked _ (* never: [curr] is always an unmarked read *) ->
        (pred_field, curr)

  (* [lookup k field curr] is the wait-free walk of [contains] and
     [find_opt]: it steps past marked nodes without unlinking and returns
     the unmarked node with key [k], or [Nil].  [field] is where [curr]
     was read: when the walk decides "absent", that read is the deciding
     observation, and it must be persisted before the result is exposed
     (strategies whose [load] flushes) — a completed negative answer may
     depend on an unlinking CAS another thread has not persisted yet, and
     a crash would undo it. *)
  let rec lookup k (field : 'v node P.t) (curr : 'v node) =
    match curr with
    | Node c ->
        if c.key < k then lookup k c.next (P.load_t c.next)
        else begin
          ignore (P.load field);
          if c.key > k then Nil
          else
            (* destination reads: the field into [c] (reachability) and
               [c]'s own mark decide the result, persisted by the
               strategies that must *)
            match P.load c.next with Marked _ -> Nil | _ -> curr
        end
    | Marked succ -> lookup k field succ
    | Nil ->
        ignore (P.load field);
        Nil

  (* -- operations --------------------------------------------------------- *)

  let contains_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let r =
      match lookup k head (P.load_t head) with
      | Node _ -> true
      | Nil | Marked _ -> false
    in
    Mirror_core.Ebr.exit ebr;
    r

  let find_opt_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let r =
      match lookup k head (P.load_t head) with
      | Node n -> Some n.value
      | Nil | Marked _ -> None
    in
    Mirror_core.Ebr.exit ebr;
    r

  let insert_at ebr nil head k v =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, curr = find ebr head k in
      match curr with
      | Node c when c.key = k ->
          (* key present: the deciding reads are the field into [c] (its
             reachability may rest on an insert another thread has not
             persisted yet) and [c]'s own mark *)
          ignore (P.load pred_field);
          ignore (P.load c.next);
          false
      | _ ->
          Mirror_nvm.Stats.count_alloc ();
          (* place the new node's field on the predecessor field's cache
             line: the insert's allocation write-back and the CE's flush of
             [pred_field] then coalesce into one line flush.  A field born
             [Nil] starts on the list's shared birth. *)
          let next =
            match curr with
            | Nil -> P.make_near_born pred_field nil
            | Node _ | Marked _ -> P.make_near pred_field curr
          in
          let node = Node { key = k; value = v; next } in
          (* destination write: persist the surrounding field first
             (NVTraverse's flush-the-destination; no-op elsewhere) *)
          P.persist pred_field;
          if P.cas pred_field ~expected:curr ~desired:node then true
          else attempt ()
    in
    let r = attempt () in
    Mirror_core.Ebr.exit ebr;
    r

  let remove_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, curr = find ebr head k in
      match curr with
      | Node c when c.key = k -> (
          match P.load c.next with
          | Marked _ ->
              (* someone else is deleting it; restart to settle the race *)
              attempt ()
          | succ ->
              P.persist pred_field;
              P.persist c.next;
              if P.cas c.next ~expected:succ ~desired:(Marked succ) then begin
                (* logical deletion done (linearization); physical unlink
                   is best-effort, find will complete it otherwise *)
                (if P.cas pred_field ~expected:curr ~desired:succ then
                   Mirror_core.Ebr.retire ebr (fun () -> ()));
                true
              end
              else attempt ())
      | _ ->
          (* absent: the deciding observation is [pred_field] jumping over
             [k]; persist it before returning (another thread's unlink of
             the victim may still be volatile — found by the crash-point
             model checker as a resurrected completed remove=false) *)
          ignore (P.load pred_field);
          false
    in
    let r = attempt () in
    Mirror_core.Ebr.exit ebr;
    r

  let contains t k = contains_at t.ebr t.head k
  let find_opt t k = find_opt_at t.ebr t.head k
  let insert t k v = insert_at t.ebr t.nil t.head k v
  let remove t k = remove_at t.ebr t.head k

  (* -- inspection (tests; not concurrent-safe) ----------------------------- *)

  let to_list_at head =
    let rec go acc = function
      | Node n -> (
          match P.load_t n.next with
          | Marked succ -> go acc succ
          | succ -> go ((n.key, n.value) :: acc) succ)
      | Nil | Marked _ -> List.rev acc
    in
    go [] (P.load_t head)

  let to_list t = to_list_at t.head
  let size t = List.length (to_list t)

  (* -- weakly consistent iteration (live traversal; like a Java CHM
     iterator, it sees some elements of every state it overlaps) ---------- *)

  let fold f init t =
    let rec go acc = function
      | Node n -> (
          match P.load_t n.next with
          | Marked succ -> go acc succ
          | succ -> go (f acc n.key n.value) succ)
      | Nil | Marked _ -> acc
    in
    go init (P.load_t t.head)

  let iter f t = fold (fun () k v -> f k v) () t

  (** Entries with [lo <= key < hi], ascending. *)
  let range t ~lo ~hi =
    let rec go acc = function
      | Node n when n.key < hi -> (
          match P.load_t n.next with
          | Marked succ -> go acc succ
          | succ ->
              go (if n.key >= lo then (n.key, n.value) :: acc else acc) succ)
      | Node _ | Nil | Marked _ -> List.rev acc
    in
    go [] (P.load_t t.head)

  (* -- recovery (the paper's tracing routine, §4.3.3) ---------------------- *)

  (* Restores every field reachable from a node, marked nodes' included: a
     marked node is still linked, and the nodes behind it are reached
     through its frozen [next]. *)
  let rec recover_from = function
    | Node m ->
        P.recover m.next;
        recover_from (P.load_recovery m.next)
    | Marked succ -> recover_from succ
    | Nil -> ()

  let recover_at head =
    P.recover head;
    recover_from (P.load_recovery head)

  let recover t = recover_at t.head
end
