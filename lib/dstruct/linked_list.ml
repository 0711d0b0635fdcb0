(** Harris's lock-free linked list (Harris, DISC 2001), the first data
    structure the paper evaluates (§6.2.1–6.2.3) and the building block of
    its hash table.

    The mark bit of the original (stolen from the pointer's low bit) is a
    boxed [link] record here; CAS compares link boxes by physical identity,
    which is exactly a word CAS on the pointer — each write creates a fresh
    box, so there is no ABA.

    The list is a functor over {!Mirror_prim.Prim.S}: the same code yields
    the original volatile list, the Izraelevitz and NVTraverse
    transformations, and the Mirror list, depending on the primitive. *)

module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = { key : int; value : 'v; next : 'v link P.t }

  and 'v link = { target : 'v node option; marked : bool }
  (** [marked = true] in [n.next] means [n] is logically deleted. *)

  type 'v head = 'v link P.t
  (** a bare root field: the operations below take it together with the
      reclamation domain, so a container of many lists (the hash table's
      bucket array) needs no record per list and no view per operation *)

  type 'v t = {
    head : 'v head;  (** the persistent root of the structure *)
    ebr : Mirror_core.Ebr.t;
  }

  let make_head () : 'v head = P.make { target = None; marked = false }

  let create ?ebr () =
    let ebr =
      match ebr with Some e -> e | None -> Mirror_core.Ebr.create ()
    in
    { head = make_head (); ebr }

  (* -- traversal ---------------------------------------------------------- *)

  (* [find ebr head k] returns [(pred_field, pred_link, curr_opt)] where
     [curr_opt] is the first unmarked node with key >= k, [pred_field] the
     link field of its unmarked predecessor (or the head) and [pred_link]
     the exact link box read there (the CAS witness).  Marked nodes
     encountered on the way are physically unlinked. *)
  let rec find ebr head k =
    let rec walk (pred_field : 'v link P.t) (pred_link : 'v link) =
      match pred_link.target with
      | None -> (pred_field, pred_link, None)
      | Some curr ->
          let curr_link = P.load_t curr.next in
          if curr_link.marked then begin
            (* curr is logically deleted: unlink it *)
            let repl = { target = curr_link.target; marked = false } in
            if P.cas pred_field ~expected:pred_link ~desired:repl then begin
              Mirror_core.Ebr.retire ebr (fun () -> ());
              walk pred_field repl
            end
            else find ebr head k (* pred changed under us: restart *)
          end
          else if curr.key >= k then (pred_field, pred_link, Some curr)
          else walk curr.next curr_link
    in
    walk head (P.load_t head)

  (* -- operations --------------------------------------------------------- *)

  let contains_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    (* wait-free traversal: skip marked nodes without unlinking.  [field] is
       where the current link [l] was read: when the walk decides "absent",
       that link is the deciding observation, and it must be persisted
       before the result is exposed (strategies whose [load] flushes) — a
       completed negative answer may depend on an unlinking CAS another
       thread has not persisted yet, and a crash would undo it. *)
    let rec walk (field : 'v link P.t) (l : 'v link) =
      match l.target with
      | None ->
          ignore (P.load field);
          false
      | Some curr ->
          if curr.key < k then walk curr.next (P.load_t curr.next)
          else if curr.key > k then begin
            ignore (P.load field);
            false
          end
          else begin
            (* destination reads: the link into [curr] (reachability) and
               [curr]'s own mark decide the result, persisted by the
               strategies that must *)
            ignore (P.load field);
            let cl = P.load curr.next in
            not cl.marked
          end
    in
    let r = walk head (P.load_t head) in
    Mirror_core.Ebr.exit ebr;
    r

  let find_opt_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let rec walk (field : 'v link P.t) (l : 'v link) =
      match l.target with
      | None ->
          ignore (P.load field);
          None
      | Some curr ->
          if curr.key < k then walk curr.next (P.load_t curr.next)
          else if curr.key > k then begin
            ignore (P.load field);
            None
          end
          else begin
            ignore (P.load field);
            let cl = P.load curr.next in
            if cl.marked then None else Some curr.value
          end
    in
    let r = walk head (P.load_t head) in
    Mirror_core.Ebr.exit ebr;
    r

  let insert_at ebr head k v =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, pred_link, curr = find ebr head k in
      match curr with
      | Some c when c.key = k ->
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
            {
              key = k;
              value = v;
              next = P.make_near pred_field { target = curr; marked = false };
            }
          in
          (* destination write: persist the surrounding field first
             (NVTraverse's flush-the-destination; no-op elsewhere) *)
          P.persist pred_field;
          if
            P.cas pred_field ~expected:pred_link
              ~desired:{ target = Some node; marked = false }
          then true
          else attempt ()
    in
    let r = attempt () in
    Mirror_core.Ebr.exit ebr;
    r

  let remove_at ebr head k =
    Mirror_core.Ebr.enter ebr;
    let rec attempt () =
      let pred_field, pred_link, curr = find ebr head k in
      match curr with
      | None ->
          (* absent: the deciding observation is [pred_field]'s link jumping
             over [k]; persist it before returning (another thread's unlink
             of the victim may still be volatile — found by the crash-point
             model checker as a resurrected completed remove=false) *)
          ignore (P.load pred_field);
          false
      | Some c when c.key <> k ->
          ignore (P.load pred_field);
          false
      | Some c ->
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
      | None -> List.rev acc
      | Some n ->
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
      | None -> acc
      | Some n ->
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
      | None -> List.rev acc
      | Some n ->
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
      | Some m ->
          P.recover m.next;
          go (P.load_recovery m.next)
      | None -> ()
    in
    go (P.load_recovery head)

  let recover t = recover_at t.head
end
