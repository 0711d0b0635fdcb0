(** SOFT durable set (Zuriel et al., OOPSLA 2019) — the second hand-made
    competitor in the paper's evaluation.

    SOFT splits every element into a *volatile node* (the linked list itself,
    living in DRAM — lookups never touch NVMM) and a *persistent node*
    holding key, value and validity metadata in NVMM.  Pointers are never
    persisted; a durable update costs one flush + fence of the pnode.
    Recovery scans the pnode registry and rebuilds the volatile list.

    Protocol:
    - insert: find in the volatile list; allocate vnode + pnode; link the
      vnode (volatile CAS); flush + fence the pnode (durable linearization);
    - remove: write [deleted] into the pnode and flush + fence it *first*,
      then mark the vnode's next pointer (volatile linearization — the mark
      winner owns the removal) and unlink;
    - contains: pure DRAM traversal; before exposing a result that depends
      on a not-yet-persisted update, flush + fence that pnode (the dirtiness
      check models SOFT's volatile pstate bits). *)

[@@@mlint.allow substrate "hand-made baseline: manages NVMM lines directly"]

open Mirror_nvm

module Core = struct
  type meta = { valid : bool; deleted : bool }

  type 'v vnode = {
    key : int;
    value : 'v;
    pmeta : meta Slot.t;  (** the PNode in NVMM *)
    next : 'v link Atomic.t;  (** DRAM *)
  }

  and 'v link = { target : 'v vnode option; marked : bool }

  type 'v t = {
    mutable head : 'v link Atomic.t;
    registry : 'v vnode list Atomic.t;
    track : bool;
    region : Region.t;
    ebr : Mirror_core.Ebr.t;
  }

  (* volatile accesses, charged at DRAM cost *)
  let vload a =
    Hooks.yield ();
    Stats.bill_dram_read ();
    Atomic.get a

  let vcas a ~expected ~desired =
    Hooks.yield ();
    Stats.bill_dram_cas ();
    Atomic.compare_and_set a expected desired

  let create ?(track = true) ?ebr region =
    let ebr =
      match ebr with Some e -> e | None -> Mirror_core.Ebr.create ()
    in
    {
      head = Atomic.make { target = None; marked = false };
      registry = Atomic.make [];
      track;
      region;
      ebr;
    }

  let register t n =
    if t.track then begin
      let rec go () =
        let old = Atomic.get t.registry in
        if not (Atomic.compare_and_set t.registry old (n :: old)) then go ()
      in
      go ()
    end

  (* Validate a linked-but-not-yet-validated pnode (helping the inserter),
     then flush + fence unless already persistent.  PNodes are allocated
     invalid so cache eviction cannot resurrect a never-linked node; the
     validation CAS checks the exact invalid state so it can never undo a
     concurrent deletion. *)
  let ensure_durable t (n : 'v vnode) =
    (match Slot.peek n.pmeta with
    | { valid = false; deleted = false } ->
        ignore
          (Slot.cas_pred n.pmeta
             ~expect:(fun m -> (not m.valid) && not m.deleted)
             ~desired:{ valid = true; deleted = false })
    | _ -> ());
    if Slot.is_dirty n.pmeta then begin
      Slot.flush n.pmeta;
      Region.fence t.region
    end

  let rec find t k =
    let rec walk (pred_field : 'v link Atomic.t) (pred_link : 'v link) =
      match pred_link.target with
      | None -> (pred_field, pred_link, None)
      | Some curr ->
          let curr_link = vload curr.next in
          if curr_link.marked then begin
            let repl = { target = curr_link.target; marked = false } in
            if vcas pred_field ~expected:pred_link ~desired:repl then begin
              Mirror_core.Ebr.retire t.ebr (fun () -> ());
              walk pred_field repl
            end
            else find t k
          end
          else if curr.key >= k then (pred_field, pred_link, Some curr)
          else walk curr.next curr_link
    in
    walk t.head (vload t.head)

  let contains t k =
    Mirror_core.Ebr.enter t.ebr;
    let rec walk (l : 'v link) =
      match l.target with
      | None -> false
      | Some curr ->
          if curr.key < k then walk (vload curr.next)
          else if curr.key > k then false
          else begin
            let cl = vload curr.next in
            ensure_durable t curr;
            not cl.marked
          end
    in
    let r = walk (vload t.head) in
    Mirror_core.Ebr.exit t.ebr;
    r

  let find_opt t k =
    Mirror_core.Ebr.enter t.ebr;
    let rec walk (l : 'v link) =
      match l.target with
      | None -> None
      | Some curr ->
          if curr.key < k then walk (vload curr.next)
          else if curr.key > k then None
          else begin
            let cl = vload curr.next in
            ensure_durable t curr;
            if cl.marked then None else Some curr.value
          end
    in
    let r = walk (vload t.head) in
    Mirror_core.Ebr.exit t.ebr;
    r

  let insert t k v =
    Mirror_core.Ebr.enter t.ebr;
    let rec attempt () =
      let pred_field, pred_link, curr = find t k in
      match curr with
      | Some c when c.key = k ->
          ensure_durable t c;
          false
      | _ ->
          Stats.count_alloc ();
          let node =
            {
              key = k;
              value = v;
              (* allocated INVALID (see ensure_durable) *)
              pmeta =
                Slot.make ~persist:false t.region { valid = false; deleted = false };
              next = Atomic.make { target = curr; marked = false };
            }
          in
          (* recovery scans know the pnode from allocation time *)
          register t node;
          if
            vcas pred_field ~expected:pred_link
              ~desired:{ target = Some node; marked = false }
          then begin
            (* validate + one flush + fence: the durable linearization *)
            ensure_durable t node;
            true
          end
          else attempt ()
    in
    let r = attempt () in
    Mirror_core.Ebr.exit t.ebr;
    r

  let remove t k =
    Mirror_core.Ebr.enter t.ebr;
    let attempt () =
      let _, _, curr = find t k in
      match curr with
      | Some c when c.key = k ->
          (* durability first: persist the deletion intent, then take the
             volatile linearization (the mark).  The node is linked, so the
             insert that linked it has linearized; writing {valid; deleted}
             unconditionally is safe and also settles a pending validation *)
          Slot.store c.pmeta { valid = true; deleted = true };
          Slot.flush c.pmeta;
          Region.fence t.region;
          let rec mark () =
            let l = vload c.next in
            if l.marked then false (* another remover won *)
            else if
              vcas c.next ~expected:l
                ~desired:{ target = l.target; marked = true }
            then begin
              ignore (find t k) (* physical unlink *);
              true
            end
            else mark ()
          in
          if mark () then true
          else begin
            ensure_durable t c;
            false
          end
      | _ -> false
    in
    let r = attempt () in
    Mirror_core.Ebr.exit t.ebr;
    r

  let to_list t =
    let rec go acc (l : 'v link) =
      match l.target with
      | None -> List.rev acc
      | Some n ->
          let nl = Atomic.get n.next in
          let acc = if nl.marked then acc else (n.key, n.value) :: acc in
          go acc nl
    in
    go [] (Atomic.get t.head)

  let recover t =
    if not t.track then
      invalid_arg "Soft.recover: structure created with ~track:false";
    let alive =
      List.filter_map
        (fun n ->
          match Slot.persisted_value n.pmeta with
          | Some { valid = true; deleted = false } -> Some (n.key, n.value)
          | _ -> None)
        (Atomic.get t.registry)
      |> List.sort_uniq compare
      |> List.fold_left
           (fun acc (k, v) ->
             match acc with (k', _) :: _ when k' = k -> acc | _ -> (k, v) :: acc)
           []
      |> List.rev
    in
    let rec build = function
      | [] -> ({ target = None; marked = false }, [])
      | (k, v) :: rest ->
          let tail_link, nodes = build rest in
          let n =
            {
              key = k;
              value = v;
              pmeta =
                Slot.make ~persist:true t.region { valid = true; deleted = false };
              next = Atomic.make tail_link;
            }
          in
          ({ target = Some n; marked = false }, n :: nodes)
    in
    let head_link, nodes = build alive in
    t.head <- Atomic.make head_link;
    Atomic.set t.registry nodes
end

(** The list form and the hash form (one list per bucket) as
    {!Mirror_dstruct.Sets.SET}s. *)
include Set_forms.Make (Core) (struct
  let family = "soft"
end)
