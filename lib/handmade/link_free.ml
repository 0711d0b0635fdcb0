(** Link-Free durable set (Zuriel, Friedman, Sheffi, Cohen, Petrank,
    "Efficient Lock-Free Durable Sets", OOPSLA 2019) — one of the two
    hand-made competitors of the paper's evaluation.

    The whole list lives in NVMM, but the *links are never flushed*: each
    node carries persistent metadata ([valid]/[deleted]) and recovery
    rebuilds the set by scanning the allocator's node registry for nodes
    whose persisted metadata says "alive".  A durable write costs exactly
    one flush + fence (the node's line); redundant persists are skipped with
    a dirtiness check, Zuriel et al.'s key optimization.

    Protocol (list form; the hash form is one list per bucket):
    - insert: allocate node (metadata not yet persistent), link it with a
      CAS, then flush + fence the node — the durable linearization;
    - remove: CAS the metadata to [deleted] (linearization), flush + fence
      (durability), then Harris-style mark + unlink;
    - contains: traverse (NVMM reads — no DRAM replica in this design); if
      the deciding node's line is still dirty, flush + fence it before
      answering. *)

[@@@mlint.allow substrate "hand-made baseline: manages NVMM lines directly"]

open Mirror_nvm

module Core = struct
  type meta = { valid : bool; deleted : bool }

  type 'v node = {
    key : int;
    value : 'v;
    meta : meta Slot.t;
    next : 'v link Slot.t;  (** never flushed *)
  }

  and 'v link = { target : 'v node option; marked : bool }

  type 'v t = {
    mutable head : 'v link Slot.t;
    registry : 'v node list Atomic.t;  (** the allocator's slab view *)
    track : bool;
    region : Region.t;
    ebr : Mirror_core.Ebr.t;
  }

  let create ?(track = true) ?ebr region =
    let ebr =
      match ebr with Some e -> e | None -> Mirror_core.Ebr.create ()
    in
    {
      head = Slot.make ~persist:true region { target = None; marked = false };
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

  (* Zuriel's validity scheme: nodes are allocated *invalid* so that a
     spuriously evicted line can never resurrect a never-linked node.  Any
     thread exposing a result that depends on a linked node first helps
     validate it (insert's volatile linearization is the link CAS; the
     validation + flush make it durable), then flushes the line unless it is
     already persistent — the redundant-persist elimination. *)
  let ensure_durable t (n : 'v node) =
    (match Slot.peek n.meta with
    | { valid = false; deleted = false } ->
        ignore
          (Slot.cas_pred n.meta
             ~expect:(fun m -> (not m.valid) && not m.deleted)
             ~desired:{ valid = true; deleted = false })
    | _ -> ());
    if Slot.is_dirty n.meta then begin
      Slot.flush n.meta;
      Region.fence t.region
    end

  (* Harris find over NVMM links; returns (pred_field, pred_link, curr) *)
  let rec find t k =
    let rec walk (pred_field : 'v link Slot.t) (pred_link : 'v link) =
      match pred_link.target with
      | None -> (pred_field, pred_link, None)
      | Some curr ->
          let curr_link = Slot.load curr.next in
          if curr_link.marked then begin
            let repl = { target = curr_link.target; marked = false } in
            if Slot.cas pred_field ~expected:pred_link ~desired:repl then begin
              Mirror_core.Ebr.retire t.ebr (fun () -> ());
              walk pred_field repl
            end
            else find t k
          end
          else if curr.key >= k then (pred_field, pred_link, Some curr)
          else walk curr.next curr_link
    in
    walk t.head (Slot.load t.head)

  let mark_node (n : 'v node) =
    let rec go () =
      let l = Slot.load n.next in
      if not l.marked then
        if
          not
            (Slot.cas n.next ~expected:l
               ~desired:{ target = l.target; marked = true })
        then go ()
    in
    go ()

  let contains t k =
    Mirror_core.Ebr.enter t.ebr;
    let rec walk (l : 'v link) =
      match l.target with
      | None -> false
      | Some curr ->
          if curr.key < k then walk (Slot.load curr.next)
          else if curr.key > k then false
          else begin
            (* validate + persist what the answer depends on, then decide *)
            ensure_durable t curr;
            let m = Slot.load curr.meta in
            m.valid && not m.deleted
          end
    in
    let r = walk (Slot.load t.head) in
    Mirror_core.Ebr.exit t.ebr;
    r

  let find_opt t k =
    Mirror_core.Ebr.enter t.ebr;
    let rec walk (l : 'v link) =
      match l.target with
      | None -> None
      | Some curr ->
          if curr.key < k then walk (Slot.load curr.next)
          else if curr.key > k then None
          else begin
            ensure_durable t curr;
            let m = Slot.load curr.meta in
            if m.valid && not m.deleted then Some curr.value else None
          end
    in
    let r = walk (Slot.load t.head) in
    Mirror_core.Ebr.exit t.ebr;
    r

  let insert t k v =
    Mirror_core.Ebr.enter t.ebr;
    let rec attempt () =
      let pred_field, pred_link, curr = find t k in
      match curr with
      | Some c when c.key = k ->
          let m = Slot.load c.meta in
          if m.deleted then begin
            (* a remover is between its meta-CAS and the physical unlink:
               persist its deletion, help it along, then retry — flushing
               first so the crash ordering (old node resurrected while our
               fresh node is also alive) cannot happen *)
            ensure_durable t c;
            mark_node c;
            attempt ()
          end
          else begin
            ensure_durable t c;
            false
          end
      | _ ->
          Stats.count_alloc ();
          let node =
            {
              key = k;
              value = v;
              (* allocated INVALID: eviction of this line cannot resurrect a
                 node that was never linked *)
              meta = Slot.make ~persist:false t.region { valid = false; deleted = false };
              next = Slot.make ~persist:false t.region { target = curr; marked = false };
            }
          in
          (* the recovery scan knows the node from allocation time, like the
             allocator's slabs in the original *)
          register t node;
          if
            Slot.cas pred_field ~expected:pred_link
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
    let rec attempt () =
      let _, _, curr = find t k in
      match curr with
      | Some c when c.key = k ->
          let m = Slot.load c.meta in
          if m.deleted then begin
            ensure_durable t c;
            false
          end
          else begin
            let ok, _ =
              Slot.cas_pred c.meta
                ~expect:(fun mm -> mm == m)
                ~desired:{ valid = true; deleted = true }
            in
            if ok then begin
              (* durability, then physical removal *)
              Slot.flush c.meta;
              Region.fence t.region;
              mark_node c;
              ignore (find t k);
              true
            end
            else attempt ()
          end
      | _ -> false
    in
    let r = attempt () in
    Mirror_core.Ebr.exit t.ebr;
    r

  (* -- inspection (quiesced) -------------------------------------------------- *)

  let to_list t =
    let rec go acc (l : 'v link) =
      match l.target with
      | None -> List.rev acc
      | Some n ->
          let nl = Slot.peek n.next in
          let m = Slot.peek n.meta in
          let acc =
            if nl.marked || m.deleted || not m.valid then acc
            else (n.key, n.value) :: acc
          in
          go acc nl
    in
    go [] (Slot.peek t.head)

  (* -- recovery: scan the registry, rebuild from persisted metadata ---------- *)

  let recover t =
    if not t.track then
      invalid_arg "Link_free.recover: structure created with ~track:false";
    let alive =
      List.filter_map
        (fun n ->
          match Slot.persisted_value n.meta with
          | Some { valid = true; deleted = false } -> Some (n.key, n.value)
          | _ -> None)
        (Atomic.get t.registry)
      |> List.sort_uniq compare
      (* one node per key: an in-flight re-insert racing a crash may leave
         two alive generations of the same key *)
      |> List.fold_left
           (fun acc (k, v) ->
             match acc with (k', _) :: _ when k' = k -> acc | _ -> (k, v) :: acc)
           []
      |> List.rev
    in
    (* rebuild the links (they were never persisted) with fresh nodes *)
    let rec build = function
      | [] -> ({ target = None; marked = false }, [])
      | (k, v) :: rest ->
          let tail_link, nodes = build rest in
          let n =
            {
              key = k;
              value = v;
              meta = Slot.make ~persist:true t.region { valid = true; deleted = false };
              next = Slot.make ~persist:true t.region tail_link;
            }
          in
          ({ target = Some n; marked = false }, n :: nodes)
    in
    let head_link, nodes = build alive in
    t.head <- Slot.make ~persist:true t.region head_link;
    Atomic.set t.registry nodes
end

(** The list form and the hash form (one list per bucket) as
    {!Mirror_dstruct.Sets.SET}s. *)
include Set_forms.Make (Core) (struct
  let family = "link-free"
end)
