(** Natarajan & Mittal's fast concurrent lock-free external binary search
    tree (PPoPP 2014) — the "lock-free BST by Aravind et al." of the paper's
    evaluation (§6.2.4).

    External tree: internal nodes route (keys < [key] go left), leaves hold
    the elements.  Deletion is two-phase: the edge to the victim leaf is
    *flagged* (the linearization point), then the victim's sibling edge is
    *tagged* so no insertion can slip underneath, and finally the deepest
    untagged ancestor edge is swung to the sibling subtree, physically
    removing the victim leaf and its parent.  Both bits live in the boxed
    {!edge} record; CAS compares edge boxes by identity (fresh box per
    write, no ABA), which models the original's bit-stealing word CAS.

    Sentinels: the root [R] has key [inf2 = max_int], its left child [S] key
    [inf1 = max_int - 1]; user keys must be [< inf1].  [S] can be physically
    removed when the tree empties, but the swing then re-installs the
    sentinel leaf [inf1] under [R], and the next insertion rebuilds an
    [inf1]-keyed internal in [S]'s role — the right spine below [R] is
    always sentinel-keyed, so the ancestor edge of any user deletion
    exists. *)

module Make (P : Mirror_prim.Prim.S) = struct
  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v node =
    | Leaf of { key : int; value : 'v option }
    | Internal of { key : int; left : 'v edge P.t; right : 'v edge P.t }

  and 'v edge = { child : 'v node; flag : bool; tag : bool }

  type 'v t = { root : 'v node; ebr : Mirror_core.Ebr.t }

  let mk_edge child = { child; flag = false; tag = false }

  let create () =
    (* each internal's two edge fields share a cache line: one write-back
       covers the pair when the sentinel spine is first persisted *)
    let s =
      let left = P.make (mk_edge (Leaf { key = inf1; value = None })) in
      Internal
        {
          key = inf1;
          left;
          right = P.make_near left (mk_edge (Leaf { key = inf1; value = None }));
        }
    in
    let root =
      let left = P.make (mk_edge s) in
      Internal
        {
          key = inf2;
          left;
          right = P.make_near left (mk_edge (Leaf { key = inf2; value = None }));
        }
    in
    { root; ebr = Mirror_core.Ebr.create () }

  (* -- seek ---------------------------------------------------------------- *)

  type 'v seek = {
    anc_field : 'v edge P.t;  (** deepest untagged edge into an internal on the path *)
    anc_edge : 'v edge;  (** the box read there (CAS witness) *)
    par_field : 'v edge P.t;  (** edge field parent -> leaf *)
    par_edge : 'v edge;
    parent : 'v node;
    leaf : 'v node;
  }

  let seek t k =
    let root_left =
      match t.root with Internal i -> i.left | Leaf _ -> assert false
    in
    let first = P.load_t root_left in
    (* walk with: [par] = edge into [current]; [anc] = deepest untagged edge
       seen into an internal node strictly above the final leaf *)
    let rec walk ~anc_field ~anc_edge ~par_field ~par_edge ~parent current =
      match current with
      | Leaf _ ->
          { anc_field; anc_edge; par_field; par_edge; parent; leaf = current }
      | Internal i ->
          let anc_field, anc_edge =
            if par_edge.tag then (anc_field, anc_edge)
            else (par_field, par_edge)
          in
          let field = if k < i.key then i.left else i.right in
          let e = P.load_t field in
          walk ~anc_field ~anc_edge ~par_field:field ~par_edge:e
            ~parent:current e.child
    in
    walk ~anc_field:root_left ~anc_edge:first ~par_field:root_left
      ~par_edge:first ~parent:t.root first.child

  (* -- cleanup (physical removal; also the helping routine) ---------------- *)

  (* Tag an edge so nothing can be inserted below it while its parent is
     being removed.  The original uses a wait-free bit-test-and-set; the
     boxed-edge equivalent is a CAS loop. *)
  let rec tag_edge field =
    let e = P.load field in
    if e.tag then e
    else
      let tagged = { child = e.child; flag = e.flag; tag = true } in
      if P.cas field ~expected:e ~desired:tagged then tagged
      else tag_edge field

  (* [cleanup t k sr] completes the physical removal pending at [sr]'s
     parent: if the edge to [sr.leaf] is flagged we are removing that leaf
     (tag the sibling, swing the ancestor edge to the sibling subtree); if
     it is tagged, another deletion is removing the *sibling* and we help by
     swinging the ancestor edge to our side.  Returns whether the swing
     succeeded. *)
  let cleanup t k sr =
    match sr.parent with
    | Leaf _ -> false
    | Internal p ->
        let sibling_field = if k < p.key then p.right else p.left in
        if sr.par_edge.flag then begin
          let se = tag_edge sibling_field in
          P.persist sr.anc_field;
          let ok =
            P.cas sr.anc_field ~expected:sr.anc_edge
              ~desired:{ child = se.child; flag = se.flag; tag = false }
          in
          if ok then begin
            Mirror_core.Ebr.retire t.ebr (fun () -> ());
            Mirror_core.Ebr.retire t.ebr (fun () -> ())
          end;
          ok
        end
        else if sr.par_edge.tag then begin
          (* the sibling's deleter tagged our edge; perform its swing *)
          P.persist sr.anc_field;
          let ok =
            P.cas sr.anc_field ~expected:sr.anc_edge
              ~desired:
                { child = sr.par_edge.child; flag = sr.par_edge.flag; tag = false }
          in
          if ok then Mirror_core.Ebr.retire t.ebr (fun () -> ());
          ok
        end
        else false

  (* -- operations ----------------------------------------------------------- *)

  let check_key k =
    if k >= inf1 then invalid_arg "Bst: keys must be < max_int - 1"

  let contains t k =
    check_key k;
    Mirror_core.Ebr.enter t.ebr;
    let sr = seek t k in
    (* linearizes at the seek's atomic read of the edge into the leaf:
       present iff the key matches and the leaf is not flagged for deletion.
       The extra destination load only charges the persist-the-destination
       cost of the NVTraverse/Izraelevitz strategies. *)
    ignore (P.load sr.par_field);
    let r =
      match sr.leaf with
      | Leaf l -> l.key = k && not sr.par_edge.flag
      | Internal _ -> false
    in
    Mirror_core.Ebr.exit t.ebr;
    r

  let find_opt t k =
    check_key k;
    Mirror_core.Ebr.enter t.ebr;
    let sr = seek t k in
    ignore (P.load sr.par_field);
    let r =
      match sr.leaf with
      | Leaf l when l.key = k && not sr.par_edge.flag -> l.value
      | _ -> None
    in
    Mirror_core.Ebr.exit t.ebr;
    r

  let insert t k v =
    check_key k;
    Mirror_core.Ebr.enter t.ebr;
    let rec attempt () =
      let sr = seek t k in
      match sr.leaf with
      | Internal _ -> attempt ()
      | Leaf l ->
          if l.key = k && not sr.par_edge.flag then begin
            ignore (P.load sr.par_field);
            false
          end
          else if sr.par_edge.flag || sr.par_edge.tag then begin
            (* a removal is pending here: help it complete, then retry *)
            ignore (cleanup t k sr);
            attempt ()
          end
          else begin
            Mirror_nvm.Stats.count_alloc ();
            let new_leaf = Leaf { key = k; value = Some v } in
            let ik = max k l.key in
            let lo, hi =
              if k < l.key then (new_leaf, sr.leaf) else (sr.leaf, new_leaf)
            in
            (* carve both child edges from the parent field's cache line:
               the two allocation write-backs and the CE's flush of
               [par_field] share one line flush when there is room *)
            let left = P.make_near sr.par_field (mk_edge lo) in
            let right = P.make_near left (mk_edge hi) in
            let internal = Internal { key = ik; left; right } in
            P.persist sr.par_field;
            if P.cas sr.par_field ~expected:sr.par_edge ~desired:(mk_edge internal)
            then true
            else attempt ()
          end
    in
    let r = attempt () in
    Mirror_core.Ebr.exit t.ebr;
    r

  let remove t k =
    check_key k;
    Mirror_core.Ebr.enter t.ebr;
    (* injection phase: flag the edge to the victim leaf (linearization),
       then cleanup until the physical removal is done *)
    let rec inject () =
      let sr = seek t k in
      match sr.leaf with
      | Internal _ -> inject ()
      | Leaf l ->
          if l.key <> k then begin
            ignore (P.load sr.par_field);
            None
          end
          else if sr.par_edge.flag then begin
            (* another deletion of this very leaf linearized first: help,
               then report absent *)
            ignore (cleanup t k sr);
            None
          end
          else if sr.par_edge.tag then begin
            ignore (cleanup t k sr);
            inject ()
          end
          else begin
            P.persist sr.par_field;
            let flagged = { child = sr.leaf; flag = true; tag = false } in
            if P.cas sr.par_field ~expected:sr.par_edge ~desired:flagged then
              Some (sr.leaf, { sr with par_edge = flagged })
            else inject ()
          end
    in
    let rec finish leaf sr =
      if cleanup t k sr then ()
      else
        let sr' = seek t k in
        if sr'.leaf == leaf then finish leaf sr' else ()
    in
    let r =
      match inject () with
      | None -> false
      | Some (leaf, sr) ->
          finish leaf sr;
          true
    in
    Mirror_core.Ebr.exit t.ebr;
    r

  (* -- inspection (quiesced) ------------------------------------------------ *)

  let to_list t =
    let acc = ref [] in
    let rec go (e : 'v edge) =
      match e.child with
      | Leaf l ->
          if l.key < inf1 && not e.flag then
            acc := (l.key, Option.get l.value) :: !acc
      | Internal i ->
          go (P.load_t i.right);
          go (P.load_t i.left)
    in
    (match t.root with
    | Internal r -> go (P.load_t r.left)
    | Leaf _ -> ());
    !acc

  let size t = List.length (to_list t)

  (* weakly consistent in-order iteration, pruned by the routing keys *)
  let range t ~lo ~hi =
    let acc = ref [] in
    let rec go (e : 'v edge) =
      match e.child with
      | Leaf l ->
          if l.key >= lo && l.key < hi && l.key < inf1 && not e.flag then
            acc := (l.key, Option.get l.value) :: !acc
      | Internal i ->
          (* keys < i.key live left; keys >= i.key live right *)
          if hi > i.key then go (P.load_t i.right);
          if lo < i.key then go (P.load_t i.left)
    in
    (match t.root with
    | Internal r -> go (P.load_t r.left)
    | Leaf _ -> ());
    !acc

  let fold f init t =
    List.fold_left (fun a (k, v) -> f a k v) init (range t ~lo:min_int ~hi:inf1)

  let iter f t = fold (fun () k v -> f k v) () t

  (* -- recovery ------------------------------------------------------------- *)

  let recover t =
    let rec go (n : 'v node) =
      match n with
      | Leaf _ -> ()
      | Internal i ->
          P.recover i.left;
          P.recover i.right;
          go (P.load_recovery i.left).child;
          go (P.load_recovery i.right).child
    in
    go t.root
end
