(** Lock-free skip list (Fraser 2003 / Herlihy–Shavit style), the fourth
    data structure of the paper's evaluation (§6.2.4).

    Towers of forward pointers with a per-level mark bit; a node is
    logically deleted when its level-0 forward pointer is marked (the
    linearization point of [remove]); traversals physically unlink marked
    nodes level by level.  Links are boxed records CASed by identity, as in
    {!Linked_list}. *)

module Make (P : Mirror_prim.Prim.S) = struct
  let max_level = 20

  type 'v node = { key : int; value : 'v; next : 'v link P.t array }
  and 'v link = { target : 'v node option; marked : bool }

  type 'v t = {
    head : 'v link P.t array;
    ebr : Mirror_core.Ebr.t;
    rng : int ref;
        (** tower-height xorshift state.  Per structure, not per domain, so
            a run under the deterministic scheduler draws the same heights
            on every replay of the same schedule (racy updates from real
            domains are benign: heights are only a distribution). *)
  }

  let create () =
    {
      head =
        Array.init max_level (fun _ -> P.make { target = None; marked = false });
      ebr = Mirror_core.Ebr.create ();
      rng = ref 0x9E3779B9;
    }

  let same_target a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false

  (* geometric tower heights from the structure's xorshift state *)
  let random_level t =
    let s = t.rng in
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    let rec count lvl bits =
      if lvl >= max_level || bits land 1 = 0 then lvl
      else count (lvl + 1) (bits lsr 1)
    in
    count 1 (x land 0x7FFFFFFF)

  (* -- find ----------------------------------------------------------------- *)

  (* Fills [pred_fields]/[pred_links]/[succs] for every level: the field of
     the last node with key < k, the exact link box read there, and the
     successor.  Unlinks marked nodes on the way; restarts on CAS failure.
     Returns the level-0 successor if it matches [k]. *)
  let find t k =
    let dummy = { target = None; marked = false } in
    let rec retry () =
      let pred_fields = Array.make max_level t.head.(0) in
      let pred_links = Array.make max_level dummy in
      let succs : 'v node option array = Array.make max_level None in
      let rec down lv (arr : 'v link P.t array) =
        if lv < 0 then
          (true
          [@mlint.allow
            L3 "internal success flag of the snapshot helper, not a \
                client-visible decision: the callers persist the deciding \
                links themselves"])
        else
          let rec walk (arr : 'v link P.t array) (l : 'v link) =
            if l.marked then
              (false
              [@mlint.allow
                L3 "internal restart signal (re-walk from the head), not a \
                    client-visible decision"])
              (* The node we descended into from the level above was deleted
                 at this level while we walked: its frozen, marked link box
                 must never be returned as a CAS witness — an insert CASing
                 against it (boxes compare by identity, so the mark is part
                 of the compared word) would overwrite the mark, resurrecting
                 the deleted node and linking behind an already-unlinked
                 pred: a lost insert.  Restart from the head instead. *)
            else
            match l.target with
            | Some curr ->
                let cl = P.load_t curr.next.(lv) in
                if cl.marked then begin
                  let repl = { target = cl.target; marked = false } in
                  if P.cas arr.(lv) ~expected:l ~desired:repl then begin
                    if lv = 0 then Mirror_core.Ebr.retire t.ebr (fun () -> ());
                    walk arr repl
                  end
                  else
                    (false
                    [@mlint.allow
                      L3 "internal restart signal after a lost unlink race, \
                          not a client-visible decision"])
                end
                else if curr.key < k then walk curr.next cl
                else finish arr l (Some curr)
            | None -> finish arr l None
          and finish arr l succ =
            pred_fields.(lv) <- arr.(lv);
            pred_links.(lv) <- l;
            succs.(lv) <- succ;
            down (lv - 1) arr
          in
          walk arr (P.load_t arr.(lv))
      in
      if down (max_level - 1) t.head then (pred_fields, pred_links, succs)
      else retry ()
    in
    retry ()

  (* -- operations ------------------------------------------------------------ *)

  let contains t k =
    Mirror_core.Ebr.enter t.ebr;
    (* wait-free: skip marked nodes without unlinking.  A negative verdict
       at the bottom level critically re-loads the field whose link proved
       the key absent: that observation may hinge on an unlinking CAS some
       other thread has not persisted yet, and the strategies whose [load]
       flushes must make it durable before the result is exposed. *)
    let rec down lv (arr : 'v link P.t array) =
      let rec walk (arr : 'v link P.t array) =
        let l = P.load_t arr.(lv) in
        match l.target with
        | Some curr ->
            let cl = P.load_t curr.next.(lv) in
            if cl.marked then skip cl
            else if curr.key < k then walk curr.next
            else if lv > 0 then down (lv - 1) arr
            else begin
              (* deciding reads at the destination: the link into [curr]
                 and [curr]'s own mark *)
              ignore (P.load arr.(0));
              let cl' = P.load curr.next.(0) in
              curr.key = k && not cl'.marked
            end
        | None ->
            if lv > 0 then down (lv - 1) arr
            else begin
              ignore (P.load arr.(0));
              false
            end
      and skip (cl : 'v link) =
        (* curr is marked: continue from its successor without unlinking *)
        match cl.target with
        | Some nxt ->
            let nl = P.load_t nxt.next.(lv) in
            if nl.marked then skip nl
            else if nxt.key < k then walk nxt.next
            else if lv > 0 then down (lv - 1) arr
            else begin
              let nl' = P.load nxt.next.(0) in
              nxt.key = k && not nl'.marked
            end
        | None ->
            if lv > 0 then down (lv - 1) arr
            else begin
              ignore (P.load arr.(0));
              false
            end
      in
      walk arr
    in
    let r = down (max_level - 1) t.head in
    Mirror_core.Ebr.exit t.ebr;
    r

  let insert t k v =
    Mirror_core.Ebr.enter t.ebr;
    let rec attempt () =
      let pred_fields, pred_links, succs = find t k in
      match succs.(0) with
      | Some c when c.key = k ->
          (* key present: persist the link into [c] (its reachability may
             rest on a not-yet-persisted insert) and [c]'s own mark *)
          ignore (P.load pred_fields.(0));
          ignore (P.load c.next.(0));
          false
      | _ ->
          let lvl = random_level t in
          Mirror_nvm.Stats.count_alloc ();
          (* place the whole tower on the level-0 predecessor's cache
             line: the tower's allocation write-backs and the CE's flush
             of [pred_fields.(0)] coalesce while the line has room *)
          let next0 =
            P.make_near pred_fields.(0) { target = succs.(0); marked = false }
          in
          (* chain each level off the previous field, not off [next0]: when
             the line fills mid-tower the overflow fields then share one
             fresh line instead of getting a singleton line each (an
             explicit loop — Array.init's evaluation order is unspecified) *)
          let next = Array.make lvl next0 in
          for i = 1 to lvl - 1 do
            next.(i) <-
              P.make_near next.(i - 1) { target = succs.(i); marked = false }
          done;
          let node = { key = k; value = v; next } in
          P.persist pred_fields.(0);
          if
            not
              (P.cas pred_fields.(0) ~expected:pred_links.(0)
                 ~desired:{ target = Some node; marked = false })
          then attempt ()
          else begin
            link_upper node lvl 1 pred_fields pred_links succs;
            true
          end
    and link_upper node lvl i pred_fields pred_links succs =
      if i < lvl then begin
        let l = P.load_t node.next.(i) in
        if l.marked then () (* concurrently deleted: stop linking *)
        else if same_target succs.(i) (Some node) then
          (* already linked at this level *)
          link_upper node lvl (i + 1) pred_fields pred_links succs
        else if not (same_target l.target succs.(i)) then begin
          (* refresh the node's own forward pointer first *)
          (ignore
             (P.cas node.next.(i) ~expected:l
                ~desired:{ target = succs.(i); marked = false })
          [@mlint.allow
            L4 "outcome is irrelevant: the recursive call re-reads the \
                pointer and retries either way"]);
          link_upper node lvl i pred_fields pred_links succs
        end
        else if
          P.cas pred_fields.(i) ~expected:pred_links.(i)
            ~desired:{ target = Some node; marked = false }
        then link_upper node lvl (i + 1) pred_fields pred_links succs
        else
          let pred_fields, pred_links, succs = find t k in
          if same_target succs.(0) (Some node) then
            link_upper node lvl i pred_fields pred_links succs
          else () (* node got removed while we were linking *)
      end
    in
    let r = attempt () in
    Mirror_core.Ebr.exit t.ebr;
    r

  let remove t k =
    Mirror_core.Ebr.enter t.ebr;
    let pred_fields, _, succs = find t k in
    let r =
      match succs.(0) with
      | Some victim when victim.key <> k ->
          (* absent: persist the deciding link (it jumps over [k], possibly
             only because of a not-yet-persisted unlink) *)
          ignore (P.load pred_fields.(0));
          false
      | None ->
          ignore (P.load pred_fields.(0));
          false
      | Some victim when victim.key = k ->
          let lvl = Array.length victim.next in
          (* mark upper levels top-down *)
          for i = lvl - 1 downto 1 do
            let rec mark () =
              let l = P.load_t victim.next.(i) in
              if not l.marked then
                if
                  not
                    (P.cas victim.next.(i) ~expected:l
                       ~desired:{ target = l.target; marked = true })
                then mark ()
            in
            mark ()
          done;
          (* level 0: the linearization point *)
          let rec bottom () =
            let l = P.load victim.next.(0) in
            if l.marked then false (* another remover linearized first *)
            else begin
              P.persist pred_fields.(0);
              P.persist victim.next.(0);
              if
                P.cas victim.next.(0) ~expected:l
                  ~desired:{ target = l.target; marked = true }
              then begin
                ignore (find t k) (* physical unlink *);
                true
              end
              else bottom ()
            end
          in
          bottom ()
      | _ -> false
    in
    Mirror_core.Ebr.exit t.ebr;
    r

  (* -- inspection (quiesced) -------------------------------------------------- *)

  let to_list t =
    let rec go acc (l : 'v link) =
      match l.target with
      | None -> List.rev acc
      | Some n ->
          let nl = P.load_t n.next.(0) in
          let acc = if nl.marked then acc else (n.key, n.value) :: acc in
          go acc nl
    in
    go [] (P.load_t t.head.(0))

  let size t = List.length (to_list t)

  (* weakly consistent iteration over the bottom level *)
  let fold f init t =
    let rec go acc (l : 'v link) =
      match l.target with
      | None -> acc
      | Some n ->
          let nl = P.load_t n.next.(0) in
          let acc = if nl.marked then acc else f acc n.key n.value in
          go acc nl
    in
    go init (P.load_t t.head.(0))

  let iter f t = fold (fun () k v -> f k v) () t

  (** Entries with [lo <= key < hi], ascending — uses the towers to skip to
      [lo], then walks the bottom level (the YCSB scan operation). *)
  let range t ~lo ~hi =
    (* descend to the last node with key < lo *)
    let rec down lv (arr : 'v link P.t array) =
      let rec walk (arr : 'v link P.t array) =
        let l = P.load_t arr.(lv) in
        match l.target with
        | Some curr when curr.key < lo ->
            let cl = P.load_t curr.next.(lv) in
            if cl.marked then
              (* don't unlink during a scan; drop a level instead *)
              if lv > 0 then down (lv - 1) arr else arr
            else walk curr.next
        | _ -> if lv > 0 then down (lv - 1) arr else arr
      in
      walk arr
    in
    let start = down (max_level - 1) t.head in
    let rec collect acc (l : 'v link) =
      match l.target with
      | None -> List.rev acc
      | Some n ->
          if n.key >= hi then List.rev acc
          else
            let nl = P.load_t n.next.(0) in
            let acc =
              if n.key >= lo && not nl.marked then (n.key, n.value) :: acc
              else acc
            in
            collect acc nl
    in
    collect [] (P.load_t start.(0))

  (** Smallest live key, if any (a level-0 walk skipping marked nodes). *)
  let min_binding t =
    let rec walk (l : 'v link) =
      match l.target with
      | None ->
          (None
          [@mlint.allow
            L3 "quiesced inspection (no Ebr enter/exit): no concurrent \
                unpersisted unlink can decide the verdict"])
      | Some n ->
          let nl = P.load n.next.(0) in
          if nl.marked then walk nl else Some (n.key, n.value)
    in
    walk (P.load_t t.head.(0))

  let find_opt t k =
    Mirror_core.Ebr.enter t.ebr;
    let rec walk (field : 'v link P.t) (l : 'v link) =
      match l.target with
      | None ->
          ignore (P.load field);
          None
      | Some n ->
          if n.key < k then walk n.next.(0) (P.load_t n.next.(0))
          else if n.key > k then begin
            (* absent: persist the deciding link (see [contains]) *)
            ignore (P.load field);
            None
          end
          else begin
            ignore (P.load field);
            let nl = P.load n.next.(0) in
            if nl.marked then None else Some n.value
          end
    in
    let r = walk t.head.(0) (P.load_t t.head.(0)) in
    Mirror_core.Ebr.exit t.ebr;
    r

  (* -- recovery ---------------------------------------------------------------- *)

  let recover t =
    (* recover every level's list: a node still linked at an upper level in
       the persisted state must be reachable for its fields to be traced *)
    for lv = max_level - 1 downto 0 do
      P.recover t.head.(lv);
      let rec go (l : 'v link) =
        match l.target with
        | None -> ()
        | Some n ->
            Array.iter P.recover n.next;
            go (P.load_recovery n.next.(lv))
      in
      go (P.load_recovery t.head.(lv))
    done
end
