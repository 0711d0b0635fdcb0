(** Treiber's lock-free stack as a functor over the persistence primitive.

    The paper's transformation is defined for *any* linearizable lock-free
    structure, not just sets; the stack is the minimal witness: a single
    mutable root field, immutable nodes (which, per §4.1.1, need no
    sequence number — they are plain OCaml fields persisted at allocation).
    Every push creates a fresh cons cell, so physical-equality CAS is
    ABA-free without reclamation tricks. *)

module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = { value : 'v; below : 'v node option }

  type 'v t = { top : 'v node option P.t }

  let create () = { top = P.make None }

  let rec push t v =
    let cur = P.load t.top in
    Mirror_nvm.Stats.count_alloc ();
    if not (P.cas t.top ~expected:cur ~desired:(Some { value = v; below = cur }))
    then push t v

  let rec pop t =
    let cur = P.load t.top in
    match cur with
    | None -> None
    | Some n ->
        if P.cas t.top ~expected:cur ~desired:n.below then Some n.value
        else pop t

  let peek t = Option.map (fun n -> n.value) (P.load t.top)

  let to_list t =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (n.value :: acc) n.below
    in
    go [] (P.load t.top)

  let recover t = P.recover t.top
end
