(** The Michael–Scott lock-free queue as a functor over the persistence
    primitive — the structure behind the hand-made durable queue of
    Friedman et al. (PPoPP'18) that the paper's related work discusses;
    here it falls out of the general transformation with no algorithmic
    change.

    [head] points at a dummy node whose successor holds the front element;
    [tail] points at the last or second-to-last node (lagging tails are
    helped forward, as in the original). *)

module Make (P : Mirror_prim.Prim.S) = struct
  type 'v node = { value : 'v option; next : 'v node option P.t }

  type 'v t = {
    head : 'v node P.t;
    tail : 'v node P.t;
    none : 'v node option P.birth;
        (** the birth of every [next]: a node is born last in the queue *)
  }

  let create () =
    let none = P.birth None in
    let dummy = { value = None; next = P.make_born none } in
    let head = P.make dummy in
    { head; tail = P.make_near head dummy; none }

  let enqueue t v =
    let node = { value = Some v; next = P.make_born t.none } in
    Mirror_nvm.Stats.count_alloc ();
    let rec attempt () =
      let last = P.load t.tail in
      let next = P.load last.next in
      if last == P.load t.tail then begin
        match next with
        | None ->
            if P.cas last.next ~expected:None ~desired:(Some node) then
              (* linearized; swing the tail (ok to fail, others help) *)
              (ignore (P.cas t.tail ~expected:last ~desired:node)
              [@mlint.allow
                L4 "helping CAS: a failed tail swing means another enqueuer \
                    already helped the tail forward"])
            else attempt ()
        | Some n ->
            (* help a lagging tail, then retry *)
            (ignore (P.cas t.tail ~expected:last ~desired:n)
            [@mlint.allow
              L4 "helping CAS: a failed tail swing means another enqueuer \
                  already helped the tail forward"]);
            attempt ()
      end
      else attempt ()
    in
    attempt ()

  let rec dequeue t =
    let first = P.load t.head in
    let last = P.load t.tail in
    let next = P.load first.next in
    if first == P.load t.head then begin
      if first == last then
        match next with
        | None -> None
        | Some n ->
            (ignore (P.cas t.tail ~expected:last ~desired:n)
            [@mlint.allow
              L4 "helping CAS: a failed tail swing means another dequeuer \
                  already helped the tail forward"]);
            dequeue t
      else
        match next with
        | Some n ->
            if P.cas t.head ~expected:first ~desired:n then n.value
            else dequeue t
        | None -> dequeue t (* transient; retry *)
    end
    else dequeue t

  let is_empty t =
    let first = P.load t.head in
    P.load first.next = None

  let to_list t =
    let rec go acc l =
      match l with
      | None -> List.rev acc
      | Some n -> go (Option.fold ~none:acc ~some:(fun v -> v :: acc) n.value)
                    (P.load n.next)
    in
    go [] (P.load (P.load t.head).next)

  (* tracing routine: head, tail, then the whole chain *)
  let recover t =
    P.recover t.head;
    P.recover t.tail;
    let rec go (n : 'v node) =
      P.recover n.next;
      match P.load_recovery n.next with Some m -> go m | None -> ()
    in
    go (P.load_recovery t.head)
end
