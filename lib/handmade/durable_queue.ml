(** A hand-made durable Michael–Scott queue after Friedman, Herlihy,
    Marathe and Petrank, "A persistent lock-free queue for non-volatile
    memory" (PPoPP 2018) — the paper's reference [18] and the natural
    hand-made comparison point for the queue obtained from the Mirror
    transformation.

    Everything lives in NVMM.  The durable linearization points:

    - enqueue: the write-back of the predecessor's [next] pointer (flushed
      and fenced before the operation returns, and helped by any thread
      that observes the link — so nothing unpersisted is ever acted upon);
    - dequeue: the write-back of the advanced [head].  Before advancing,
      the dequeuer persists the link it is consuming, ordering the
      enqueue's durability before its own (the paper's key rule).

    The [tail] pointer is volatile auxiliary state: recovery recomputes it
    by walking the persisted links from [head] (exactly the paper's
    recovery), so lagging-tail write-backs are never needed. *)

[@@@mlint.allow substrate "hand-made baseline: manages NVMM lines directly"]

open Mirror_nvm

type 'v node = {
  value : 'v option;
  next : 'v node option Slot.t;
}

type 'v t = {
  head : 'v node Slot.t;  (** persistent root *)
  tail : 'v node Atomic.t;  (** volatile auxiliary state *)
  region : Region.t;
}

let mk_node region v =
  Stats.count_alloc ();
  (* node contents persisted at allocation (one line) *)
  { value = v; next = Slot.make ~persist:true region None }

let create region =
  let dummy = mk_node region None in
  let t = { head = Slot.make ~persist:true region dummy; tail = Atomic.make dummy; region } in
  Slot.flush t.head;
  Region.fence region;
  t

(* persist a just-observed link so nothing acts on unpersisted state *)
let persist_link t (n : 'v node) =
  if Slot.is_dirty n.next then begin
    Slot.flush n.next;
    Region.fence t.region
  end

let enqueue t v =
  let node = mk_node t.region (Some v) in
  let rec attempt () =
    let last = Atomic.get t.tail in
    let next = Slot.load last.next in
    if last == Atomic.get t.tail then begin
      match next with
      | None ->
          if Slot.cas last.next ~expected:None ~desired:(Some node) then begin
            (* durable linearization *)
            Slot.flush last.next;
            Region.fence t.region;
            ignore (Atomic.compare_and_set t.tail last node)
          end
          else attempt ()
      | Some n ->
          (* help: persist the lagging link, then swing the volatile tail *)
          persist_link t last;
          ignore (Atomic.compare_and_set t.tail last n);
          attempt ()
    end
    else attempt ()
  in
  attempt ()

let rec dequeue t =
  let first = Slot.load t.head in
  let last = Atomic.get t.tail in
  let next = Slot.load first.next in
  if first == Slot.load t.head then begin
    if first == last then begin
      match next with
      | None -> None
      | Some n ->
          persist_link t first;
          ignore (Atomic.compare_and_set t.tail last n);
          dequeue t
    end
    else
      match next with
      | Some n ->
          (* order the consumed enqueue's durability before our own *)
          persist_link t first;
          if Slot.cas t.head ~expected:first ~desired:n then begin
            (* durable linearization of the dequeue *)
            Slot.flush t.head;
            Region.fence t.region;
            n.value
          end
          else dequeue t
      | None -> dequeue t
  end
  else dequeue t

let is_empty t =
  let first = Slot.load t.head in
  Slot.load first.next = None

let to_list t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n ->
        go
          (Option.fold ~none:acc ~some:(fun v -> v :: acc) n.value)
          (Slot.peek n.next)
  in
  go [] (Slot.peek (Slot.peek t.head).next)

(** Recovery (§ of the PPoPP'18 paper): [head] is the persistent root; the
    volatile [tail] is recomputed by walking the persisted links. *)
let recover t =
  let rec last (n : 'v node) =
    match Slot.peek n.next with None -> n | Some m -> last m
  in
  Atomic.set t.tail (last (Slot.peek t.head))
