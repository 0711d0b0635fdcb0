(** Epoch-based reclamation in the style of [ssmem] (David et al., ATC'15),
    the allocator/GC the paper uses for the volatile replica (§4.3).

    OCaml's GC already guarantees memory safety, so "freeing" a node runs a
    caller-supplied action (statistics, canary poisoning in tests, returning
    a node to a size-class free list).  What we reproduce is the protocol:
    per-thread epoch announcements, a global epoch advanced only when every
    active thread has observed it, and three limbo generations so a node is
    reclaimed only after two epoch advances — i.e. after every operation
    concurrent with its unlinking has completed. *)

type handle = {
  announced : int Atomic.t;  (** epoch this thread is running in *)
  active : bool Atomic.t;  (** inside a critical section *)
  mutable limbo : (int * (unit -> unit)) list;  (** (retire_epoch, free) *)
  mutable retired_count : int;
  mutable ops_since_scan : int;
}

type t = {
  id : int;  (** unique id, keys the per-domain handle table *)
  epoch : int Atomic.t;
  handles : handle list Atomic.t;
  scan_threshold : int;
}

let next_id = Atomic.make 0

let create ?(scan_threshold = 64) () =
  {
    id = Atomic.fetch_and_add next_id 1;
    epoch = Atomic.make 0;
    handles = Atomic.make [];
    scan_threshold;
  }

let register t =
  let h =
    {
      announced = Atomic.make (Atomic.get t.epoch);
      active = Atomic.make false;
      limbo = [];
      retired_count = 0;
      ops_since_scan = 0;
    }
  in
  let rec add () =
    let old = Atomic.get t.handles in
    if not (Atomic.compare_and_set t.handles old (h :: old)) then add ()
  in
  add ();
  h

(* Per-(domain, Ebr.t) handle, resolved through domain-local storage so data
   structure operations need no explicit thread context.  The last table
   this domain touched is cached in place, so [enter]/[exit] on the same
   table allocate nothing; a miss falls back to the domain's association
   list (a handful of tables per domain). *)
type handle_cache = {
  mutable c_id : int;  (** table id of [c_handle]; [-1] when empty *)
  mutable c_handle : handle;
  mutable c_tbl : (int * handle) list;  (** every table this domain touched *)
}

let no_handle =
  {
    announced = Atomic.make 0;
    active = Atomic.make false;
    limbo = [];
    retired_count = 0;
    ops_since_scan = 0;
  }

let dls_key : handle_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { c_id = -1; c_handle = no_handle; c_tbl = [] })

let handle t =
  let c = Domain.DLS.get dls_key in
  if c.c_id = t.id then c.c_handle
  else begin
    let h =
      match List.assq_opt t.id c.c_tbl with
      | Some h -> h
      | None ->
          let h = register t in
          c.c_tbl <- (t.id, h) :: c.c_tbl;
          h
    in
    c.c_id <- t.id;
    c.c_handle <- h;
    h
  end

(** The global epoch can advance only when every active thread has announced
    the current epoch. *)
let try_advance t =
  let e = Atomic.get t.epoch in
  let all_caught_up =
    List.for_all
      (fun h -> (not (Atomic.get h.active)) || Atomic.get h.announced = e)
      (Atomic.get t.handles)
  in
  if all_caught_up then ignore (Atomic.compare_and_set t.epoch e (e + 1))

(** Free everything retired at least two epochs ago. *)
let scan t h =
  let e = Atomic.get t.epoch in
  let keep, free = List.partition (fun (re, _) -> re > e - 2) h.limbo in
  h.limbo <- keep;
  List.iter
    (fun (_, f) ->
      let s = Mirror_nvm.Stats.get () in
      s.Mirror_nvm.Stats.reclaim <- s.Mirror_nvm.Stats.reclaim + 1;
      f ())
    free;
  h.retired_count <- List.length keep

let enter t =
  let h = handle t in
  Atomic.set h.active true;
  Atomic.set h.announced (Atomic.get t.epoch);
  h.ops_since_scan <- h.ops_since_scan + 1;
  if h.ops_since_scan >= t.scan_threshold then begin
    h.ops_since_scan <- 0;
    try_advance t;
    scan t h
  end

let exit t =
  let h = handle t in
  Atomic.set h.active false

let retire t free =
  let h = handle t in
  h.limbo <- (Atomic.get t.epoch, free) :: h.limbo;
  h.retired_count <- h.retired_count + 1

(** Reclaim everything that is safely reclaimable right now (quiesced —
    used at shutdown and in tests). *)
let drain t =
  try_advance t;
  try_advance t;
  try_advance t;
  List.iter (fun h -> scan t h) (Atomic.get t.handles)

let epoch t = Atomic.get t.epoch
let limbo_size t =
  List.fold_left (fun a h -> a + List.length h.limbo) 0 (Atomic.get t.handles)
