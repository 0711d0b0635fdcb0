(** Per-domain event counters.

    The benchmark figures in the paper are driven by how many NVMM accesses,
    cache-line flushes and store fences each algorithm performs per operation.
    We count those events exactly.  Each domain owns a private counter record
    (no cross-domain contention on the hot path); a global registry lets the
    harness sum and reset counters across domains.

    [flush_elided]/[fence_elided] count persisting instructions that the
    elision layer (dirty-bit tracking on slots, per-domain pending sets on
    regions — see docs/MODEL.md) proved redundant and skipped: they cost
    nothing, but counting them makes the elision win measurable. *)

type t = {
  mutable dram_read : int;
  mutable dram_write : int;
  mutable dram_cas : int;
  mutable nvm_read : int;
  mutable nvm_write : int;
  mutable nvm_cas : int;
  mutable nvm_remote : int;
      (** NVMM accesses to a line whose home domain differs (NUMA model) *)
  mutable flush : int;
  mutable fence : int;
  mutable flush_elided : int;  (** flushes skipped: the line was clean *)
  mutable fence_elided : int;  (** fences skipped: nothing pending *)
  mutable flush_coalesced : int;
      (** flushes absorbed by an in-flight line: a line-mate was already
          flushed and not yet fenced, so this flush shares its write-back *)
  mutable help : int;  (** Mirror helping-path executions *)
  mutable cas_retry : int;  (** protocol-level retries *)
  mutable alloc : int;
  mutable reclaim : int;  (** nodes handed back by the EBR *)
  (* sharded-allocator counters, maintained by [Heap] *)
  mutable alloc_carve : int;  (** chunks carved off the global bump pointer *)
  mutable alloc_remote_free : int;  (** frees pushed to another arena *)
  mutable alloc_remote_drain : int;  (** non-empty remote-list drains *)
  (* recovery-time counters, maintained by [Heap.recover] and the tracing
     drivers: how much work recovery did and how it parallelised *)
  mutable rec_marked : int;  (** objects traced by the recovery mark phase *)
  mutable rec_swept : int;  (** dead blocks returned to free lists *)
  mutable rec_steals : int;  (** successful work-steals between mark workers *)
  mutable rec_mark_ns : int;  (** wall-clock ns spent in the mark phase *)
  mutable rec_sweep_ns : int;  (** wall-clock ns spent in the sweep phase *)
  (* buffered-persistence counters, maintained by [Region]/[Slot] *)
  mutable epoch_advance : int;  (** epoch advances committed *)
  mutable fence_batched : int;  (** fences issued by epoch advances *)
  mutable writes_deferred : int;  (** persists recorded into an epoch set *)
}

let zero () =
  {
    dram_read = 0;
    dram_write = 0;
    dram_cas = 0;
    nvm_read = 0;
    nvm_write = 0;
    nvm_cas = 0;
    nvm_remote = 0;
    flush = 0;
    fence = 0;
    flush_elided = 0;
    fence_elided = 0;
    flush_coalesced = 0;
    help = 0;
    cas_retry = 0;
    alloc = 0;
    reclaim = 0;
    alloc_carve = 0;
    alloc_remote_free = 0;
    alloc_remote_drain = 0;
    rec_marked = 0;
    rec_swept = 0;
    rec_steals = 0;
    rec_mark_ns = 0;
    rec_sweep_ns = 0;
    epoch_advance = 0;
    fence_batched = 0;
    writes_deferred = 0;
  }

let add ~into:a b =
  a.dram_read <- a.dram_read + b.dram_read;
  a.dram_write <- a.dram_write + b.dram_write;
  a.dram_cas <- a.dram_cas + b.dram_cas;
  a.nvm_read <- a.nvm_read + b.nvm_read;
  a.nvm_write <- a.nvm_write + b.nvm_write;
  a.nvm_cas <- a.nvm_cas + b.nvm_cas;
  a.nvm_remote <- a.nvm_remote + b.nvm_remote;
  a.flush <- a.flush + b.flush;
  a.fence <- a.fence + b.fence;
  a.flush_elided <- a.flush_elided + b.flush_elided;
  a.fence_elided <- a.fence_elided + b.fence_elided;
  a.flush_coalesced <- a.flush_coalesced + b.flush_coalesced;
  a.help <- a.help + b.help;
  a.cas_retry <- a.cas_retry + b.cas_retry;
  a.alloc <- a.alloc + b.alloc;
  a.reclaim <- a.reclaim + b.reclaim;
  a.alloc_carve <- a.alloc_carve + b.alloc_carve;
  a.alloc_remote_free <- a.alloc_remote_free + b.alloc_remote_free;
  a.alloc_remote_drain <- a.alloc_remote_drain + b.alloc_remote_drain;
  a.rec_marked <- a.rec_marked + b.rec_marked;
  a.rec_swept <- a.rec_swept + b.rec_swept;
  a.rec_steals <- a.rec_steals + b.rec_steals;
  a.rec_mark_ns <- a.rec_mark_ns + b.rec_mark_ns;
  a.rec_sweep_ns <- a.rec_sweep_ns + b.rec_sweep_ns;
  a.epoch_advance <- a.epoch_advance + b.epoch_advance;
  a.fence_batched <- a.fence_batched + b.fence_batched;
  a.writes_deferred <- a.writes_deferred + b.writes_deferred

let clear t =
  t.dram_read <- 0;
  t.dram_write <- 0;
  t.dram_cas <- 0;
  t.nvm_read <- 0;
  t.nvm_write <- 0;
  t.nvm_cas <- 0;
  t.nvm_remote <- 0;
  t.flush <- 0;
  t.fence <- 0;
  t.flush_elided <- 0;
  t.fence_elided <- 0;
  t.flush_coalesced <- 0;
  t.help <- 0;
  t.cas_retry <- 0;
  t.alloc <- 0;
  t.reclaim <- 0;
  t.alloc_carve <- 0;
  t.alloc_remote_free <- 0;
  t.alloc_remote_drain <- 0;
  t.rec_marked <- 0;
  t.rec_swept <- 0;
  t.rec_steals <- 0;
  t.rec_mark_ns <- 0;
  t.rec_sweep_ns <- 0;
  t.epoch_advance <- 0;
  t.fence_batched <- 0;
  t.writes_deferred <- 0

(* Registry of live per-domain recorders, published as an array indexed by
   domain id.  Domain ids are small process-unique ints, so the hot path
   [get] is one atomic array load plus an index — no DLS lookup, no
   hashing, no lock.  Registration and collection serialise on a mutex;
   the array is grown by copy-and-republish, and since the records
   themselves are shared between the old and new array a stale reader
   still lands on the right record.

    A domain that exits retires its record via [Domain.at_exit]: its
    counters are folded into the [drained] accumulator (so [total] never
    forgets a joined worker) and the cleared record is recycled through a
    free pool.  Long soaks that spawn thousands of short-lived domains
    therefore hold at most [max concurrent domains] live records instead
    of accumulating one per domain ever spawned. *)
let registry_mutex = Mutex.create ()
let slots : t option array Atomic.t = Atomic.make [||]

(* counters of exited domains, folded in at retirement; cleared by
   [reset_all] *)
let drained : t = zero ()
let free_pool : t list ref = ref []

let register d =
  Mutex.lock registry_mutex;
  let a = Atomic.get slots in
  let a =
    if d < Array.length a then a
    else begin
      let n = Array.make (max (d + 1) ((2 * Array.length a) + 8)) None in
      Array.blit a 0 n 0 (Array.length a);
      Atomic.set slots n;
      n
    end
  in
  let t =
    match a.(d) with
    | Some t -> t (* lost a benign race against ourselves *)
    | None ->
        let t =
          match !free_pool with
          | [] -> zero ()
          | t :: rest ->
              free_pool := rest;
              t
        in
        a.(d) <- Some t;
        Domain.at_exit (fun () ->
            Mutex.lock registry_mutex;
            let a = Atomic.get slots in
            (match a.(d) with
            | Some r ->
                add ~into:drained r;
                clear r;
                free_pool := r :: !free_pool;
                a.(d) <- None
            | None -> ());
            Mutex.unlock registry_mutex);
        t
  in
  Mutex.unlock registry_mutex;
  t

(** The calling domain's counter record. *)
let get () =
  let d = (Domain.self () :> int) in
  let a = Atomic.get slots in
  if d < Array.length a then
    match Array.unsafe_get a d with Some t -> t | None -> register d
  else register d

(* -- billing: the one place an access is billed (see the interface).
   With injection off and the surcharge at 0, [Latency.active] is false
   and a bill is its counter bump; the bills are inlined, so a call site
   pays no more than the bump it replaces. *)

let local = -1

let slow ns home =
  let inject = Latency.is_enabled () and remote = Latency.numa_remote_ns () in
  if inject then Latency.spin_ns ns;
  if home <> local && remote > 0 && Hooks.tid () <> home then begin
    let s = get () in
    s.nvm_remote <- s.nvm_remote + 1;
    if inject then Latency.spin_ns remote
  end

let[@inline] bill_dram_read () =
  let s = get () in
  s.dram_read <- s.dram_read + 1;
  if Latency.active () then slow (Latency.get_config ()).dram_read_ns local

let[@inline] bill_dram_write () =
  let s = get () in
  s.dram_write <- s.dram_write + 1

let[@inline] bill_dram_cas () =
  let s = get () in
  s.dram_cas <- s.dram_cas + 1

let[@inline] bill_nvm_read ~home =
  let s = get () in
  s.nvm_read <- s.nvm_read + 1;
  if Latency.active () then slow (Latency.get_config ()).nvm_read_ns home

let[@inline] bill_nvm_write ~home =
  let s = get () in
  s.nvm_write <- s.nvm_write + 1;
  if Latency.active () then slow (Latency.get_config ()).nvm_write_ns home

let[@inline] bill_nvm_cas ~home =
  let s = get () in
  s.nvm_cas <- s.nvm_cas + 1;
  if Latency.active () then slow (Latency.get_config ()).nvm_write_ns home

let[@inline] bill_flush ~home =
  let s = get () in
  s.flush <- s.flush + 1;
  if Latency.active () then slow (Latency.get_config ()).flush_ns home

let[@inline] bill_fence () =
  let s = get () in
  s.fence <- s.fence + 1;
  if Latency.active () then slow (Latency.get_config ()).fence_ns local

let count_alloc () =
  let s = get () in
  s.alloc <- s.alloc + 1

(** Sum of all domains' counters since the last {!reset_all}. *)
let total () =
  let acc = zero () in
  Mutex.lock registry_mutex;
  add ~into:acc drained;
  Array.iter
    (function Some t -> add ~into:acc t | None -> ())
    (Atomic.get slots);
  Mutex.unlock registry_mutex;
  acc

let reset_all () =
  Mutex.lock registry_mutex;
  clear drained;
  Array.iter (function Some t -> clear t | None -> ()) (Atomic.get slots);
  Mutex.unlock registry_mutex

let registry_size () =
  Mutex.lock registry_mutex;
  let n =
    Array.fold_left
      (fun n -> function Some _ -> n + 1 | None -> n)
      0 (Atomic.get slots)
  in
  Mutex.unlock registry_mutex;
  n

let pp ppf t =
  Format.fprintf ppf
    "dram(r=%d w=%d cas=%d) nvm(r=%d w=%d cas=%d remote=%d) flush=%d \
     fence=%d elided(fl=%d fe=%d co=%d) help=%d retry=%d alloc=%d \
     reclaim=%d arena(carve=%d rfree=%d drain=%d) rec(marked=%d swept=%d \
     steals=%d mark_ns=%d sweep_ns=%d) epoch(adv=%d fence=%d defer=%d)"
    t.dram_read t.dram_write t.dram_cas t.nvm_read t.nvm_write t.nvm_cas
    t.nvm_remote t.flush t.fence t.flush_elided t.fence_elided
    t.flush_coalesced t.help t.cas_retry t.alloc t.reclaim t.alloc_carve
    t.alloc_remote_free t.alloc_remote_drain t.rec_marked t.rec_swept
    t.rec_steals t.rec_mark_ns t.rec_sweep_ns t.epoch_advance t.fence_batched
    t.writes_deferred
