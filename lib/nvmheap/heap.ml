(** A raw word-addressed persistent heap: the §4.3 substrate made concrete.

    Where the rest of the repository models persistent objects as OCaml
    records of slots, this module is the low-level story the paper actually
    tells about its allocator:

    - memory is a flat array of NVMM words; *pointers are offsets*, so the
      mapping base address is irrelevant (the paper's address-translation
      argument — see {!remap});
    - allocation metadata (bump pointer, arenas, size-class free lists) is
      volatile-only and is *reconstructed* after a crash by an offline
      mark–sweep over the persistent roots (§4.3, "re-constructs all the
      auxiliary data, and executes an offline GC");
    - every object carries a one-word header holding its size class,
      flushed at allocation time, so the sweep can parse the heap linearly
      even after a crash.

    The allocator is sharded in the ssmem style the real Mirror artifact
    rides on: each logical thread ({!Mirror_nvm.Hooks.tid} — a schedsim
    fiber or an OS domain) owns an {e arena}.  An arena carves {e chunks}
    of [nblocks] same-class blocks off the global bump pointer with a
    single CAS per chunk, then serves allocations from arena-local
    free lists with no shared-state contention.  A cross-thread [free]
    pushes the block onto the owning arena's lock-free remote-free list (a
    Treiber stack) which the owner drains lazily.  All header persists
    (flush + fence, and the seam-table write) happen outside any lock.

    Blocks are never split or coalesced (size-class slabs), so headers are
    stable across reuse and the linear parse is always sound; a chunk that
    dies with its owner mid-use leaves a zero-tag suffix that recovery
    classifies as reclaimable residue, not corruption (see docs/MODEL.md,
    "Allocator sharding"). *)

open Mirror_nvm

let num_roots = 16
let classes = [| 2; 4; 8; 16; 32; 64 |]

(* Blocks are carved in chunks of [chunk_blocks.(cls)] same-class blocks:
   one bump CAS and one chunk-header persist amortised over the chunk.
   Small classes get deeper chunks; classes near the chunk budget get
   single-block chunks (the carve then degenerates to the old per-block
   bump, still lock-free). *)
let chunk_blocks = Array.map (fun b -> max 1 (min 8 (48 / (b + 1)))) classes

(* Header encoding.  Block headers hold the class tag [cls + 1] (1..6;
   0 = never allocated).  Chunk headers set bit 6 and carry the block
   count in the high bits, so the two namespaces can never collide:
   [0x40 lor (cls + 1) lor (nblocks lsl 8)]. *)
let chunk_flag = 0x40
let enc_chunk cls nblocks = chunk_flag lor (cls + 1) lor (nblocks lsl 8)
let is_chunk_tag w = w land chunk_flag <> 0
let chunk_cls w = (w land 0x3f) - 1
let chunk_nblocks w = w lsr 8

(* The sweep parallelises over fixed segments; each segment's first
   chunk-header offset is kept in a persistent seam table so a worker can
   start parsing mid-heap without scanning from word 1 (headers are
   self-delimiting but only forward: a parse can cross a seam, never
   discover one).  64 seams cost 64 words of NVMM per heap; concurrent
   carves keep a seam at the lowest chunk header of its segment with a
   min-CAS. *)
let num_segments = 64

type recovery_stats = {
  r_domains : int;  (** workers the recovery ran with *)
  r_marked : int;  (** nodes traced (parallel duplicates included) *)
  r_live : int;  (** marked blocks found live by the sweep *)
  r_swept : int;  (** dead blocks returned to the free lists *)
  r_residue : int;
      (** zero-tag blocks of crash-torn chunks reclaimed by the sweep *)
  r_steals : int;  (** successful work-steals between mark workers *)
  r_mark_ns : int;  (** wall-clock ns of the mark phase *)
  r_sweep_ns : int;  (** wall-clock ns of the sweep + validation phase *)
  r_worker_marked : int array;  (** per-worker nodes traced *)
  r_worker_parsed : int array;  (** per-worker headers parsed *)
}

type policy = Sharded | Global_lock

(* Volatile, per-logical-thread allocation state.  Only the owner touches
   [a_free] and the fresh-block cursors; [a_remote] is the lock-free
   remote-free list any thread may push onto.  [a_allocs]/[a_frees] are
   single-writer counters (the arena's own thread), summed for
   {!live_objects}. *)
type arena = {
  a_id : int;  (** index into [arena_tab]; [owner] stores [a_id + 1] *)
  a_free : int list array;  (** per class, owner-only *)
  a_fresh_off : int array;  (** per class: next fresh block header offset *)
  a_fresh_left : int array;  (** per class: fresh blocks left in the chunk *)
  a_remote : int list Atomic.t;  (** Treiber stack of cross-thread frees *)
  mutable a_allocs : int;
  mutable a_frees : int;
}

type t = {
  words : int Slot.t array;
  roots : int Slot.t array;  (** persistent root offsets; 0 = null *)
  seams : int Slot.t array;
      (** per-segment first chunk-header offset (0 = no chunk starts
          there); kept at the segment minimum by a min-CAS at carve time,
          flushed with the same fence as the chunk header it names *)
  region : Region.t;
  capacity : int;
  seg_len : int;  (** words per sweep segment (last segment absorbs the rest) *)
  policy : policy;
  (* volatile allocator metadata — lost in a crash, rebuilt by recovery *)
  bump : int Atomic.t;  (** global frontier; chunks carved by CAS *)
  mutable arenas : arena option array;  (** tid-indexed; racy-read, grown under [arena_mu] *)
  mutable arena_tab : arena array;  (** a_id-indexed registry of all arenas *)
  arena_mu : Mutex.t;
  pool : int list array;
      (** per class: blocks swept by recovery, not yet adopted by an
          arena; ascending, under [pool_mu] *)
  mutable extents : (int * int) list;
      (** (offset, length) zero runs below [bump] left by chunks whose
          carve was lost in a crash; consumed first-fit by the carve path;
          under [pool_mu] *)
  pool_mu : Mutex.t;
  owner : int array;  (** payload -> owning arena's [a_id + 1]; 0 = none *)
  state : Bytes.t;
      (** payload -> ['\000'] not a block, ['\001'] allocated, ['\002']
          free — deterministic double-free / bad-offset detection *)
  glock : bool Atomic.t;
      (** {!Global_lock} policy only: the old global allocator lock, kept
          as the benchmark baseline; a cooperative spinlock so logical
          schedsim threads can contend without deadlocking one OS thread *)
  recover_mu : Mutex.t;  (** recovery is exclusive (quiescence assumed) *)
  mutable base_live : int;  (** live count at the last recovery *)
  mutable last_recovery : recovery_stats option;
}

exception Out_of_memory

exception
  Recovery_corrupt of {
    offset : int;
    tag : int;
        (** the corrupt word's content; [0] for a torn hole (a zero tag
            with allocated blocks after it in the same chunk), [-1] for a
            pointer outside the heap *)
  }

let () =
  Printexc.register_printer (function
    | Recovery_corrupt { offset; tag } ->
        Some
          (Printf.sprintf
             "Mirror_nvmheap.Heap.Recovery_corrupt { offset = %d; tag = %d }"
             offset tag)
    | _ -> None)

let mk_arena a_id =
  {
    a_id;
    a_free = Array.map (fun _ -> []) classes;
    a_fresh_off = Array.map (fun _ -> 0) classes;
    a_fresh_left = Array.map (fun _ -> 0) classes;
    a_remote = Atomic.make [];
    a_allocs = 0;
    a_frees = 0;
  }

(* Pack words onto consecutive simulated cache lines ([Region.place_near]
   chaining): adjacent offsets share a line, exactly like real memory, so
   a multi-word object carved from consecutive words shares its
   write-backs.  [next_place region cursor] is the place of the word after
   [cursor]'s, which it becomes.  On slot-granular regions it is [None]. *)
let next_place region cursor =
  let p =
    match !cursor with
    | Some near -> Region.place_near region near
    | None -> Region.place region
  in
  cursor := p;
  p

let packed_slots region n v =
  let cursor = ref None in
  Array.init n (fun _ ->
      Slot.make ~persist:true ?place:(next_place region cursor) region v)

let create ?(words = 1 lsl 16) ?(policy = Sharded) region =
  let arena_tab =
    match policy with Sharded -> [||] | Global_lock -> [| mk_arena 0 |]
  in
  {
    (* word 0 is reserved so that offset 0 can mean null *)
    words = packed_slots region words 0;
    roots = packed_slots region num_roots 0;
    seams = packed_slots region num_segments 0;
    region;
    capacity = words;
    seg_len = max 1 (words / num_segments);
    policy;
    bump = Atomic.make 1;
    arenas = [||];
    arena_tab;
    arena_mu = Mutex.create ();
    pool = Array.map (fun _ -> []) classes;
    extents = [];
    pool_mu = Mutex.create ();
    owner = Array.make words 0;
    state = Bytes.make words '\000';
    glock = Atomic.make false;
    recover_mu = Mutex.create ();
    base_live = 0;
    last_recovery = None;
  }

let seg_of t off = min (off / t.seg_len) (num_segments - 1)

let seg_end t s =
  if s = num_segments - 1 then t.capacity else (s + 1) * t.seg_len

let rec lock_g t =
  if not (Atomic.compare_and_set t.glock false true) then begin
    Hooks.yield ();
    Domain.cpu_relax ();
    lock_g t
  end

let unlock_g t = Atomic.set t.glock false

let class_of_size size =
  let rec go i =
    if i >= Array.length classes then invalid_arg "Heap.alloc: object too large"
    else if classes.(i) >= size then i
    else go (i + 1)
  in
  go 0

(* -- word accesses (cost-charged through Slot) ------------------------------ *)

let get t off = Slot.load t.words.(off)

(** Cost-free read of the coherent view — recovery and tests only. *)
let peek t off = Slot.peek t.words.(off)
let set t off v = Slot.store t.words.(off) v
let cas t off ~expected ~desired = Slot.cas t.words.(off) ~expected ~desired
let flush t off = Slot.flush t.words.(off)
let fence t = Region.fence t.region

let root_get t i = Slot.load t.roots.(i)

let root_set t i v =
  Slot.store t.roots.(i) v;
  Slot.flush t.roots.(i);
  Region.fence t.region

(* -- arenas ------------------------------------------------------------------- *)

(* Lock-free fast path: a racy read of the tid-indexed table; registration
   (rare) goes through [arena_mu] and republishes grown arrays, so readers
   either see the old array (and fall into the slow path) or a fully
   initialised entry. *)
let register_arena t tid =
  Mutex.lock t.arena_mu;
  let existing =
    if tid < Array.length t.arenas then t.arenas.(tid) else None
  in
  let a =
    match existing with
    | Some a -> a
    | None ->
        let a = mk_arena (Array.length t.arena_tab) in
        (if tid >= Array.length t.arenas then begin
           let n = max (tid + 1) ((2 * Array.length t.arenas) + 1) in
           let na = Array.make n None in
           Array.blit t.arenas 0 na 0 (Array.length t.arenas);
           t.arenas <- na
         end);
        t.arenas.(tid) <- Some a;
        let nt = Array.make (Array.length t.arena_tab + 1) a in
        Array.blit t.arena_tab 0 nt 0 (Array.length t.arena_tab);
        t.arena_tab <- nt;
        a
  in
  Mutex.unlock t.arena_mu;
  a

let my_arena t =
  match t.policy with
  | Global_lock -> t.arena_tab.(0)
  | Sharded -> (
      let tid = Hooks.tid () in
      let arr = t.arenas in
      if tid >= 0 && tid < Array.length arr then
        match arr.(tid) with Some a -> a | None -> register_arena t tid
      else register_arena t tid)

(* -- allocation --------------------------------------------------------------- *)

(* Consume a reclaimed zero run (first-fit) before touching the bump
   pointer; [pool_mu] protects the extent list and is never held across a
   persist. *)
let take_extent t sz =
  if t.extents = [] then None
  else begin
    Mutex.lock t.pool_mu;
    let rec go acc = function
      | [] ->
          Mutex.unlock t.pool_mu;
          None
      | (off, len) :: rest when len >= sz ->
          let rem = if len > sz then [ (off + sz, len - sz) ] else [] in
          t.extents <- List.rev_append acc (rem @ rest);
          Mutex.unlock t.pool_mu;
          Some off
      | e :: rest -> go (e :: acc) rest
    in
    go [] t.extents
  end

(* Keep a seam at the lowest chunk-header offset of its segment: carves
   race, the min-CAS converges, and the flush rides the caller's fence. *)
let seam_note t hoff =
  let sl = t.seams.(seg_of t hoff) in
  let rec go () =
    let cur = Slot.peek sl in
    if cur = 0 || cur > hoff then
      if Slot.cas sl ~expected:cur ~desired:hoff then Slot.flush sl else go ()
  in
  go ()

(* Carve a chunk of [nb] class-[cls] blocks for arena [a].  The chunk
   header is durable (store + flush + seam + fence, all lock-free) before
   any block of the chunk can be handed out, so the linear parse always
   finds the chunk even if its owner dies immediately after. *)
let install_chunk t a cls nb hoff =
  Slot.store t.words.(hoff) (enc_chunk cls nb);
  Slot.flush t.words.(hoff);
  seam_note t hoff;
  Region.fence t.region;
  let block = classes.(cls) in
  for i = 0 to nb - 1 do
    t.owner.(hoff + 2 + (i * (block + 1))) <- a.a_id + 1
  done;
  a.a_fresh_off.(cls) <- hoff + 1;
  a.a_fresh_left.(cls) <- nb;
  let s = Stats.get () in
  s.Stats.alloc_carve <- s.Stats.alloc_carve + 1

let carve t a cls =
  let block = classes.(cls) in
  let rec try_nb nb =
    let sz = 1 + (nb * (block + 1)) in
    match take_extent t sz with
    | Some off -> install_chunk t a cls nb off
    | None ->
        let b = Atomic.get t.bump in
        if b + sz > t.capacity then
          if nb > 1 then try_nb (nb / 2) else raise Out_of_memory
        else if Atomic.compare_and_set t.bump b (b + sz) then
          install_chunk t a cls nb b
        else begin
          Hooks.yield ();
          try_nb nb
        end
  in
  try_nb chunk_blocks.(cls)

(* Grab everything on the remote-free list in one exchange and sort it
   into the local lists; returns whether anything arrived.  The empty
   case is checked with a plain load first: an unconditional exchange is
   an RMW that steals the line from concurrent remote-freers even when
   there is nothing to drain, which ping-pongs badly past 4 threads.
   Losing the race between the load and the exchange only delays the
   batch to the next drain — exactly what "drained lazily" promises. *)
let drain_remote t a =
  if Atomic.get a.a_remote = [] then false
  else
    match Atomic.exchange a.a_remote [] with
    | [] -> false
    | batch ->
        let s = Stats.get () in
        s.Stats.alloc_remote_drain <- s.Stats.alloc_remote_drain + 1;
        List.iter
          (fun payload ->
            let cls = Slot.peek t.words.(payload - 1) - 1 in
            a.a_free.(cls) <- payload :: a.a_free.(cls))
          batch;
        true

(* Adopt a batch of recovery-swept blocks from the shared pool (rare:
   only refills after a recovery; amortised mutex, no persists held). *)
let refill_from_pool t a cls =
  if t.pool.(cls) = [] then false
  else begin
    Mutex.lock t.pool_mu;
    let rec take n l =
      if n = 0 then ([], l)
      else
        match l with
        | [] -> ([], [])
        | x :: rest ->
            let got, left = take (n - 1) rest in
            (x :: got, left)
    in
    let got, left = take 32 t.pool.(cls) in
    t.pool.(cls) <- left;
    Mutex.unlock t.pool_mu;
    match got with
    | [] -> false
    | _ ->
        List.iter (fun p -> t.owner.(p) <- a.a_id + 1) got;
        a.a_free.(cls) <- got @ a.a_free.(cls);
        true
  end

let finish_alloc t a payload =
  Bytes.set t.state payload '\001';
  a.a_allocs <- a.a_allocs + 1;
  Stats.count_alloc ();
  payload

let rec alloc_in t a cls =
  match a.a_free.(cls) with
  | payload :: rest ->
      a.a_free.(cls) <- rest;
      (* header already in place from the block's first hand-out *)
      finish_alloc t a payload
  | [] ->
      if a.a_fresh_left.(cls) > 0 then begin
        let hoff = a.a_fresh_off.(cls) in
        a.a_fresh_off.(cls) <- hoff + classes.(cls) + 1;
        a.a_fresh_left.(cls) <- a.a_fresh_left.(cls) - 1;
        (* class tag, persisted before the block is handed out; blocks of
           a chunk are handed out in ascending order, so a crash leaves a
           durable nonzero-prefix / zero-suffix image per chunk *)
        Slot.store t.words.(hoff) (cls + 1);
        Slot.flush t.words.(hoff);
        Region.fence t.region;
        finish_alloc t a (hoff + 1)
      end
      else if drain_remote t a && a.a_free.(cls) <> [] then alloc_in t a cls
      else if refill_from_pool t a cls then alloc_in t a cls
      else begin
        carve t a cls;
        alloc_in t a cls
      end

(** Allocate a block of at least [size] words; returns the payload offset.
    The header (at [offset - 1]) is persisted before the block is handed
    out, so a post-crash linear parse of the heap never sees a torn
    header.  Under the default {!Sharded} policy the fast path takes no
    lock and never persists while holding shared state. *)
let alloc t size =
  let cls = class_of_size size in
  match t.policy with
  | Sharded -> alloc_in t (my_arena t) cls
  | Global_lock ->
      lock_g t;
      Fun.protect
        ~finally:(fun () -> unlock_g t)
        (fun () -> alloc_in t t.arena_tab.(0) cls)

let rec remote_push owner payload =
  let cur = Atomic.get owner.a_remote in
  if not (Atomic.compare_and_set owner.a_remote cur (payload :: cur)) then
    remote_push owner payload

let free_in t a payload =
  if payload < 2 || payload >= t.capacity then
    invalid_arg "Heap.free: not an allocated block";
  (match Bytes.get t.state payload with
  | '\001' -> ()
  | '\002' -> invalid_arg "Heap.free: double free"
  | _ -> invalid_arg "Heap.free: not an allocated block");
  let cls = Slot.peek t.words.(payload - 1) - 1 in
  Bytes.set t.state payload '\002';
  a.a_frees <- a.a_frees + 1;
  let own = t.owner.(payload) in
  if own = a.a_id + 1 then a.a_free.(cls) <- payload :: a.a_free.(cls)
  else if own = 0 then begin
    (* recovery-pooled block never re-adopted: adopt it here *)
    t.owner.(payload) <- a.a_id + 1;
    a.a_free.(cls) <- payload :: a.a_free.(cls)
  end
  else begin
    remote_push t.arena_tab.(own - 1) payload;
    let s = Stats.get () in
    s.Stats.alloc_remote_free <- s.Stats.alloc_remote_free + 1
  end

(** Return a block to a free list.  A free of the owning thread goes to
    the arena-local list; a cross-thread free pushes onto the owner's
    remote-free list.  @raise Invalid_argument deterministically on a
    double free or an offset that is not an allocated payload. *)
let free t payload =
  match t.policy with
  | Sharded ->
      Hooks.yield ();
      free_in t (my_arena t) payload
  | Global_lock ->
      lock_g t;
      Fun.protect
        ~finally:(fun () -> unlock_g t)
        (fun () -> free_in t t.arena_tab.(0) payload)

(* -- recovery: offline mark-sweep -------------------------------------------- *)

(* A work-stealing deque (LIFO owner end, thieves take the bottom half).
   Plain mutex per stack: mark workers never hold it across a yield, so it
   is safe both under real domains and under the cooperative scheduler. *)
type wstack = { mu : Mutex.t; mutable buf : int array; mutable len : int }

let mk_wstack () = { mu = Mutex.create (); buf = Array.make 64 0; len = 0 }

let ws_push st off =
  Mutex.lock st.mu;
  if st.len = Array.length st.buf then begin
    let nb = Array.make (2 * st.len) 0 in
    Array.blit st.buf 0 nb 0 st.len;
    st.buf <- nb
  end;
  st.buf.(st.len) <- off;
  st.len <- st.len + 1;
  Mutex.unlock st.mu

let ws_pop st =
  Mutex.lock st.mu;
  let r =
    if st.len = 0 then None
    else begin
      st.len <- st.len - 1;
      Some st.buf.(st.len)
    end
  in
  Mutex.unlock st.mu;
  r

(* Steal the bottom half of [victim]; returns the loot (oldest first). *)
let ws_steal victim =
  Mutex.lock victim.mu;
  let k = victim.len / 2 in
  let loot = Array.sub victim.buf 0 k in
  if k > 0 then begin
    Array.blit victim.buf k victim.buf 0 (victim.len - k);
    victim.len <- victim.len - k
  end;
  Mutex.unlock victim.mu;
  loot

(** Rebuild the volatile allocator metadata after a crash: the paper's
    offline GC, parallelised.  [trace] receives a live payload offset and
    returns the payload offsets it points to (decode your own pointer
    encoding before returning them; 0s are ignored).  Everything
    unreachable from the persistent roots is swept onto the free lists.

    [domains] (default 1) is the worker count: the mark phase shards the
    persistent roots across workers with work-stealing gray-stacks, and the
    sweep parses the {!num_segments} fixed segments in parallel, each
    worker starting at its segment's persistent seam.  [runner] overrides
    how worker bodies are executed (default: [Domain.spawn] for workers
    1..n-1 with the caller participating as worker 0) — the benchmark
    harness passes a deterministic-scheduler runner so per-worker work
    tallies are reproducible on any machine.

    The sweep understands the chunked image: a chunk whose owner crashed
    mid-use shows a durable nonzero-prefix / zero-suffix block-header
    pattern — the zero-tag suffix is {e residue}, re-stamped durably and
    returned to the free lists (counted in [r_residue]); a whole chunk
    whose carve never became durable is a zero run below the heap end,
    recorded as a reusable extent for the carve path.  A zero tag with
    allocated blocks {e after it in the same chunk} is still a torn heap
    ([Recovery_corrupt]).

    Recovery is idempotent and restartable: it opens a recovery session on
    the region (persistent epoch goes odd until {!Region.mark_recovered}),
    only reads the persistent space (residue re-stamping uses privileged
    recovery stores, in ascending order, so a kill mid-stamp preserves the
    suffix invariant), and rebuilds every piece of volatile metadata from
    scratch — killing it at any point and re-running from the start yields
    the same result as an uninterrupted run.

    Determinism: with any worker count, the marked set equals the set
    reachable from the roots, sweep results are merged per-segment in
    ascending segment order, and free-list entries come out in ascending
    offset order — so sequential and parallel recovery rebuild {e
    identical} allocator states.  All arenas are discarded: every swept
    block sits in the shared pool until an arena adopts it.

    @raise Recovery_corrupt when the persistent image fails validation: a
    header tag outside the size-class range, a chunk overrunning the heap,
    a pointer outside the heap, a torn hole (zero tag followed by
    allocated blocks in its chunk), or residue beyond the heap end. *)
let recover ?(domains = 1) ?runner t ~(trace : int -> int list) =
  if domains < 1 then invalid_arg "Heap.recover: domains must be >= 1";
  let (_ : bool) = Region.begin_recovery t.region in
  Hooks.with_recovery @@ fun () ->
  Mutex.lock t.recover_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.recover_mu) @@ fun () ->
  Hooks.recovery_point Hooks.R_begin;
  let cap = t.capacity in
  let nw = domains in
  let seq_mode = nw = 1 && runner = None in
  (* In sequential mode the fine-grained kill points (R_root, R_sweep) fire
     and exceptions propagate directly; parallel workers never call hooks
     (not thread-safe) and funnel exceptions through [err]. *)
  let err : exn option Atomic.t = Atomic.make None in
  let record_err e = ignore (Atomic.compare_and_set err None (Some e)) in
  let reraise () = match Atomic.get err with Some e -> raise e | None -> () in
  (* ---- mark ---- *)
  let t0 = Mirror_clock.now_ns () in
  let marks = Bytes.make cap '\000' in
  let stacks = Array.init nw (fun _ -> mk_wstack ()) in
  let tasks = Atomic.make 0 in
  let marked_counts = Array.make nw 0 in
  let parsed_counts = Array.make nw 0 in
  let steal_counts = Array.make nw 0 in
  (* Racy test-and-set on the byte map: two workers may both claim a node
     and trace it twice (counted in [r_marked]), but the marked set is
     exactly the reachable set either way — bytes have no tearing and the
     only transition is 0 -> 1. *)
  let visit st off =
    if off <> 0 then begin
      if off < 0 || off >= cap then
        raise (Recovery_corrupt { offset = off; tag = -1 });
      if Bytes.unsafe_get marks off = '\000' then begin
        Bytes.unsafe_set marks off '\001';
        Atomic.incr tasks;
        ws_push st off
      end
    end
  in
  let mark_worker w () =
    let st = stacks.(w) in
    let rec loop idle_rounds =
      if Atomic.get err <> None then ()
      else
        match ws_pop st with
        | Some off ->
            marked_counts.(w) <- marked_counts.(w) + 1;
            List.iter (fun o -> visit st o) (trace off);
            Atomic.decr tasks;
            if not seq_mode then Hooks.yield ();
            loop 0
        | None ->
            if Atomic.get tasks > 0 then begin
              (* steal: sweep the other stacks round-robin from w+1 *)
              let got = ref false in
              for d = 1 to nw - 1 do
                if not !got then begin
                  let v = (w + d) mod nw in
                  let loot = ws_steal stacks.(v) in
                  if Array.length loot > 0 then begin
                    got := true;
                    steal_counts.(w) <- steal_counts.(w) + 1;
                    Array.iter (fun off -> ws_push st off) loot
                  end
                end
              done;
              if not seq_mode then Hooks.yield ();
              Domain.cpu_relax ();
              loop (if !got then 0 else idle_rounds + 1)
            end
    in
    try loop 0
    with e -> if seq_mode then raise e else record_err e
  in
  if seq_mode then
    (* one kill point per root, draining the gray-stack in between *)
    Array.iter
      (fun r ->
        Hooks.recovery_point Hooks.R_root;
        visit stacks.(0) (Slot.peek r);
        mark_worker 0 ())
      t.roots
  else begin
    Array.iteri (fun i r -> visit stacks.(i mod nw) (Slot.peek r)) t.roots;
    (match runner with
    | Some run -> run (List.init nw (fun w -> mark_worker w))
    | None ->
        let doms =
          Array.init (nw - 1) (fun i -> Domain.spawn (mark_worker (i + 1)))
        in
        mark_worker 0 ();
        Array.iter Domain.join doms);
    reraise ()
  end;
  let t1 = Mirror_clock.now_ns () in
  Hooks.recovery_point Hooks.R_mark_done;
  (* ---- sweep: parse each segment's chunks from its persistent seam ---- *)
  Bytes.fill t.state 0 cap '\000';
  let seg_free = Array.make num_segments [] in
  (* per-segment (cls, payload) pairs, descending offsets *)
  let seg_live = Array.make num_segments 0 in
  let seg_residue = Array.make num_segments 0 in
  let seg_ends = Array.make num_segments 0 in
  (* 0 = segment never parsed (empty) *)
  let seg_extents = Array.make num_segments [] in
  (* per-segment reclaimable zero runs, descending discovery order *)
  (* Parse one chunk at [hoff]; returns the chunk's end offset.  The
     durable image of a chunk is a nonzero prefix of handed-out block
     headers followed by a zero suffix (hand-out order is ascending and
     each header is fenced before the next hand-out): the suffix is
     reclaimable residue, re-stamped durably in ascending order so the
     invariant survives a kill mid-recovery; nonzero after zero is a torn
     heap. *)
  let parse_chunk w s hoff tag0 =
    let cls = chunk_cls tag0 in
    let nb = chunk_nblocks tag0 in
    if cls < 0 || cls >= Array.length classes || nb < 1 then
      raise (Recovery_corrupt { offset = hoff; tag = tag0 });
    let block = classes.(cls) in
    let chunk_end = hoff + 1 + (nb * (block + 1)) in
    if chunk_end > cap then
      raise (Recovery_corrupt { offset = hoff; tag = tag0 });
    let first_zero = ref 0 in
    for i = 0 to nb - 1 do
      let h = hoff + 1 + (i * (block + 1)) in
      let tag = Slot.peek t.words.(h) in
      let payload = h + 1 in
      if tag = 0 then begin
        if !first_zero = 0 then first_zero := h;
        (* crash residue: never handed out; stamp the header durably and
           reclaim the block *)
        Slot.recover_store t.words.(h) (cls + 1);
        seg_residue.(s) <- seg_residue.(s) + 1;
        Bytes.set t.state payload '\002';
        seg_free.(s) <- (cls, payload) :: seg_free.(s)
      end
      else if tag <> cls + 1 then
        raise (Recovery_corrupt { offset = h; tag })
      else if !first_zero <> 0 then
        (* allocated block after a hole in the same chunk: torn heap *)
        raise (Recovery_corrupt { offset = !first_zero; tag = 0 })
      else begin
        if Bytes.get marks payload = '\001' then begin
          Bytes.set t.state payload '\001';
          seg_live.(s) <- seg_live.(s) + 1
        end
        else begin
          Bytes.set t.state payload '\002';
          seg_free.(s) <- (cls, payload) :: seg_free.(s)
        end
      end;
      parsed_counts.(w) <- parsed_counts.(w) + 1
    done;
    chunk_end
  in
  let parse_segment w s =
    let start = Slot.peek t.seams.(s) in
    if start <> 0 then begin
      let stop = seg_end t s in
      let pos = ref start in
      while !pos < stop do
        let tag = Slot.peek t.words.(!pos) in
        if tag = 0 then begin
          (* zero run: either the tail of the heap or the residue of a
             chunk whose carve was lost in the crash — scan to the next
             nonzero word (capped at the segment boundary) and record a
             reusable extent; whatever follows must be a chunk header *)
          let z = ref !pos in
          while !z < stop && Slot.peek t.words.(!z) = 0 do incr z done;
          seg_extents.(s) <- (!pos, !z - !pos) :: seg_extents.(s);
          if !z < stop then begin
            let w0 = Slot.peek t.words.(!z) in
            if not (is_chunk_tag w0) then
              raise (Recovery_corrupt { offset = !z; tag = w0 })
          end;
          pos := !z
        end
        else if is_chunk_tag tag then begin
          let e = parse_chunk w s !pos tag in
          seg_ends.(s) <- e;
          pos := e
        end
        else raise (Recovery_corrupt { offset = !pos; tag })
      done
      (* a chunk may straddle the seam into the next segment(s); those
         segments have seam 0 for the covered prefix, and [seg_ends] here
         extends past [stop] — the global heap end is the max over all *)
    end
  in
  let seg_claim = Atomic.make 0 in
  let sweep_worker w () =
    let rec loop () =
      if Atomic.get err <> None then ()
      else begin
        let s = Atomic.fetch_and_add seg_claim 1 in
        if s < num_segments then begin
          if seq_mode then Hooks.recovery_point Hooks.R_sweep;
          parse_segment w s;
          if not seq_mode then Hooks.yield ();
          loop ()
        end
      end
    in
    try loop ()
    with e -> if seq_mode then raise e else record_err e
  in
  if seq_mode then sweep_worker 0 ()
  else begin
    (match runner with
    | Some run -> run (List.init nw (fun w -> sweep_worker w))
    | None ->
        let doms =
          Array.init (nw - 1) (fun i -> Domain.spawn (sweep_worker (i + 1)))
        in
        sweep_worker 0 ();
        Array.iter Domain.join doms);
    reraise ()
  end;
  (* ---- merge + validate ---- *)
  let bump = ref 1 in
  Array.iter (fun e -> if e > !bump then bump := e) seg_ends;
  (* residue check: everything beyond the heap end must be virgin *)
  for off = !bump to cap - 1 do
    let w = Slot.peek t.words.(off) in
    if w <> 0 then raise (Recovery_corrupt { offset = off; tag = w })
  done;
  (* deterministic rebuild: walking segments descending and prepending
     each segment's (descending) entries yields ascending free lists; the
     arenas are discarded wholesale — every swept block waits in the
     shared pool until an arena adopts it *)
  Array.iteri (fun i _ -> t.pool.(i) <- []) classes;
  let swept = ref 0 in
  for s = num_segments - 1 downto 0 do
    List.iter
      (fun (cls, payload) ->
        incr swept;
        t.pool.(cls) <- payload :: t.pool.(cls))
      seg_free.(s)
  done;
  let extents = ref [] in
  for s = num_segments - 1 downto 0 do
    List.iter
      (fun (off, len) ->
        (* runs at or past the heap end are re-served by the bump pointer *)
        if off < !bump then extents := (off, len) :: !extents)
      seg_extents.(s)
  done;
  t.extents <- !extents;
  t.arenas <- [||];
  t.arena_tab <-
    (match t.policy with Sharded -> [||] | Global_lock -> [| mk_arena 0 |]);
  Array.fill t.owner 0 cap 0;
  t.base_live <- Array.fold_left ( + ) 0 seg_live;
  Atomic.set t.bump !bump;
  let t2 = Mirror_clock.now_ns () in
  let total = Array.fold_left ( + ) 0 in
  let st = Stats.get () in
  st.Stats.rec_marked <- st.Stats.rec_marked + total marked_counts;
  st.Stats.rec_swept <- st.Stats.rec_swept + !swept;
  st.Stats.rec_steals <- st.Stats.rec_steals + total steal_counts;
  st.Stats.rec_mark_ns <- st.Stats.rec_mark_ns + (t1 - t0);
  st.Stats.rec_sweep_ns <- st.Stats.rec_sweep_ns + (t2 - t1);
  t.last_recovery <-
    Some
      {
        r_domains = nw;
        r_marked = total marked_counts;
        r_live = t.base_live;
        r_swept = !swept;
        r_residue = total seg_residue;
        r_steals = total steal_counts;
        r_mark_ns = t1 - t0;
        r_sweep_ns = t2 - t1;
        r_worker_marked = Array.copy marked_counts;
        r_worker_parsed = Array.copy parsed_counts;
      };
  Hooks.recovery_point Hooks.R_done

(* -- statistics ---------------------------------------------------------------- *)

let live_objects t =
  Array.fold_left (fun acc a -> acc + a.a_allocs - a.a_frees) t.base_live
    t.arena_tab

let words_used t = Atomic.get t.bump

(* The merged free view: shared pool + every arena's local and remote
   lists, per class in ascending offset order.  Right after a recovery
   the arenas are empty, so this is exactly the deterministic pool the
   equivalence tests compare. *)
let free_list_dump t =
  let tab = t.arena_tab in
  Array.mapi
    (fun cls pool ->
      let acc = ref pool in
      Array.iter
        (fun a ->
          acc := List.rev_append a.a_free.(cls) !acc;
          List.iter
            (fun p ->
              if Slot.peek t.words.(p - 1) = cls + 1 then acc := p :: !acc)
            (Atomic.get a.a_remote))
        tab;
      List.sort_uniq compare !acc)
    t.pool

let free_list_sizes t =
  Array.to_list (Array.map List.length (free_list_dump t))

let last_recovery t = t.last_recovery

(** The paper's address-translation claim, executable: because pointers are
    offsets, the heap content can be copied to a fresh mapping (a new base
    address after a reboot) and every reference stays valid.  Returns a new
    heap backed by fresh slots holding the same persisted content.  The
    volatile allocator state is re-keyed for the new mapping: all free
    blocks land in the shared pool (arenas re-form on first use). *)
let remap t =
  let copy_slots arr =
    let cursor = ref None in
    Array.map
      (fun w ->
        Slot.make ~persist:true
          ?place:(next_place t.region cursor)
          t.region
          (Option.value ~default:0 (Slot.persisted_value w)))
      arr
  in
  {
    words = copy_slots t.words;
    roots = copy_slots t.roots;
    seams = copy_slots t.seams;
    region = t.region;
    capacity = t.capacity;
    seg_len = t.seg_len;
    policy = t.policy;
    bump = Atomic.make (Atomic.get t.bump);
    arenas = [||];
    arena_tab =
      (match t.policy with Sharded -> [||] | Global_lock -> [| mk_arena 0 |]);
    arena_mu = Mutex.create ();
    pool = free_list_dump t;
    extents = t.extents;
    pool_mu = Mutex.create ();
    owner = Array.make t.capacity 0;
    state = Bytes.copy t.state;
    glock = Atomic.make false;
    recover_mu = Mutex.create ();
    base_live = live_objects t;
    last_recovery = None;
  }
