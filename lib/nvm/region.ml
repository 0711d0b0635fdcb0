(** A simulated persistent-memory region with a crash controller.

    The region plays the role of the mmapped NVMM file of the paper (§4.2).
    Persistent slots ({!Slot}) register themselves here; volatile state
    (e.g. the DRAM replica of a [Patomic]) registers an invalidation closure.
    [crash] then implements a full-system power failure:

    - every cache line flushed but not yet fenced may or may not have reached
      the memory (decided by the {!crash_policy});
    - every dirty, unflushed line is lost (adversarial) or survives with the
      eviction probability (lenient);
    - all volatile state is invalidated.

    A region can also simulate spontaneous cache eviction at run time
    ([runtime_evict_prob]): real caches write dirty lines back whenever they
    please, so an algorithm must be correct even when *more* than it flushed
    gets persisted.

    Each domain that touches the region gets one record of its own
    persistence state: its pending write-backs, its in-flight lines and its
    deferred persists.  [sfence] drains the write-backs recorded by the
    calling domain (on hardware, a fence orders the issuing CPU's own
    [clwb]s; under the deterministic scheduler all logical threads share
    one domain and hence one record, which recovers the seed's global-drain
    behavior exactly).  When the region's elision mode is on, a fence that
    finds its domain's pending stack empty is a no-op — it is counted as
    [fence_elided] and charges no latency (Cai et al., *Fast Nonblocking
    Persistence*: fences can be elided when no write-back is pending).

    A slot reaches its region, home thread and cache line through one
    shared {!place}: one per carved line, one per home thread for lineless
    slots.  The records and the lineless places hang off the region, so
    they die with it. *)

type crash_policy =
  | Adversarial
      (** nothing survives except writes covered by a completed flush+fence *)
  | Eviction of float
      (** each un-fenced write independently survives with probability [p] *)

(** One deferred persist, recorded by a buffered slot instead of flushing:
    the snapshot to write back is captured in [d_flush] at record time (a
    later advance must not persist content from a younger epoch, or the
    recovered state stops being a consistent cut). *)
type deferred = {
  d_epoch : int;  (** the epoch that produced the write *)
  d_uid : int;  (** slot uid, for per-advance deduplication *)
  d_ver : int;  (** value version, ditto (keep the newest per slot) *)
  d_flush : unit -> unit;  (** charged flush of the snapshot *)
}

(** A simulated cache line: slots carved from the same line share their
    write-back and their crash fate.  [l_members] holds one persist closure
    per member slot (the line's write-back persists all of them);
    [l_resets] holds the members' crash resets, applied with a single
    shared survival draw so a lost line loses every member together.
    Members are appended at slot-allocation time and never removed. *)
type line = {
  l_uid : int;
  mutable l_filled : int;  (** slots carved so far (≤ [slots_per_line]) *)
  mutable l_members : (unit -> unit) list;
  mutable l_resets : (persist_first:bool -> unit) list;
}

(** One domain's persistence state for one region.  Only the owning
    domain touches the pending stack and the in-flight set; the deferred
    list is also drained by other domains' advances, so it is read and
    written under the region mutex. *)
type dom = {
  region_id : int;  (** the region's id; [-1] for the empty cache *)
  domain : int;  (** the owning domain *)
  mutable pending : (unit -> unit) array;
      (** pending write-backs, oldest at index 0.  Appending writes one
          cell, allocating only when the array doubles; drained cells are
          reset to [noop] so the stack retains no snapshot. *)
  mutable pending_len : int;
  inflight : (int, unit) Hashtbl.t;
      (** line uids flushed but not yet fenced by this domain; on a
          slot-granular region, which has no lines, the shared [no_lines]
          table, never written *)
  mutable deferred : deferred list;  (** deferred persists, newest first *)
}

(** Where a slot lives: its region, its home and its cache line.  Every
    slot carved from one line shares the line's place; every lineless slot
    one logical thread allocates in one region shares that thread's place
    ([homes]).  Immutable. *)
type place = {
  region : t;
  home : int;
      (** home domain of the memory: the line's carver, or the allocating
          logical thread ({!Hooks.tid}) when lineless *)
  line : line option;
}

and t = {
  id : int;  (** carried on access events; names a {!dom}'s region *)
  slots_per_line : int;
      (** slots carved per simulated cache line; [1] = the historical
          slot-granular model (no lines exist, nothing coalesces) *)
  mutable lines : line list;
      (** every line carved from this region, for crash processing (gated
          on [track_slots], like [slot_resets]) *)
  mutable slot_resets : (persist_first:bool -> unit) list;
      (** one closure per registered persistent slot: optionally persist the
          current (cache) value, then reset the cache view to the persisted
          value *)
  mutable volatile_invalidators : (unit -> unit) list;
  mutex : Mutex.t;
  mutable down : bool;
  track_slots : bool;
      (** benches disable registration: they never crash and must not retain
          every node ever allocated *)
  mutable doms : dom list;
      (** every domain's record for this region, newest first; prepended
          under [mutex] *)
  mutable homes : place array;
      (** the lineless place of each home thread, indexed by home: a cell
          whose place has another home is vacant.  Read unlocked, replaced
          by a grown copy under [mutex] *)
  elide : bool;
      (** flush/fence elision mode: skip (and count as elided) flushes of
          clean lines and fences with nothing pending *)
  rng : Random.State.t;
  runtime_evict_prob : float;
  mutable crashes : int;
  mutable recovery_epoch : int;
      (** persistent recovery-progress slot (recovery-write semantics: every
          update is immediately durable, so a crash never tears it — the
          region compiles before {!Slot}, hence a plain field rather than a
          slot).  Even = the last recovery ran to completion; odd = a
          recovery started and has not finished.  An odd value observed by
          {!begin_recovery} after a crash means the previous recovery was
          itself interrupted and its partial work must not be trusted. *)
  mutable in_recovery_session : bool;
      (** volatile: true between the first {!begin_recovery} after a crash
          and {!mark_recovered}, so the several tracers of one recovery
          session share a single epoch transition.  Cleared by {!crash} —
          a power failure forgets that a recovery was underway, which is
          exactly what makes the persistent epoch necessary. *)
  mutable last_interrupted : bool;
      (** what the session's first {!begin_recovery} found (introspection) *)
  (* -- buffered persistence (the epoch clock) -- *)
  epoch_len : int;
      (** deferred persists per epoch; [1] makes every buffered persist
          advance immediately (strict-equivalent costs) *)
  mutable cur_epoch : int;  (** the open epoch; buffered writes tag with it *)
  mutable durable_epoch : int;
      (** persistent durable-epoch slot (recovery-write semantics, like
          [recovery_epoch]: the bump is a single-word store ordered after
          the advance's fence, so a crash never tears it).  Recovery keeps
          exactly the writes tagged [<= durable_epoch]. *)
  mutable cur_count : int;  (** deferred persists recorded in [cur_epoch] *)
  advancing : bool Atomic.t;
      (** advance claim flag: help-advance is nonblocking — a thread that
          finds an advance in flight just returns (buffered completion
          never waits for durability) *)
}

let next_id = Atomic.make 0
let next_line_uid = Atomic.make 0

let create ?(track_slots = true) ?(runtime_evict_prob = 0.0) ?(seed = 0xC0FFEE)
    ?(elide = false) ?(epoch_len = 1) ?(slots_per_line = 1) () =
  if epoch_len < 1 then invalid_arg "Mirror_nvm.Region.create: epoch_len < 1";
  if slots_per_line < 1 then
    invalid_arg "Mirror_nvm.Region.create: slots_per_line < 1";
  {
    id = Atomic.fetch_and_add next_id 1;
    slots_per_line;
    lines = [];
    slot_resets = [];
    volatile_invalidators = [];
    mutex = Mutex.create ();
    down = false;
    track_slots;
    doms = [];
    homes = [||];
    elide;
    rng = Random.State.make [| seed |];
    runtime_evict_prob;
    crashes = 0;
    recovery_epoch = 0;
    in_recovery_session = false;
    last_interrupted = false;
    epoch_len;
    cur_epoch = 1;
    durable_epoch = 0;
    cur_count = 0;
    advancing = Atomic.make false;
  }

let is_down t = t.down
let crash_count t = t.crashes
let elision t = t.elide
let id t = t.id
let slots_per_line t = t.slots_per_line

(* Fences and epoch steps have no slot identity; announce with the
   region and the acting thread/domain (gated on [Hooks.access_on] at the
   call site).  [seq] is the epoch, or [-1] for a fence. *)
let announce t op ~seq =
  Hooks.access_point
    {
      Hooks.a_op = op;
      a_slot = -1;
      a_pair = -1;
      a_region = t.id;
      a_domain = (Domain.self () :> int);
      a_tid = Hooks.tid ();
      a_seq = seq;
      a_line = -1;
      a_protocol = Hooks.in_protocol ();
    }

(* How many regions are down, process-wide: {!crash} counts a region in
   and {!mark_recovered} counts it out.  An access path tests this one
   word and looks at its own region only while some region is down. *)
let down_regions = Atomic.make 0
let any_down () = Atomic.get down_regions <> 0

let refuse () =
  invalid_arg "Mirror_nvm.Region: access to a crashed region before recovery"

let check_up t = if t.down then refuse ()

(* Registration takes the reset and its argument apart, so that the
   closure joining them is built only on a region that tracks slots: an
   untracked region (every benchmark) would drop it at once. *)
let register_slot t reset x =
  if t.track_slots then begin
    Mutex.lock t.mutex;
    t.slot_resets <-
      (fun ~persist_first -> reset x ~persist_first) :: t.slot_resets;
    Mutex.unlock t.mutex
  end

let register_volatile t invalidate x =
  if t.track_slots then begin
    Mutex.lock t.mutex;
    t.volatile_invalidators <-
      (fun () -> invalidate x) :: t.volatile_invalidators;
    Mutex.unlock t.mutex
  end

(* -- flush / fence ------------------------------------------------------- *)

(* The calling domain's record for one region.  The hot path
   (flush/fence) runs on every instrumented access, so the lookup is a
   one-entry cache: the domain's DLS holds the record of the last region
   it touched, making the common case one DLS load plus an int compare.
   A domain alternating between regions scans the region's own record
   list (only this domain ever adds its record, so an unlocked read sees
   it); a genuinely first touch registers a fresh record.  A record
   names its region by id only, so a dropped region takes its records
   with it (bar the one a domain still caches, until its next region).

   Registration publishes the record *after* it is linked into the region
   under [t.mutex], and refuses a region that is down: [crash] holds the
   same mutex while walking [doms], so a first touch racing a crash
   either lands before the walk (and is drained) or observes [down] and
   raises — it can never register an orphan record whose stale thunks a
   post-recovery fence would apply. *)
let noop () = ()
let no_lines : (int, unit) Hashtbl.t = Hashtbl.create 1

let new_dom ~region_id ~domain ~inflight =
  {
    region_id;
    domain;
    pending = Array.make 8 noop;
    pending_len = 0;
    inflight;
    deferred = [];
  }

let cache : dom Domain.DLS.key =
  let empty = new_dom ~region_id:(-1) ~domain:(-1) ~inflight:no_lines in
  Domain.DLS.new_key (fun () -> empty)

let register t domain =
  let inflight =
    if t.slots_per_line > 1 then Hashtbl.create 8 else no_lines
  in
  let r = new_dom ~region_id:t.id ~domain ~inflight in
  Mutex.lock t.mutex;
  if t.down then begin
    Mutex.unlock t.mutex;
    refuse ()
  end;
  t.doms <- r :: t.doms;
  Mutex.unlock t.mutex;
  r

let rec find t domain = function
  | r :: rest -> if r.domain = domain then r else find t domain rest
  | [] -> register t domain

let mine t =
  let r = Domain.DLS.get cache in
  if r.region_id = t.id then r
  else begin
    let r = find t (Domain.self () :> int) t.doms in
    Domain.DLS.set cache r;
    r
  end

let push r thunk =
  let n = r.pending_len in
  if n = Array.length r.pending then begin
    let a = Array.make (2 * n) noop in
    Array.blit r.pending 0 a 0 n;
    r.pending <- a
  end;
  r.pending.(n) <- thunk;
  r.pending_len <- n + 1

(** Record a write-back thunk.  The snapshot semantics (what value gets
    persisted) is the caller's business: {!Slot.flush} captures the cache
    content at flush time, which is a legal write-back instant. *)
let add_pending t thunk = push (mine t) thunk

(* Empty [r]'s pending stack, passing each thunk to [f] newest first. *)
let drain r f =
  let n = r.pending_len in
  r.pending_len <- 0;
  for i = n - 1 downto 0 do
    let thunk = r.pending.(i) in
    r.pending.(i) <- noop;
    f thunk
  done

let run thunk = thunk ()

(* -- places and cache lines ------------------------------------------------ *)

(* A thread's first lineless place in [t], published under the mutex in
   the vacant cell of [homes] at its home; a short array is replaced by a
   grown copy whose fresh cells all hold the new place, which names every
   one of them but its own vacant.  A negative home is never cached. *)
let new_home_place t home =
  let p = { region = t; home; line = None } in
  if home < 0 then p
  else begin
    Mutex.lock t.mutex;
    let a = t.homes in
    let n = Array.length a in
    let p =
      if home >= n then begin
        let a' = Array.make (max (home + 1) (2 * n)) p in
        Array.blit a 0 a' 0 n;
        t.homes <- a';
        p
      end
      else if a.(home).home = home then a.(home)
      else begin
        a.(home) <- p;
        p
      end
    in
    Mutex.unlock t.mutex;
    p
  end

(* The calling thread's lineless place: after its first, one unlocked
   array read, no allocation. *)
let home_place t =
  let home = Hooks.tid () in
  let a = t.homes in
  if home >= 0 && home < Array.length a && (Array.unsafe_get a home).home = home
  then Array.unsafe_get a home
  else new_home_place t home

(** Carve a fresh cache line and claim its first slot: the line's place,
    homed at the calling thread.  [None] when the region is slot-granular
    ([slots_per_line = 1]): no lines exist, every path below degenerates
    to the historical behavior. *)
let place t =
  if t.slots_per_line <= 1 then None
  else begin
    let l =
      {
        l_uid = Atomic.fetch_and_add next_line_uid 1;
        l_filled = 1;
        l_members = [];
        l_resets = [];
      }
    in
    if t.track_slots then begin
      Mutex.lock t.mutex;
      t.lines <- l :: t.lines;
      Mutex.unlock t.mutex
    end;
    Some { region = t; home = Hooks.tid (); line = Some l }
  end

(** Claim a slot on [near]'s line if it has room, else carve a fresh line —
    the allocator's co-location primitive: an object's fields placed near
    each other share one write-back. *)
let place_near t near =
  match near.line with
  | Some l when t.slots_per_line > 1 ->
      Mutex.lock t.mutex;
      let ok = l.l_filled < t.slots_per_line in
      if ok then l.l_filled <- l.l_filled + 1;
      Mutex.unlock t.mutex;
      if ok then Some near else place t
  | _ -> place t

let line_uid l = l.l_uid

(** Register a member slot with its line: [persist] write-backs the slot's
    current content (called when the line's pending flush drains or the
    line is evicted); [reset] is its crash reset, applied line-atomically.
    Resets are gated on [track_slots] like {!register_slot}. *)
let line_add_member t l ~persist ~reset x =
  Mutex.lock t.mutex;
  l.l_members <- persist :: l.l_members;
  if t.track_slots then
    l.l_resets <- (fun ~persist_first -> reset x ~persist_first) :: l.l_resets;
  Mutex.unlock t.mutex

(** Write back every member's current content — what draining the line's
    pending flush (or a runtime eviction of the line) does. *)
let line_persist_members l = List.iter (fun p -> p ()) l.l_members

(** Is [l] in flight for the calling domain (flushed, not yet fenced)?  A
    flush of an in-flight line is absorbed by the pending write-back. *)
let line_in_flight t l = Hashtbl.mem (mine t).inflight l.l_uid

(* Mark [l], not in flight for [r]'s domain, flushed: one pending
   write-back covering the whole line (member content captured when the
   fence drains — a legal write-back instant, and the latest one). *)
let mark r l =
  Hashtbl.add r.inflight l.l_uid ();
  push r (fun () -> line_persist_members l)

(** Mark [l] flushed by the calling domain; marks before the fence after
    the first are the coalescing no-op. *)
let mark_line_flushed t l =
  let r = mine t in
  if not (Hashtbl.mem r.inflight l.l_uid) then mark r l

(** A [clwb] of [p]'s line [l] by the calling domain: absorbed by the
    pending write-back when the line is already in flight (persist point
    and count [flush_coalesced], no bill, [true]); otherwise the persist
    point, the flush billed at [p]'s home, then the mark ([false]).  One
    record lookup and one probe before the mark. *)
let flush_line p l =
  let r = mine p.region in
  if Hashtbl.mem r.inflight l.l_uid then begin
    Hooks.persist_point Hooks.Flush_coalesced;
    let s = Stats.get () in
    s.Stats.flush_coalesced <- s.Stats.flush_coalesced + 1;
    true
  end
  else begin
    Hooks.persist_point Hooks.Flush;
    Stats.bill_flush ~home:p.home;
    mark r l;
    false
  end

(** [sfence]: all write-backs recorded by the calling domain are now
    guaranteed persistent.  With elision on, a fence that has nothing
    pending is a free no-op ([fence_elided]). *)
let fence t =
  let r = mine t in
  if t.elide && r.pending_len = 0 then begin
    Hooks.persist_point Hooks.Fence_elided;
    let s = Stats.get () in
    s.Stats.fence_elided <- s.Stats.fence_elided + 1;
    if !Hooks.access_on then announce t Hooks.A_fence_elided ~seq:(-1);
    Hooks.yield ()
  end
  else begin
    Hooks.persist_point Hooks.Fence;
    Stats.bill_fence ();
    if t.slots_per_line > 1 then Hashtbl.reset r.inflight;
    drain r run;
    if !Hooks.access_on then announce t Hooks.A_fence ~seq:(-1);
    Hooks.yield ()
  end

let pending_count t =
  Mutex.lock t.mutex;
  let n = List.fold_left (fun acc r -> acc + r.pending_len) 0 t.doms in
  Mutex.unlock t.mutex;
  n

(* -- buffered persistence: the epoch clock -------------------------------- *)

let cur_epoch t = t.cur_epoch
let durable_epoch t = t.durable_epoch
let epoch_len t = t.epoch_len

let deferred_count t =
  Mutex.lock t.mutex;
  let n =
    List.fold_left (fun acc r -> acc + List.length r.deferred) 0 t.doms
  in
  Mutex.unlock t.mutex;
  n

(** Commit every epoch up to [target]: close the open epoch if [target]
    includes it, drain all domains' deferred records tagged [<= target],
    flush the newest snapshot per slot, fence once, then bump the durable
    epoch (a recovery-write: the single-word bump is ordered after the
    fence and never tears).  Nonblocking help protocol: whoever fails the
    [advancing] claim just returns — a buffered completion never waits for
    durability, and a straggler epoch is drained by the next advance. *)
let advance_to t ~target =
  if Atomic.compare_and_set t.advancing false true then
    Fun.protect
      ~finally:(fun () -> Atomic.set t.advancing false)
      (fun () ->
        Mutex.lock t.mutex;
        if target >= t.cur_epoch then begin
          t.cur_epoch <- target + 1;
          t.cur_count <- 0
        end;
        let records = ref [] in
        List.iter
          (fun r ->
            let keep, take =
              List.partition (fun d -> d.d_epoch > target) r.deferred
            in
            r.deferred <- keep;
            records := take @ !records)
          t.doms;
        Mutex.unlock t.mutex;
        if target > t.durable_epoch then begin
          (if !records <> [] then begin
             if !Hooks.access_on then
               announce t Hooks.A_epoch_close ~seq:target;
             (* newest version per slot: batching turns n persists of one
                line into one flush *)
             let best : (int, deferred) Hashtbl.t = Hashtbl.create 16 in
             List.iter
               (fun d ->
                 match Hashtbl.find_opt best d.d_uid with
                 | Some d' when d'.d_ver >= d.d_ver -> ()
                 | _ -> Hashtbl.replace best d.d_uid d)
               !records;
             Hashtbl.fold (fun _ d acc -> d :: acc) best []
             |> List.sort (fun a b -> compare a.d_uid b.d_uid)
             |> List.iter (fun d -> d.d_flush ());
             let s = Stats.get () in
             s.Stats.fence_batched <- s.Stats.fence_batched + 1;
             fence t
           end);
          Hooks.persist_point Hooks.Epoch_bump;
          t.durable_epoch <- target;
          let s = Stats.get () in
          s.Stats.epoch_advance <- s.Stats.epoch_advance + 1;
          if !Hooks.access_on then
            announce t Hooks.A_epoch_bump ~seq:target;
          Hooks.yield ()
        end)

(** Record one deferred persist into the open epoch; triggers a synchronous
    advance when the epoch is full ([epoch_len] deferred persists).  The
    [flush] thunk must persist a snapshot captured at record time. *)
let record_deferred t ~uid ~ver ~flush =
  check_up t;
  let r = mine t in
  Mutex.lock t.mutex;
  r.deferred <-
    { d_epoch = t.cur_epoch; d_uid = uid; d_ver = ver; d_flush = flush }
    :: r.deferred;
  t.cur_count <- t.cur_count + 1;
  let full = t.cur_count >= t.epoch_len in
  let target = t.cur_epoch in
  Mutex.unlock t.mutex;
  let s = Stats.get () in
  s.Stats.writes_deferred <- s.Stats.writes_deferred + 1;
  if full then advance_to t ~target

let help_advance t =
  check_up t;
  advance_to t ~target:t.cur_epoch

let epoch_quiesced t = t.cur_count = 0 && t.durable_epoch >= t.cur_epoch - 1

(** Make everything recorded so far durable (used after prefill and by
    harnesses that need a known-durable baseline).  A no-op on regions that
    never deferred anything, so strict cost models are unaffected. *)
let rec quiesce t =
  if not (epoch_quiesced t) then begin
    advance_to t ~target:t.cur_epoch;
    if not (epoch_quiesced t) then begin
      (* an in-flight advance holds the claim; let it finish *)
      Hooks.yield ();
      quiesce t
    end
  end

(* -- runtime eviction ---------------------------------------------------- *)

let evicting t = t.runtime_evict_prob > 0.

let maybe_evict t (persist : unit -> unit) =
  if evicting t then begin
    Mutex.lock t.mutex;
    let hit = Random.State.float t.rng 1.0 < t.runtime_evict_prob in
    Mutex.unlock t.mutex;
    if hit then persist ()
  end

(* -- crash --------------------------------------------------------------- *)

(** Simulate a full-system crash.  Must be called while no other domain is
    accessing the region (the harness quiesces workers first; the
    deterministic scheduler is single-domain and can crash mid-operation). *)
let crash ?(policy = Adversarial) t =
  Mutex.lock t.mutex;
  t.crashes <- t.crashes + 1;
  if not t.down then Atomic.incr down_regions;
  t.down <- true;
  let survive () =
    match policy with
    | Adversarial -> false
    | Eviction p -> Random.State.float t.rng 1.0 < p
  in
  (* 1. every domain's un-fenced flushes: apply the policy; its in-flight
     line marks and its deferred persists die with the cache.  The epoch
     clock restarts just past the durable slot: writes from epochs the
     durable slot does not cover are pruned by the slot resets below (each
     consults [durable_epoch]). *)
  List.iter
    (fun r ->
      drain r (fun f -> if survive () then f ());
      if t.slots_per_line > 1 then Hashtbl.reset r.inflight;
      r.deferred <- [])
    t.doms;
  t.cur_count <- 0;
  t.cur_epoch <- t.durable_epoch + 1;
  Atomic.set t.advancing false;
  (* 2. dirty unflushed lines: lost, unless eviction got them.  Slots on a
     shared cache line share one survival draw — a lost line loses all its
     slots together, a surviving eviction keeps them together. *)
  let persist_first = match policy with Adversarial -> false | Eviction _ -> true in
  List.iter
    (fun reset -> reset ~persist_first:(persist_first && survive ()))
    t.slot_resets;
  List.iter
    (fun l ->
      let s = persist_first && survive () in
      List.iter (fun reset -> reset ~persist_first:s) l.l_resets)
    t.lines;
  (* 3. volatile memory (DRAM replicas, caches) is gone — including the
     knowledge that a recovery may have been underway *)
  List.iter (fun f -> f ()) t.volatile_invalidators;
  t.in_recovery_session <- false;
  Mutex.unlock t.mutex

(* -- the recovery epoch --------------------------------------------------- *)

(** Open a recovery session on a crashed region.  Returns whether the
    {e previous} recovery was interrupted (its epoch transition never
    completed), i.e. whether any volatile state a careless driver might
    have kept from it must be discarded.  The first call after a crash
    flips the persistent epoch to odd (a recovery-write: immediately
    durable); further calls in the same session — one region can host
    several structures, each with its own tracer — are no-ops returning
    the session's verdict.  Calling on a region that is {e up} is a pure
    GC pass, not crash recovery: the epoch is not engaged and [false] is
    returned. *)
let begin_recovery t =
  if not t.down then false
  else if t.in_recovery_session then t.last_interrupted
  else begin
    t.in_recovery_session <- true;
    let interrupted = t.recovery_epoch land 1 = 1 in
    if not interrupted then t.recovery_epoch <- t.recovery_epoch + 1;
    t.last_interrupted <- interrupted;
    interrupted
  end

let recovery_epoch t = t.recovery_epoch
let recovery_interrupted t = t.last_interrupted

(** Recovery is complete; normal operation may resume.  Called by the
    recovery procedure ({!Mirror_core.Recovery.recover}) after it has
    restored all volatile replicas reachable from the persistent roots.
    Finalizes the recovery epoch back to even — the durable record that
    this recovery ran to completion. *)
let mark_recovered t =
  if t.recovery_epoch land 1 = 1 then
    t.recovery_epoch <- t.recovery_epoch + 1;
  t.in_recovery_session <- false;
  if t.down then Atomic.decr down_regions;
  t.down <- false

(** The recovery protocol every crash harness runs: {!begin_recovery}, then
    [f] under {!Hooks.with_recovery} between the [R_begin] and [R_done]
    recovery points, then {!mark_recovered}.  No finaliser re-opens the
    region: an exception from [f] or from a recovery-point hook leaves it
    down with an odd epoch, so the next attempt sees the interruption. *)
let recovery_session t f =
  let (_ : bool) = begin_recovery t in
  Hooks.with_recovery (fun () ->
      Hooks.recovery_point Hooks.R_begin;
      f ();
      Hooks.recovery_point Hooks.R_done);
  mark_recovered t
