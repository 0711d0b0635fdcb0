(** A simulated persistent-memory region with a crash controller — the
    mmapped NVMM file of the paper (§4.2).

    Slots register themselves here; volatile state (DRAM replicas) registers
    invalidation closures.  {!crash} implements a full-system power failure;
    {!fence} commits the calling domain's pending write-backs;
    [runtime_evict_prob] simulates spontaneous cache eviction (an algorithm
    must tolerate *more* than it flushed becoming durable).

    Each domain that touches a region gets one record of its persistence
    state there — pending write-backs, in-flight lines, deferred persists —
    which lives and dies with the region.  When elision mode is on
    ([elide]), a {!fence} whose domain has nothing pending and a
    {!Slot.flush} of a clean line are free no-ops, counted in
    {!Stats.t.fence_elided} / {!Stats.t.flush_elided} — the redundant-persist
    elimination of Zuriel et al. / Cai et al.  See docs/MODEL.md. *)

type crash_policy =
  | Adversarial
      (** only writes covered by a completed flush + fence survive *)
  | Eviction of float
      (** each un-fenced write independently survives with probability [p] *)

type t

type line
(** A simulated cache line (exists only when [slots_per_line > 1]): slots
    carved from the same line share their write-back — a flush of a line
    already in flight is absorbed ([flush_coalesced]) — and their crash
    fate (one survival draw for all members). *)

type place = private {
  region : t;
  home : int;
      (** the home domain of the memory: the logical thread ({!Hooks.tid})
          that carved the line, or that allocated the slot when lineless.
          Accesses from other threads pay the NUMA remote-line surcharge
          when {!Latency.numa_remote_ns} is non-zero. *)
  line : line option;
}
(** Where a slot lives, shared by every slot that lives there: one place
    per carved line, and one per (region, home) for lineless slots
    ({!home_place}).  Places hang off their region and die with it; making
    one draws no slot or line uid. *)

val create :
  ?track_slots:bool ->
  ?runtime_evict_prob:float ->
  ?seed:int ->
  ?elide:bool ->
  ?epoch_len:int ->
  ?slots_per_line:int ->
  unit ->
  t
(** [track_slots] (default [true]): register slots for crash processing.
    Benchmarks disable it — they never crash and must not retain every node
    ever allocated.  [elide] (default [false]): enable flush/fence elision;
    off preserves the exact charged costs of the paper's transformations.
    [epoch_len] (default [1]): deferred persists per buffered epoch; at [1]
    every buffered persist advances immediately, reproducing strict Mirror
    persist counts exactly.  [slots_per_line] (default [1]): slots carved
    per simulated cache line; at the default the region is slot-granular
    and behaves bit-identically to the historical model.
    @raise Invalid_argument when [epoch_len < 1] or [slots_per_line < 1]. *)

val is_down : t -> bool
(** True between a {!crash} and {!mark_recovered}. *)

val id : t -> int
(** Region identity carried on access events. *)

val crash_count : t -> int

val elision : t -> bool
(** Whether elision mode is on. *)

val any_down : unit -> bool
(** Whether any region of the process is down: a count {!crash} and
    {!mark_recovered} keep.  Access paths test it before {!check_up}, so
    while every region is up they never read their own region. *)

val check_up : t -> unit
(** @raise Invalid_argument when the region is down (access before
    recovery). *)

val register_slot : t -> ('a -> persist_first:bool -> unit) -> 'a -> unit
(** [register_slot t reset x]: apply [reset x] at every {!crash} — persist
    the slot's current content first when the crash policy says so, then
    reset its cache view to the persisted state.  Nothing is registered,
    and no closure is built, unless the region tracks slots. *)

val register_volatile : t -> ('a -> unit) -> 'a -> unit
(** [register_volatile t invalidate x]: apply [invalidate x] at every
    {!crash}; gated on [track_slots] like {!register_slot}. *)

val add_pending : t -> (unit -> unit) -> unit
(** Record a write-back thunk in the calling domain's pending set (used by
    {!Slot.flush}). *)

(** {1 Cache lines}

    The line map (line granularity, see docs/MODEL.md): when the region is
    created with [slots_per_line > 1], the allocator can carve several
    slots from one simulated cache line.  Line-mates share dirty/clean
    state for write-back purposes — flushing a line that a previous,
    un-fenced flush already put in flight is free — and share one crash
    fate.  At the default [slots_per_line = 1] no lines exist and every
    function below degenerates ([place] returns [None]). *)

val slots_per_line : t -> int

val home_place : t -> place
(** The lineless place of the calling logical thread in this region: made
    on the thread's first call, then found with one unlocked array read
    and no allocation. *)

val place : t -> place option
(** Carve a fresh line and claim its first slot: the line's place, homed
    at the calling thread ([None] when the region is slot-granular). *)

val place_near : t -> place -> place option
(** Claim a slot on [near]'s line if it has room, else carve a fresh
    line — the co-location primitive: an object's fields placed near each
    other share one write-back.  A lineless [near] carves fresh. *)

val line_uid : line -> int

val line_add_member :
  t ->
  line ->
  persist:(unit -> unit) ->
  reset:('a -> persist_first:bool -> unit) ->
  'a ->
  unit
(** [line_add_member t l ~persist ~reset x] registers a member slot:
    [persist] write-backs its current content when the line's pending
    flush drains (or the line is evicted); [reset x] is its crash reset,
    applied line-atomically with one shared survival draw.  Reset
    registration is gated on [track_slots], like {!register_slot}. *)

val line_persist_members : line -> unit
(** Write back every member's current content (runtime eviction of the
    whole line). *)

val line_in_flight : t -> line -> bool
(** Is the line in flight for the calling domain (flushed, not yet
    fenced)? *)

val mark_line_flushed : t -> line -> unit
(** Mark the line flushed by the calling domain.  The first mark records
    one pending write-back covering the whole line; later marks before the
    fence are the coalescing no-op.  {!fence} and {!crash} clear the
    in-flight marks. *)

val flush_line : place -> line -> bool
(** [flush_line p l], [l] being [p]'s line: a charged [clwb] of the line
    by the calling domain, {!Slot.flush}'s line branch.  When the line is
    already in flight it is absorbed: the [Flush_coalesced] persist point,
    one {!Stats.t.flush_coalesced}, and [true].  Otherwise the [Flush]
    persist point, the flush billed at [p]'s home, then the mark of
    {!mark_line_flushed}, and [false]. *)

val fence : t -> unit
(** [sfence]: commit the calling domain's pending write-backs.  Charges the
    fence cost — unless elision is on and nothing is pending, in which case
    it is a free no-op counted as [fence_elided]. *)

val pending_count : t -> int
(** Total pending write-backs across all domains (introspection). *)

val evicting : t -> bool
(** Whether the region simulates runtime eviction at all: callers test it
    before building the persist action for {!maybe_evict}. *)

val maybe_evict : t -> (unit -> unit) -> unit
(** Run the persist action with the region's runtime eviction probability. *)

(** {1 Buffered persistence (the epoch clock)}

    The third discipline (after the strict transformations and elision):
    buffered slots record their persists into the open epoch's per-domain
    deferred set instead of flushing, and a nonblocking advancer commits
    whole epochs at once — flush the newest snapshot per dirty slot, one
    fence, then bump the persistent durable-epoch slot.  Recovery keeps
    exactly the writes tagged [<= durable_epoch]: a consistent cut at an
    epoch boundary, trading strict durability for bounded staleness.  See
    docs/MODEL.md, "Buffered persistence semantics". *)

val cur_epoch : t -> int
(** The open epoch (buffered writes tag with it).  Starts at [1]. *)

val durable_epoch : t -> int
(** The persistent durable-epoch slot: everything tagged [<= durable_epoch]
    survives any crash.  Starts at [0]; survives crashes. *)

val epoch_len : t -> int
(** Deferred persists per epoch, fixed at {!create}. *)

val deferred_count : t -> int
(** Deferred records not yet committed, across all domains
    (introspection). *)

val record_deferred :
  t -> uid:int -> ver:int -> flush:(unit -> unit) -> unit
(** Record one deferred persist ([flush] must persist a snapshot captured
    at record time); triggers a synchronous epoch advance once the open
    epoch holds [epoch_len] records.  Used by {!Slot.persist_deferred}. *)

val help_advance : t -> unit
(** Close the open epoch and commit everything up to it — flush, one
    fence, durable-epoch bump.  Nonblocking: if another advance is in
    flight this returns immediately (the straggler epoch is drained by the
    next advance). *)

val quiesce : t -> unit
(** Drive advances until nothing deferred is outstanding and the durable
    epoch has caught up.  A no-op on regions that never deferred anything,
    so strict cost models are unaffected. *)

val crash : ?policy:crash_policy -> t -> unit
(** Simulate a full-system crash.  Callers must quiesce other domains first
    (the deterministic scheduler can crash mid-operation safely). *)

val begin_recovery : t -> bool
(** Open a recovery session on a crashed region and return whether the
    {e previous} recovery was interrupted mid-way (detected through the
    persistent recovery epoch: odd = a recovery started but never
    finished).  The first call after a {!crash} flips the epoch to odd
    with recovery-write (immediately durable) semantics; further calls in
    the same session return the same verdict, so the several tracers of
    one recovery share one epoch transition.  On a region that is up this
    is a pure GC pass: the epoch is untouched and the result is [false]. *)

val recovery_epoch : t -> int
(** The persistent epoch counter.  Even = consistent; odd = a recovery is
    (or was, if a crash intervened) in progress. *)

val recovery_interrupted : t -> bool
(** The verdict of the current/most recent session's first
    {!begin_recovery}. *)

val mark_recovered : t -> unit
(** Recovery complete; normal operation may resume.  Finalizes the
    recovery epoch back to even. *)

val recovery_session : t -> (unit -> unit) -> unit
(** One recovery, as every crash harness runs it: {!begin_recovery}, then
    [f] under {!Hooks.with_recovery} between the [R_begin] and [R_done]
    {!Hooks.recovery_point}s, then {!mark_recovered}.  If [f] (or a
    recovery-point hook) raises, the exception propagates and the region
    stays down with its epoch odd — a killed recovery is never marked
    complete. *)
