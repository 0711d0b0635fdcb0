(** One (double-)word of simulated persistent memory, together with its
    cache-line state.

    A slot distinguishes the coherent view every processor sees (the
    current {!entry}) from what is guaranteed to survive a crash (the
    persisted one).  Each write installs one immutable {!entry} block —
    value, version, epoch tag — and a write-back persists that same block,
    so a Mirror variable ({!Mirror_core.Patomic}) uses the entry as its
    double-word cell: the version is the Mirror sequence number.  Writes
    dirty the line; {!flush} records a write-back that {!Region.fence}
    commits; a {!Region.crash} discards everything not committed (modulo
    the crash policy's eviction probability).  Every access is billed
    through {!Stats} (its counter and its {!Latency} cost) and yields to
    the deterministic scheduler. *)

type 'a entry = private { v : 'a; ver : int; mutable ep : int }
(** One write: the value, the slot's version after the write ([0] at
    birth, [+1] per write; it is also the seq announced on access events),
    and the epoch that produced it ([0] on strict slots).  Entries are
    immutable once installed; between two crashes a version names exactly
    one entry of its slot. *)

type 'a birth
(** A slot's first entry ([ver = 0]), built once by {!birth}: every slot
    made from it starts on that one immutable block, so fields born with
    one value can share it.  No write ever installs or mutates a birth
    ({!cas_entry} only takes a [desired] with [ver >= 1]). *)

val birth : 'a -> 'a birth

type 'a buffered_birth
(** A birth in the one-element media history of a buffered slot persisted
    at birth: every slot made from it ({!make_buffered_replica}) shares
    that one history until its first write-back replaces it. *)

val buffered_birth : 'a -> 'a buffered_birth

type 'a t

val make :
  ?persist:bool ->
  ?buffered:bool ->
  ?place:Region.place ->
  Region.t ->
  'a ->
  'a t
(** Fresh slot holding [v], owned by no Mirror pair ({!pair} is [-1]).
    [persist] (default [false]) marks the initial value as already
    durable — allocation-time persistence.  [place] carves the slot from
    the cache line of a place obtained via
    {!Region.place}/{!Region.place_near}: line-mates share write-backs and
    crash fate (ignored on buffered slots).  Without it the slot lives at
    the calling thread's {!Region.home_place}.  [buffered] (default
    [false]) puts the slot under the buffered discipline: writes tag the
    region's open epoch and {!persist_deferred} records into the epoch's
    deferred set; crash recovery rolls the slot back to the newest write
    from a committed epoch ([<= Region.durable_epoch]).  [make … v] is
    [make_born … (birth v)]. *)

val make_born :
  ?persist:bool ->
  ?buffered:bool ->
  ?place:Region.place ->
  Region.t ->
  'a birth ->
  'a t
(** {!make} from a birth that other slots may share. *)

val make_replica :
  paired:bool ->
  buffered:bool ->
  persist:bool ->
  ?place:Region.place ->
  Region.t ->
  'a birth ->
  'a t
(** A Mirror pair's persistent replica: as {!make_born}, and with
    [paired] the slot's uid also names the pair ({!pair}) for access-event
    attribution ([false]: a persistent field outside any pair, as the
    general transformations allocate).
    With [persist] the allocation-time copy is also billed through
    {!Stats} as one NVMM write + one flush — the allocator wrote and
    wrote back this line before handing it out; each slot pays its own
    copy, shared birth or not.  When
    the birth line is already in flight the birth write-back coalesces:
    it is billed as {!Stats.t.flush_coalesced} and rides the pending line
    flush. *)

val make_buffered_replica :
  paired:bool -> Region.t -> 'a buffered_birth -> 'a t
(** The persisted buffered replica: {!make_replica} [~buffered:true
    ~persist:true] is this over a birth of its own. *)

val load : 'a t -> 'a
(** Load from NVMM, paying the NVMM read cost. *)

val load_entry : 'a t -> 'a entry
(** {!load} returning the whole current entry (same charges, same event). *)

val store : 'a t -> 'a -> unit
(** Unconditional store (cache only until flushed). *)

val cas : 'a t -> expected:'a -> desired:'a -> bool
(** Pointer-equality compare-and-swap. *)

val cas_pred : 'a t -> expect:('a -> bool) -> desired:'a -> bool * 'a
(** CAS with caller-defined equality.  Returns
    [(success, witnessed_value)]. *)

val next_entry : 'a entry -> 'a -> 'a entry
(** [next_entry e v]: an unpublished entry holding [v] one version past
    [e] — the [desired] argument of {!cas_entry}. *)

val stale : 'a entry -> 'a entry
(** [stale e]: [e]'s value and epoch under a negative version
    ([lnot ver]), the mark a crash leaves on a volatile copy of [e]; an
    entry already stale is returned as is.  No slot ever holds one. *)

val cas_entry : 'a t -> expected:'a entry -> desired:'a entry -> 'a entry
(** Double-word CAS: install [desired] (built by {!next_entry} from
    [expected]) iff the current entry is [expected], and return the entry
    found — [expected] itself exactly when the install landed.  The epoch
    tag of [desired] is written by the install, right beside its CAS.
    Same charges and events as {!cas}.
    @raise Invalid_argument if [desired] is not [expected]'s successor. *)

val flush : 'a t -> unit
(** [clwb]: record a write-back of the line's current content; guaranteed
    durable only after the next {!Region.fence}, possibly earlier.  When the
    region's elision mode is on ({!Region.elision}) and the line is clean,
    this is a free no-op counted as {!Stats.t.flush_elided}.  On a slot
    carved from a shared cache line whose line is already in flight for
    the calling domain, the flush is absorbed by the pending write-back:
    billed as {!Stats.t.flush_coalesced}, no latency charge. *)

val persist_deferred : 'a t -> unit
(** Buffered persist: record the line's current content into the region's
    open epoch instead of flushing — free on the hot path; the epoch
    advance pays one batched flush per dirty slot and one fence for the
    whole epoch.  With elision on and a clean line even the record is
    skipped (counted as {!Stats.t.flush_elided}, exactly when strict
    {!flush} would elide).  May trigger a synchronous epoch advance when
    the record fills the epoch ({!Region.record_deferred}). *)

val is_dirty : 'a t -> bool
(** Whether the line holds data newer than the persisted state — the check
    behind Zuriel et al.'s redundant-persist elimination.  Free of charge. *)

val recover_store : 'a t -> 'a -> unit
(** Store + immediate durability, usable while the region is down — for
    recovery procedures that rewrite persistent state (e.g. redo-log
    replay).  Heals lost slots. *)

val persisted_entry : 'a t -> 'a entry option
(** The newest persisted entry ([None]: nothing ever persisted). *)

val persisted_value : 'a t -> 'a option
(** The newest media content ([None]: nothing ever persisted).  On a
    buffered slot this may sit in a not-yet-committed epoch; what a crash
    would actually restore is {!durable_value}. *)

val durable_value : 'a t -> 'a option
(** What the durable-epoch cut would restore right now: the newest
    persisted entry whose epoch is committed ([<= Region.durable_epoch]).
    Equals {!persisted_value} on strict slots. *)

val front : 'a t -> 'a entry list
(** A buffered slot's persisted media history, newest first
    (introspection): at most the newest committed entry plus the entries
    of uncommitted epochs.  [[]] on a strict or lost slot. *)

val peek : 'a t -> 'a
(** The coherent view without cost accounting — tests and recovery only. *)

val peek_entry : 'a t -> 'a entry
(** {!peek} returning the whole current entry. *)

val is_lost : 'a t -> bool
(** True after a crash hit this slot before anything was persisted; any
    subsequent access is a detected use-of-garbage bug, until
    {!recover_store} heals it. *)

val buffered : 'a t -> bool
(** Whether the slot is under the buffered discipline ([~buffered:true]
    at {!make}); unchanged by a crash that loses the slot. *)

val place : 'a t -> Region.place
(** Where the slot lives: the record it shares with its line-mates, or
    with the lineless slots its allocating thread made in its region. *)

val region : 'a t -> Region.t

val uid : 'a t -> int
(** Global location identity carried on this slot's access events. *)

val pair : 'a t -> int
(** The Mirror pair this slot is the persistent replica of, named by
    this slot's {!uid}; [-1] when the slot is not a pair's replica. *)

val line : 'a t -> Region.line option
(** The cache line this slot was carved from ([None] on slot-granular
    regions and buffered slots). *)

val announce : 'a t -> Hooks.access_op -> seq:int -> unit
(** Announce one access event on this slot: its uid, pair, region and
    line, with the acting domain and thread.  Call sites test
    [!Hooks.access_on] first, so the uninstrumented path pays one load. *)
