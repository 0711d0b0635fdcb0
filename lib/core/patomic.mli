(** [Patomic]: the Mirror primitive (paper §3–§4, Figures 2, 4, 5).

    A persistent atomic variable with two replicas: [repp] in (simulated)
    NVMM — the only one flushed — and [repv] — the only one read — placed
    either in DRAM or at NVMM cost.  Each holds the value with a
    monotonically increasing sequence number, updated by double-word CAS;
    writes go persistent-first (flush + fence) and are then mirrored, by
    the writer or by a helper, so everything a reader can observe is
    already durable.  Any linearizable lock-free structure written against
    this interface is durably linearizable (Theorem 5.1). *)

type placement =
  | Dram  (** volatile replica in DRAM — the §6.2 configuration *)
  | Nvmm  (** volatile replica at NVMM cost — the §6.3 configuration *)

type discipline =
  | Strict  (** flush + fence on every successful CE (the paper's protocol) *)
  | Buffered
      (** epoch-batched persistence: persists are recorded into the
          region's open epoch, completion does not fence, recovery rolls
          back to the last committed epoch.  See docs/MODEL.md, "Buffered
          persistence semantics". *)

type 'a t

val make :
  ?placement:placement ->
  ?discipline:discipline ->
  ?persist:bool ->
  ?line:Mirror_nvm.Region.line ->
  Mirror_nvm.Region.t ->
  'a ->
  'a t
(** Allocate both replicas.  [persist] (default [true]) models the
    allocator's copy-to-NVMM + write-back (§4.3.2); allocation-time
    persists stay strict even under [Buffered] (off-path, exactly like the
    sharded allocator's metadata persists).  [discipline] defaults to
    {!Strict}.  [line] carves the persistent replica from a specific cache
    line ({!Mirror_nvm.Region.place_near}) so an object's fields share
    write-backs; by default a strict variable claims a fresh line.  On
    slot-granular regions ([slots_per_line = 1]) and under [Buffered] the
    parameter is ignored.  [make … v] is [make_born … (Slot.birth v)]. *)

val make_born :
  ?placement:placement ->
  ?discipline:discipline ->
  ?persist:bool ->
  ?line:Mirror_nvm.Region.line ->
  Mirror_nvm.Region.t ->
  'a Mirror_nvm.Slot.birth ->
  'a t
(** {!make} from a birth ({!Mirror_nvm.Slot.birth}) that other variables
    may share: both replicas start on that one entry, so a variable costs
    12 words instead of 16.  Billing and events are {!make}'s: the
    variable still pays its own allocation-time write + flush and
    announces its own [A_make] at seq 0. *)

val make_buffered_born :
  Mirror_nvm.Region.t -> 'a Mirror_nvm.Slot.buffered_birth -> 'a t
(** {!make_born} [~discipline:Buffered] from a buffered birth: [repp]
    also shares the birth's media history until its first write-back. *)

val load : 'a t -> 'a
(** Wait-free read of the volatile replica (Figure 5).
    @raise Invalid_argument while the variable's region is down, or when
    a crash invalidated the variable and recovery did not reach it; so
    does every write. *)

val compare_exchange : 'a t -> expected:'a -> desired:'a -> bool * 'a
(** Figure 4.  Value comparison is physical equality (a hardware word
    compare).  Returns [(success, witness)]. *)

val cas : 'a t -> expected:'a -> desired:'a -> bool

val store : 'a t -> 'a -> unit
(** CAS loop (§4.1.2); retries reuse the witness of the failed
    [compare_exchange] — one charged read of the volatile replica total. *)

val fetch_add : int t -> int -> int
(** CAS loop returning the previous value; witness-driven like {!store}. *)

val recover : 'a t -> unit
(** Restore the volatile replica from the persistent one: install the
    persisted entry, which clears the stale mark a crash left (a replica
    that already holds that entry is not written); called by the
    structure's tracing routine while the region is down. *)

val load_recovery : 'a t -> 'a
(** Read from persistent space during recovery. *)

(** {1 Introspection (tests, invariant checking)} *)

val discipline : 'a t -> discipline

val line : 'a t -> Mirror_nvm.Region.line option
(** The cache line the persistent replica was carved from ([None] on
    slot-granular regions and buffered variables) — pass to {!make} via
    {!Mirror_nvm.Region.place_near} to co-locate a new field with this
    one. *)

val entry_v : 'a t -> 'a Mirror_nvm.Slot.entry
(** The volatile replica's cell; after a crash and until {!recover}, its
    stale copy ({!Mirror_nvm.Slot.stale}: negative [ver]). *)

val entry_p : 'a t -> 'a Mirror_nvm.Slot.entry
(** The persistent replica's current entry. *)

val seq_v : 'a t -> int
val seq_p : 'a t -> int
val persisted_seq : 'a t -> int option
val persisted_value : 'a t -> 'a option
val peek_v : 'a t -> 'a
val peek_p : 'a t -> 'a

val durability_invariant_ok : 'a t -> bool
(** [seq repv <= persisted seq]; sound to sample concurrently.  A
    [~persist:false] variable that was never written has nothing durable
    yet — reported as [true] (not applicable), not a violation. *)

val lemma54_ok : 'a t -> bool
(** Lemma 5.4: [seq repv <= seq repp <= seq repv + 1] (quiesced). *)
