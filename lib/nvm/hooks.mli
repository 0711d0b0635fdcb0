(** Scheduling hook called between atomic steps of every simulated memory
    access and of the Mirror protocol.  A no-op in production; the
    deterministic scheduler installs a preemption point here. *)

val yield_ref : (unit -> unit) ref
val yield : unit -> unit

val with_yield : (unit -> unit) -> (unit -> 'a) -> 'a
(** Install a hook for the duration of the callback (exception-safe). *)

(** Persist-relevant instruction boundaries, announced by the substrate just
    {e before} each takes effect.  A no-op in production; the crash-point
    model checker installs a counter here to cut the execution exactly
    before the [i]-th event. *)
type persist_event =
  | Flush
  | Flush_elided
  | Fence
  | Fence_elided
  | Dwcas
  | Write
  | Epoch_bump
      (** the durable-epoch slot is about to advance (buffered mode) —
          crashing here exposes the window between an epoch advance's
          fence and its durable-epoch bump *)
  | Flush_coalesced
      (** a [clwb] absorbed by an in-flight cache line (line mode): the
          flush rides a line-mate's pending write-back *)

val event_name : persist_event -> string
val persist_ref : (persist_event -> unit) ref
val persist_point : persist_event -> unit

val with_persist : (persist_event -> unit) -> (unit -> 'a) -> 'a
(** Install a persist-point hook for the duration of the callback
    (exception-safe). *)

(** {1 Logical thread identity}

    A resolver for "which logical thread is performing the current
    access".  Defaults to the OS domain id; the deterministic scheduler
    installs a per-fiber resolver so instrumentation can attribute
    accesses to fibers. *)

val default_tid : unit -> int
val tid_ref : (unit -> int) ref
val tid : unit -> int
val with_tid : (unit -> int) -> (unit -> 'a) -> 'a

(** {1 Structured access events}

    The structured successor of {!persist_event}: every substrate access
    is announced {e after} its effect with location identity (slot,
    owning Mirror pair, region), acting thread/domain, and the value
    sequence number involved.  {!persist_point} keeps its original arity
    and before-the-effect timing for the crash-point model checker; this
    channel feeds the persistency sanitizer. *)

type access_op =
  | A_load
  | A_store
  | A_cas of bool
  | A_flush
  | A_flush_elided
  | A_flush_coalesced
      (** [clwb] absorbed by an in-flight cache line (line mode) *)
  | A_fence
  | A_fence_elided
  | A_load_repv
  | A_write_repv
  | A_make of bool
  | A_recovery_write
      (** privileged recovery write ({!Slot.recover_store}): store with
          immediate durability, only legal while the region is down *)
  | A_persist_deferred
      (** buffered mode: a persist was recorded into the current epoch's
          deferred set instead of flushing ([a_seq] = value seq deferred) *)
  | A_epoch_close
      (** buffered mode: the current epoch closed ([a_seq] = its number) *)
  | A_epoch_bump
      (** buffered mode: the durable epoch advanced ([a_seq] = new value) *)
  | A_rollback
      (** crash recovery pruned a buffered slot to its durable cut
          ([a_seq] = surviving version; [-1] when the slot is lost) *)

type access = {
  a_op : access_op;
  a_slot : int;  (** slot uid; [-1] for fences *)
  a_pair : int;
      (** owning Mirror pair, named by its persistent replica's slot uid;
          [-1] when the slot is not a pair's replica *)
  a_region : int;  (** region id *)
  a_domain : int;  (** OS domain of the access *)
  a_tid : int;  (** logical thread ({!tid}) of the access *)
  a_seq : int;  (** slot version / cell seq involved; [-1] n/a *)
  a_line : int;  (** cache-line uid of the slot; [-1] when lineless *)
  a_protocol : bool;  (** inside a sanctioned protocol section *)
}

val access_op_name : access_op -> string

val access_on : bool ref
(** Gate checked by every announcing call site: when false (production,
    benches), instrumentation costs one boolean load. *)

val access_ref : (access -> unit) ref
val access_point : access -> unit

val with_access : (access -> unit) -> (unit -> 'a) -> 'a
(** Install an access hook and flip {!access_on} for the duration of the
    callback (exception-safe, nestable). *)

(** {1 Protocol sections}

    The Mirror primitive brackets its protocol body so the sanitizer can
    distinguish sanctioned internal reads of the persistent replica from
    hot-path data reads.  Depth is tracked per logical thread and only
    while {!access_on}. *)

val protocol_enter : unit -> unit
val protocol_exit : unit -> unit
val in_protocol : unit -> bool

(** {1 Operation boundaries}

    Harnesses announce each logical operation's begin/complete (for the
    acting {!tid}); the sanitizer checks persist-before-depend obligations
    at every [Op_complete].  Free when instrumentation is off. *)

type op_mark = Op_begin | Op_complete

val op_ref : (op_mark -> unit) ref
val op_point : op_mark -> unit
val with_op : (op_mark -> unit) -> (unit -> 'a) -> 'a

(** {1 Recovery points}

    Recovery progress boundaries, announced {e before} each unit of
    recovery work — the recovery-side analogue of {!persist_point}.  A
    no-op in production; the model checker's [--crash-in-recovery] mode
    installs a counter here to kill recovery at an exact, replayable
    boundary.  [R_root]/[R_sweep] fire only on the sequential
    ([~domains:1]) recovery path; phase boundaries always fire. *)

type recovery_event =
  | R_begin  (** recovery is about to start *)
  | R_root  (** one persistent root's subgraph is about to be marked *)
  | R_trace  (** one variable/node is about to be restored (tracing) *)
  | R_mark_done  (** mark finished; sweep is about to start *)
  | R_sweep  (** one heap segment is about to be parsed *)
  | R_done  (** recovery work complete; region not yet re-opened *)

val recovery_event_name : recovery_event -> string
val recovery_ref : (recovery_event -> unit) ref
val recovery_point : recovery_event -> unit

val with_recovery_hook : (recovery_event -> unit) -> (unit -> 'a) -> 'a
(** Install a recovery-point hook for the duration of the callback
    (exception-safe). *)

val in_recovery : bool ref
(** True while a recovery procedure runs.  Recovery accesses are
    privileged ({!Slot.peek} reads, {!Slot.recover_store} writes); the
    persistency sanitizer skips events announced under this flag. *)

val with_recovery : (unit -> 'a) -> 'a
(** Run a recovery procedure under {!in_recovery} (exception-safe,
    nestable). *)
