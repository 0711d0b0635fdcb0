(** Per-domain event counters: NVMM reads/writes, flushes, fences, helping,
    retries, allocations.  These exact counts drive the paper's figures.
    Each domain owns a private record (no hot-path contention); the harness
    sums over a global registry.

    [flush_elided]/[fence_elided] count persisting instructions skipped by
    the elision layer (redundant-persist elimination, see docs/MODEL.md);
    they carry no latency charge. *)

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
  mutable flush_elided : int;
  mutable fence_elided : int;
  mutable flush_coalesced : int;
      (** flushes absorbed by an in-flight cache line (line mode) *)
  mutable help : int;
  mutable cas_retry : int;
  mutable alloc : int;
  mutable reclaim : int;
  mutable alloc_carve : int;  (** chunks carved off the global bump pointer *)
  mutable alloc_remote_free : int;  (** frees routed to another arena *)
  mutable alloc_remote_drain : int;  (** non-empty remote-free-list drains *)
  mutable rec_marked : int;
  mutable rec_swept : int;
  mutable rec_steals : int;
  mutable rec_mark_ns : int;
  mutable rec_sweep_ns : int;
  mutable epoch_advance : int;  (** epoch advances committed (buffered) *)
  mutable fence_batched : int;  (** fences issued by epoch advances *)
  mutable writes_deferred : int;  (** persists recorded into an epoch set *)
}

val zero : unit -> t
val add : into:t -> t -> unit
val clear : t -> unit

val get : unit -> t
(** The calling domain's counter record. *)

(** {2 Billing}

    The only place an access is billed.  Each [bill_*] bumps its own
    counter and injects that access's configured {!Latency} cost (an
    NVMM CAS costs a write; DRAM writes and CASes cost nothing).  An NVMM
    access names the [home] domain of its memory: when the
    {!Latency.numa_remote_ns} surcharge is on and [home] is not the
    accessing {!Hooks.tid}, it also bumps [nvm_remote] and injects the
    surcharge.  With injection off and the surcharge at 0 (the default),
    a bill moves exactly its own counter. *)

val local : int
(** The [home] of memory never billed the NUMA surcharge. *)

val bill_dram_read : unit -> unit
val bill_dram_write : unit -> unit
val bill_dram_cas : unit -> unit
val bill_nvm_read : home:int -> unit
val bill_nvm_write : home:int -> unit
val bill_nvm_cas : home:int -> unit
val bill_flush : home:int -> unit
val bill_fence : unit -> unit

val count_alloc : unit -> unit
(** Record one object allocation ([alloc]). *)

val total : unit -> t
(** Sum over all domains since the last {!reset_all}. *)

val reset_all : unit -> unit

val registry_size : unit -> int
(** Number of live (registered, not yet retired) per-domain records.
    Records of exited domains are folded into an internal accumulator and
    recycled, so this is bounded by the maximum number of concurrently
    live domains — not by how many domains were ever spawned. *)

val pp : Format.formatter -> t -> unit
