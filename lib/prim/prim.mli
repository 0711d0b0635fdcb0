(** Atomic-field primitives: one signature, seven persistence strategies.

    Every lock-free data structure in this repository is a functor over
    {!S}; instantiating it with a different primitive yields the exact
    algorithm variants the paper evaluates — the original volatile
    structure (on DRAM or at NVMM cost), the Izraelevitz et al. and
    NVTraverse general transformations, Mirror with either placement of
    its volatile replica, and Mirror under the buffered (epoch-batched)
    persistence discipline.

    [cas] compares values by physical equality — the semantics of a
    hardware CAS on a word: store immediates or compare heap values by
    identity.  A structure whose field can hold the same value twice must
    make that return harmless (docs/PROTOCOL.md, "ABA in the structures
    above"). *)

module type S = sig
  val name : string
  val region : Mirror_nvm.Region.t

  type 'a t

  type 'a birth
  (** A field's initial state, built once by {!birth}: every field made
      from it starts on it, so fields born with one value (a hash table's
      empty bucket heads, a list's [Nil]-born tail fields) share one
      immutable cell ({!Mirror_nvm.Slot.birth}; the value itself for
      {!Volatile_dram}). *)

  val birth : 'a -> 'a birth

  val make : 'a -> 'a t
  (** Allocate a field of a freshly allocated object (persisted at
      allocation time where the strategy requires it).  [make v] is
      [make_born (birth v)]. *)

  val make_born : 'a birth -> 'a t
  (** {!make} from a birth other fields may share.  Charges and events
      are per field, as for {!make}: sharing saves heap words only. *)

  val make_near : 'b t -> 'a -> 'a t
  (** Like {!make}, but carve the new field from the same cache line as
      [near]'s persistent state when there is room
      ({!Mirror_nvm.Region.place_near}), so the two share one write-back.
      Equal to {!make} for strategies without line placement and on
      slot-granular regions. *)

  val make_near_born : 'b t -> 'a birth -> 'a t
  (** {!make_near} from a shared birth. *)

  val load : 'a t -> 'a
  (** Load in the critical phase of an operation (at its destination). *)

  val load_t : 'a t -> 'a
  (** Load during the read-only traversal phase (free under NVTraverse). *)

  val store : 'a t -> 'a -> unit
  val cas : 'a t -> expected:'a -> desired:'a -> bool
  val fetch_add : int t -> int -> int

  val persist : 'a t -> unit
  (** Make this field durable before a critical write (NVTraverse's
      flush-the-destination; no-op for the other strategies). *)

  val recover : 'a t -> unit
  (** Restore volatile state from persistent state after a crash. *)

  val load_recovery : 'a t -> 'a
  (** Read from the persistent space during recovery. *)
end

type pack = (module S)

module type REGION = sig
  val region : Mirror_nvm.Region.t
end

module Volatile_dram (_ : REGION) : S
(** The original, non-persistent structure in DRAM ("OriginalDRAM"). *)

module Volatile_nvmm (_ : REGION) : S
(** The original structure running from NVMM without flushes — not
    crash-consistent; the paper's "OriginalNVMM" line and this repo's
    negative control. *)

module Izraelevitz (_ : REGION) : S
(** Izraelevitz et al.'s transformation: flush + fence after every shared
    load; fence before / flush + fence after every store. *)

module Nvtraverse (_ : REGION) : S
(** The NVTraverse transformation: traversal loads are free; destination
    loads and writes are persisted. *)

module Mirror_dram (_ : REGION) : S
(** The paper's contribution, volatile replica in DRAM (§6.2). *)

module Mirror_nvmm (_ : REGION) : S
(** Mirror with both replicas at NVMM cost (§6.3). *)

module Mirror_buffered (_ : REGION) : S
(** Mirror under buffered durable linearizability: persists are recorded
    into the region's epoch clock instead of flushing on the hot path; the
    epoch advancer batches one fence per epoch, and recovery restores the
    last committed epoch.  Epoch length is fixed when the region is made
    ([~epoch_len] of {!Mirror_nvm.Region.create}); at the default length 1
    the charged costs equal strict Mirror's exactly. *)

val all_for : Mirror_nvm.Region.t -> pack list
(** All seven strategies over one region, for harness enumeration. *)

val all_names : string list
(** The strategy names accepted by {!by_name}, in {!all_for} order —
    static, so CLIs can print the valid set without a region. *)

val by_name : Mirror_nvm.Region.t -> string -> pack
(** Strategy by name ("orig-dram", "orig-nvmm", "izraelevitz",
    "nvtraverse", "mirror", "mirror-nvmm", "buffered").
    @raise Invalid_argument on unknown names. *)
