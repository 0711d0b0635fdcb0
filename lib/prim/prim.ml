(** Atomic-field primitives: one signature, six persistence strategies.

    Every lock-free data structure in this repository is a functor over
    {!S}.  Instantiating it with a different primitive yields the exact
    algorithm variants the paper evaluates:

    - {!Volatile_dram} — the original, non-persistent structure in DRAM;
    - {!Volatile_nvmm} — the original structure running from NVMM (no
      flushes: not crash-consistent; the paper's "OriginalNVMM" lines);
    - {!Izraelevitz} — Izraelevitz et al.'s general transformation: flush +
      fence after every shared load, fence before / flush after every store;
    - {!Nvtraverse} — the NVTraverse transformation: loads in the traversal
      phase are free; loads and writes at the operation's destination are
      persisted (the data structures mark the phase by calling [load_t]
      vs [load]);
    - {!Mirror_dram} — the paper's contribution, volatile replica in DRAM;
    - {!Mirror_nvmm} — Mirror with both replicas at NVMM cost (§6.3).

    Value comparison in [cas] is physical equality — the same semantics as a
    hardware CAS on a word: store immediates (ints, constant constructors)
    or compare heap values by identity. *)

[@@@mlint.allow substrate "the strategies implement Prim.S on the substrate"]

open Mirror_nvm

module type S = sig
  val name : string
  val region : Region.t

  type 'a t

  type 'a birth
  (** A field's initial state, built once and shareable by every field
      born with the same value. *)

  val birth : 'a -> 'a birth

  val make : 'a -> 'a t
  (** Allocate a field of a freshly allocated object (persisted at
      allocation time where the strategy requires it).  [make v] is
      [make_born (birth v)]. *)

  val make_born : 'a birth -> 'a t
  (** {!make} from a shared birth: same charges and events per field. *)

  val make_near : 'b t -> 'a -> 'a t
  (** Like {!make}, but ask the allocator to carve the new field from the
      same cache line as [near]'s persistent state when there is room
      ({!Mirror_nvm.Region.place_near}), so the two share one write-back.
      Equal to {!make} for strategies without line placement and on
      slot-granular regions. *)

  val make_near_born : 'b t -> 'a birth -> 'a t
  (** {!make_near} from a shared birth. *)

  val load : 'a t -> 'a
  (** Load in the critical phase of an operation (at its destination). *)

  val load_t : 'a t -> 'a
  (** Load during the read-only traversal phase. *)

  val store : 'a t -> 'a -> unit
  val cas : 'a t -> expected:'a -> desired:'a -> bool
  val fetch_add : int t -> int -> int

  val persist : 'a t -> unit
  (** Make this field durable before a critical write ([NVTraverse]'s
      flush-the-destination step; the fence is batched with the write's).
      No-op for strategies that persist eagerly or keep a mirror. *)

  val recover : 'a t -> unit
  (** Restore volatile state from persistent state after a crash (no-op for
      strategies that keep no volatile replica). *)

  val load_recovery : 'a t -> 'a
  (** Read from the persistent space during recovery, before the region is
      re-opened. *)
end

type pack = (module S)

module type REGION = sig
  val region : Region.t
end

(* fetch_add on top of the instance's own load/cas. *)
module Faa (P : sig
  type 'a t

  val load : 'a t -> 'a
  val cas : 'a t -> expected:'a -> desired:'a -> bool
end) =
struct
  let rec fetch_add (t : int P.t) d =
    let cur = P.load t in
    if P.cas t ~expected:cur ~desired:(cur + d) then cur
    else fetch_add t d
end

(* -- Original (non-persistent), DRAM ------------------------------------- *)

module Volatile_dram (R : REGION) : S = struct
  let name = "orig-dram"
  let region = R.region

  type 'a t = 'a Atomic.t
  type 'a birth = 'a

  let birth v = v
  let make_born b = Atomic.make b
  let make v = make_born (birth v)
  let make_near_born _ b = make_born b
  let make_near near v = make_near_born near (birth v)

  let load t =
    Hooks.yield ();
    Stats.bill_dram_read ();
    Atomic.get t

  let load_t = load

  let store t v =
    Hooks.yield ();
    Stats.bill_dram_write ();
    Atomic.set t v

  let cas t ~expected ~desired =
    Hooks.yield ();
    Stats.bill_dram_cas ();
    Atomic.compare_and_set t expected desired

  include Faa (struct
    type nonrec 'a t = 'a t

    let load = load
    let cas = cas
  end)

  let persist _ = ()
  let recover _ = ()
  let load_recovery t = Atomic.get t
end

(* -- Original (non-persistent), NVMM ------------------------------------- *)

module Volatile_nvmm (R : REGION) : S = struct
  let name = "orig-nvmm"
  let region = R.region

  type 'a t = 'a Slot.t

  (* The prefilled structure starts persisted, but runtime writes are never
     flushed: this variant is *not* crash-consistent (it is the paper's
     non-durable baseline running from NVMM, and our negative control). *)
  type 'a birth = 'a Slot.birth

  let birth = Slot.birth
  let make_born b = Slot.make_born ~persist:true region b
  let make v = make_born (birth v)
  let make_near_born _ b = make_born b
  let make_near near v = make_near_born near (birth v)
  let load t = Slot.load t
  let load_t = load
  let store t v = Slot.store t v
  let cas t ~expected ~desired = Slot.cas t ~expected ~desired

  include Faa (struct
    type nonrec 'a t = 'a t

    let load = load
    let cas = cas
  end)

  let persist _ = ()
  let recover _ = ()
  let load_recovery t = Slot.peek t
end

(* -- Izraelevitz et al. and NVTraverse ------------------------------------ *)

(* The two general transformations persist every access alike except the
   traversal load and the destination persist: this base treats every load
   as critical (Izraelevitz et al.), NVTraverse overrides the two. *)
module Transformed (C : sig
  include REGION

  val name : string
end) : S with type 'a t = 'a Slot.t = struct
  let name = C.name
  let region = C.region

  type 'a t = 'a Slot.t
  type 'a birth = 'a Slot.birth

  let birth = Slot.birth

  (* the allocation-time copy-to-NVMM + clwb of the field is billed by
     the substrate, as for a Mirror variable's persistent replica, so all
     persistent strategies are costed alike *)
  let make_born b =
    Slot.make_replica ~paired:false ~buffered:false ~persist:true region b

  let make v = make_born (birth v)
  let make_near_born _ b = make_born b
  let make_near near v = make_near_born near (birth v)

  (* critical read: load; flush; fence — persisted before the operation's
     result may be exposed *)
  let load t =
    let v = Slot.load t in
    Slot.flush t;
    Region.fence region;
    v

  let load_t = load

  (* write: fence; store; flush; fence — the trailing fence makes the write
     durable before the operation can respond (without it a completed
     update could be lost, violating durable linearizability; our crash
     tests catch exactly that) *)
  let store t v =
    Region.fence region;
    Slot.store t v;
    Slot.flush t;
    Region.fence region

  let cas t ~expected ~desired =
    Region.fence region;
    let ok = Slot.cas t ~expected ~desired in
    Slot.flush t;
    Region.fence region;
    ok

  include Faa (struct
    type nonrec 'a t = 'a t

    let load = load
    let cas = cas
  end)

  let persist _ = ()
  let recover _ = ()
  let load_recovery t = Slot.peek t
end

module Izraelevitz (R : REGION) : S = Transformed (struct
  include R

  let name = "izraelevitz"
end)

module Nvtraverse (R : REGION) : S = struct
  include Transformed (struct
    include R

    let name = "nvtraverse"
  end)

  (* traversal loads are free — the transformation's whole point *)
  let load_t t = Slot.load t

  (* flush-the-destination: the fence comes from the critical write *)
  let persist t = Slot.flush t
end

(* -- Mirror ---------------------------------------------------------------- *)

(* The operations every Mirror strategy shares: only allocation differs. *)
module Mirror_ops = struct
  type 'a t = 'a Mirror_core.Patomic.t

  let load t = Mirror_core.Patomic.load t
  let load_t = load
  let store t v = Mirror_core.Patomic.store t v
  let cas t ~expected ~desired = Mirror_core.Patomic.cas t ~expected ~desired
  let fetch_add t d = Mirror_core.Patomic.fetch_add t d
  let persist _ = ()
  let recover t = Mirror_core.Patomic.recover t
  let load_recovery t = Mirror_core.Patomic.load_recovery t
end

module Make_mirror (C : sig
  include REGION

  val placement : Mirror_core.Patomic.placement
  val name : string
end) : S = struct
  include Mirror_ops

  let name = C.name
  let region = C.region

  type 'a birth = 'a Slot.birth

  let birth = Slot.birth

  let make_born b =
    Mirror_core.Patomic.make_born ~placement:C.placement ~persist:true region b

  let make v = make_born (birth v)

  (* co-locate the new field with [near]'s persistent replica: on
     line-granular regions the fields then share one write-back, turning a
     multi-field insert's N flushes into 1 (docs/MODEL.md, "Line
     granularity") *)
  let make_near_born near b =
    Mirror_core.Patomic.make_born ~placement:C.placement ~persist:true
      ?line:(Region.place_near region (Mirror_core.Patomic.line near))
      region b

  let make_near near v = make_near_born near (birth v)
end

module Mirror_dram (R : REGION) : S = Make_mirror (struct
  let region = R.region
  let placement = Mirror_core.Patomic.Dram
  let name = "mirror"
end)

module Mirror_nvmm (R : REGION) : S = Make_mirror (struct
  let region = R.region
  let placement = Mirror_core.Patomic.Nvmm
  let name = "mirror-nvmm"
end)

(* Buffered variables persist through the epoch clock and take no line,
   and a birth carries its one-element media history: fields born alike
   share it until their first write-back. *)
module Mirror_buffered (R : REGION) : S = struct
  include Mirror_ops

  let name = "buffered"
  let region = R.region

  type 'a birth = 'a Slot.buffered_birth

  let birth = Slot.buffered_birth
  let make_born b = Mirror_core.Patomic.make_buffered_born region b
  let make v = make_born (birth v)
  let make_near_born _ b = make_born b
  let make_near near v = make_near_born near (birth v)
end

(** All seven strategies over a region, for harness enumeration. *)
let all_for (region : Region.t) : pack list =
  let module R = struct
    let region = region
  end in
  [
    (module Volatile_dram (R) : S);
    (module Volatile_nvmm (R) : S);
    (module Izraelevitz (R) : S);
    (module Nvtraverse (R) : S);
    (module Mirror_dram (R) : S);
    (module Mirror_nvmm (R) : S);
    (module Mirror_buffered (R) : S);
  ]

(* Kept in sync with [all_for] by the test suite; static so CLIs can print
   the valid set without instantiating a region. *)
let all_names =
  [ "orig-dram"; "orig-nvmm"; "izraelevitz"; "nvtraverse"; "mirror";
    "mirror-nvmm"; "buffered" ]

let by_name (region : Region.t) (name : string) : pack =
  match
    List.find_opt (fun (module P : S) -> P.name = name) (all_for region)
  with
  | Some p -> p
  | None -> invalid_arg ("Prim.by_name: unknown strategy " ^ name)
