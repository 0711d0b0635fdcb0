(** [Patomic]: the Mirror primitive (paper §3–§4, Figures 2, 4, 5).

    A persistent atomic variable keeps two replicas:

    - [repp], the persistent replica, a {!Mirror_nvm.Slot} in the simulated
      NVMM — the only replica that is ever flushed;
    - [repv], the volatile replica — the only replica that is ever read.

    Each replica holds a cell: the value together with a monotonically
    increasing sequence number, updated atomically by a double-word CAS.
    The cell is the persistent replica's {!Mirror_nvm.Slot.entry}: its
    [ver] is the sequence number, and one immutable block per write is
    shared by [repp]'s current and persisted state and by [repv].  In this
    port DWCAS is an atomic word over that block — the same atomicity as
    the hardware instruction (both words change together; a failed CAS
    reports the witnessed value).  Between two crashes a slot's version
    names exactly one entry, so comparing (value, seq) is comparing the
    blocks physically.  The atomic word is field 0 of the variable's own
    record ({!repv_atomic}), so a read is one dependent load fewer than
    through a separate [Atomic.t] box.

    The variable is a block of two fields, [repv] and [repp] (3 words with
    its header); every other fact of it lives where it is stored anyway.
    The placement is the block's constructor tag; the region, the pair id
    (the persistent replica's slot uid) and the discipline are read from
    [repp]'s slot; and "not recovered since the last crash" is a
    negative version on the [repv] entry ({!Mirror_nvm.Slot.stale}).  A
    strict variable is 14 words in all: this block, the slot (5), its
    media block (2) and the shared entry (4); the slot's region, home and
    cache line are a place it shares with its neighbours.  Variables born
    with one value may start on one {!Mirror_nvm.Slot.birth}
    ({!make_born}): each is then 10 words plus its share of the birth's
    4.

    Invariants maintained (proved as Lemmas 5.3–5.5 in the paper, checked by
    the test suite under deterministic interleavings):

    - [seq repv <= seq repp <= seq repv + 1];
    - matching sequence numbers imply matching values;
    - [repv] is only advanced to a cell that has already been flushed and
      fenced into the persistent media — hence anything a reader observes is
      durable. *)

open Mirror_nvm

type placement =
  | Dram  (** volatile replica in DRAM: fast reads (the §6.2 configuration) *)
  | Nvmm  (** volatile replica also in NVMM (the §6.3 configuration) *)

type discipline =
  | Strict
      (** the paper's protocol: every successful CE pays flush + fence
          before completing — strict durable linearizability *)
  | Buffered
      (** epoch-batched persistence: [persist_repp] records the write into
          the region's open epoch and completion does not fence; the epoch
          advancer pays one batched flush per dirty line and one fence per
          epoch.  Recovery rolls back to the last committed epoch —
          buffered durable linearizability (bounded staleness). *)

(* The constructor is the placement of the volatile replica. *)
type 'a t =
  | Dram of {
      mutable repv : 'a Slot.entry;
          (** the volatile replica.  Must stay field 0 and must only be
              accessed through {!repv_atomic}.  A crash on a tracked
              region replaces it with a stale copy (negative [ver]);
              recovery installs the persisted entry. *)
      repp : 'a Slot.t;
    }
  | Nvmm of { mutable repv : 'a Slot.entry; repp : 'a Slot.t }

(* OCaml 5.1's [Atomic] primitives act on field 0 of the block they are
   given, so viewing the variable as an [Atomic.t] makes [repv] an atomic
   field in place — the 5.1 spelling of a 5.4 [[@atomic]] record field. *)
external repv_atomic : 'a t -> 'a Slot.entry Atomic.t = "%identity"
[@@mlint.allow L7 "repv is field 0 of both constructors' mutable records"]

let repp = function Dram r -> r.repp | Nvmm r -> r.repp

(* A crash: the volatile replica is gone.  Its stale copy keeps the
   value for introspection and refuses every access until {!recover}. *)
let invalidate t =
  Atomic.set (repv_atomic t) (Slot.stale (Atomic.get (repv_atomic t)))

(* The variable over its freshly made persistent replica. *)
let of_repp (placement : placement) region repp =
  let repv = Slot.peek_entry repp in
  let t =
    match placement with
    | Dram -> Dram { repv; repp }
    | Nvmm -> Nvmm { repv; repp }
  in
  Region.register_volatile region invalidate t;
  t

let make_born ?(placement = (Dram : placement)) ?(discipline = Strict)
    ?(persist = true) ?place region b =
  (* cache-line placement (line granularity, docs/MODEL.md): strict repp
     slots are carved from a line — the caller's ([make_near]'s) if given,
     else a fresh one — so an object's fields can share write-backs.
     Buffered variables persist through the epoch clock and take no line.
     On slot-granular regions [place] returns [None] and nothing changes. *)
  let place =
    match (discipline, place) with
    | Buffered, _ -> None
    | Strict, (Some _ as p) -> p
    | Strict, None -> Region.place region
  in
  (* allocation-time copy to NVMM + clwb (paper §4.3.2): billed in the
     substrate by [Slot.make_replica] so elision accounting and the
     sanitizer's event stream see the same make the cost belongs to; the
     ordering fence is folded into the next protocol fence *)
  of_repp placement region
    (Slot.make_replica ~paired:true ~buffered:(discipline = Buffered)
       ~persist ?place region b)

let make ?placement ?discipline ?persist ?place region v =
  make_born ?placement ?discipline ?persist ?place region (Slot.birth v)

let make_buffered_born region b =
  of_repp Dram region (Slot.make_buffered_replica ~paired:true region b)

(* Refuse an access before anything is billed: while a region is down
   (its count is one word, so a live variable's check never reads its
   slot), and on a stale [repv] — a crash invalidated it and recovery did
   not reach it. *)
let check t =
  if Region.any_down () then Region.check_up (Slot.region (repp t));
  if (Atomic.get (repv_atomic t)).ver < 0 then
    invalid_arg
      "Patomic: access to a variable that was not recovered after a crash \
       (the tracing routine did not reach it)"

let read_repv t =
  Hooks.yield ();
  (match t with
  | Dram _ -> Stats.bill_dram_read ()
  | Nvmm _ -> Stats.bill_nvm_read ~home:Stats.local);
  let c = Atomic.get (repv_atomic t) in
  (* volatile-replica events name the persistent replica's slot, so a
     slot's event trace shows the whole pair's history *)
  if !Hooks.access_on then
    Slot.announce (repp t) Hooks.A_load_repv ~seq:c.ver;
  c

let write_repv t ~expected ~desired =
  Hooks.yield ();
  (match t with
  | Dram _ -> Stats.bill_dram_cas ()
  | Nvmm _ -> Stats.bill_nvm_cas ~home:Stats.local);
  (* double-word CAS on the volatile replica: the blocks are the cells *)
  let ok = Atomic.compare_and_set (repv_atomic t) expected desired in
  if ok && !Hooks.access_on then
    Slot.announce (repp t) Hooks.A_write_repv ~seq:desired.ver;
  ok

(** Figure 5: a load is a single wait-free read of the volatile replica. *)
let load t =
  check t;
  (read_repv t).v

(* Persist the persistent replica: clwb + sfence (Figure 4 lines 21–22 and
   41–42).  Elision is layered in the substrate: with the region's elision
   mode on, the flush is skipped when [repp] is clean (a helper whose target
   the original writer already persisted pays nothing) and the fence is
   skipped when this domain has no pending write-back — so one call site
   serves both the charged and the elided protocol.

   Under the buffered discipline this is the one protocol change: the write
   is recorded into the region's open epoch (no flush, no fence on the hot
   path) and made durable by a later epoch advance.  [repv] may then run
   ahead of the media — Lemma 5.5 weakens to "anything a reader observes is
   durable {e or} belongs to an epoch younger than the durable cut", which
   is exactly buffered durable linearizability. *)
let persist_repp t =
  let repp = repp t in
  if Slot.buffered repp then Slot.persist_deferred repp
  else begin
    Slot.flush repp;
    Region.fence (Slot.region repp)
  end

(** Figure 4, returning only the witness: the value found in memory —
    [expected] itself exactly when the exchange succeeded (every failure
    path returns a value that is not [expected]), so the verdict needs no
    tuple. *)
let rec witness_body t ~(expected : 'a) ~(desired : 'a) : 'a =
  check t;
  let s = Stats.get () in
  (* read repp then repv (lines 5–16; the seq/val/seq re-read of the paper is
     subsumed by the atomic cell read) *)
  Hooks.yield ();
  let pc = Slot.load_entry (repp t) in
  let vc = read_repv t in
  if pc.ver = vc.ver + 1 then begin
    (* lines 19–26: help an ongoing write: persist repp, then mirror it *)
    s.Stats.help <- s.Stats.help + 1;
    persist_repp t;
    ignore (write_repv t ~expected:vc ~desired:pc);
    s.Stats.cas_retry <- s.Stats.cas_retry + 1;
    witness_body t ~expected ~desired
  end
  else if pc.ver <> vc.ver then begin
    (* inconsistent snapshot; retry (line 29) *)
    s.Stats.cas_retry <- s.Stats.cas_retry + 1;
    witness_body t ~expected ~desired
  end
  else if not (pc.v == expected) then pc.v (* lines 32–35 *)
  else begin
    (* lines 38–49: update repp first, persist, then mirror into repv *)
    let after = Slot.next_entry pc desired in
    let wit = Slot.cas_entry (repp t) ~expected:pc ~desired:after in
    persist_repp t;
    if wit == pc then begin
      ignore (write_repv t ~expected:vc ~desired:after);
      expected
    end
    else if wit.v == expected then begin
      (* seq changed but the value is still the expected one: a regular CAS
         must succeed, so restart (line 46) *)
      s.Stats.cas_retry <- s.Stats.cas_retry + 1;
      witness_body t ~expected ~desired
    end
    else begin
      (* help the winner become visible, then fail (line 47) *)
      ignore (write_repv t ~expected:vc ~desired:wit);
      wit.v
    end
  end

(* Public entry: the whole protocol runs inside a sanitizer "protocol
   section" so its internal persistent-replica reads are sanctioned (psan's
   V1 check flags [Slot] reads only *outside* such sections).  Exception-safe:
   the scheduler may kill a fiber mid-operation via [discontinue]. *)
let witness t ~(expected : 'a) ~(desired : 'a) : 'a =
  if !Hooks.access_on then begin
    Hooks.protocol_enter ();
    Fun.protect ~finally:Hooks.protocol_exit (fun () ->
        witness_body t ~expected ~desired)
  end
  else witness_body t ~expected ~desired

(** Figure 4: [compare_exchange t ~expected ~desired] returns
    [(success, witness)] where [witness] is the value found when the
    operation failed ([expected] itself on success). *)
let compare_exchange t ~expected ~desired =
  let w = witness t ~expected ~desired in
  (w == expected, w)

let cas t ~expected ~desired = witness t ~expected ~desired == expected

(** [store] and [fetch_add] loop over CAS until success (paper §4.1.2).
    Retries are driven by the witness value — the value found in memory by
    the failed attempt — instead of a fresh charged [read_repv] per
    iteration.  The loop is seeded by {!load}, so a variable recovery did
    not reach is refused by [check] before anything is charged. *)
let store t v =
  let rec go expected =
    let w = witness t ~expected ~desired:v in
    if w != expected then go w
  in
  go (load t)

let fetch_add (t : int t) (d : int) : int =
  let rec go expected =
    let w = witness t ~expected ~desired:(expected + d) in
    if w == expected then expected else go w
  in
  go (load t)

(* -- recovery ------------------------------------------------------------ *)

(** Restore the volatile replica from the persistent one.  Called by the
    data structure's tracing routine for every reachable variable, while the
    region is still down. *)
let recover t =
  (* a kill-point before the restore: the model checker's
     --crash-in-recovery mode cuts recovery here, leaving this variable
     (and everything the tracer had not reached) unrestored *)
  Hooks.recovery_point Hooks.R_trace;
  let repp = repp t in
  if Slot.is_lost repp then
    invalid_arg "Patomic.recover: persistent replica was never persisted";
  (* on an untracked region, which invalidates nothing, both replicas
     point at one entry whenever the variable's last write persisted —
     after a quiesced crash, every variable: writing it again would only
     pay [Atomic.set]'s write barrier, a darkening of the old entry while
     the collector marks *)
  let e = Slot.peek_entry repp in
  if Atomic.get (repv_atomic t) != e then Atomic.set (repv_atomic t) e

(** Read from the persistent space during recovery (the region is down, the
    volatile replica may not be restored yet). *)
let load_recovery t =
  let repp = repp t in
  if Slot.is_lost repp then
    invalid_arg "Patomic.load_recovery: unrecoverable slot";
  Slot.peek repp

(* -- introspection (tests, invariant checking) --------------------------- *)

let discipline t = if Slot.buffered (repp t) then Buffered else Strict
let place t = Slot.place (repp t)
let entry_v t = Atomic.get (repv_atomic t)
let entry_p t = Slot.peek_entry (repp t)
let seq_v t = (entry_v t).ver
let seq_p t = (entry_p t).ver

let persisted_seq t =
  Option.map (fun (e : _ Slot.entry) -> e.ver) (Slot.persisted_entry (repp t))

let persisted_value t = Slot.persisted_value (repp t)
let peek_v t = (entry_v t).v
let peek_p t = Slot.peek (repp t)

(** The durability invariant, safe to sample concurrently: sequence numbers
    only grow, so reading [repv] first and the persisted seq after gives a
    sound one-sided check ([seq repv <= persisted seq] must hold at the
    moment [repv] was read).

    A variable created with [~persist:false] has no persisted entry until
    its first update persists; as long as it is untouched ([seq repv = 0])
    durability is not applicable and the check reports [true] rather than a
    violation.  Once written, the first protocol persist installs a
    persisted entry, so [None] with [seq repv > 0] is a genuine violation. *)
let durability_invariant_ok t =
  let sv = seq_v t in
  match persisted_seq t with
  | None -> sv = 0
  | Some spers -> sv <= spers

(** Lemma 5.4: [seq repv <= seq repp <= seq repv + 1].  Only meaningful when
    no operation is in flight (quiesced), e.g. between schedsim steps. *)
let lemma54_ok t =
  let sv = seq_v t in
  let sp = seq_p t in
  sv <= sp && sp <= sv + 1
