(** Scheduling hooks.

    Every simulated memory access and every step of the Mirror protocol calls
    {!yield} between its atomic sub-steps.  In normal execution this is a
    no-op; the deterministic interleaving scheduler ({!Mirror_schedsim.Sched})
    installs a handler here so that it can preempt logical threads at every
    shared-memory step.  This is what makes single-core concurrency testing of
    the protocol meaningful. *)

let yield_ref : (unit -> unit) ref = ref (fun () -> ())

let yield () = !yield_ref ()

(** [with_yield f body] installs [f] as the yield hook for the duration of
    [body], restoring the previous hook afterwards (exception-safe). *)
let with_yield f body =
  let saved = !yield_ref in
  yield_ref := f;
  Fun.protect ~finally:(fun () -> yield_ref := saved) body

(* -- persist-point hook --------------------------------------------------- *)

(** The substrate announces every persist-relevant instruction here *before*
    it takes effect: a [clwb] ({!Slot.flush}), an [sfence] ({!Region.fence}),
    the DWCAS / store on a persistent slot, and their elided variants.  A
    no-op in production; the crash-point model checker ({!Mirror_mcheck})
    installs a counter that pulls the plug exactly before the [i]-th event —
    enumerating every boundary at which the persistent state is about to
    change, instead of sampling step budgets. *)
type persist_event =
  | Flush  (** a [clwb] is about to record a write-back *)
  | Flush_elided  (** an elided [clwb] (clean line, elision mode on) *)
  | Fence  (** an [sfence] is about to commit this domain's write-backs *)
  | Fence_elided  (** an elided [sfence] (nothing pending, elision on) *)
  | Dwcas  (** a CAS on a persistent slot is about to execute *)
  | Write  (** an unconditional store to a persistent slot *)
  | Epoch_bump
      (** the durable-epoch slot is about to advance (buffered mode): the
          window between an epoch advance's fence and this bump is a
          first-class crash surface *)
  | Flush_coalesced
      (** a [clwb] absorbed by an in-flight cache line (line mode): a
          line-mate was already flushed and not yet fenced, so this flush
          rides its pending write-back instead of issuing a new one *)

let event_name = function
  | Flush -> "flush"
  | Flush_elided -> "flush-elided"
  | Fence -> "fence"
  | Fence_elided -> "fence-elided"
  | Dwcas -> "dwcas"
  | Write -> "write"
  | Epoch_bump -> "epoch-bump"
  | Flush_coalesced -> "flush-coalesced"

let persist_ref : (persist_event -> unit) ref = ref (fun _ -> ())

let persist_point ev = !persist_ref ev

(** Install a persist-point hook for the duration of the callback
    (exception-safe). *)
let with_persist f body =
  let saved = !persist_ref in
  persist_ref := f;
  Fun.protect ~finally:(fun () -> persist_ref := saved) body

(* -- logical thread identity ---------------------------------------------- *)

(** The identity of the logical thread performing the current access.  In
    normal execution a logical thread is an OS domain; under the
    deterministic scheduler every fiber is a logical thread, and the
    scheduler installs a resolver here so instrumentation (the persistency
    sanitizer) can attribute accesses to fibers rather than to the single
    shared domain. *)
let default_tid () = (Domain.self () :> int)

let tid_ref : (unit -> int) ref = ref default_tid
let tid () = !tid_ref ()

let with_tid f body =
  let saved = !tid_ref in
  tid_ref := f;
  Fun.protect ~finally:(fun () -> tid_ref := saved) body

(* -- structured access events --------------------------------------------- *)

(** The structured successor of {!persist_event}: every substrate access —
    loads and DWCASes of persistent slots, volatile-replica reads/writes of
    a Mirror variable, flushes and fences, charged or elided — is announced
    here {e after} its effect, carrying the identity of the memory location
    (slot uid, owning Mirror pair if any, region), the acting logical
    thread and OS domain, and the value sequence number involved.  The old
    single-constructor arity ({!persist_point}, fired {e before} the
    effect) is kept unchanged for the crash-point model checker; this
    channel feeds the persistency sanitizer ({!Mirror_psan.Psan}).

    Announcements are gated on {!access_on} at every call site so that the
    un-instrumented hot path pays one boolean load and nothing else. *)
type access_op =
  | A_load  (** data load from a persistent slot *)
  | A_store  (** unconditional store to a persistent slot *)
  | A_cas of bool  (** DWCAS on a persistent slot (success?) *)
  | A_flush  (** charged [clwb] of a slot *)
  | A_flush_elided  (** elided [clwb] (clean line, elision mode on) *)
  | A_flush_coalesced
      (** [clwb] absorbed by an in-flight cache line (line mode): durability
          rides the line-mate's pending write-back *)
  | A_fence  (** charged [sfence] on a region *)
  | A_fence_elided  (** elided [sfence] (nothing pending, elision on) *)
  | A_load_repv  (** read of a Mirror variable's volatile replica *)
  | A_write_repv  (** successful advance of a volatile replica *)
  | A_make of bool  (** slot allocation (starts persisted?) *)
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

let access_op_name = function
  | A_load -> "load"
  | A_store -> "store"
  | A_cas true -> "cas-ok"
  | A_cas false -> "cas-fail"
  | A_flush -> "flush"
  | A_flush_elided -> "flush-elided"
  | A_flush_coalesced -> "flush-coalesced"
  | A_fence -> "fence"
  | A_fence_elided -> "fence-elided"
  | A_load_repv -> "load-repv"
  | A_write_repv -> "write-repv"
  | A_make true -> "make-persisted"
  | A_make false -> "make"
  | A_recovery_write -> "recovery-write"
  | A_persist_deferred -> "persist-deferred"
  | A_epoch_close -> "epoch-close"
  | A_epoch_bump -> "epoch-bump"
  | A_rollback -> "rollback"

let access_on = ref false
let access_ref : (access -> unit) ref = ref (fun _ -> ())
let access_point a = !access_ref a

(** Install an access hook (and flip {!access_on}) for the duration of the
    callback (exception-safe).  The previous consumer is restored on exit,
    so instrumented sections nest. *)
let with_access f body =
  let saved_on = !access_on in
  let saved = !access_ref in
  access_ref := f;
  access_on := true;
  Fun.protect
    ~finally:(fun () ->
      access_ref := saved;
      access_on := saved_on)
    body

(* -- protocol sections ----------------------------------------------------- *)

(* The Mirror protocol legitimately reads its persistent replica inside
   [compare_exchange] — the discipline only forbids *data* reads of
   persistent memory on the hot path.  [Patomic] brackets its protocol body
   here so the sanitizer can tell the two apart.  Depth is tracked per
   logical thread in a lock-free published array indexed by {!tid}: each
   cell has a single writer (its own thread), so enter/exit are a plain
   atomic increment/decrement with no global mutex — the old global-mutex
   hashtable serialised every instrumented [compare_exchange] across all
   threads.  The array grows by copy-and-republish CAS; existing cells are
   carried by reference, so a stale reader still finds the live counter. *)
let protocol_depths : int Atomic.t array Atomic.t = Atomic.make [||]

let rec protocol_cell t =
  let a = Atomic.get protocol_depths in
  if t < Array.length a then Array.unsafe_get a t
  else begin
    let n =
      Array.init
        (max 16 (max (t + 1) (2 * Array.length a)))
        (fun i -> if i < Array.length a then a.(i) else Atomic.make 0)
    in
    ignore (Atomic.compare_and_set protocol_depths a n);
    protocol_cell t
  end

let protocol_enter () =
  if !access_on then begin
    let t = tid () in
    if t >= 0 then begin
      let c = protocol_cell t in
      Atomic.set c (Atomic.get c + 1)
    end
  end

let protocol_exit () =
  if !access_on then begin
    let t = tid () in
    if t >= 0 then begin
      let a = Atomic.get protocol_depths in
      if t < Array.length a then begin
        let c = Array.unsafe_get a t in
        let d = Atomic.get c in
        if d > 0 then Atomic.set c (d - 1)
      end
    end
  end

let in_protocol () =
  if not !access_on then false
  else begin
    let t = tid () in
    if t < 0 then false
    else begin
      let a = Atomic.get protocol_depths in
      t < Array.length a && Atomic.get (Array.unsafe_get a t) > 0
    end
  end

(* -- operation boundaries --------------------------------------------------- *)

(** Harnesses announce the boundaries of each logical operation here (the
    acting thread is {!tid}); the sanitizer checks its taint set — "does
    this completed operation's result depend on an unpersisted write?" — at
    every [Op_complete].  Free when instrumentation is off. *)
type op_mark = Op_begin | Op_complete

let op_ref : (op_mark -> unit) ref = ref (fun _ -> ())
let op_point m = if !access_on then !op_ref m

let with_op f body =
  let saved = !op_ref in
  op_ref := f;
  Fun.protect ~finally:(fun () -> op_ref := saved) body

(* -- recovery points -------------------------------------------------------- *)

(** Recovery announces its own progress boundaries here, mirroring what
    {!persist_point} does for the hot path: each event fires {e before} the
    corresponding unit of recovery work, so a hook that raises at event [i]
    kills recovery at an exact, replayable boundary.  A no-op in
    production; the crash-point model checker's [--crash-in-recovery] mode
    installs a counter to enumerate kill points {e inside} recovery.

    The fine-grained events ([R_root], [R_sweep]) fire only on the
    sequential ([~domains:1]) recovery path — worker domains never call
    hooks; the phase boundaries ([R_begin], [R_mark_done], [R_done]) always
    fire from the coordinating thread. *)
type recovery_event =
  | R_begin  (** recovery is about to start (volatile metadata still stale) *)
  | R_root  (** one persistent root's subgraph is about to be marked *)
  | R_trace  (** one variable/node is about to be restored (tracing) *)
  | R_mark_done  (** mark finished; sweep is about to start *)
  | R_sweep  (** one heap segment is about to be parsed by the sweep *)
  | R_done  (** recovery work complete; the region is not yet re-opened *)

let recovery_event_name = function
  | R_begin -> "begin"
  | R_root -> "root"
  | R_trace -> "trace"
  | R_mark_done -> "mark-done"
  | R_sweep -> "sweep"
  | R_done -> "done"

let recovery_ref : (recovery_event -> unit) ref = ref (fun _ -> ())
let recovery_point ev = !recovery_ref ev

let with_recovery_hook f body =
  let saved = !recovery_ref in
  recovery_ref := f;
  Fun.protect ~finally:(fun () -> recovery_ref := saved) body

(** True while a recovery procedure is running.  Recovery's accesses are
    privileged — it is the only code running, it reads with the cost-free
    {!Slot.peek} and writes with the immediately-durable
    {!Slot.recover_store} — so the persistency sanitizer must not apply
    hot-path discipline rules to them.  Set by {!with_recovery}, which every
    recovery driver brackets its work with. *)
let in_recovery = ref false

let with_recovery body =
  let saved = !in_recovery in
  in_recovery := true;
  Fun.protect ~finally:(fun () -> in_recovery := saved) body
