(** PSan: an always-on persistency sanitizer for the Mirror discipline.

    A ThreadSanitizer-style dynamic checker for persist order: every
    substrate access (slot loads/stores/CASes, flushes, fences, volatile
    replica traffic) is announced through {!Mirror_nvm.Hooks.access_point}
    and processed online in O(1) per event.  The sanitizer shadows the
    persistency state of the execution under two fence models and flags
    discipline violations as they happen — no crash enumeration needed
    (that is {!Mirror_mcheck.Mcheck}'s job; the two are complementary, see
    docs/TESTING.md).

    {2 Fence models}

    - {e lenient} — the simulator's own semantics: a fence commits every
      write-back pending in the calling {e OS domain}.  Under the
      deterministic scheduler all fibers share one domain, so a fence by
      any fiber commits everyone's flushes.
    - {e strict} — hardware semantics: an [sfence] only guarantees
      completion of the issuing {e logical thread}'s own [clwb]s.  A
      dependence satisfied leniently but not strictly is a latent bug that
      the single-domain simulation cannot crash on but real hardware can.

    {2 Violation classes}

    - {b V1} (hot-path read of persistent memory): a {!Mirror_nvm.Slot}
      load outside a sanctioned protocol section.  The Mirror discipline
      reads only volatile replicas on the hot path; [repp] is read only
      inside the primitive's bracketed protocol.
    - {b V2} (unpersisted dependence at completion): a completed
      operation's outcome depends on a slot version that no completed
      flush + fence covers — the durable-linearizability bug class of the
      original NVTraverse/log-free baselines.
    - {b V3} (replica-band violation): the Lemma 5.4 band
      [seq repv <= seq repp <= seq repv + 1] is broken, or [repv] is
      advanced to a cell that is not yet durable (the Lemma 5.5 read-
      durability invariant).
    - {b V4} (cross-thread persist ordering): the dependence is covered
      leniently but not strictly — e.g. thread A's flush was committed
      only by thread B's racing fence.  Benign in the single-domain
      simulation, incorrect on hardware.
    - {b V5} (post-recovery staleness): after a buffered rollback, an
      operation observes a value newer than the claimed durable epoch —
      state from a discarded (incomplete) epoch survived recovery.  The
      rollback event arms a per-slot watch with the surviving version;
      any read above it before a fresh write trips the check.
    - {b W1} (warning tier, not a violation): redundant persisting
      operations — a charged flush of an already-durable version, a flush
      of a cache line already in flight (line mode: the coalescing layer
      absorbs it), or a charged fence that commits nothing new.  These are
      exactly the operations the elision and line-coalescing layers would
      absorb, so the counters feed their budgets ({!report}'s
      [w1_flush]/[w1_fence] match the [flush_elided + flush_coalesced] /
      [fence_elided] stats of the same schedule run with elision on, at
      any [slots_per_line] — pinned by test/t_line.ml).

    {2 Soundness notes}

    - Sequence numbers: slot events carry the value-seq (for Mirror
      replicas, the cell's [seq]; for plain slots the line version), so
      replica and slot events share one namespace per location.
    - Spontaneous cache eviction ([runtime_evict_prob]) is deliberately
      ignored: the sanitizer checks what is {e guaranteed} durable, and an
      algorithm relying on lucky eviction is buggy.  Correct code never
      depends on it, so this cannot cause false positives.
    - Version 0 (allocation-time content) is treated as always durable:
      the paper folds allocation persistence into the next protocol fence
      (§4.3.2), and flagging initial values would flood unrelated classes.
    - Buffered rule set ([create ~buffered:true]): under buffered durable
      linearizability a completed operation may legitimately depend on a
      version that is only {e recorded} into the region's open epoch (the
      epoch advance persists it later), and [repv] may run ahead of the
      media up to the open epoch.  The sanitizer tracks the deferred
      front per slot (from [A_persist_deferred]) and suppresses V2/V3/V4
      for deferral-covered dependences; the epoch clock is shadowed from
      [A_epoch_close]/[A_epoch_bump].  The strict rule set deliberately
      ignores deferrals, so a strict sanitizer over a buffered execution
      flags the unpersisted tail as V2 — the buffered negative control.
    - Elision trust rules: an elided flush means the line was clean, i.e.
      the current version is genuinely durable — the sanitizer syncs both
      models up to it.  An elided fence means nothing was pending — it
      still strictly commits the calling thread's shadow pending set
      (its flushes were drained by another thread's fence; the elided
      fence is the thread's own ordering point).  The model checker
      separately validates elision against real crash points, so trusting
      it here cannot mask an elision bug. *)

open Mirror_nvm

type violation = V1 | V2 | V3 | V4 | V5 | W1

let class_name = function
  | V1 -> "V1-hot-path-read"
  | V2 -> "V2-unpersisted-dependence"
  | V3 -> "V3-replica-band"
  | V4 -> "V4-cross-thread-persist"
  | V5 -> "V5-post-recovery-staleness"
  | W1 -> "W1-redundant-persist"

type finding = {
  f_class : violation;
  f_msg : string;
  f_slot : int;  (** slot uid; [-1] when not slot-specific (fences) *)
  f_pair : int;  (** owning Mirror pair uid; [-1] if none *)
  f_tid : int;  (** logical thread the violation is charged to *)
  f_seq : int;  (** offending value-seq; [-1] n/a *)
  f_event : int;  (** global event index at detection time *)
  f_trace : Hooks.access list;  (** recent events on the slot, oldest first *)
}

type report = {
  seed : int;  (** scheduler seed: replaying it reproduces every finding *)
  events : int;  (** total access events processed *)
  findings : finding list;  (** violations, oldest first (deduplicated) *)
  counts : (violation * int) list;  (** total occurrences per class *)
  w1_flush : int;  (** redundant charged flushes (elidable) *)
  w1_fence : int;  (** redundant charged fences (elidable) *)
}

let count report cls =
  match List.assoc_opt cls report.counts with Some n -> n | None -> 0

let violations report =
  List.filter (fun f -> f.f_class <> W1) report.findings

(* -- shadow state --------------------------------------------------------- *)

type slot_state = {
  mutable strict_pv : int;  (** durable version under the strict model *)
  mutable lenient_pv : int;  (** durable version under the lenient model *)
  mutable cur_ver : int;
      (** newest version any event revealed — what a line drain would
          capture for this slot at a fence (line mode) *)
  mutable sl_line : int;  (** cache-line uid; [-1] when lineless *)
  mutable deferred_ver : int;
      (** newest version recorded into the region's open epoch (buffered
          persists); the epoch advance will persist it, so the buffered
          rule set treats dependences up to here as covered *)
  mutable watch : int;
      (** rollback watch: the version the last crash rolled this slot back
          to ([-1]: inactive).  A read above it before a fresh write is a
          V5 — discarded-epoch state survived recovery. *)
  mutable sl_pair : int;
  mutable sl_trace : Hooks.access list;  (** recent events, newest first *)
  mutable sl_trace_len : int;
}

type pair_state = {
  mutable seq_v : int;  (** last known volatile-replica seq; [-1] unknown *)
  mutable seq_p : int;  (** last known persistent-replica seq; [-1] unknown *)
}

type t = {
  seed : int;
  buffered : bool;  (** validate buffered durable linearizability *)
  max_findings : int;
  trace_depth : int;
  mu : Mutex.t;
  slots : (int, slot_state) Hashtbl.t;
  pairs : (int, pair_state) Hashtbl.t;
  taint : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (** tid -> slot uid -> max unpersisted-at-the-time version the
          thread's current operation depends on; checked lazily at
          [Op_complete] against the durable versions then *)
  strict_pending : (int, (int * int) list ref) Hashtbl.t;
      (** tid -> (slot, seq) flushes not yet fenced by that thread *)
  lenient_pending : (int, (int * int) list ref) Hashtbl.t;
      (** domain -> (slot, seq) flushes not yet fenced by that domain *)
  line_inflight : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (** domain -> cache-line uids with a write-back in flight (any flush
          of the line since the domain's last fence, charged, coalesced or
          elided — all of them record the line's one pending write-back in
          the region, so the next fence is never elidable and its drain
          captures every member's newest content) *)
  dedup : (violation * int * int, unit) Hashtbl.t;
      (** (class, slot, tid) already reported — counts keep counting *)
  mutable events : int;
  mutable cur_epoch : int;  (** shadow of the region's open epoch *)
  mutable durable_epoch : int;  (** shadow of the committed cut *)
  mutable findings_rev : finding list;
  mutable n_findings : int;
  mutable v1 : int;
  mutable v2 : int;
  mutable v3 : int;
  mutable v4 : int;
  mutable v5 : int;
  mutable w1_flush : int;
  mutable w1_fence : int;
}

let create ?(seed = 0) ?(buffered = false) ?(max_findings = 64)
    ?(trace_depth = 16) () =
  {
    seed;
    buffered;
    max_findings;
    trace_depth;
    mu = Mutex.create ();
    slots = Hashtbl.create 256;
    pairs = Hashtbl.create 64;
    taint = Hashtbl.create 16;
    strict_pending = Hashtbl.create 16;
    lenient_pending = Hashtbl.create 16;
    line_inflight = Hashtbl.create 16;
    dedup = Hashtbl.create 64;
    events = 0;
    cur_epoch = 1;
    durable_epoch = 0;
    findings_rev = [];
    n_findings = 0;
    v1 = 0;
    v2 = 0;
    v3 = 0;
    v4 = 0;
    v5 = 0;
    w1_flush = 0;
    w1_fence = 0;
  }

(* A slot first seen mid-life (the sanitizer attached after creation) is
   assumed durable up to the version the first event reveals: write events
   install a fresh version, so they vouch only for the predecessor. *)
let slot_st t (a : Hooks.access) =
  match Hashtbl.find_opt t.slots a.a_slot with
  | Some s -> s
  | None ->
      let baseline =
        match a.a_op with
        | Hooks.A_make _ -> a.a_seq
        | Hooks.A_store | Hooks.A_cas true -> max 0 (a.a_seq - 1)
        | _ -> max 0 a.a_seq
      in
      let s =
        {
          strict_pv = baseline;
          lenient_pv = baseline;
          cur_ver = max 0 a.a_seq;
          sl_line = a.a_line;
          deferred_ver = 0;
          watch = -1;
          sl_pair = a.a_pair;
          sl_trace = [];
          sl_trace_len = 0;
        }
      in
      Hashtbl.add t.slots a.a_slot s;
      s

let pair_st t uid =
  match Hashtbl.find_opt t.pairs uid with
  | Some p -> p
  | None ->
      let p = { seq_v = -1; seq_p = -1 } in
      Hashtbl.add t.pairs uid p;
      p

let tbl_of master key mk =
  match Hashtbl.find_opt master key with
  | Some v -> v
  | None ->
      let v = mk () in
      Hashtbl.add master key v;
      v

let taint_of t tid = tbl_of t.taint tid (fun () -> Hashtbl.create 16)
let strict_of t tid = tbl_of t.strict_pending tid (fun () -> ref [])
let lenient_of t dom = tbl_of t.lenient_pending dom (fun () -> ref [])
let inflight_of t dom = tbl_of t.line_inflight dom (fun () -> Hashtbl.create 8)

(* Fence-time line drain: the region's pending line write-backs capture
   member content when they drain, so every slot on an in-flight line has
   its newest revealed version committed — including line-mates that were
   written after the line went in flight and never individually flushed.
   Lenient model only: on per-thread hardware semantics a foreign thread's
   absorbed [clwb] carries no strict guarantee, and Mirror never depends
   on drain capture anyway (the protocol flushes its destination
   explicitly), so the conservative strict shadow cannot false-positive. *)
let drain_lines t dom =
  let infl = inflight_of t dom in
  if Hashtbl.length infl > 0 then begin
    Hashtbl.iter
      (fun _ s ->
        if s.sl_line >= 0 && Hashtbl.mem infl s.sl_line then
          s.lenient_pv <- max s.lenient_pv s.cur_ver)
      t.slots;
    Hashtbl.reset infl
  end

let bump t = function
  | V1 -> t.v1 <- t.v1 + 1
  | V2 -> t.v2 <- t.v2 + 1
  | V3 -> t.v3 <- t.v3 + 1
  | V4 -> t.v4 <- t.v4 + 1
  | V5 -> t.v5 <- t.v5 + 1
  | W1 -> ()

let emit t cls ~msg ~slot ~pair ~tid ~seq =
  bump t cls;
  let key = (cls, slot, tid) in
  if (not (Hashtbl.mem t.dedup key)) && t.n_findings < t.max_findings then begin
    Hashtbl.add t.dedup key ();
    let trace =
      match Hashtbl.find_opt t.slots slot with
      | Some s -> List.rev s.sl_trace
      | None -> []
    in
    t.n_findings <- t.n_findings + 1;
    t.findings_rev <-
      {
        f_class = cls;
        f_msg = msg;
        f_slot = slot;
        f_pair = pair;
        f_tid = tid;
        f_seq = seq;
        f_event = t.events;
        f_trace = trace;
      }
      :: t.findings_rev
  end

let record_trace t s (a : Hooks.access) =
  s.sl_trace <- a :: s.sl_trace;
  s.sl_trace_len <- s.sl_trace_len + 1;
  if s.sl_trace_len > 2 * t.trace_depth then begin
    (* amortized truncation: keep the newest [trace_depth] events *)
    s.sl_trace <- List.filteri (fun i _ -> i < t.trace_depth) s.sl_trace;
    s.sl_trace_len <- t.trace_depth
  end

let taint_dep t tid slot seq =
  if seq > 0 then begin
    let tbl = taint_of t tid in
    match Hashtbl.find_opt tbl slot with
    | Some prev when prev >= seq -> ()
    | _ -> Hashtbl.replace tbl slot seq
  end

(* Lemma 5.4 band [seq_v <= seq_p <= seq_v + 1], checked once both replica
   seqs are known for the pair. *)
let check_band t p (a : Hooks.access) =
  if p.seq_v >= 0 && p.seq_p >= 0 then
    if not (p.seq_v <= p.seq_p && p.seq_p <= p.seq_v + 1) then
      emit t V3
        ~msg:
          (Printf.sprintf
             "Lemma 5.4 band broken: seq(repv)=%d seq(repp)=%d (want \
              seq_v <= seq_p <= seq_v+1)"
             p.seq_v p.seq_p)
        ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq

(* V5: a post-crash read above the version the crash rolled this slot back
   to, before any fresh write, means state from a discarded (incomplete)
   epoch survived recovery.  Fresh writes disarm the watch — new versions
   above it are then legitimate new execution. *)
let check_watch t s (a : Hooks.access) =
  if s.watch >= 0 && a.a_seq > s.watch then begin
    emit t V5
      ~msg:
        (Printf.sprintf
           "post-recovery read observes seq %d but the crash rolled this \
            slot back to seq %d (durable epoch %d): state from a \
            discarded epoch survived recovery"
           a.a_seq s.watch t.durable_epoch)
      ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq;
    s.watch <- -1
  end

let disarm_watch s (a : Hooks.access) =
  if s.watch >= 0 && a.a_seq > s.watch then s.watch <- -1

(* The pair-band step of an access to one replica of a Mirror pair: advance
   that replica's shadow seq ([repv] or [repp]) and check the band. *)
let band_step t (a : Hooks.access) ~repv =
  if a.a_pair >= 0 then begin
    let p = pair_st t a.a_pair in
    if repv then p.seq_v <- max p.seq_v a.a_seq
    else p.seq_p <- max p.seq_p a.a_seq;
    check_band t p a
  end

let line_in_flight t (a : Hooks.access) =
  if a.a_line >= 0 then Hashtbl.replace (inflight_of t a.a_domain) a.a_line ()

(* A flushed version rides to the next fence: pending in the thread's
   strict set and the domain's lenient set, its cache line in flight. *)
let flush_pending t (a : Hooks.access) =
  let strict = strict_of t a.a_tid in
  strict := (a.a_slot, a.a_seq) :: !strict;
  let lenient = lenient_of t a.a_domain in
  lenient := (a.a_slot, a.a_seq) :: !lenient;
  line_in_flight t a

(* A fence commits a pending (slot, version) list into one shadow model. *)
let commit_pending t pending commit =
  List.iter
    (fun (slot, seq) ->
      match Hashtbl.find_opt t.slots slot with
      | Some s -> commit s seq
      | None -> ())
    !pending;
  pending := []

(* Hot path: one event in O(1).  The mutex only matters under real domains
   (schedsim is single-domain); no code below can raise in normal
   operation, and the explicit unlock avoids a closure allocation per
   event that [Fun.protect] would cost. *)
let on_access_locked t (a : Hooks.access) =
  t.events <- t.events + 1;
  match a.a_op with
  | Hooks.A_recovery_write ->
      (* privileged recovery write: store with immediate durability while
         the region is down.  Both shadow models agree the announced
         version is durable; no discipline rule applies (recovery is the
         only code running). *)
      let s = slot_st t a in
      record_trace t s a;
      s.lenient_pv <- max s.lenient_pv a.a_seq;
      s.strict_pv <- max s.strict_pv s.lenient_pv;
      (* the rewrite supersedes whatever the crash rolled back to *)
      s.watch <- -1;
      s.deferred_ver <- 0
  | Hooks.A_epoch_close ->
      (* the advance closed epoch [a_seq]: the region's open epoch moves
         past it (no slot attached — a_slot is -1) *)
      t.cur_epoch <- max t.cur_epoch (a.a_seq + 1)
  | Hooks.A_epoch_bump ->
      (* durable cut advanced; the deferred records of epochs <= a_seq
         were flushed and fenced just before, so the per-slot durable
         shadows already caught up via those A_flush/A_fence events *)
      t.durable_epoch <- max t.durable_epoch a.a_seq;
      t.cur_epoch <- max t.cur_epoch (a.a_seq + 1)
  | Hooks.A_fence | Hooks.A_fence_elided ->
      let strict = strict_of t a.a_tid in
      let lenient = lenient_of t a.a_domain in
      (* W1: a charged fence that commits nothing new is exactly one
         elision would skip (vacuously true when nothing is pending).  An
         in-flight cache line always defeats it: even an elided flush
         records the line's one pending write-back, so the elision layer
         would keep this fence.  An elided fence had nothing pending in
         the domain; it is still the calling thread's ordering point
         (trust rule, see header), so both commit alike. *)
      if
        a.a_op = Hooks.A_fence
        && Hashtbl.length (inflight_of t a.a_domain) = 0
        && List.for_all
             (fun (slot, seq) ->
               match Hashtbl.find_opt t.slots slot with
               | Some s -> seq <= s.lenient_pv
               | None -> true)
             !lenient
      then begin
        t.w1_fence <- t.w1_fence + 1;
        emit t W1 ~msg:"redundant fence: commits nothing new (elidable)"
          ~slot:(-1) ~pair:(-1) ~tid:a.a_tid ~seq:(-1)
      end;
      commit_pending t lenient (fun s seq ->
          s.lenient_pv <- max s.lenient_pv seq);
      drain_lines t a.a_domain;
      commit_pending t strict (fun s seq -> s.strict_pv <- max s.strict_pv seq)
  | _ -> (
      let s = slot_st t a in
      record_trace t s a;
      if a.a_pair >= 0 then s.sl_pair <- a.a_pair;
      s.cur_ver <- max s.cur_ver a.a_seq;
      if a.a_line >= 0 then s.sl_line <- a.a_line;
      match a.a_op with
      | Hooks.A_make _ ->
          if a.a_pair >= 0 then begin
            let p = pair_st t a.a_pair in
            p.seq_v <- a.a_seq;
            p.seq_p <- a.a_seq
          end
      | Hooks.A_load | Hooks.A_load_repv | Hooks.A_store | Hooks.A_cas _ ->
          (* a data access: the watch step (a write disarms it; a read is
             checked — a failed CAS's witness is a read the operation's
             outcome depends on), the dependence taint, and the band step
             on the replica it touched *)
          (match a.a_op with
          | Hooks.A_store | Hooks.A_cas true -> disarm_watch s a
          | Hooks.A_load when not a.a_protocol ->
              emit t V1
                ~msg:
                  "hot-path read of persistent memory (Slot load outside a \
                   protocol section): Mirror reads only volatile replicas"
                ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq;
              check_watch t s a
          | _ -> check_watch t s a);
          taint_dep t a.a_tid a.a_slot a.a_seq;
          band_step t a
            ~repv:(match a.a_op with Hooks.A_load_repv -> true | _ -> false)
      | Hooks.A_write_repv ->
          (* Lemma 5.5: repv may only advance to a durable cell.  Under
             the buffered rule set it weakens to "durable or recorded in
             the epoch clock" — the advance persists the deferred front
             before the durable cut moves past it. *)
          if
            a.a_seq > s.lenient_pv
            && not (t.buffered && a.a_seq <= s.deferred_ver)
          then
            emit t V3
              ~msg:
                (Printf.sprintf
                   "repv advanced to seq %d but only seq %d is durable: \
                    readers could observe un-persisted state"
                   a.a_seq s.lenient_pv)
              ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq;
          disarm_watch s a;
          band_step t a ~repv:true
      | Hooks.A_flush ->
          if a.a_seq <= s.lenient_pv then begin
            t.w1_flush <- t.w1_flush + 1;
            emit t W1
              ~msg:"redundant flush: version already durable (elidable)"
              ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq
          end;
          flush_pending t a
      | Hooks.A_flush_coalesced ->
          (* the generalized W1: the slot's cache line is already in
             flight for this domain, so the flush is redundant whatever
             the version — line-aware hardware (or the coalescing layer)
             absorbs it.  Durability-wise it behaves exactly like a
             charged flush: the announced version rides the line's pending
             write-back and commits at the next fence. *)
          t.w1_flush <- t.w1_flush + 1;
          emit t W1
            ~msg:"redundant flush: cache line already in flight (coalesced)"
            ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq;
          flush_pending t a
      | Hooks.A_flush_elided ->
          (* trust rule: the line was clean, so the announced version is
             genuinely durable under both models.  In line mode the elided
             flush still records the line's pending write-back, keeping
             the in-flight state identical to the un-elided run. *)
          s.lenient_pv <- max s.lenient_pv a.a_seq;
          s.strict_pv <- max s.strict_pv s.lenient_pv;
          line_in_flight t a
      | Hooks.A_persist_deferred ->
          (* buffered persist: the version is recorded into the open
             epoch, not flushed — only the buffered rule set credits it.
             A record of an already-covered version is exactly what
             elision would skip. *)
          if a.a_seq <= max s.lenient_pv s.deferred_ver then begin
            t.w1_flush <- t.w1_flush + 1;
            emit t W1
              ~msg:
                "redundant deferred persist: version already durable or \
                 recorded (elidable)"
              ~slot:a.a_slot ~pair:a.a_pair ~tid:a.a_tid ~seq:a.a_seq
          end;
          s.deferred_ver <- max s.deferred_ver a.a_seq
      | Hooks.A_rollback ->
          (* crash pruned this buffered slot to the durable-epoch cut:
             [a_seq] survives (-1: nothing did).  Reset both durable
             shadows to the survivor — downward, deliberately — drop the
             deferred front, and arm the V5 watch. *)
          let survivor = max 0 a.a_seq in
          s.strict_pv <- survivor;
          s.lenient_pv <- survivor;
          s.deferred_ver <- 0;
          s.watch <- survivor
      | Hooks.A_fence | Hooks.A_fence_elided | Hooks.A_recovery_write
      | Hooks.A_epoch_close | Hooks.A_epoch_bump ->
          assert false)

let on_access t a =
  (* recovery accesses are privileged (cost-free peeks, immediately
     durable recovery writes, no concurrent mutators): the hot-path
     discipline does not apply, so the sanitizer stays silent for the
     whole bracket — except for the recovery writes themselves, which
     update the shadow durable state above *)
  if !Hooks.in_recovery && a.Hooks.a_op <> Hooks.A_recovery_write then ()
  else begin
    Mutex.lock t.mu;
    (try on_access_locked t a
     with e ->
       Mutex.unlock t.mu;
       raise e);
    Mutex.unlock t.mu
  end

let on_op_locked t (m : Hooks.op_mark) =
  let tid = Hooks.tid () in
  let tbl = taint_of t tid in
  (match m with
  | Hooks.Op_begin -> ()
  | Hooks.Op_complete ->
      Hashtbl.iter
        (fun slot seq ->
          match Hashtbl.find_opt t.slots slot with
          | None -> ()
          | Some s ->
              if seq <= s.strict_pv then ()
              else if t.buffered && seq <= s.deferred_ver then
                (* buffered durable linearizability: the dependence is
                   recorded in the epoch clock; the advance persists it
                   before the durable cut passes, and losing it to a
                   crash is bounded staleness, not a violation *)
                ()
              else if seq <= s.lenient_pv then
                emit t V4
                  ~msg:
                    (Printf.sprintf
                       "completed operation depends on seq %d persisted \
                        only by another thread's racing fence (strict \
                        durable: %d): incorrect under per-thread fence \
                        semantics"
                       seq s.strict_pv)
                  ~slot ~pair:s.sl_pair ~tid ~seq
              else
                emit t V2
                  ~msg:
                    (Printf.sprintf
                       "completed operation depends on un-persisted seq %d \
                        (durable: %d): not durably linearizable"
                       seq s.lenient_pv)
                  ~slot ~pair:s.sl_pair ~tid ~seq)
        tbl);
  Hashtbl.reset tbl

let on_op t m =
  Mutex.lock t.mu;
  (try on_op_locked t m
   with e ->
     Mutex.unlock t.mu;
     raise e);
  Mutex.unlock t.mu

(* -- driving -------------------------------------------------------------- *)

let install t body =
  Hooks.with_access (on_access t) (fun () ->
      Hooks.with_op (on_op t) body)

let report t =
  Mutex.lock t.mu;
  let r =
    {
      seed = t.seed;
      events = t.events;
      findings = List.rev t.findings_rev;
      counts = [ (V1, t.v1); (V2, t.v2); (V3, t.v3); (V4, t.v4); (V5, t.v5) ];
      w1_flush = t.w1_flush;
      w1_fence = t.w1_fence;
    }
  in
  Mutex.unlock t.mu;
  r

let clean report =
  List.for_all (fun (_, n) -> n = 0) report.counts

(* -- pretty-printing ------------------------------------------------------ *)

let pp_trace_line ppf (a : Hooks.access) =
  Format.fprintf ppf "    %-14s tid=%-3d seq=%d%s"
    (Hooks.access_op_name a.a_op)
    a.a_tid a.a_seq
    (if a.a_protocol then " [protocol]" else "")

let pp_finding ppf f =
  Format.fprintf ppf "%s: %s@,  slot=%d pair=%d tid=%d seq=%d event=%d"
    (class_name f.f_class) f.f_msg f.f_slot f.f_pair f.f_tid f.f_seq f.f_event;
  if f.f_trace <> [] then begin
    Format.fprintf ppf "@,  slot trace (oldest first):";
    List.iter (fun a -> Format.fprintf ppf "@,%a" pp_trace_line a) f.f_trace
  end

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>psan: %d events, seed %d (replayable)@," r.events
    r.seed;
  List.iter
    (fun (cls, n) ->
      if n > 0 then Format.fprintf ppf "%s: %d occurrence(s)@," (class_name cls) n)
    r.counts;
  Format.fprintf ppf "W1 warnings: %d redundant flush(es), %d redundant \
                      fence(s)@,"
    r.w1_flush r.w1_fence;
  if clean r then Format.fprintf ppf "no violations@,"
  else
    List.iter
      (fun f ->
        if f.f_class <> W1 then Format.fprintf ppf "@,%a@," pp_finding f)
      r.findings;
  Format.fprintf ppf "@]"

let report_to_string r = Format.asprintf "%a" pp_report r
