(** A word of simulated persistent memory.

    A slot models one (double-)word of NVMM together with its cache line:

    - [current] is the coherent view every processor sees (cache + memory);
    - [media] is what is guaranteed to survive a crash (nothing until the
      first write-back reaches the media).

    Both hold {!entry} blocks: one immutable block per write carrying the
    value, its version and its epoch tag.  A write-back persists the very
    block the write installed, so a strict slot's current and persisted
    state share one block, and a Mirror variable's volatile replica shares
    it too (the entry {e is} the Mirror cell: [ver] is its sequence
    number).

    A slot starts on its {!birth}, the ver-0 entry.  Slots born with one
    value may start on one birth: a slot's version still names exactly one
    entry between two crashes, and no write ever touches a birth, so the
    physical compare of entries stays the (value, version) compare.  A
    slot is then 7 + 2 words (record and media block) plus its share of
    the birth's 4.

    Versions keep write-backs monotone: on real hardware two [clwb]s of the
    same line can never travel back in time, so a concurrent flush of an
    older snapshot must not overwrite a newer persisted value.

    The media field names the slot's whole persistent state: its
    discipline (strict or buffered) and whether a crash lost it (a
    constant constructor per discipline).  One [id] word names both the
    slot and, on a Mirror pair's persistent replica, the pair: a pair is
    named by that one slot's uid.  So the record is 7 words (56 bytes
    with its header).

    Slots bill each NVMM access through {!Stats} (its counter and its
    {!Latency} cost), and call {!Hooks.yield} at each atomic step so the
    deterministic scheduler can interleave them. *)

type 'a entry = { v : 'a; ver : int; mutable ep : int }
(** [ep] is the epoch that produced the write: [0] for strict slots
    (immediately committable), the region's open epoch for buffered slots.
    Crash recovery keeps only entries tagged [<= Region.durable_epoch].
    [ep] is written only before the entry is published, by the install
    step right beside its CAS. *)

(* The media state.  Each non-constant constructor is a one-field mutable
   block, which is exactly the layout of an [Atomic.t]: the field is read
   and CASed in place through {!newest_atomic} / {!front_atomic}, so a
   strict slot reaches its persisted entry in one hop, the same as through
   an [Atomic.t] box.  The constructor doubles as the discipline flag, and
   the two constant constructors are the lost states of each discipline. *)
type 'a media =
  | Newest of { mutable newest : 'a entry }
      (** strict slot: the one persisted entry, or an entry with
          [ver = -1] while nothing was ever persisted.  Strict entries all
          carry [ep = 0], so the newest persisted entry dominates every
          older one. *)
  | Front of { mutable front : 'a entry list }
      (** buffered slot: the media history, newest (max [ver]) first, kept
          as the Pareto front over (version high, epoch low): an entry is
          dropped once another entry has both [ver >=] and [ep <=] it, or
          once a newer entry from a committed epoch
          ([<= Region.durable_epoch]) exists.  The older durable entry
          stays alive until the newer entry's epoch commits, so a crash
          can roll back to the durable cut. *)
  | Lost_strict
  | Lost_buffered
      (** a crash hit the slot while nothing of it was durable: its
          post-crash content is garbage, and any access is a detected bug.
          Entered only while the region is down, when no other domain runs;
          left only by {!recover_store}, which rebuilds the media block for
          the slot's discipline. *)

external newest_atomic : 'a media -> 'a entry Atomic.t = "%identity"
[@@mlint.allow L7 "applied to Newest blocks only: one mutable field"]

external front_atomic : 'a media -> 'a entry list Atomic.t = "%identity"
[@@mlint.allow L7 "applied to Front blocks only: one mutable field"]

type 'a t = {
  mutable current : 'a entry;
      (** the coherent view.  Must stay field 0 and must only be accessed
          through {!current_atomic}. *)
  region : Region.t;
  mutable media : 'a media;
      (** the persisted state; [Front] and [Lost_buffered] mark a buffered
          slot: writes tag the open epoch and persists are recorded into
          the epoch's deferred set instead of flushing.  Replaced only
          while the region is down (a crash losing the slot, a recovery
          write healing it); in normal operation the block is fixed and
          only its field moves. *)
  id : int;
      (** the slot's uid (global location identity, for access-event
          attribution) when the slot is a Mirror pair's persistent
          replica, which names the pair; [lnot uid] (negative) otherwise *)
  line : Region.line option;
      (** the cache line this slot was carved from ([None] on slot-granular
          regions and on buffered slots): line-mates share write-backs —
          a flush of a line already in flight coalesces — and crash fate *)
  home : int;
      (** home domain of the slot's memory: its line's carver, or the
          allocating logical thread when lineless.  Accesses from other
          threads pay the NUMA remote-line surcharge when the
          {!Latency.numa_remote_ns} knob is on. *)
}

(* OCaml 5.1's [Atomic] primitives act on field 0 of the block they are
   given: [current] is an atomic field in place, one dependent load
   fewer than a separate [Atomic.t] box. *)
external current_atomic : 'a t -> 'a entry Atomic.t = "%identity"
[@@mlint.allow L7 "current is field 0 of a mutable record"]

let next_uid = Atomic.make 0
let uid t = if t.id >= 0 then t.id else lnot t.id
let pair t = if t.id >= 0 then t.id else -1

let buffered t =
  match t.media with
  | Front _ | Lost_buffered -> true
  | Newest _ | Lost_strict -> false

let is_lost t =
  match t.media with
  | Lost_strict | Lost_buffered -> true
  | Newest _ | Front _ -> false

(* The epoch tag for a fresh write on this slot. *)
let write_epoch t = if buffered t then Region.cur_epoch t.region else 0

(* A slot's ver-0 entry.  Immutable once built: no install ever writes
   it, since every install is of a fresh entry with [ver >= 1] (see
   {!cas_entry}), so one birth can start any number of slots. *)
type 'a birth = 'a entry

let birth v = { v; ver = 0; ep = 0 }

(* The strict media's "nothing persisted yet" entry: a version below every
   write's, so it covers nothing and leaves the slot dirty. *)
let unpersisted (b : 'a birth) = { v = b.v; ver = -1; ep = 0 }

(* A buffered birth: the birth in the one-element media front of a slot
   persisted at birth.  A write-back replaces a front rather than editing
   it, so slots born from it share this one list until their first. *)
type 'a buffered_birth = 'a entry list

let buffered_birth v = [ birth v ]

let media ~persist ~buffered (e : 'a birth) =
  if buffered then Front { front = (if persist then [ e ] else []) }
  else Newest { newest = (if persist then e else unpersisted e) }

(* Announce one structured access event (gated: call sites check
   [Hooks.access_on] first so the uninstrumented path pays one load). *)
let announce t op ~seq =
  Hooks.access_point
    {
      Hooks.a_op = op;
      a_slot = uid t;
      a_pair = pair t;
      a_region = Region.id t.region;
      a_domain = (Domain.self () :> int);
      a_tid = Hooks.tid ();
      a_seq = seq;
      a_line =
        (match t.line with Some l -> Region.line_uid l | None -> -1);
      a_protocol = Hooks.in_protocol ();
    }

(* The helpers below are top-level rather than local closures: they run on
   every write-back, and a closure would be allocated on each. *)

(* [p] has [ver >=] and [ep <=] those of [e]. *)
let dominates p e = p.ver >= e.ver && p.ep <= e.ep

(* Some entry of [l] dominates [e]. *)
let rec covers e = function
  | [] -> false
  | p :: rest -> dominates p e || covers e rest

(* [l] (newest first) with [e] inserted by version and the entries [e]
   dominates ([ver <=], [ep >=]) dropped: those are exactly the entries
   after [e]'s position whose epoch is not older than [e]'s. *)
let rec insert_entry e = function
  | p :: rest when p.ver > e.ver -> p :: insert_entry e rest
  | rest -> e :: older_epochs e rest

and older_epochs e = function
  | [] -> []
  | p :: rest when p.ep < e.ep -> p :: older_epochs e rest
  | _ :: rest -> older_epochs e rest

(* [l] (newest first) without every committed entry ([ep <= de]) that
   follows a committed one; a list with nothing to drop is returned as
   is, unallocated. *)
let rec prune_committed de seen l =
  match l with
  | [] -> l
  | p :: rest ->
      let committed = p.ep <= de in
      if committed && seen then prune_committed de true rest
      else
        let rest' = prune_committed de (seen || committed) rest in
        if rest' == rest then l else p :: rest'

(* Write-backs stay monotone per (version, epoch): an offer is dropped when
   the media already dominates it (an entry with [ver >=] and [ep <=]).

   A strict slot's media is one entry: all its entries carry [ep = 0], so
   the offer replaces it exactly when its version is newer (the
   max-version rule), with no allocation.

   A buffered slot's offer joins the Pareto front and evicts the entries it
   dominates.  Among entries from committed epochs ([ep <= durable_epoch])
   only the newest is kept: a crash restores nothing older, and every
   elision check an older one answers ([ver >=] a snapshot from a younger,
   uncommitted epoch) the newer one answers too.  So a buffered slot
   re-persisted in every epoch keeps at most two entries.  A stale
   [durable_epoch] read only prunes less: the durable cut never moves
   back.

   A lost slot takes no write-back: what its cache holds is garbage, and
   it stays lost until {!recover_store} overwrites it. *)
let rec persist_newest cell e =
  let old = Atomic.get cell in
  if not (dominates old e) then
    if not (Atomic.compare_and_set cell old e) then persist_newest cell e

let rec persist_front t cell e =
  let old = Atomic.get cell in
  if not (covers e old) then
    let front =
      prune_committed (Region.durable_epoch t.region) false (insert_entry e old)
    in
    if not (Atomic.compare_and_set cell old front) then persist_front t cell e

let persist_monotone t e =
  match t.media with
  | Newest _ as m -> persist_newest (newest_atomic m) e
  | Front _ as m -> persist_front t (front_atomic m) e
  | Lost_strict | Lost_buffered -> ()

(* The media dominates [e]: a write-back of [e] would be redundant. *)
let media_covers t e =
  match t.media with
  | Newest _ as m -> dominates (Atomic.get (newest_atomic m)) e
  | Front _ as m -> covers e (Atomic.get (front_atomic m))
  | Lost_strict | Lost_buffered -> false

(** Test/recovery introspection: what would survive a crash right now
    (assuming pending write-backs are lost). *)
let persisted_entry t =
  match t.media with
  | Newest _ as m ->
      let p = Atomic.get (newest_atomic m) in
      if p.ver < 0 then None else Some p
  | Front _ as m -> (
      match Atomic.get (front_atomic m) with [] -> None | p :: _ -> Some p)
  | Lost_strict | Lost_buffered -> None

(* Crash reset of the media: keep the newest entry of the durable cut and
   make it the coherent view, or mark the slot lost.  The durable cut:
   entries from epochs the durable slot does not cover are discarded even
   if they physically reached the media — they may be part of an
   inconsistent (torn-epoch) state.  Strict entries ([ep = 0]) are always
   inside the cut. *)
let reset_media t =
  match t.media with
  | Newest _ as m ->
      let p = Atomic.get (newest_atomic m) in
      if p.ver < 0 then t.media <- Lost_strict
      else Atomic.set (current_atomic t) p
  | Front _ as m -> (
      let cell = front_atomic m in
      let de = Region.durable_epoch t.region in
      let hist = Atomic.get cell in
      let rolled_back = List.exists (fun p -> p.ep > de) hist in
      match List.filter (fun p -> p.ep <= de) hist with
      | [] ->
          t.media <- Lost_buffered;
          if rolled_back && !Hooks.access_on then
            announce t Hooks.A_rollback ~seq:(-1)
      | p :: _ ->
          Atomic.set cell [ p ];
          Atomic.set (current_atomic t) p;
          if rolled_back && !Hooks.access_on then
            announce t Hooks.A_rollback ~seq:p.ver)
  | Lost_strict | Lost_buffered -> ()

(* A slot's crash reset, registered with its region or line. *)
let reset t ~persist_first =
  if persist_first then persist_monotone t (Atomic.get (current_atomic t));
  reset_media t

let create ~persist ~charge_copy ~paired line region (e : 'a birth) media =
  (* buffered slots persist through the epoch clock, never through line
     write-backs: they take no line *)
  let line =
    match media with
    | Front _ | Lost_buffered -> None
    | Newest _ | Lost_strict -> line
  in
  let t =
    {
      current = e;
      region;
      media;
      id =
        (let uid = Atomic.fetch_and_add next_uid 1 in
         if paired then uid else lnot uid);
      line;
      home =
        (match line with
        | Some l -> Region.line_home l
        | None -> Hooks.tid ());
    }
  in
  (match line with
  | None -> Region.register_slot region reset t
  | Some l ->
      (* line membership: the line's write-back persists this slot's
         current content; its crash reset shares the line's survival draw *)
      Region.line_add_member region l
        ~persist:(fun () -> persist_monotone t (Atomic.get (current_atomic t)))
        ~reset t);
  let coalesced_birth =
    charge_copy
    &&
    match line with
    | Some l -> Region.line_in_flight region l
    | None -> false
  in
  if charge_copy then begin
    (* allocation-time copy to NVMM + clwb: the caller initialised this
       line durably, so bill the write and write-back here in the
       substrate (the ordering fence folds into the caller's next fence).
       No persist/access event is emitted beyond [A_make]: the initial
       value is durable from birth (ver 0 persisted above), so there is no
       crash outcome to enumerate and nothing for the sanitizer to see
       beyond the make itself. *)
    Stats.bill_nvm_write ~home:Stats.local;
    if coalesced_birth then begin
      (* the birth [clwb] is absorbed by the line-mate's pending
         write-back: bill a coalesced flush instead of a charged one *)
      let s = Stats.get () in
      s.Stats.flush_coalesced <- s.Stats.flush_coalesced + 1
    end
    else begin
      Stats.bill_flush ~home:Stats.local;
      match line with
      | Some l -> Region.mark_line_flushed region l
      | None -> ()
    end
  end;
  if !Hooks.access_on then announce t (Hooks.A_make persist) ~seq:e.ver;
  if coalesced_birth && !Hooks.access_on then
    announce t Hooks.A_flush_coalesced ~seq:e.ver;
  t

let make_born ?(persist = false) ?(buffered = false) ?line region b =
  create ~persist ~charge_copy:false ~paired:false line region b
    (media ~persist ~buffered b)

let make ?persist ?buffered ?line region v =
  make_born ?persist ?buffered ?line region (birth v)

(* The flags are labelled, not optional: every caller passes all three.
   This also keeps a build without cross-module inlining (the dev
   profile) from boxing each flag in an option per Mirror variable; a
   release build would not box them either way. *)
let make_buffered_replica ~paired region (fb : 'a buffered_birth) =
  create ~persist:true ~charge_copy:true ~paired None region (List.hd fb)
    (Front { front = fb })

let make_replica ~paired ~buffered ~persist ?line region b =
  if buffered && persist then make_buffered_replica ~paired region [ b ]
  else
    create ~persist ~charge_copy:persist ~paired line region b
      (media ~persist ~buffered b)

let check t =
  Region.check_up t.region;
  match t.media with
  | Lost_strict | Lost_buffered ->
      invalid_arg
        "Mirror_nvm.Slot: reading a slot whose content was lost in a crash \
         (never persisted): the recovery procedure reached unrecoverable data"
  | Newest _ | Front _ -> ()

(** Load from NVMM (paying the 3x-DRAM read cost): the whole entry. *)
let load_entry t =
  Hooks.yield ();
  check t;
  Stats.bill_nvm_read ~home:t.home;
  let e = Atomic.get (current_atomic t) in
  if !Hooks.access_on then announce t Hooks.A_load ~seq:e.ver;
  e

let load t = (load_entry t).v

(* Spontaneous write-back of a fresh write, with the region's runtime
   eviction probability.  Callers test {!Region.evicting} first, so the
   closure is only built on regions that simulate eviction. *)
let evict t e =
  Region.maybe_evict t.region (fun () ->
      match t.line with
      | Some l -> Region.line_persist_members l
      | None -> persist_monotone t e)

(* The write loops: retry the install until the CAS on [current] lands.
   Top-level, so a write allocates only its entry. *)
let rec store_loop t v =
  let cur = Atomic.get (current_atomic t) in
  let e = { v; ver = cur.ver + 1; ep = write_epoch t } in
  if Atomic.compare_and_set (current_atomic t) cur e then begin
    if !Hooks.access_on then announce t Hooks.A_store ~seq:e.ver;
    if Region.evicting t.region then evict t e
  end
  else store_loop t v

(* The install step every conditional write shares: tag the still
   unpublished [e] with the open epoch right beside the CAS — no yield
   between, so a buffered write carries the epoch open at its install,
   never one an advance closed while the writer was descheduled. *)
let install t cur e =
  e.ep <- write_epoch t;
  if Atomic.compare_and_set (current_atomic t) cur e then begin
    if !Hooks.access_on then announce t (Hooks.A_cas true) ~seq:e.ver;
    if Region.evicting t.region then evict t e;
    true
  end
  else false

let refuse t cur =
  if !Hooks.access_on then announce t (Hooks.A_cas false) ~seq:cur.ver

let rec cas_pred_loop t expect desired =
  let cur = Atomic.get (current_atomic t) in
  if expect cur.v then
    if install t cur { v = desired; ver = cur.ver + 1; ep = 0 } then
      (true, cur.v)
    else cas_pred_loop t expect desired
  else begin
    refuse t cur;
    (false, cur.v)
  end

let rec cas_loop t expected desired =
  let cur = Atomic.get (current_atomic t) in
  if cur.v == expected then
    install t cur { v = desired; ver = cur.ver + 1; ep = 0 }
    || cas_loop t expected desired
  else begin
    refuse t cur;
    false
  end

(* [current] moves only forward through fresh entries, so the CAS on
   [expected] fails only when [current] is already another entry: one
   retry re-reads it and refuses. *)
let rec cas_entry_loop t expected desired =
  let cur = Atomic.get (current_atomic t) in
  if cur == expected then
    if install t cur desired then cur else cas_entry_loop t expected desired
  else begin
    refuse t cur;
    cur
  end

(* Every charged write enters through this prologue. *)
let begin_write t ev =
  Hooks.yield ();
  check t;
  Hooks.persist_point ev;
  match ev with
  | Hooks.Write -> Stats.bill_nvm_write ~home:t.home
  | _ -> Stats.bill_nvm_cas ~home:t.home

(** Unconditional store.  Versions stay monotone under concurrency. *)
let store t v =
  begin_write t Hooks.Write;
  store_loop t v

(** Compare-and-swap where the caller decides equality via [expect].
    Returns [(success, witnessed_value)] — like [cmpxchg], the witness is
    the value that was in memory when the instruction executed. *)
let cas_pred t ~(expect : 'a -> bool) ~(desired : 'a) : bool * 'a =
  begin_write t Hooks.Dwcas;
  cas_pred_loop t expect desired

(** Plain pointer-equality CAS. *)
let cas t ~expected ~desired =
  begin_write t Hooks.Dwcas;
  cas_loop t expected desired

let next_entry e v = { v; ver = e.ver + 1; ep = 0 }
let stale e = if e.ver < 0 then e else { e with ver = lnot e.ver }

(** Entry CAS: install [desired] over exactly the entry [expected] and
    return the entry found — [expected] itself iff the install landed. *)
let cas_entry t ~expected ~desired =
  if desired.ver <> expected.ver + 1 then
    invalid_arg
      "Mirror_nvm.Slot.cas_entry: desired is not expected's successor";
  begin_write t Hooks.Dwcas;
  cas_entry_loop t expected desired

(** Whether the cache line holds data newer than what is guaranteed
    persistent — the check behind Zuriel et al.'s elimination of repeated
    redundant persisting operations.  Free of charge (it models a volatile
    per-node flag, not an NVMM access). *)
let is_dirty t =
  let ver = (Atomic.get (current_atomic t)).ver in
  match t.media with
  | Newest _ as m -> (Atomic.get (newest_atomic m)).ver < ver
  | Front _ as m -> (
      match Atomic.get (front_atomic m) with
      | [] -> true
      | p :: _ -> p.ver < ver)
  | Lost_strict | Lost_buffered -> true

(* [elide]'s [seq] for a plain {!flush}, which names no snapshot: the
   announcement reads the current entry's version when it is made. *)
let seq_at_announce = min_int

(* The elided write-back: free, counted as [flush_elided].  A [line] is
   marked flushed, keeping the line's in-flight state identical to the
   un-elided run (the charged flush would have marked it): the mark only
   ever persists *more* at the fence, which a real cache may do anyway. *)
let elide ?line t ~seq =
  Hooks.persist_point Hooks.Flush_elided;
  let s = Stats.get () in
  s.Stats.flush_elided <- s.Stats.flush_elided + 1;
  (match line with Some l -> Region.mark_line_flushed t.region l | None -> ());
  if !Hooks.access_on then
    announce t Hooks.A_flush_elided
      ~seq:
        (if seq = seq_at_announce then (Atomic.get (current_atomic t)).ver
         else seq)

(** [clwb]: record a write-back of the line's current content.  The value is
    guaranteed persistent only once a subsequent {!Region.fence} completes,
    but may reach the media spontaneously before that.

    When the region's elision mode is on and the line is clean, the flush is
    a free no-op counted as [flush_elided]: versions are monotone, so a clean
    read here means the current value (or a newer one) is already durable and
    the write-back could only be redundant (Zuriel et al.'s elimination of
    repeated redundant persisting operations — the clean state is only ever
    installed by a *completed* flush + fence, which is exactly when a real
    implementation would clear the per-line dirty bit).  A stale dirty read
    is merely conservative — we never skip a required persist. *)
let flush t =
  Hooks.yield ();
  check t;
  if Region.elision t.region && not (is_dirty t) then
    elide ?line:t.line t ~seq:seq_at_announce
  else
    match t.line with
    | Some l when Region.line_in_flight t.region l ->
        (* the line is already in flight for this domain: this [clwb] is
           absorbed by the pending write-back (which captures member
           content when the fence drains — at or after this instant) *)
        Hooks.persist_point Hooks.Flush_coalesced;
        let s = Stats.get () in
        s.Stats.flush_coalesced <- s.Stats.flush_coalesced + 1;
        if !Hooks.access_on then
          announce t Hooks.A_flush_coalesced
            ~seq:(Atomic.get (current_atomic t)).ver
    | Some l ->
        Hooks.persist_point Hooks.Flush;
        Stats.bill_flush ~home:t.home;
        Region.mark_line_flushed t.region l;
        if !Hooks.access_on then
          announce t Hooks.A_flush ~seq:(Atomic.get (current_atomic t)).ver
    | None ->
        Hooks.persist_point Hooks.Flush;
        Stats.bill_flush ~home:t.home;
        let snapshot = Atomic.get (current_atomic t) in
        Region.add_pending t.region (fun () -> persist_monotone t snapshot);
        if !Hooks.access_on then announce t Hooks.A_flush ~seq:snapshot.ver

(* The epoch advancer's flush of a deferred snapshot: the charged-cost
   twin of {!flush}, but over the snapshot captured at record time (a
   later advance must not persist younger-epoch content).  Elision applies
   when the media already covers the snapshot (e.g. spontaneous eviction
   beat the advance to it). *)
let flush_snapshot t snapshot =
  if Region.elision t.region && media_covers t snapshot then
    elide t ~seq:snapshot.ver
  else begin
    Hooks.persist_point Hooks.Flush;
    Stats.bill_flush ~home:t.home;
    Region.add_pending t.region (fun () -> persist_monotone t snapshot);
    if !Hooks.access_on then announce t Hooks.A_flush ~seq:snapshot.ver
  end;
  Hooks.yield ()

(** Buffered persist: record the current content into the open epoch's
    deferred set instead of flushing — free on the hot path (the epoch
    advance pays the batched flush + fence later).  With elision on and a
    clean line, even the record is skipped (counted as [flush_elided],
    exactly when strict {!flush} would elide). *)
let persist_deferred t =
  Hooks.yield ();
  check t;
  if Region.elision t.region && not (is_dirty t) then
    elide t ~seq:(Atomic.get (current_atomic t)).ver
  else begin
    let snapshot = Atomic.get (current_atomic t) in
    if !Hooks.access_on then
      announce t Hooks.A_persist_deferred ~seq:snapshot.ver;
    Region.record_deferred t.region ~uid:(uid t) ~ver:snapshot.ver
      ~flush:(fun () -> flush_snapshot t snapshot)
  end

(** Recovery write: store + immediate durability, usable while the region
    is down (the recovery procedure is the only code running, and it
    persists everything it writes before normal operation resumes).  Also
    heals a lost slot by overwriting its garbage: the media block is
    rebuilt for the slot's own discipline. *)
let recover_store t v =
  let cur = Atomic.get (current_atomic t) in
  let e = { v; ver = cur.ver + 1; ep = 0 } in
  Atomic.set (current_atomic t) e;
  (match t.media with
  | Newest _ as m -> Atomic.set (newest_atomic m) e
  | Front _ as m -> Atomic.set (front_atomic m) [ e ]
  | Lost_strict -> t.media <- Newest { newest = e }
  | Lost_buffered -> t.media <- Front { front = [ e ] });
  if !Hooks.access_on then announce t Hooks.A_recovery_write ~seq:e.ver

let persisted_value t = Option.map (fun e -> e.v) (persisted_entry t)

(** What the durable-epoch cut would restore right now: the newest
    persisted entry from a committed epoch (test/recovery introspection). *)
let durable_value t =
  match t.media with
  | Newest _ | Lost_strict | Lost_buffered -> persisted_value t
  | Front _ as m -> (
      let de = Region.durable_epoch t.region in
      match List.filter (fun p -> p.ep <= de) (Atomic.get (front_atomic m)) with
      | [] -> None
      | p :: _ -> Some p.v)

(** The coherent (cache) view, without charging costs — test-only. *)
let peek_entry t = Atomic.get (current_atomic t)

let peek t = (peek_entry t).v

let front t =
  match t.media with
  | Front _ as m -> Atomic.get (front_atomic m)
  | Newest _ | Lost_strict | Lost_buffered -> []

let region t = t.region
let line t = t.line
