(** The persistency litmus suite: Px86-style flush/fence-ordering patterns
    adapted to the Region model, the Mirror paper's Lemma 5.4 (completed
    writes are durable) and Lemma 5.5 (reads return durable values) corner
    cases, strict-vs-buffered epoch visibility, and classic SC shapes (SB,
    MP) over the Mirror primitive — each with its complete live and durable
    outcome sets pinned.

    Durable observations pair persistent state with {e volatile completion
    witnesses} (plain refs, which survive a region crash): the tuple
    [(x_durable, completed)] turns durable linearizability into a litmus
    outcome — [(0, 1)] says "the operation completed but its effect did not
    survive", exactly what Lemma 5.4 forbids and what the orig-nvmm
    negative controls must reach.

    Every crash uses the adversarial policy (only fenced write-backs
    survive) so outcome sets are deterministic. *)

[@@@mlint.allow
  substrate
    "litmus programs exercise the substrate on purpose: raw flush/fence \
     ordering is the property under test"]

open Mirror_nvm
module Prim = Mirror_prim.Prim

let crash_recover_with r recover () =
  Region.crash ~policy:Region.Adversarial r;
  Region.recovery_session r recover

(* -- raw-slot flush/fence ordering (WP-style) ------------------------------ *)

(* store x; clwb x; sfence; store y; clwb y; sfence — y durable implies x
   durable (the fence between them orders the write-backs). *)
let wp_persist_order =
  Litmus.litmus "wp-persist-order"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let x = Slot.make ~persist:true r 0 in
      let y = Slot.make ~persist:true r 0 in
      {
        Litmus.tasks =
          [
            (fun () ->
              Slot.store x 1;
              Slot.flush x;
              Region.fence r;
              Slot.store y 1;
              Slot.flush y;
              Region.fence r);
          ];
        observe = (fun () -> [ Slot.load x; Slot.load y ]);
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable = (fun () -> [ Slot.peek x; Slot.peek y ]);
      })
    ~descr:"fenced flushes persist in order"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 0 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 0; 1 ] ] ()

(* Without a fence between the flushes, nothing is durable until the final
   sfence — and then both are: the intermediate mixed states are
   unreachable. *)
let wp_unfenced_flush =
  Litmus.litmus "wp-unfenced-flush"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let x = Slot.make ~persist:true r 0 in
      let y = Slot.make ~persist:true r 0 in
      {
        Litmus.tasks =
          [
            (fun () ->
              Slot.store x 1;
              Slot.flush x;
              Slot.store y 1;
              Slot.flush y;
              Region.fence r);
          ];
        observe = (fun () -> [ Slot.load x; Slot.load y ]);
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable = (fun () -> [ Slot.peek x; Slot.peek y ]);
      })
    ~descr:"unfenced flushes are atomic at the trailing fence"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 1; 0 ]; [ 0; 1 ] ] ()

(* Flushing y before x reverses the durability order: x-durable-without-y
   becomes the forbidden state, mirroring wp-persist-order. *)
let wp_fence_reversal =
  Litmus.litmus "wp-fence-reversal"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let x = Slot.make ~persist:true r 0 in
      let y = Slot.make ~persist:true r 0 in
      {
        Litmus.tasks =
          [
            (fun () ->
              Slot.store x 1;
              Slot.store y 1;
              Slot.flush y;
              Region.fence r;
              Slot.flush x;
              Region.fence r);
          ];
        observe = (fun () -> [ Slot.load x; Slot.load y ]);
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable = (fun () -> [ Slot.peek x; Slot.peek y ]);
      })
    ~descr:"reversed flush order reverses the reachable durable states"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 1; 0 ] ] ()

(* Two threads, disjoint persists: every durable combination is reachable —
   and reaching all four requires DPOR to generate both thread orders, so
   this test proves crash enumeration composes across schedules. *)
let wp_flush_race =
  Litmus.litmus "wp-flush-race"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let x = Slot.make ~persist:true r 0 in
      let y = Slot.make ~persist:true r 0 in
      {
        Litmus.tasks =
          [
            (fun () ->
              Slot.store x 1;
              Slot.flush x;
              Region.fence r);
            (fun () ->
              Slot.store y 1;
              Slot.flush y;
              Region.fence r);
          ];
        observe = (fun () -> [ Slot.load x; Slot.load y ]);
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable = (fun () -> [ Slot.peek x; Slot.peek y ]);
      })
    ~descr:"racing persists reach every durable combination"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    ()

(* -- Mirror primitive: SC shapes ------------------------------------------- *)

let prim_region ?epoch_len name =
  let r = Region.create ~seed:1 ?epoch_len () in
  (r, Prim.by_name r name)

(* Store buffering: both-reads-zero is forbidden (Mirror loads read the
   volatile replica, updated before the store returns — sequential
   consistency, not TSO). *)
let sb_mirror =
  Litmus.litmus "sb-mirror"
    (fun () ->
      let r, pack = prim_region "mirror" in
      let module P = (val pack) in
      let x = P.make 0 and y = P.make 0 in
      let r0 = ref (-1) and r1 = ref (-1) in
      {
        Litmus.tasks =
          [
            (fun () ->
              P.store x 1;
              r0 := P.load y);
            (fun () ->
              P.store y 1;
              r1 := P.load x);
          ];
        observe = (fun () -> [ !r0; !r1 ]);
        crash_recover =
          crash_recover_with r (fun () ->
              P.recover x;
              P.recover y);
        observe_durable = (fun () -> [ P.load x; P.load y ]);
      })
    ~descr:"store buffering over the Mirror primitive is SC"
    ~allowed:[ [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    ~forbidden:[ [ 0; 0 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    ()

(* Message passing: flag-set-but-data-unread is forbidden live (SC), and
   flag-durable-without-data is forbidden durably (persist order follows
   program order through Lemma 5.4). *)
let mp_mirror =
  Litmus.litmus "mp-mirror"
    (fun () ->
      let r, pack = prim_region "mirror" in
      let module P = (val pack) in
      let x = P.make 0 and f = P.make 0 in
      let ra = ref (-1) and rb = ref (-1) in
      {
        Litmus.tasks =
          [
            (fun () ->
              P.store x 1;
              P.store f 1);
            (fun () ->
              ra := P.load f;
              rb := P.load x);
          ];
        observe = (fun () -> [ !ra; !rb ]);
        crash_recover =
          crash_recover_with r (fun () ->
              P.recover x;
              P.recover f);
        observe_durable = (fun () -> [ P.load x; P.load f ]);
      })
    ~descr:"message passing: no flag without data, live or durable"
    ~allowed:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ]
    ~forbidden:[ [ 1; 0 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 0 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 0; 1 ] ] ()

(* Exactly one CAS wins, and the durable value is always the winner's (or
   the initial value) — never the loser's. *)
let cas_winner =
  Litmus.litmus "cas-winner-unique"
    (fun () ->
      let r, pack = prim_region "mirror" in
      let module P = (val pack) in
      let x = P.make 0 in
      let ok0 = ref (-1) and ok1 = ref (-1) in
      {
        Litmus.tasks =
          [
            (fun () -> ok0 := if P.cas x ~expected:0 ~desired:1 then 1 else 0);
            (fun () -> ok1 := if P.cas x ~expected:0 ~desired:2 then 1 else 0);
          ];
        observe = (fun () -> [ !ok0; !ok1 ]);
        crash_recover = crash_recover_with r (fun () -> P.recover x);
        observe_durable = (fun () -> [ P.load x ]);
      })
    ~descr:"racing CAS: exactly one winner, durable value never the loser's"
    ~allowed:[ [ 0; 1 ]; [ 1; 0 ] ]
    ~forbidden:[ [ 0; 0 ]; [ 1; 1 ] ]
    ~allowed_durable:[ [ 0 ]; [ 1 ]; [ 2 ] ]
    ()

(* fetch_add linearizes: the two returns are 0 and 1 in some order. *)
let faa_atomic =
  Litmus.litmus "faa-atomic"
    (fun () ->
      let r, pack = prim_region "mirror" in
      let module P = (val pack) in
      let x = P.make 0 in
      let r0 = ref (-1) and r1 = ref (-1) in
      {
        Litmus.tasks =
          [
            (fun () -> r0 := P.fetch_add x 1);
            (fun () -> r1 := P.fetch_add x 1);
          ];
        observe = (fun () -> [ !r0; !r1 ]);
        crash_recover = crash_recover_with r (fun () -> P.recover x);
        observe_durable = (fun () -> [ P.load x ]);
      })
    ~descr:"racing fetch_add returns 0 and 1 in some order"
    ~allowed:[ [ 0; 1 ]; [ 1; 0 ] ]
    ~forbidden:[ [ 0; 0 ]; [ 1; 1 ] ]
    ~allowed_durable:[ [ 0 ]; [ 1 ]; [ 2 ] ]
    ()

(* -- Lemma 5.4: completed writes are durable ------------------------------- *)

(* Durable observation (x, completed): (0, 1) would mean the store returned
   but its effect did not survive the crash — the durable-linearizability
   violation Lemma 5.4 rules out. *)
let lemma54 name ~expect_forbidden ~allowed_durable =
  Litmus.litmus ("lemma54-" ^ name)
    (fun () ->
      let r, pack = prim_region name in
      let module P = (val pack) in
      let x = P.make 0 in
      let completed = ref 0 in
      {
        Litmus.tasks =
          [
            (fun () ->
              P.store x 1;
              completed := 1);
          ];
        observe = (fun () -> [ P.load x; !completed ]);
        crash_recover = crash_recover_with r (fun () -> P.recover x);
        observe_durable = (fun () -> [ P.load x; !completed ]);
      })
    ~descr:"a completed store survives every crash point"
    ~allowed:[ [ 1; 1 ] ] ~allowed_durable
    ~forbidden_durable:[ [ 0; 1 ] ]
    ~expect_forbidden ()

let lemma54_mirror =
  lemma54 "mirror" ~expect_forbidden:false
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 1 ] ]

(* Negative control: orig-nvmm never flushes, so its only crash point is
   quiescence — where the store has completed and the adversarial crash
   still discards it. *)
let lemma54_orig_nvmm =
  lemma54 "orig-nvmm" ~expect_forbidden:true ~allowed_durable:[ [ 0; 1 ] ]

(* -- Lemma 5.5: reads return durable values -------------------------------- *)

(* Durable observation (x, saw): (0, 1) means some thread read the new
   value, yet a crash later discarded it — a dependant could have acted on
   a value that never became durable.  Mirror persists before making the
   write visible, so the state is unreachable. *)
let lemma55 label ~prim ~load ~expect_forbidden ~allowed_durable =
  Litmus.litmus ("lemma55-" ^ label)
    (fun () ->
      let r, pack = prim_region prim in
      let module P = (val pack) in
      let x = P.make 0 in
      let saw = ref 0 in
      {
        Litmus.tasks =
          [
            (fun () -> P.store x 1);
            (fun () -> if (if load then P.load x else P.load_t x) = 1 then saw := 1);
          ];
        observe = (fun () -> [ !saw ]);
        crash_recover = crash_recover_with r (fun () -> P.recover x);
        observe_durable = (fun () -> [ P.load x; !saw ]);
      })
    ~descr:"an observed value survives every crash point"
    ~allowed:[ [ 0 ]; [ 1 ] ]
    ~allowed_durable
    ~forbidden_durable:[ [ 0; 1 ] ]
    ~expect_forbidden ()

let lemma55_mirror =
  lemma55 "mirror" ~prim:"mirror" ~load:true ~expect_forbidden:false
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 0 ]; [ 1; 1 ] ]

let lemma55_orig_nvmm =
  lemma55 "orig-nvmm" ~prim:"orig-nvmm" ~load:true ~expect_forbidden:true
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ] ]

(* The NVTraverse bug class: a traversal-phase read ([load_t], free by
   design) can observe a value whose flush has not yet been fenced — fine
   inside a traversal, a durability leak if the value escapes. *)
let lemma55_nvtraverse_loadt =
  lemma55 "nvtraverse-loadt" ~prim:"nvtraverse" ~load:false
    ~expect_forbidden:true
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]

(* -- strict vs buffered epoch visibility ----------------------------------- *)

(* Buffered discipline, long epoch: the store completes with its persist
   deferred, so completed-but-not-durable (0, 1) is an *allowed* outcome —
   exactly the visibility the strict twin forbids.  (Buffered durable
   linearizability bounds the loss by the epoch clock instead.) *)
let epoch_program ?epoch_len name =
  let r, pack = prim_region ?epoch_len name in
  let module P = (val pack) in
  let x = P.make 0 in
  Region.quiesce r;
  let completed = ref 0 in
  {
    Litmus.tasks =
      [
        (fun () ->
          P.store x 1;
          completed := 1);
      ];
    observe = (fun () -> [ P.load x; !completed ]);
    crash_recover = crash_recover_with r (fun () -> P.recover x);
    observe_durable = (fun () -> [ P.load x; !completed ]);
  }

let epoch_buffered_defer =
  Litmus.litmus "epoch-buffered-defer"
    (fun () -> epoch_program ~epoch_len:8 "buffered")
    ~descr:"long epoch: completed stores may be lost (bounded staleness)"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 0; 1 ] ]
    ()

let epoch_strict_twin =
  Litmus.litmus "epoch-strict-twin"
    (fun () -> epoch_program "mirror")
    ~descr:"same program, strict discipline: completed implies durable"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 0; 1 ] ] ()

(* epoch_len = 1: every deferred persist advances the epoch synchronously —
   buffered mode reproduces the strict outcome set exactly. *)
let epoch1_parity =
  Litmus.litmus "epoch1-buffered-parity"
    (fun () -> epoch_program ~epoch_len:1 "buffered")
    ~descr:"epoch length 1: buffered outcomes collapse to strict"
    ~allowed:[ [ 1; 1 ] ]
    ~allowed_durable:[ [ 0; 0 ]; [ 1; 1 ] ]
    ~forbidden_durable:[ [ 0; 1 ] ] ()

(* -- deep tier: 3-thread sweeps (nightly) ----------------------------------- *)

(* 3-thread store buffering ring: ti stores Xi then reads X(i+1 mod 3).
   SC forbids all-zero (a cycle in the reads-from order); the other seven
   combinations are all reachable. *)
let deep_sb3 =
  Litmus.litmus "deep-sb3"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let x = Array.init 3 (fun _ -> Slot.make ~persist:true r 0) in
      let res = Array.make 3 (-1) in
      {
        Litmus.tasks =
          List.init 3 (fun i ->
              fun () ->
               Slot.store x.(i) 1;
               Slot.flush x.(i);
               Region.fence r;
               res.(i) <- Slot.load x.((i + 1) mod 3));
        observe = (fun () -> Array.to_list res);
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable =
          (fun () -> Array.to_list (Array.map Slot.peek x));
      })
    ~descr:"3-thread SB ring: the read cycle is forbidden" ~deep:true
    ~allowed:
      [
        [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 0 ]; [ 1; 0; 1 ];
        [ 1; 1; 0 ]; [ 1; 1; 1 ];
      ]
    ~forbidden:[ [ 0; 0; 0 ] ]
    ~allowed_durable:
      [
        [ 0; 0; 0 ]; [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 0 ];
        [ 1; 0; 1 ]; [ 1; 1; 0 ]; [ 1; 1; 1 ];
      ]
    ()

(* 3-way CAS race: exactly one winner; the durable value is the winner's or
   the initial one. *)
let deep_cas3 =
  Litmus.litmus "deep-cas3"
    (fun () ->
      let r, pack = prim_region "mirror" in
      let module P = (val pack) in
      let x = P.make 0 in
      let ok = Array.make 3 (-1) in
      {
        Litmus.tasks =
          List.init 3 (fun i ->
              fun () ->
               ok.(i) <- (if P.cas x ~expected:0 ~desired:(i + 1) then 1 else 0));
        observe = (fun () -> Array.to_list ok);
        crash_recover = crash_recover_with r (fun () -> P.recover x);
        observe_durable = (fun () -> [ P.load x ]);
      })
    ~descr:"3-way CAS race: exactly one winner" ~deep:true
    ~allowed:[ [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 1; 0; 0 ] ]
    ~allowed_durable:[ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    ()

(* 3 threads, disjoint fenced persists: all eight durable combinations. *)
let deep_flushrace3 =
  Litmus.litmus "deep-flushrace3"
    (fun () ->
      let r = Region.create ~seed:1 () in
      let xs = Array.init 3 (fun _ -> Slot.make ~persist:true r 0) in
      {
        Litmus.tasks =
          List.init 3 (fun i ->
              fun () ->
               Slot.store xs.(i) 1;
               Slot.flush xs.(i);
               Region.fence r);
        observe = (fun () -> Array.to_list (Array.map Slot.load xs));
        crash_recover = crash_recover_with r (fun () -> ());
        observe_durable = (fun () -> Array.to_list (Array.map Slot.peek xs));
      })
    ~descr:"3 racing persists reach all eight durable combinations"
    ~deep:true
    ~allowed:[ [ 1; 1; 1 ] ]
    ~allowed_durable:
      [
        [ 0; 0; 0 ]; [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ]; [ 1; 0; 0 ];
        [ 1; 0; 1 ]; [ 1; 1; 0 ]; [ 1; 1; 1 ];
      ]
    ()

(* -- the suite -------------------------------------------------------------- *)

let all =
  [
    wp_persist_order;
    wp_unfenced_flush;
    wp_fence_reversal;
    wp_flush_race;
    sb_mirror;
    mp_mirror;
    cas_winner;
    faa_atomic;
    lemma54_mirror;
    lemma54_orig_nvmm;
    lemma55_mirror;
    lemma55_orig_nvmm;
    lemma55_nvtraverse_loadt;
    epoch_buffered_defer;
    epoch_strict_twin;
    epoch1_parity;
  ]

let deep = [ deep_sb3; deep_cas3; deep_flushrace3 ]
let names ts = List.map (fun (t : Litmus.t) -> t.Litmus.name) ts

let find name =
  List.find_opt (fun (t : Litmus.t) -> t.Litmus.name = name) (all @ deep)
