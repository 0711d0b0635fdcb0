(** Tests of the line map: placement, flush coalescing, line-atomic crash
    semantics, the slot-granular default's bit-compatibility with the
    seed, and the generalized W1 <-> elision+coalescing equivalence. *)

open Mirror_nvm
module F = Mirror_harness.Figures
module Panel = Mirror_harness.Panel
module Psan = Mirror_psan.Psan

let check = Support.check

(* -- vocabulary ------------------------------------------------------------- *)

(* Both bin/mcheck.exe and bench/main.exe read [Figures.line_slots] as the
   --slots-per-line vocabulary (exit 2 on anything else), so this pin IS
   the CLI/vocabulary sync test: changing the sweep without updating the
   budgets, docs and this test fails here first. *)
let test_vocab () =
  check (F.line_slots = [ 1; 4; 8 ]) "line_slots sweep is pinned";
  check
    (F.line_structures = [ "list"; "bst"; "skiplist" ])
    "line panel structures are pinned";
  check (List.mem 1 F.line_slots) "the slot-granular default stays valid"

(* -- placement -------------------------------------------------------------- *)

let uid (p : Region.place option) =
  Region.line_uid (Option.get (Option.get p).line)

let test_placement () =
  (* slot-granular region: no lines exist *)
  let r1 = Region.create () in
  check (Region.slots_per_line r1 = 1) "default is one slot per line";
  check (Region.place r1 = None) "place degenerates at slots_per_line=1";
  check
    (Region.place_near r1 (Region.home_place r1) = None)
    "place_near degenerates too";
  (* 4-slot lines: place_near packs until the line is full *)
  let r = Region.create ~slots_per_line:4 () in
  let l1 = Region.place r in
  check (l1 <> None) "place carves a line";
  let near l = Region.place_near r (Option.get l) in
  let l2 = near l1 in
  let l3 = near l2 in
  let l4 = near l3 in
  check
    (uid l2 = uid l1 && uid l3 = uid l1 && uid l4 = uid l1)
    "three more fields share the line";
  let l5 = near l4 in
  check (uid l5 <> uid l1) "a full line overflows to a fresh one";
  let l6 = Region.place_near r (Region.home_place r) in
  check (uid l6 <> uid l1) "place_near a lineless place carves fresh"

(* -- coalescing ------------------------------------------------------------- *)

let line_pair () =
  let r = Region.create ~slots_per_line:8 () in
  let a = Slot.make ~persist:true ?place:(Region.place r) r 0 in
  let b =
    Slot.make ~persist:true ?place:(Region.place_near r (Slot.place a)) r 0
  in
  check
    (Region.line_uid (Option.get (Slot.line a))
    = Region.line_uid (Option.get (Slot.line b)))
    "pair shares one line";
  (r, a, b)

let test_coalesced_flush () =
  let r, a, b = line_pair () in
  let s = Stats.get () in
  Slot.store a 1;
  Slot.store b 2;
  let f0 = s.Stats.flush and c0 = s.Stats.flush_coalesced in
  Slot.flush a;
  check (s.Stats.flush - f0 = 1) "first flush of the line is charged";
  Slot.flush b;
  check (s.Stats.flush - f0 = 1) "second flush is not charged";
  check (s.Stats.flush_coalesced - c0 = 1) "second flush coalesced";
  Region.fence r;
  check
    (Slot.persisted_value a = Some 1 && Slot.persisted_value b = Some 2)
    "one charged flush + fence persists the whole line"

(* In-flight line state is per domain: a fence orders only the issuing
   CPU's own write-backs, so a line a spawned domain flushed (and never
   fenced) is not in flight for the main domain, whose flush of a
   line-mate is charged, not coalesced. *)
let test_in_flight_per_domain () =
  let r, a, b = line_pair () in
  Slot.store a 1;
  Slot.store b 2;
  Domain.join (Domain.spawn (fun () -> Slot.flush a));
  check
    (not (Region.line_in_flight r (Option.get (Slot.line b))))
    "another domain's flush leaves the line idle here";
  let s = Stats.get () in
  let f0 = s.Stats.flush and c0 = s.Stats.flush_coalesced in
  Slot.flush b;
  check (s.Stats.flush - f0 = 1) "the line-mate's flush is charged";
  check (s.Stats.flush_coalesced - c0 = 0) "and not coalesced";
  Region.fence r;
  check (Slot.persisted_value b = Some 2) "this domain's fence persists it";
  Alcotest.(check int)
    "the other domain's write-back stays pending" 1 (Region.pending_count r)

let test_drain_captures_at_fence () =
  (* a line-mate dirtied *after* the line went in flight still rides the
     pending write-back: the drain captures member content at the fence *)
  let r, a, b = line_pair () in
  Slot.store a 5;
  Slot.flush a;
  Slot.store b 6;
  Slot.flush b (* coalesced, though b was dirtied after a's flush *);
  Region.fence r;
  check
    (Slot.persisted_value a = Some 5 && Slot.persisted_value b = Some 6)
    "late line-mate write is persisted by the same drain"

(* -- line-atomic crash ------------------------------------------------------ *)

let test_line_atomic_crash () =
  (* crash in the window between the coalesced flush and the fence: the
     pending line write-back is dropped and BOTH members roll back — a
     line is lost or kept as a unit, never split *)
  let r, a, b = line_pair () in
  Slot.store a 1;
  Slot.store b 2;
  Slot.flush a;
  Slot.flush b (* coalesced: rides a's pending write-back *);
  Region.crash r;
  Region.mark_recovered r;
  check
    (Slot.load a = 0 && Slot.load b = 0)
    "adversarial crash before the fence loses both line-mates";
  (* same protocol, fence completed: both survive *)
  Slot.store a 1;
  Slot.store b 2;
  Slot.flush a;
  Slot.flush b;
  Region.fence r;
  Region.crash r;
  Region.mark_recovered r;
  check
    (Slot.load a = 1 && Slot.load b = 2)
    "after the fence the whole line survives"

(* -- slots_per_line=1 is bit-identical to the seed's model ------------------ *)

let snap () =
  let z = Stats.zero () in
  Stats.add ~into:z (Stats.total ());
  z

(* Seeded schedsim run of a mixed insert/remove workload over the list;
   returns (summed stats, final contents). *)
let run_list region seed =
  let (module S : Mirror_dstruct.Sets.SET) =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Mirror_prim.Prim.by_name region "mirror")
  in
  let t = S.create ~capacity:64 () in
  let tasks =
    List.init 2 (fun i () ->
        for j = 0 to 29 do
          let k = (i * 30) + j in
          ignore (S.insert t k k);
          if j mod 3 = 0 then ignore (S.remove t k)
        done)
  in
  Stats.reset_all ();
  let o = Mirror_schedsim.Sched.run ~seed tasks in
  check o.Mirror_schedsim.Sched.completed "schedsim run completed";
  (snap (), S.to_list t)

let test_slot_granular_unchanged () =
  (* an explicit ~slots_per_line:1 region must behave bit-identically to
     the historical default under the same seeded schedule: same charged
     counters, same elision counters, no coalescing, same contents *)
  List.iter
    (fun seed ->
      let s_default, l_default =
        run_list (Region.create ~track_slots:false ()) seed
      in
      let s_one, l_one =
        run_list (Region.create ~track_slots:false ~slots_per_line:1 ()) seed
      in
      check (s_default = s_one)
        (Printf.sprintf "seed %d: identical stats at slots_per_line=1" seed);
      check (l_default = l_one)
        (Printf.sprintf "seed %d: identical contents" seed);
      check
        (s_one.Stats.flush_coalesced = 0)
        "no coalescing at slots_per_line=1")
    [ 1; 2; 3 ]

(* -- the line panel's flush reduction --------------------------------------- *)

let test_panel_reduction () =
  (* multi-field inserts at 8 slots per line: the placement API must
     collapse the N per-insert write-backs toward one.  Small-scale twin
     of the budgeted bench panel (bench/budgets.csv pins >= 1.5x at full
     scale); the floor here is looser only because the run is shorter. *)
  let p = F.run_line_panel ~slots:[ 1; 8 ] ~ops_per_task:60 ~seeds:2 () in
  check
    (List.length p.Panel.rows = 2 * List.length F.line_structures)
    "two rows per structure";
  List.iter
    (fun r ->
      let num col = Panel.to_float (Panel.get p r col) in
      let ds = Panel.render (Panel.get p r "ds") in
      if num "slots_per_line" = 1. then begin
        check (num "coalesced_per_op" = 0.) (ds ^ ": no coalescing at 1");
        check (num "flush_reduction" = 1.) (ds ^ ": slots=1 is the baseline")
      end
      else begin
        check (num "coalesced_per_op" > 0.) (ds ^ ": coalesced flushes at 8");
        check
          (num "flushes_per_op" < num "baseline_flushes_per_op")
          (ds ^ ": charged flushes drop");
        if num "flush_reduction" < 1.4 then
          Alcotest.failf "%s: flush reduction %.2f < 1.4 at 8 slots/line" ds
            (num "flush_reduction")
      end)
    p.Panel.rows

(* -- W1 <-> elision + coalescing equivalence -------------------------------- *)

(* The t_psan torture harness over a *line-mode* region: with 8 slots per
   line some flushes coalesce instead of eliding, and psan's generalized
   W1 lint flags both.  So the elide-off run's w1_flush must equal the
   elide-on run's (flush_elided + flush_coalesced) delta for the same
   seed: every W1 finding is a persist the elision/coalescing layers
   would absorb, and nothing else is. *)
let torture_line ~elide ~psan ~seed =
  let region = Region.create ~seed:7 ~elide ~slots_per_line:8 () in
  let pack =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Mirror_prim.Prim.by_name region "mirror")
  in
  Mirror_harness.Durable.torture_schedsim pack ~region
    ~recover:(fun () -> ())
    ?psan ~seed ~threads:3 ~ops_per_task:6 ~range:16
    ~mix:(Mirror_workload.Workload.of_updates 60)
    ~crash_step:max_int ()

let test_w1_matches_coalescing () =
  List.iter
    (fun seed ->
      let sa = Psan.create ~seed () in
      let (_ : Mirror_harness.Durable.result) =
        torture_line ~elide:false ~psan:(Some sa) ~seed
      in
      let r = Psan.report sa in
      let s = Stats.get () in
      let f0 = s.Stats.flush_elided and c0 = s.Stats.flush_coalesced in
      let e0 = s.Stats.fence_elided in
      let (_ : Mirror_harness.Durable.result) =
        torture_line ~elide:true ~psan:None ~seed
      in
      let absorbed =
        s.Stats.flush_elided - f0 + (s.Stats.flush_coalesced - c0)
      in
      let elided_fence = s.Stats.fence_elided - e0 in
      if r.Psan.w1_flush <> absorbed || r.Psan.w1_fence <> elided_fence then
        Alcotest.failf
          "seed %d: W1 (%d flushes, %d fences) <> elided+coalesced (%d, %d)"
          seed r.Psan.w1_flush r.Psan.w1_fence absorbed elided_fence)
    [ 1; 2; 3; 4; 5 ]

let suite =
  [
    ( "line",
      [
        Alcotest.test_case "slots-per-line vocabulary" `Quick test_vocab;
        Alcotest.test_case "placement" `Quick test_placement;
        Alcotest.test_case "coalesced flush" `Quick test_coalesced_flush;
        Alcotest.test_case "in flight per domain" `Quick
          test_in_flight_per_domain;
        Alcotest.test_case "drain captures at fence" `Quick
          test_drain_captures_at_fence;
        Alcotest.test_case "line-atomic crash" `Quick test_line_atomic_crash;
        Alcotest.test_case "slots_per_line=1 unchanged" `Quick
          test_slot_granular_unchanged;
        Alcotest.test_case "panel flush reduction" `Quick test_panel_reduction;
        Alcotest.test_case "W1 matches elision+coalescing" `Quick
          test_w1_matches_coalescing;
      ] );
  ]
