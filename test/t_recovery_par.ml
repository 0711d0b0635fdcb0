(** The recovery tier: parallel recovery equivalence, corruption
    validation, crash-tolerant (restartable) recovery, the persistent
    recovery-epoch protocol, sanitizer silence during recovery, and pinned
    crash-in-recovery model-checker regressions. *)

open Mirror_nvmheap
module Hooks = Mirror_nvm.Hooks
module Region = Mirror_nvm.Region

let check = Support.check

(* One observable fingerprint of the rebuilt allocator state: equality
   means sequential and parallel recovery reconstructed identical volatile
   metadata. *)
let allocator_state h =
  (Heap.free_list_dump h, Heap.live_objects h, Heap.words_used h)

let build_crashed ~shape ~seed ~live =
  let region = Support.fresh_region () in
  let words = Shapes.words_needed ~live ~garbage_ratio:0.5 in
  let heap = Heap.create ~words region in
  let built = Shapes.build ~shape ~seed ~live heap in
  Region.crash region;
  (region, heap, built)

(* -- sequential vs parallel equivalence ---------------------------------- *)

let test_seq_par_equivalence () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let region, heap, built = build_crashed ~shape ~seed ~live:200 in
          Heap.recover ~domains:1 heap ~trace:built.Shapes.trace;
          let reference = allocator_state heap in
          let _, live, _ = reference in
          check
            (live = List.length built.Shapes.live)
            (Shapes.shape_name shape ^ ": live count matches the builder");
          let dump, _, _ = reference in
          (* the free list holds the garbage plus the residue of the last
             chunk (blocks carved but never handed out die with their
             arena), ascending; nothing else *)
          let residue =
            match Heap.last_recovery heap with
            | Some r -> r.Heap.r_residue
            | None -> -1
          in
          check
            (List.filter (fun p -> List.mem p built.Shapes.garbage) dump.(1)
            = built.Shapes.garbage)
            (Shapes.shape_name shape
           ^ ": free list contains the garbage, ascending");
          check
            (List.length dump.(1)
            = List.length built.Shapes.garbage + residue)
            (Shapes.shape_name shape
           ^ ": free-list extras are exactly the reclaimed chunk residue");
          check
            (List.sort compare dump.(1) = dump.(1))
            (Shapes.shape_name shape ^ ": free list ascending");
          List.iter
            (fun domains ->
              (* recovery is idempotent: re-run on the same crashed heap *)
              Heap.recover ~domains heap ~trace:built.Shapes.trace;
              check
                (allocator_state heap = reference)
                (Printf.sprintf "%s seed=%d: %d-domain recovery = sequential"
                   (Shapes.shape_name shape) seed domains);
              (* and under the deterministic scheduler (the runner the
                 bench harness uses for modeled tallies) *)
              Heap.recover ~domains
                ~runner:(fun tasks ->
                  ignore (Mirror_schedsim.Sched.run ~seed tasks))
                heap ~trace:built.Shapes.trace;
              check
                (allocator_state heap = reference)
                (Printf.sprintf
                   "%s seed=%d: %d-fiber recovery = sequential"
                   (Shapes.shape_name shape) seed domains))
            [ 2; 4 ];
          Region.mark_recovered region)
        [ 1; 2 ])
    Shapes.all_shapes

let test_worker_tallies () =
  let _, heap, built = build_crashed ~shape:Shapes.Forest ~seed:5 ~live:400 in
  Heap.recover ~domains:4
    ~runner:(fun tasks -> ignore (Mirror_schedsim.Sched.run ~seed:1 tasks))
    heap ~trace:built.Shapes.trace;
  match Heap.last_recovery heap with
  | None -> Alcotest.fail "no recovery stats recorded"
  | Some r ->
      check (r.Heap.r_domains = 4) "stats record the worker count";
      check
        (Array.fold_left ( + ) 0 r.Heap.r_worker_marked = r.Heap.r_marked)
        "per-worker marks sum to the total";
      check
        (Array.fold_left (fun n c -> n + if c > 0 then 1 else 0) 0
           r.Heap.r_worker_marked
        > 1)
        "a forest marks on more than one worker";
      check (r.Heap.r_live = 400) "stats live count";
      check
        (r.Heap.r_swept = List.length built.Shapes.garbage + r.Heap.r_residue)
        "stats swept = garbage + reclaimed residue"

(* -- corruption validation (the truncation-bug regression) ---------------- *)

let expect_corrupt ~offset ~tag f =
  match f () with
  | () -> Alcotest.failf "expected Recovery_corrupt at %d tag %d" offset tag
  | exception Heap.Recovery_corrupt c ->
      check (c.offset = offset && c.tag = tag)
        (Printf.sprintf "corrupt at %d tag %d (got %d tag %d)" offset tag
           c.offset c.tag)

(* Corruption tests poke the image while the region is up and recover as
   the pure GC pass — validation is identical on the crashed path (both
   parse the same coherent view). *)
let build_up ~shape ~seed ~live =
  let region = Support.fresh_region () in
  let words = Shapes.words_needed ~live ~garbage_ratio:0.5 in
  let heap = Heap.create ~words region in
  let built = Shapes.build ~shape ~seed ~live heap in
  (region, heap, built)

let test_corrupt_tag () =
  let _, heap, built = build_up ~shape:Shapes.Chain ~seed:3 ~live:20 in
  (* stamp an impossible size-class tag on a mid-heap header *)
  let victim = List.nth built.Shapes.live 7 in
  Heap.set heap (victim - 1) 99;
  expect_corrupt ~offset:(victim - 1) ~tag:99 (fun () ->
      Heap.recover heap ~trace:built.Shapes.trace)

let test_torn_hole_not_silent_truncation () =
  (* The regression this PR pins: a zero tag mid-heap used to make the
     sweep silently stop, quietly leaking every block after it.  It must
     now be reported as a torn hole — allocated blocks follow it. *)
  let _, heap, built = build_up ~shape:Shapes.Chain ~seed:3 ~live:20 in
  let victim = List.nth built.Shapes.live 2 in
  Heap.set heap (victim - 1) 0;
  expect_corrupt ~offset:(victim - 1) ~tag:0 (fun () ->
      Heap.recover heap ~trace:built.Shapes.trace)

let test_residue_past_heap_end () =
  let _, heap, built = build_up ~shape:Shapes.Tree ~seed:4 ~live:20 in
  let off = Heap.words_used heap + 3 in
  Heap.set heap off 7;
  expect_corrupt ~offset:off ~tag:7 (fun () ->
      Heap.recover heap ~trace:built.Shapes.trace)

let test_pointer_out_of_range () =
  let region = Support.fresh_region () in
  let words = Shapes.words_needed ~live:8 ~garbage_ratio:0.0 in
  let heap = Heap.create ~words region in
  let built = Shapes.build ~shape:Shapes.Chain ~seed:1 ~live:8 heap in
  ignore built;
  ignore region;
  expect_corrupt ~offset:(words + 5) ~tag:(-1) (fun () ->
      Heap.recover heap ~trace:(fun _ -> [ words + 5 ]))

let test_parallel_corruption_detected () =
  (* the same validation must fire from worker domains *)
  let _, heap, built = build_up ~shape:Shapes.Forest ~seed:6 ~live:60 in
  let victim = List.nth built.Shapes.live 31 in
  Heap.set heap (victim - 1) 42;
  match Heap.recover ~domains:4 heap ~trace:built.Shapes.trace with
  | () -> Alcotest.fail "parallel recovery accepted a corrupt heap"
  | exception Heap.Recovery_corrupt _ -> ()

(* -- crash-tolerant recovery: kill at every point, restart ----------------- *)

exception Kill

let test_recovery_killable_everywhere () =
  let shape = Shapes.Dag in
  let region, heap, built = build_crashed ~shape ~seed:9 ~live:60 in
  (* reference result + number of kill points from one full recovery *)
  let points = ref 0 in
  Hooks.with_recovery_hook
    (fun _ -> incr points)
    (fun () -> Heap.recover heap ~trace:built.Shapes.trace);
  let reference = allocator_state heap in
  check (!points > Heap.num_roots) "kill-point space covers roots and sweep";
  for k = 0 to !points - 1 do
    (* kill the k-th recovery point... *)
    let n = ref 0 in
    (try
       Hooks.with_recovery_hook
         (fun _ ->
           if !n = k then raise Kill;
           incr n)
         (fun () -> Heap.recover heap ~trace:built.Shapes.trace)
     with Kill -> ());
    (* ...power-fail again (discarding half-rebuilt volatile state is the
       region's job; the heap's metadata is volatile and recovery-owned)
       and re-run from scratch *)
    Region.crash region;
    check (Region.begin_recovery region) "epoch flags the interruption";
    Heap.recover heap ~trace:built.Shapes.trace;
    check
      (allocator_state heap = reference)
      (Printf.sprintf "restart after kill at point %d/%d rebuilds identically"
         k !points)
  done;
  Region.mark_recovered region;
  check (Region.recovery_epoch region land 1 = 0) "epoch even when done"

(* -- the persistent recovery-epoch protocol -------------------------------- *)

let test_epoch_protocol () =
  let region = Support.fresh_region () in
  check (Region.recovery_epoch region = 0) "fresh region: epoch 0";
  check (not (Region.begin_recovery region)) "up region: pure GC pass";
  check (Region.recovery_epoch region = 0) "up region: epoch untouched";
  Region.crash region;
  check (not (Region.begin_recovery region)) "first recovery: not interrupted";
  check (Region.recovery_epoch region = 1) "recovery in progress: epoch odd";
  check
    (not (Region.begin_recovery region))
    "same session: tracers share one verdict";
  check (Region.recovery_epoch region = 1) "same session: one transition";
  Region.mark_recovered region;
  check (Region.recovery_epoch region = 2) "complete: epoch even again";
  (* a crash mid-recovery leaves the epoch odd; the next session sees it *)
  Region.crash region;
  ignore (Region.begin_recovery region : bool);
  Region.crash region (* power fails before mark_recovered *);
  check (Region.begin_recovery region) "interrupted recovery detected";
  check (Region.recovery_interrupted region) "verdict readable all session";
  Region.mark_recovered region;
  check (Region.recovery_epoch region land 1 = 0) "finalized even"

(* [Region.recovery_session] fires R_begin and R_done around the work and
   re-opens the region; a kill inside it must leave the region down with
   the epoch odd — nothing may finalise a recovery that did not finish. *)
let test_recovery_session () =
  let region = Support.fresh_region () in
  let seen = ref [] in
  Hooks.with_recovery_hook
    (fun ev -> seen := Hooks.recovery_event_name ev :: !seen)
    (fun () ->
      Region.crash region;
      Region.recovery_session region (fun () ->
          check !Hooks.in_recovery "work runs under the in-recovery flag";
          check (Region.recovery_epoch region = 1) "epoch odd during the work")
    );
  check (List.rev !seen = [ "begin"; "done" ]) "R_begin, then R_done";
  check (not (Region.is_down region)) "session re-opens the region";
  check (Region.recovery_epoch region = 2) "session finalises the epoch";
  Region.crash region;
  (match Region.recovery_session region (fun () -> raise Exit) with
  | () -> check false "the kill must propagate"
  | exception Exit -> ());
  check (Region.is_down region) "killed session leaves the region down";
  check (Region.recovery_epoch region = 3) "killed session: epoch still odd";
  check (not !Hooks.in_recovery) "in-recovery flag restored";
  Region.crash region;
  Region.recovery_session region ignore;
  check (Region.recovery_interrupted region) "next session sees the kill";
  check (Region.recovery_epoch region = 4) "and finalises even"

(* -- sanitizer silence during recovery ------------------------------------- *)

let test_psan_silent_during_recovery () =
  let sa = Mirror_psan.Psan.create ~seed:1 () in
  Mirror_psan.Psan.install sa (fun () ->
      let region = Support.fresh_region () in
      let x = Mirror_core.Patomic.make region 0 in
      let raw = Mirror_nvm.Slot.make ~persist:true region 0 in
      Mirror_core.Patomic.store x 41;
      Region.crash region;
      Region.recovery_session region (fun () ->
          Mirror_core.Patomic.recover x;
          (* privileged recovery write: store + immediate durability *)
          Mirror_nvm.Slot.recover_store raw 7);
      check (Mirror_core.Patomic.load x = 41) "recovered value readable";
      check (Mirror_nvm.Slot.peek raw = 7) "recovery write applied");
  let r = Mirror_psan.Psan.report sa in
  check
    (Mirror_psan.Psan.clean r)
    "recovery's privileged accesses raise no sanitizer findings"

(* -- pinned crash-in-recovery model-checker regressions -------------------- *)

module M = Mirror_mcheck.Mcheck

let rec_scenario () =
  M.set_scenario ~ds:Mirror_dstruct.Sets.List_ds ~prim:"mirror" ~threads:3
    ~ops_per_task:3 ~range:16 ~updates:60 ()

(* Replay tokens generated by `mcheck --crash-in-recovery` runs during
   development; the negative control must keep firing and the restart
   discipline must keep validating at the same (seed, crash, kill). *)
let pinned_negative = "1:0:0:2,1,1,2"
let pinned_positive = "1:3:2:2,1,1,2,2,2,0,2"

let test_pinned_trust_partial_fires () =
  let seed, picks, crash_at, rec_at = M.rcx_of_string pinned_negative in
  let violations, note =
    M.replay_recovery ~trust_partial:true (rec_scenario ()) ~seed ~picks
      ~crash_at ~rec_at
  in
  check (violations <> []) "accepting a half-finished recovery violates";
  check
    (String.length note > 0)
    "the counterexample says why (unrecovered data or bad contents)"

let test_pinned_restart_validates () =
  let seed, picks, crash_at, rec_at = M.rcx_of_string pinned_positive in
  let violations, note =
    M.replay_recovery (rec_scenario ()) ~seed ~picks ~crash_at ~rec_at
  in
  check (violations = []) ("restarted recovery validates: " ^ note)

let test_check_recovery_smoke () =
  let r =
    M.check_recovery ~budget:4 ~rec_budget:4 (rec_scenario ()) ~seed:2
  in
  check (r.M.rr_counterexample = None) "restart discipline: crash-tolerant";
  check (r.M.rr_rec_points > 0) "pairs were actually examined";
  let neg =
    M.check_recovery ~budget:4 ~rec_budget:4 ~trust_partial:true
      (rec_scenario ()) ~seed:2
  in
  check (neg.M.rr_counterexample <> None) "trust-partial control fires";
  (* token codec round-trip *)
  match neg.M.rr_counterexample with
  | None -> ()
  | Some rcx ->
      let s = M.rcx_to_string rcx in
      let seed, picks, crash_at, rec_at = M.rcx_of_string s in
      check
        (seed = rcx.M.rcx_seed
        && picks = rcx.M.rcx_picks
        && crash_at = rcx.M.rcx_crash_at
        && rec_at = rcx.M.rcx_rec_at)
        "rcx codec round-trips"

let suite =
  [
    ( "recovery-par",
      [
        Alcotest.test_case "seq vs parallel equivalence" `Quick
          test_seq_par_equivalence;
        Alcotest.test_case "worker tallies" `Quick test_worker_tallies;
        Alcotest.test_case "corrupt tag detected" `Quick test_corrupt_tag;
        Alcotest.test_case "torn hole is not silent truncation" `Quick
          test_torn_hole_not_silent_truncation;
        Alcotest.test_case "residue past heap end" `Quick
          test_residue_past_heap_end;
        Alcotest.test_case "pointer out of range" `Quick
          test_pointer_out_of_range;
        Alcotest.test_case "parallel workers validate too" `Quick
          test_parallel_corruption_detected;
        Alcotest.test_case "killable at every recovery point" `Quick
          test_recovery_killable_everywhere;
        Alcotest.test_case "recovery epoch protocol" `Quick
          test_epoch_protocol;
        Alcotest.test_case "psan silent during recovery" `Quick
          test_psan_silent_during_recovery;
        Alcotest.test_case "pinned: trust-partial fires" `Quick
          test_pinned_trust_partial_fires;
        Alcotest.test_case "pinned: restart validates" `Quick
          test_pinned_restart_validates;
        Alcotest.test_case "check_recovery smoke + codec" `Quick
          test_check_recovery_smoke;
        Alcotest.test_case "recovery session" `Quick test_recovery_session;
      ] );
  ]
