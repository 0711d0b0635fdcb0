(** Buffered durable linearizability (the third discipline): epoch-batched
    persistence must degenerate to the strict Mirror cost model at epoch
    length 1, survive crashes landing in the window between an epoch
    advance's fence and its durable-epoch bump, keep help-advance
    nonblocking under scheduled races, and bound staleness — a crash loses
    at most the two uncommitted epochs of completed updates — under crash
    torture for all four structure sets. *)

open Mirror_core
open Mirror_nvm
open Mirror_dstruct
module Sched = Mirror_schedsim.Sched
module D = Mirror_harness.Durable
module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng

let check = Support.check
let reset () = Stats.reset_all ()
let st () = Stats.total ()

(* -- 1. exact cost model at epoch length 1 ------------------------------------ *)

(* A successful buffered CE at epoch length 1 records one deferred persist
   whose synchronous advance flushes it and fences once: exactly the strict
   charge (one flush + one fence), now also visible in the batching
   counters. *)
let test_unit_cost_len1 () =
  let r = Region.create ~epoch_len:1 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 5 in
  reset ();
  check (Patomic.cas v ~expected:5 ~desired:10) "cas succeeds";
  let s = st () in
  Alcotest.(check int) "one flush charged" 1 s.Stats.flush;
  Alcotest.(check int) "one fence charged" 1 s.Stats.fence;
  Alcotest.(check int) "one deferred record" 1 s.Stats.writes_deferred;
  Alcotest.(check int) "one batched fence" 1 s.Stats.fence_batched;
  check (s.Stats.epoch_advance >= 1) "the epoch advanced synchronously";
  Alcotest.(check int) "durable epoch caught up" 1 (Region.durable_epoch r)

(* The same sequential op stream against the same structure must charge
   identical flush/fence totals under strict Mirror and under buffered at
   epoch length 1 — the degenerate epoch clock is cost-transparent. *)
let seq_cost_len1 ds () =
  let run prim =
    let region = Region.create ~track_slots:false ~seed:7 ~epoch_len:1 () in
    let (module S) = Sets.make ds (Support.prim region prim) in
    let t = S.create ~capacity:16 () in
    List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range:16);
    reset ();
    let rng = Rng.create 23 in
    for i = 1 to 400 do
      match W.gen rng (W.of_updates 70) ~range:16 with
      | W.Lookup k -> ignore (S.contains t k)
      | Insert (k, _) -> ignore (S.insert t k i)
      | Remove k -> ignore (S.remove t k)
    done;
    Region.quiesce region;
    (st (), S.to_list t)
  in
  let s_strict, c_strict = run "mirror" in
  let s_buf, c_buf = run "buffered" in
  Alcotest.(check (list (pair int int)))
    (Sets.ds_name ds ^ ": identical final contents")
    c_strict c_buf;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": flush parity at epoch length 1")
    s_strict.Stats.flush s_buf.Stats.flush;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": fence parity at epoch length 1")
    s_strict.Stats.fence s_buf.Stats.fence;
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": flush elision parity")
    s_strict.Stats.flush_elided s_buf.Stats.flush_elided;
  check (s_buf.Stats.writes_deferred > 0)
    (Sets.ds_name ds ^ ": the buffered run actually deferred");
  Alcotest.(check int)
    (Sets.ds_name ds ^ ": strict run never touches the epoch clock")
    0 s_strict.Stats.writes_deferred

(* -- 2. crash in the fence-to-bump window ------------------------------------- *)

exception Cut

(* Cut the execution exactly at [Epoch_bump] number [n] (1-based); the
   epoch's batch is flushed and fenced but the durable-epoch slot has not
   moved. *)
let crash_at_bump n body =
  let seen = ref 0 in
  match
    Hooks.with_persist
      (fun ev ->
        if ev = Hooks.Epoch_bump then begin
          incr seen;
          if !seen = n then raise Cut
        end)
      body
  with
  | () -> Alcotest.fail "no Epoch_bump reached"
  | exception Cut -> ()

(* Crash between the advance's fence and the durable-epoch bump: the
   epoch's writes are physically durable but not yet committed, so recovery
   must discard them — the state rolls back to the previous durable cut,
   never to a torn mixture. *)
let test_crash_fence_bump_window () =
  let r = Region.create ~epoch_len:4 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  crash_at_bump 1 (fun () ->
      for i = 1 to 4 do
        Patomic.store v i
      done);
  Alcotest.(check int) "durable epoch never bumped" 0 (Region.durable_epoch r);
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int)
    "fenced-but-unbumped epoch discarded: initial value survives" 0
    (Patomic.load v);
  (* the same writes, allowed to commit, are durable past any crash *)
  for i = 1 to 4 do
    Patomic.store v i
  done;
  Region.quiesce r;
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int) "committed epoch survives" 4 (Patomic.load v)

(* A committed epoch is a hard floor: crash with a younger epoch open and
   recovery lands exactly on the newest write of the durable epoch. *)
let test_rollback_to_committed_epoch () =
  let r = Region.create ~epoch_len:4 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  for i = 1 to 4 do
    Patomic.store v i
  done;
  Alcotest.(check int) "first epoch committed" 1 (Region.durable_epoch r);
  Patomic.store v 5;
  (* epoch 2, still open *)
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int) "rolled back to the committed epoch's newest write" 4
    (Patomic.load v)

(* Deferred records are kept per domain but drained by any advancer: a
   record a spawned domain left in the open epoch is made durable by the
   main domain's help-advance, and a crash before that advance rolls it
   back and drops the record, so no later advance commits it. *)
let test_cross_domain_deferred () =
  let after_crash ~advance =
    let r = Region.create ~epoch_len:8 () in
    let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
    Domain.join (Domain.spawn (fun () -> Patomic.store v 1));
    Alcotest.(check int) "the spawned domain's record" 1
      (Region.deferred_count r);
    if advance then begin
      Region.help_advance r;
      Alcotest.(check int) "drained by the main domain" 0
        (Region.deferred_count r);
      Alcotest.(check int) "its epoch committed" 1 (Region.durable_epoch r)
    end;
    let crash_and_recover () =
      Region.crash r;
      Patomic.recover v;
      Region.mark_recovered r
    in
    crash_and_recover ();
    Region.help_advance r;
    crash_and_recover ();
    Patomic.load v
  in
  Alcotest.(check int) "advanced: durable" 1 (after_crash ~advance:true);
  Alcotest.(check int) "crash first: rolled back" 0
    (after_crash ~advance:false)

(* -- 3. help-advance races ------------------------------------------------------ *)

(* An advance already in flight makes a concurrent help-advance return
   immediately — buffered completion never waits.  With nothing deferred an
   advance charges no flush and no fence at all. *)
let test_help_advance_empty_is_free () =
  let r = Region.create ~epoch_len:8 () in
  reset ();
  Region.help_advance r;
  Region.help_advance r;
  let s = st () in
  Alcotest.(check int) "no flush charged" 0 s.Stats.flush;
  Alcotest.(check int) "no fence charged" 0 s.Stats.fence;
  Alcotest.(check int) "no batch fence" 0 s.Stats.fence_batched

(* Writers racing dedicated helper tasks that hammer [help_advance] under
   the deterministic scheduler: the claim protocol must never deadlock
   (every schedule completes), and after quiescence every value is exactly
   what a crash preserves. *)
let test_help_advance_races () =
  for seed = 1 to 20 do
    let r = Region.create ~seed ~epoch_len:8 () in
    let vars = Array.init 3 (fun _ -> Patomic.make ~discipline:Patomic.Buffered r 0) in
    let writer i () =
      let rng = Rng.split ~seed i in
      for n = 1 to 15 do
        let v = vars.(Rng.int rng 3) in
        match Rng.int rng 3 with
        | 0 -> Patomic.store v ((i * 100) + n)
        | 1 -> ignore (Patomic.fetch_add v 1)
        | _ -> ignore (Patomic.cas v ~expected:(Patomic.load v) ~desired:n)
      done
    in
    let helper () =
      for _ = 1 to 10 do
        Hooks.yield ();
        Region.help_advance r
      done
    in
    let outcome = Sched.run ~seed [ writer 0; writer 1; helper; helper ] in
    check outcome.Sched.completed
      (Printf.sprintf "seed=%d: racing advances never block completion" seed);
    Region.quiesce r;
    check
      (Region.durable_epoch r >= Region.cur_epoch r - 1)
      (Printf.sprintf "seed=%d: durable epoch caught up" seed);
    let before = Array.map Patomic.load vars in
    Region.crash r;
    Array.iter Patomic.recover vars;
    Region.mark_recovered r;
    Array.iteri
      (fun i v ->
        Alcotest.(check int)
          (Printf.sprintf "seed=%d var=%d: quiesced value durable" seed i)
          before.(i) (Patomic.load v))
      vars
  done

(* An epoch advance that lands inside a buffered CAS — after the writer
   loaded [repp], before its install — closes the epoch that was open when
   the CAS began.  The write must carry the epoch open at its install: with
   every write evicted to the media at once, a crash before the next
   advance rolls it back.  An entry tagged before the advance would claim
   the committed epoch and survive the crash. *)
let test_epoch_tag_at_install () =
  let r = Region.create ~runtime_evict_prob:1.0 ~epoch_len:8 () in
  let v = Patomic.make ~discipline:Patomic.Buffered r 0 in
  let opened = Region.cur_epoch r in
  (* an uncontended CAS yields before its repp load, inside it, at the
     repv read and at the install: the fourth yield sits in between *)
  let yields = ref 0 in
  let ok =
    Hooks.with_yield
      (fun () ->
        incr yields;
        if !yields = 4 then Region.help_advance r)
      (fun () -> Patomic.cas v ~expected:0 ~desired:1)
  in
  check ok "cas succeeds";
  Alcotest.(check int)
    "the advance committed the epoch open at the repp load" opened
    (Region.durable_epoch r);
  check
    (Patomic.persisted_value v = Some 1)
    "the write was evicted to the media";
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  Alcotest.(check int) "the write from the open epoch rolled back" 0
    (Patomic.load v)

(* A buffered slot re-persisted in every epoch keeps a bounded media
   history: only the newest committed entry plus the uncommitted ones.
   Pruning must not change what a crash restores. *)
let test_history_bounded () =
  let r = Region.create ~epoch_len:1_000 () in
  let slots = Array.init 4 (fun _ -> Slot.make ~buffered:true r 0) in
  for i = 1 to 200 do
    Array.iter
      (fun s ->
        Slot.store s i;
        Slot.persist_deferred s)
      slots;
    Region.help_advance r;
    Array.iter
      (fun s ->
        let n = List.length (Slot.front s) in
        check (n <= 2)
          (Printf.sprintf "advance %d: history has %d entries" i n))
      slots
  done;
  (* an uncommitted tail the crash must roll back *)
  Array.iter
    (fun s ->
      Slot.store s 201;
      Slot.persist_deferred s)
    slots;
  Array.iter
    (fun s -> check (Slot.durable_value s = Some 200) "durable cut is 200")
    slots;
  Region.crash r;
  let (_ : bool) = Region.begin_recovery r in
  Region.mark_recovered r;
  Array.iter
    (fun s -> Alcotest.(check int) "crash restores the cut" 200 (Slot.peek s))
    slots

(* -- 4. bounded staleness under crash torture ---------------------------------- *)

let epoch_len = 8
let cuts = [ 40; 150; 400; 1200 ]

(* Buffered durable linearizability at every cut: nothing from a committed
   epoch may be lost, no operation may be half-applied. *)
let torture_buffered ds () =
  let mid = ref 0 in
  List.iter
    (fun (seed, crash_step) ->
      let region = Region.create ~seed ~epoch_len () in
      let pack = Sets.make ds (Support.prim region "buffered") in
      let r =
        D.torture_schedsim pack ~region
          ~recover:(fun () -> ())
          ~buffered:true ~seed ~threads:3 ~ops_per_task:10 ~range:8
          ~mix:(W.of_updates 70) ~crash_step ()
      in
      if r.D.crashed_mid_run then incr mid;
      match r.D.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s buffered seed=%d cut=%d: %s" (Sets.ds_name ds)
            seed crash_step
            (Format.asprintf "%a" D.pp_violation v))
    (List.concat_map (fun seed -> List.map (fun c -> (seed, c)) cuts)
       [ 1; 2; 3; 4 ]);
  check (!mid > 0) "some crashes cut operations mid-flight"

(* The staleness bound, quantified: a crash can lose the open epoch plus at
   most one closed-but-unbumped epoch — at most [2 * epoch_len] deferred
   records, hence at most that many completed updates.  The strict
   validator over the buffered run flags exactly the dropped tail; its
   violation count is the loss and must respect the bound (and be nonzero
   somewhere, or the whole tier is vacuous). *)
let staleness_bound ds () =
  let dropped_somewhere = ref false in
  List.iter
    (fun (seed, crash_step) ->
      let region = Region.create ~seed ~epoch_len () in
      let pack = Sets.make ds (Support.prim region "buffered") in
      let cap =
        D.workload_capture
          ~epoch_of:(fun () -> Region.cur_epoch region)
          pack ~seed ~threads:3 ~ops_per_task:12 ~range:8
          ~mix:(W.of_updates 70)
      in
      Region.quiesce region;
      ignore (Sched.run ~seed ~max_steps:crash_step cap.D.cap_tasks);
      Region.crash region;
      let (_ : bool) = Region.begin_recovery region in
      Hooks.with_recovery (fun () -> cap.D.cap_recover ());
      Region.mark_recovered region;
      let observed = cap.D.cap_observed () in
      let de = Region.durable_epoch region in
      (match
         D.validate ~durable_epoch:de ~prefilled:W.is_prefilled ~range:8
           ~observed cap.D.cap_workers
       with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s seed=%d cut=%d: buffered validation failed: %s"
            (Sets.ds_name ds) seed crash_step
            (Format.asprintf "%a" D.pp_violation v));
      let strict =
        D.validate ~prefilled:W.is_prefilled ~range:8 ~observed
          cap.D.cap_workers
      in
      if strict <> [] then dropped_somewhere := true;
      check
        (List.length strict <= 2 * epoch_len)
        (Printf.sprintf "%s seed=%d cut=%d: %d keys lost, bound is %d"
           (Sets.ds_name ds) seed crash_step (List.length strict)
           (2 * epoch_len)))
    (List.concat_map (fun seed -> List.map (fun c -> (seed, c)) cuts)
       [ 1; 2; 3 ]);
  check !dropped_somewhere
    (Sets.ds_name ds ^ ": some cut actually dropped a deferred tail")

let suite =
  [
    ( "buffered",
      [
        Alcotest.test_case "unit cost at epoch length 1" `Quick
          test_unit_cost_len1;
        Alcotest.test_case "cost parity list (len 1)" `Quick
          (seq_cost_len1 Sets.List_ds);
        Alcotest.test_case "cost parity hash (len 1)" `Quick
          (seq_cost_len1 Sets.Hash_ds);
        Alcotest.test_case "cost parity bst (len 1)" `Quick
          (seq_cost_len1 Sets.Bst_ds);
        Alcotest.test_case "cost parity skiplist (len 1)" `Quick
          (seq_cost_len1 Sets.Skiplist_ds);
        Alcotest.test_case "crash in fence-to-bump window" `Quick
          test_crash_fence_bump_window;
        Alcotest.test_case "rollback to committed epoch" `Quick
          test_rollback_to_committed_epoch;
        Alcotest.test_case "cross-domain deferred record" `Quick
          test_cross_domain_deferred;
        Alcotest.test_case "empty help-advance is free" `Quick
          test_help_advance_empty_is_free;
        Alcotest.test_case "help-advance races" `Quick test_help_advance_races;
        Alcotest.test_case "epoch tag read at the install" `Quick
          test_epoch_tag_at_install;
        Alcotest.test_case "persisted history stays bounded" `Quick
          test_history_bounded;
        Alcotest.test_case "crash torture list (buffered)" `Slow
          (torture_buffered Sets.List_ds);
        Alcotest.test_case "crash torture hash (buffered)" `Slow
          (torture_buffered Sets.Hash_ds);
        Alcotest.test_case "crash torture bst (buffered)" `Slow
          (torture_buffered Sets.Bst_ds);
        Alcotest.test_case "crash torture skiplist (buffered)" `Slow
          (torture_buffered Sets.Skiplist_ds);
        Alcotest.test_case "staleness bound list" `Slow
          (staleness_bound Sets.List_ds);
        Alcotest.test_case "staleness bound hash" `Slow
          (staleness_bound Sets.Hash_ds);
        Alcotest.test_case "staleness bound bst" `Slow
          (staleness_bound Sets.Bst_ds);
        Alcotest.test_case "staleness bound skiplist" `Slow
          (staleness_bound Sets.Skiplist_ds);
      ] );
  ]
