(** Tests of the simulated NVMM substrate: slot semantics, flush/fence
    write-back protocol, crash policies, eviction, statistics. *)

open Mirror_nvm

let check = Support.check

let test_slot_basics () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 1 in
  check (Slot.load s = 1) "initial load";
  Slot.store s 2;
  check (Slot.load s = 2) "store visible";
  check (Slot.cas s ~expected:2 ~desired:3) "cas succeeds";
  check (not (Slot.cas s ~expected:2 ~desired:4)) "stale cas fails";
  check (Slot.load s = 3) "cas result visible"

let test_cas_witness () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 10 in
  let ok, wit = Slot.cas_pred s ~expect:(fun v -> v = 99) ~desired:0 in
  check (not ok) "cas on wrong value fails";
  check (wit = 10) "witness reports actual value";
  let ok, wit = Slot.cas_pred s ~expect:(fun v -> v = 10) ~desired:7 in
  check ok "cas on right value succeeds";
  check (wit = 10) "witness is the overwritten value"

let test_flush_fence_persist () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 0 in
  Slot.store s 5;
  check (Slot.persisted_value s = Some 0) "store alone not persistent";
  check (Slot.is_dirty s) "dirty after store";
  Slot.flush s;
  check (Slot.persisted_value s = Some 0) "flush alone not yet guaranteed";
  Region.fence r;
  check (Slot.persisted_value s = Some 5) "flush + fence persists";
  check (not (Slot.is_dirty s)) "clean after fence"

let test_crash_adversarial_drops_unflushed () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 1 in
  Slot.store s 2;
  Slot.flush s;
  Region.fence r;
  Slot.store s 3 (* never flushed *);
  Region.crash r;
  Region.mark_recovered r;
  check (Slot.load s = 2) "unflushed write lost, fenced write kept"

let test_crash_drops_pending_flush () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 1 in
  Slot.store s 2;
  Slot.flush s (* no fence: write-back may not have happened *);
  Region.crash r;
  Region.mark_recovered r;
  check (Slot.load s = 1) "flushed-but-unfenced write lost under adversary"

let test_crash_eviction_policy () =
  (* under Eviction 1.0 everything in the cache survives *)
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 1 in
  Slot.store s 9;
  Region.crash ~policy:(Region.Eviction 1.0) r;
  Region.mark_recovered r;
  check (Slot.load s = 9) "eviction 1.0 keeps dirty data"

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* Under both disciplines a crash over a never-persisted slot leaves it
   lost; every access raises until a recovery write heals it, and neither
   state forgets the slot's discipline. *)
let test_lost_slot_detection () =
  List.iter
    (fun buffered ->
      let r = Support.fresh_region () in
      let s = Slot.make ~persist:false ~buffered r 42 in
      let d = if buffered then "buffered" else "strict" in
      Region.crash r;
      check (Slot.is_lost s)
        (d ^ ": never-persisted slot is lost after crash");
      check (Slot.buffered s = buffered)
        (d ^ ": a lost slot keeps its discipline");
      check (Slot.persisted_value s = None) (d ^ ": a lost slot has no media");
      Slot.recover_store s 7;
      Region.mark_recovered r;
      check (not (Slot.is_lost s)) (d ^ ": a recovery write heals the slot");
      check (Slot.buffered s = buffered)
        (d ^ ": a healed slot keeps its discipline");
      check (Slot.load s = 7 && Slot.persisted_value s = Some 7)
        (d ^ ": the recovery write is current and durable");
      Region.crash r;
      Region.mark_recovered r;
      check
        ((not (Slot.is_lost s)) && Slot.load s = 7)
        (d ^ ": the healed value survives a crash");
      let s = Slot.make ~persist:false ~buffered r 42 in
      Region.crash r;
      Region.mark_recovered r;
      check (Slot.is_lost s) (d ^ ": lost after recovery without a write");
      List.iter
        (fun (what, f) ->
          check (raises f)
            (Printf.sprintf "%s: %s of a lost slot raises" d what))
        [
          ("load", fun () -> ignore (Slot.load s));
          ("store", fun () -> Slot.store s 1);
          ("cas", fun () -> ignore (Slot.cas s ~expected:42 ~desired:1));
          ("flush", fun () -> Slot.flush s);
          ("deferred persist", fun () -> Slot.persist_deferred s);
        ])
    [ false; true ]

let test_down_region_access () =
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 1 in
  Region.crash r;
  check
    (try
       ignore (Slot.load s);
       false
     with Invalid_argument _ -> true)
    "access before recovery is rejected";
  Region.mark_recovered r;
  check (Slot.load s = 1) "access after recovery works"

let test_monotone_writeback () =
  (* an old flush snapshot must not overwrite a newer persisted value *)
  let r = Support.fresh_region () in
  let s = Slot.make ~persist:true r 0 in
  Slot.store s 1;
  Slot.flush s;
  (* pending write-back of value 1 *)
  Slot.store s 2;
  Slot.flush s;
  Region.fence r;
  check (Slot.persisted_value s = Some 2) "latest write-back wins";
  (* now a stale pending thunk applied late must not regress: fence again *)
  Region.fence r;
  check (Slot.persisted_value s = Some 2) "persisted value is monotone"

let test_runtime_eviction () =
  let r = Support.fresh_region ~evict:1.0 () in
  let s = Slot.make ~persist:false r 0 in
  Slot.store s 3;
  check (Slot.persisted_value s = Some 3)
    "eviction probability 1.0 persists every store"

let test_stats_counting () =
  let r = Support.fresh_region () in
  Stats.reset_all ();
  let s = Slot.make ~persist:true r 0 in
  ignore (Slot.load s);
  Slot.store s 1;
  ignore (Slot.cas s ~expected:1 ~desired:2);
  Slot.flush s;
  Region.fence r;
  let st = Stats.total () in
  check (st.Stats.nvm_read = 1) "one NVMM read";
  check (st.Stats.nvm_write = 1) "one NVMM write";
  check (st.Stats.nvm_cas = 1) "one NVMM cas";
  check (st.Stats.flush = 1) "one flush";
  check (st.Stats.fence = 1) "one fence";
  Stats.reset_all ();
  check ((Stats.total ()).Stats.nvm_read = 0) "reset clears"

let test_pending_count () =
  let r = Support.fresh_region () in
  let s1 = Slot.make ~persist:true r 0 in
  let s2 = Slot.make ~persist:true r 0 in
  Slot.store s1 1;
  Slot.store s2 1;
  Slot.flush s1;
  Slot.flush s2;
  check (Region.pending_count r = 2) "two pending write-backs";
  Region.fence r;
  check (Region.pending_count r = 0) "fence drains pending";
  (* a fence and a crash both apply the pending set newest first, past
     the set's initial capacity too: the crash policy's survival draws
     depend on that order *)
  let order = ref [] in
  let record n = Region.add_pending r (fun () -> order := n :: !order) in
  let drained_newest_first n =
    List.rev !order = List.init n (fun i -> n - i)
  in
  List.iter record (List.init 20 succ);
  Region.fence r;
  check (drained_newest_first 20) "fence applies write-backs newest first";
  order := [];
  List.iter record (List.init 12 succ);
  Region.crash ~policy:(Region.Eviction 1.0) r;
  check (drained_newest_first 12) "crash applies write-backs newest first";
  check (Region.pending_count r = 0) "crash drains pending"

let test_latency_calibration () =
  Latency.set_enabled true;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 1000 do
    Latency.spin_ns 1000
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Latency.set_enabled false;
  (* 1000 x 1us = 1ms requested; allow generous slack on a noisy box *)
  check (dt > 0.0002) "spin_ns takes nonzero time";
  check (dt < 0.5) "spin_ns is not wildly off"

(* qcheck: a slot against an exact model of the flush/fence/crash protocol
   under the adversarial policy: persisted = the snapshot taken by the most
   recent flush that a fence has committed *)
type slot_op = Store of int | Flush | Fence | Crash

let slot_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Store v) (int_bound 1000));
        (2, return Flush);
        (2, return Fence);
        (1, return Crash);
      ])

let slot_op_print = function
  | Store v -> Printf.sprintf "store %d" v
  | Flush -> "flush"
  | Fence -> "fence"
  | Crash -> "crash"

let prop_slot_model =
  QCheck.Test.make ~name:"slot: protocol agrees with reference model"
    ~count:500
    QCheck.(make ~print:(fun l -> String.concat "; " (List.map slot_op_print l))
              Gen.(list_size (int_bound 40) slot_op_gen))
    (fun ops ->
      let r = Support.fresh_region () in
      let s = Mirror_nvm.Slot.make ~persist:true r 0 in
      (* model state *)
      let current = ref 0 in
      let persisted = ref 0 in
      let last_flush_snapshot = ref None in
      List.for_all
        (fun op ->
          (match op with
          | Store v ->
              Mirror_nvm.Slot.store s v;
              current := v
          | Flush ->
              Mirror_nvm.Slot.flush s;
              last_flush_snapshot := Some !current
          | Fence ->
              Mirror_nvm.Region.fence r;
              (match !last_flush_snapshot with
              | Some v -> persisted := v
              | None -> ());
              last_flush_snapshot := None
          | Crash ->
              Mirror_nvm.Region.crash r;
              Mirror_nvm.Region.mark_recovered r;
              current := !persisted;
              last_flush_snapshot := None);
          Mirror_nvm.Slot.peek s = !current
          && Mirror_nvm.Slot.persisted_value s = Some !persisted)
        ops)

(* Configuration values are parsed strictly: a malformed or out-of-range
   value raises, naming the variable, instead of falling back. *)
let test_strict_config () =
  let parse s = Latency.parse_int ~name:"MIRROR_TEST_NS" ~min:0 s in
  let rejects s =
    match parse s with
    | _ -> Alcotest.failf "%S accepted" s
    | exception Invalid_argument msg ->
        check
          (String.length msg >= 14 && String.sub msg 0 14 = "MIRROR_TEST_NS")
          (Printf.sprintf "%S: message names the variable (%s)" s msg)
  in
  rejects "";
  rejects "abc";
  rejects "-5";
  Alcotest.(check int) "in range" 300 (parse "300");
  (match Latency.parse_int ~name:"MIRROR_SCALING_OPS" ~min:1 "0" with
  | _ -> Alcotest.fail "0 accepted where the minimum is 1"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "unset falls back" 42
    (Latency.env_int "MIRROR_TEST_UNSET_VARIABLE" 42)

(* Buffered slots born from one buffered birth start on the birth's one
   media history and share it until a write-back replaces one's.  The
   sharing is invisible otherwise: the same writes give the same durable
   cut and the same crash rollback as on slots with histories of their
   own. *)
let test_buffered_birth_shared () =
  let observe make =
    let r = Region.create ~track_slots:true ~epoch_len:64 () in
    let a, b = make r in
    let seen = ref [] in
    let note () =
      seen :=
        (Slot.durable_value a, Slot.durable_value b, Slot.peek a, Slot.peek b)
        :: !seen
    in
    note ();
    Slot.store a 6;
    Slot.persist_deferred a;
    Region.help_advance r;
    note ();
    Slot.store b 7;
    Slot.persist_deferred b;
    note ();
    Region.crash r;
    Region.mark_recovered r;
    note ();
    (a, b, !seen)
  in
  let fb = Slot.buffered_birth 5 in
  let shared r =
    let a = Slot.make_buffered_replica ~paired:false r fb in
    let b = Slot.make_buffered_replica ~paired:false r fb in
    check (Slot.front a == Slot.front b) "born on one history";
    Slot.store a 6;
    check (Slot.front a == Slot.front b) "a write alone shares it still";
    (a, b)
  in
  let own r =
    let a = Slot.make_replica ~paired:false ~buffered:true ~persist:true r
        (Slot.birth 5)
    and b = Slot.make_replica ~paired:false ~buffered:true ~persist:true r
        (Slot.birth 5) in
    check (Slot.front a != Slot.front b) "own histories";
    Slot.store a 6;
    (a, b)
  in
  let a, b, seen = observe shared in
  check (Slot.front a != Slot.front b) "the first write-back diverges";
  check
    (match Slot.front b with [ e ] -> e.Slot.ver = 0 | _ -> false)
    "the slot without a write-back keeps the birth history";
  let _, _, seen_own = observe own in
  check (seen = seen_own) "durable cut and rollback as with own histories";
  match seen with
  | (_, _, a_now, b_now) :: _ ->
      check (a_now = 6 && b_now = 5) "the uncommitted write rolled back"
  | [] -> assert false

(* A Mirror pair is named by its persistent replica's slot uid: a
   replica's [pair] is its own [uid], and a slot outside any pair has
   none. *)
let test_pair_named_by_slot () =
  let r = Support.fresh_region () in
  let b = Slot.birth 0 in
  List.iter
    (fun (what, s) ->
      check (Slot.uid s >= 0) (what ^ ": uid is non-negative");
      check (Slot.pair s = Slot.uid s) (what ^ ": pair is its own uid"))
    [
      ("strict replica",
        Slot.make_replica ~paired:true ~buffered:false ~persist:true r b);
      ("buffered replica",
        Slot.make_replica ~paired:true ~buffered:true ~persist:true r b);
      ("unpersisted replica",
        Slot.make_replica ~paired:true ~buffered:false ~persist:false r b);
      ("buffered-birth replica",
        Slot.make_buffered_replica ~paired:true r (Slot.buffered_birth 0));
    ];
  List.iter
    (fun (what, s) ->
      check (Slot.uid s >= 0) (what ^ ": uid is non-negative");
      check (Slot.pair s = -1) (what ^ ": no pair"))
    [
      ("plain slot", Slot.make ~persist:true r 0);
      ("unpaired replica",
        Slot.make_replica ~paired:false ~buffered:false ~persist:true r b);
    ];
  let x = Slot.make r 0 and y = Slot.make_replica ~paired:true
      ~buffered:false ~persist:true r b in
  check (Slot.uid y = Slot.uid x + 1) "one uid counter for both kinds"

(* A domain's persistence state for a region (pending write-backs,
   in-flight lines, deferred persists) lives and dies with the region:
   dropping regions after a store, flush and fence on each leaves the
   main domain's live heap where it was, to within a word per region. *)
let test_no_state_outlives_region () =
  let strict () =
    let r = Region.create () in
    let s = Slot.make ~persist:true r 0 in
    Slot.store s 1;
    Slot.flush s;
    Region.fence r
  in
  let buffered () =
    let r = Region.create () in
    let s = Slot.make ~persist:true ~buffered:true r 0 in
    Slot.store s 1;
    Slot.persist_deferred s;
    Region.fence r
  in
  let line () =
    let r = Region.create ~slots_per_line:8 () in
    let s = Slot.make ~persist:true ?line:(Region.place r) r 0 in
    Slot.store s 1;
    Slot.flush s;
    Region.fence r
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let regions = 10_000 in
  List.iter
    (fun (what, round) ->
      round ();
      let before = live_words () in
      for _ = 1 to regions do
        round ()
      done;
      let per_region =
        float_of_int (live_words () - before) /. float_of_int regions
      in
      check (per_region < 1.0)
        (Printf.sprintf "%s: %.1f live words per dropped region" what
           per_region))
    [ ("strict slot", strict); ("buffered slot", buffered);
      ("8-slot line", line) ]

let suite =
  [
    ( "nvm",
      [
        Alcotest.test_case "slot basics" `Quick test_slot_basics;
        Alcotest.test_case "buffered birth shares its history" `Quick
          test_buffered_birth_shared;
        Alcotest.test_case "cas witness" `Quick test_cas_witness;
        Alcotest.test_case "flush+fence persists" `Quick test_flush_fence_persist;
        Alcotest.test_case "crash drops unflushed" `Quick
          test_crash_adversarial_drops_unflushed;
        Alcotest.test_case "crash drops pending flush" `Quick
          test_crash_drops_pending_flush;
        Alcotest.test_case "crash eviction policy" `Quick
          test_crash_eviction_policy;
        Alcotest.test_case "lost slot detection" `Quick test_lost_slot_detection;
        Alcotest.test_case "down region access" `Quick test_down_region_access;
        Alcotest.test_case "monotone write-back" `Quick test_monotone_writeback;
        Alcotest.test_case "runtime eviction" `Quick test_runtime_eviction;
        Alcotest.test_case "stats counting" `Quick test_stats_counting;
        Alcotest.test_case "pending count" `Quick test_pending_count;
        Alcotest.test_case "latency calibration" `Quick test_latency_calibration;
        Alcotest.test_case "strict config parsing" `Quick test_strict_config;
        QCheck_alcotest.to_alcotest prop_slot_model;
        Alcotest.test_case "a pair is named by its replica's slot" `Quick
          test_pair_named_by_slot;
        Alcotest.test_case "no state outlives its region" `Quick
          test_no_state_outlives_region;
      ] );
  ]
