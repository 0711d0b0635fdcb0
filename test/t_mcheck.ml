(** The crash-point model checker, checked against hand-computed runs:
    exact event sequences for uncontended Mirror operations, membership at
    specific crash points, replay determinism, counterexample detection and
    shrinking on structures that are known-broken by construction. *)

module M = Mirror_mcheck.Mcheck
module D = Mirror_harness.Durable
module Sched = Mirror_schedsim.Sched
module Hooks = Mirror_nvm.Hooks

let check = Support.check

(* -- a hand-rolled scenario: explicit ops, no workload generator ------------- *)

(** Each thread runs a fixed op list on one shared list; everything else
    (region, history recording, recovery, validation) matches the standard
    scenario. *)
let manual_scenario ~prim ~(observe : (int * int) list ref option)
    (threads : (int * D.op_kind) list list) : M.scenario =
 fun ~seed ->
  let region = Mirror_nvm.Region.create ~seed () in
  let pack =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Mirror_prim.Prim.by_name region prim)
  in
  let module S = (val pack) in
  let t = S.create ~capacity:16 () in
  let clock = Atomic.make 0 in
  let workers =
    Array.init (List.length threads) (fun i ->
        { D.rng = Mirror_workload.Rng.split ~seed i; log = []; pending = None })
  in
  let task i ops () =
    let w = workers.(i) in
    List.iter
      (fun (key, kind) ->
        let inv = Atomic.fetch_and_add clock 1 in
        w.D.pending <- Some (key, kind, inv);
        let ok =
          match (kind : D.op_kind) with
          | K_lookup -> S.contains t key
          | K_insert -> S.insert t key key
          | K_remove -> S.remove t key
        in
        let resp = Atomic.fetch_and_add clock 1 in
        w.D.log <- { D.key; kind; inv; resp; ok = Some ok; epoch = 0 } :: w.D.log;
        w.D.pending <- None)
      ops
  in
  {
    M.tasks = List.mapi task threads;
    region;
    crash_recover =
      (fun () ->
        Mirror_nvm.Region.crash ~policy:Adversarial region;
        Mirror_nvm.Region.recovery_session region (fun () -> S.recover t));
    validate =
      (fun () ->
        let obs = S.to_list t in
        Option.iter (fun r -> r := obs) observe;
        D.validate ~prefilled:(fun _ -> false) ~range:16 ~observed:obs workers);
  }

(* -- hand-computed event sequence and per-point membership -------------------- *)

let test_event_sequence () =
  (* one fiber, no contention: each successful Mirror CAS is exactly
     DWCAS, flush, fence; a failed insert performs no persist events *)
  let sc =
    manual_scenario ~prim:"mirror" ~observe:None
      [ [ (1, D.K_insert); (2, D.K_insert); (1, D.K_insert) ] ]
  in
  let tr = M.record sc ~seed:1 in
  check tr.M.completed "reference run completed";
  check
    (tr.M.events
    = [| Hooks.Dwcas; Flush; Fence; Dwcas; Flush; Fence |])
    "two uncontended CEs: exactly [dwcas; flush; fence] each, failed \
     insert free";
  check
    (M.crash_points tr.M.events = [ 0; 1; 2; 3; 4; 5; 6 ])
    "every event is a crash point, plus the quiescent end"

let test_membership_at_each_point () =
  (* crash before event i and check exactly which keys survived: key 1 is
     durable only once its fence (event 2) has executed, key 2 only after
     event 5 — persist-before-mirror, observed one boundary at a time *)
  let obs = ref [] in
  let sc =
    manual_scenario ~prim:"mirror" ~observe:(Some obs)
      [ [ (1, D.K_insert); (2, D.K_insert) ] ]
  in
  let tr = M.record sc ~seed:1 in
  List.iter
    (fun crash_at ->
      let violations, cut =
        M.run_crash_at sc ~seed:1 ~picks:tr.M.picks ~crash_at
      in
      check (violations = [])
        (Printf.sprintf "crash point %d durably linearizable" crash_at);
      check
        (cut = (crash_at < Array.length tr.M.events))
        "cut mid-run iff the crash index points at a real event";
      let keys = List.map fst !obs in
      let expected =
        if crash_at <= 2 then [] else if crash_at <= 5 then [ 1 ] else [ 1; 2 ]
      in
      check (keys = expected)
        (Printf.sprintf "crash point %d: recovered keys match hand-count"
           crash_at))
    (M.crash_points tr.M.events)

(* -- 2 threads x 2 ops: all crash points under many schedules ----------------- *)

let test_two_by_two_all_schedules () =
  let scenario =
    manual_scenario ~prim:"mirror" ~observe:None
      [
        [ (1, D.K_insert); (2, D.K_insert) ];
        [ (3, D.K_insert); (1, D.K_remove) ];
      ]
  in
  for seed = 1 to 25 do
    let r = M.check scenario ~seed in
    check (r.M.counterexample = None)
      (Printf.sprintf "seed %d: all %d crash points durable" seed
         r.M.points_total);
    check
      (r.M.points_checked = r.M.points_total)
      "no budget: every point checked"
  done

let test_replay_determinism () =
  let scenario =
    manual_scenario ~prim:"mirror" ~observe:None
      [
        [ (1, D.K_insert); (2, D.K_insert) ];
        [ (3, D.K_insert); (1, D.K_remove) ];
      ]
  in
  let tr1 = M.record scenario ~seed:7 in
  let tr2 = M.record scenario ~seed:7 in
  check (tr1.M.events = tr2.M.events) "same seed: same event sequence";
  check (tr1.M.picks = tr2.M.picks) "same seed: same pick trace";
  (* crashing at the same point twice gives the same verdict *)
  List.iter
    (fun crash_at ->
      let v1, c1 = M.run_crash_at scenario ~seed:7 ~picks:tr1.M.picks ~crash_at in
      let v2, c2 = M.run_crash_at scenario ~seed:7 ~picks:tr1.M.picks ~crash_at in
      check (v1 = v2 && c1 = c2)
        (Printf.sprintf "crash point %d: deterministic verdict" crash_at))
    (M.crash_points tr1.M.events)

(* -- crash-point selection on synthetic event logs ----------------------------- *)

let test_crash_point_selection () =
  let events =
    [|
      Hooks.Write;
      Flush;
      Write;
      Fence_elided;
      Write;
      Write;
      Fence;
      Write;
    |]
  in
  check
    (M.crash_points events = [ 1; 3; 4; 6; 8 ])
    "default: flushes, fences, elided boundaries, first write after an \
     elided boundary, quiescent end";
  check
    (M.crash_points ~deep:true events = [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
    "deep: every event";
  check (M.crash_points [||] = [ 0 ]) "empty log: only the quiescent point"

(* -- negative control: a strategy that is broken by construction ---------------- *)

let test_negative_control () =
  (* OriginalNVMM never flushes: a completed insert whose line was not
     evicted is lost by an adversarial crash, including the quiescent one *)
  let scenario =
    manual_scenario ~prim:"orig-nvmm" ~observe:None
      [ [ (1, D.K_insert); (2, D.K_insert) ]; [ (3, D.K_insert) ] ]
  in
  let r = M.check scenario ~seed:1 in
  match r.M.counterexample with
  | None -> check false "orig-nvmm must produce a counterexample"
  | Some cx ->
      check (cx.M.cx_violations <> []) "counterexample carries violations";
      (* the shrunk counterexample must still fail when replayed *)
      let v =
        M.replay scenario ~seed:cx.M.cx_seed ~picks:cx.M.cx_picks
          ~crash_at:cx.M.cx_crash_at
      in
      check (v <> []) "shrunk trace re-fails on replay";
      (* and survive a round-trip through the printable form *)
      let seed, picks, crash_at = M.cx_of_string (M.cx_to_string cx) in
      check
        (seed = cx.M.cx_seed && picks = cx.M.cx_picks
        && crash_at = cx.M.cx_crash_at)
        "codec round-trip";
      let v' = M.replay scenario ~seed ~picks ~crash_at in
      check (v' <> []) "decoded counterexample re-fails on replay"

let test_codec_errors () =
  List.iter
    (fun s ->
      match M.cx_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> check false (Printf.sprintf "%S must be rejected" s))
    [ ""; "1"; "1:2"; "a:2:"; "1:b:"; "1:2:x"; "1:2:3,"; "1:2:3:4" ];
  check (M.cx_of_string "5:17:" = (5, [||], 17)) "empty pick trace parses";
  check (M.cx_of_string "5:17:0,2,1" = (5, [| 0; 2; 1 |], 17)) "picks parse"

(* The recovery token shares the pick-list parser but keeps its own arity:
   three fields before the picks, no more and no fewer. *)
let test_rcx_codec_errors () =
  List.iter
    (fun s ->
      match M.rcx_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> check false (Printf.sprintf "%S must be rejected" s))
    [
      "";
      "1:2:";
      "1:2:3";
      "a:2:3:";
      "1:2:c:";
      "1:2:3:x";
      "1:2:3:4,";
      "1:2:3:4:5";
    ];
  check
    (M.rcx_of_string "5:17:2:" = (5, [||], 17, 2))
    "empty pick trace parses";
  check (M.rcx_of_string "5:17:2:0,2,1" = (5, [| 0; 2; 1 |], 17, 2))
    "picks parse"

(* -- the standard workload scenario over every structure ------------------------ *)

let test_set_scenario_all_structures () =
  List.iter
    (fun ds ->
      List.iter
        (fun prim ->
          let scenario =
            M.set_scenario ~ds ~prim ~threads:3 ~ops_per_task:5 ~range:16
              ~updates:60 ()
          in
          let r = M.check scenario ~seed:3 in
          check (r.M.counterexample = None)
            (Printf.sprintf "%s/%s: durably linearizable"
               (Mirror_dstruct.Sets.ds_name ds)
               prim))
        [ "mirror"; "mirror-nvmm" ])
    [ Mirror_dstruct.Sets.List_ds; Hash_ds; Bst_ds; Skiplist_ds ]

let test_budget_subsampling () =
  let scenario =
    M.set_scenario ~ds:Mirror_dstruct.Sets.Skiplist_ds ~prim:"mirror"
      ~threads:3 ~ops_per_task:6 ~range:16 ~updates:80 ()
  in
  let full = M.check scenario ~seed:1 in
  let capped = M.check ~budget:5 scenario ~seed:1 in
  check (full.M.points_total > 5) "enough points to need capping";
  check (capped.M.points_checked = 5) "budget respected";
  check
    (capped.M.points_total = full.M.points_total)
    "report still shows the full enumeration size"

(* Regression for the lost-insert skiplist bug (stale marked pred link used
   as a CAS witness): high-contention remove/insert cycling on a tiny key
   range, every crash point of many schedules.  The quiescent end-of-run
   point alone catches the original bug — it corrupted the set with no
   crash involved. *)
let test_skiplist_contention_regression () =
  let scenario =
    M.set_scenario ~ds:Mirror_dstruct.Sets.Skiplist_ds ~prim:"mirror"
      ~threads:4 ~ops_per_task:8 ~range:4 ~updates:100 ()
  in
  for seed = 1 to 15 do
    let r = M.check scenario ~seed in
    check (r.M.counterexample = None)
      (Printf.sprintf "seed %d: contended skiplist durable" seed)
  done

(* -- DPOR-driven checking -------------------------------------------------- *)

let test_picker_vocabulary () =
  (* the CLI's --picker validation and docs quote this list: keep it in
     sync by pinning it *)
  check (M.pickers = [ "random"; "dpor" ]) "picker vocabulary pinned"

let test_check_dpor_exhausts_tiny_scenario () =
  let scenario =
    manual_scenario ~prim:"mirror" ~observe:None
      [ [ (1, D.K_insert) ]; [ (2, D.K_insert) ] ]
  in
  let r = M.check_dpor ~budget:3 scenario ~seed:1 in
  check (r.M.dr_counterexample = None) "mirror inserts durably linearizable";
  check r.M.dr_exhausted "reduced interleaving space exhausted";
  check (r.M.dr_schedules >= 2) "contending inserts branch the schedule";
  check (r.M.dr_points > 0) "crash points checked";
  check (r.M.dr_runs > r.M.dr_schedules) "runs include the crash replays"

let test_check_dpor_negative_control () =
  let scenario =
    manual_scenario ~prim:"orig-nvmm" ~observe:None
      [ [ (1, D.K_insert) ]; [ (2, D.K_insert) ] ]
  in
  let r = M.check_dpor scenario ~seed:1 in
  match r.M.dr_counterexample with
  | None -> check false "orig-nvmm must produce a counterexample"
  | Some cx ->
      check (cx.M.cx_violations <> []) "violations attached";
      (* the counterexample's picks replay to the same verdict *)
      let v = M.replay scenario ~seed:cx.M.cx_seed ~picks:cx.M.cx_picks
          ~crash_at:cx.M.cx_crash_at
      in
      check (v <> []) "counterexample replays to a violation"

let suite =
  [
    ( "mcheck",
      [
        Alcotest.test_case "hand-computed event sequence" `Quick
          test_event_sequence;
        Alcotest.test_case "membership at each crash point" `Quick
          test_membership_at_each_point;
        Alcotest.test_case "2x2 ops, many schedules" `Quick
          test_two_by_two_all_schedules;
        Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
        Alcotest.test_case "crash-point selection" `Quick
          test_crash_point_selection;
        Alcotest.test_case "negative control finds and shrinks" `Quick
          test_negative_control;
        Alcotest.test_case "counterexample codec" `Quick test_codec_errors;
        Alcotest.test_case "all structures, both mirror prims" `Quick
          test_set_scenario_all_structures;
        Alcotest.test_case "budget subsampling" `Quick test_budget_subsampling;
        Alcotest.test_case "skiplist contention regression" `Quick
          test_skiplist_contention_regression;
        Alcotest.test_case "picker vocabulary" `Quick test_picker_vocabulary;
        Alcotest.test_case "check_dpor exhausts tiny scenario" `Quick
          test_check_dpor_exhausts_tiny_scenario;
        Alcotest.test_case "check_dpor negative control" `Quick
          test_check_dpor_negative_control;
        Alcotest.test_case "rcx codec errors" `Quick test_rcx_codec_errors;
      ] );
  ]
