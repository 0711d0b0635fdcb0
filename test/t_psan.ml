(** The persistency sanitizer ({!Mirror_psan.Psan}).

    Three tiers:

    - {b seeded-violation fixtures} — one deliberately broken structure per
      violation class, each asserting the {e exact} diagnostic the
      sanitizer must raise (and no collateral classes);
    - {b clean sweep} — every Mirror data structure under both replica
      placements, with and without elision, must be violation-free;
    - {b negative controls} — the non-Mirror baselines must trip the
      discipline checks, proving the sanitizer is not vacuously silent.

    Plus the W1/elision equivalence: the warning tier counts exactly the
    persists that elision skips, so the elide-off W1 counters must equal
    the elide-on [flush_elided]/[fence_elided] stats of the same seed. *)

open Mirror_nvm
module Psan = Mirror_psan.Psan
module M = Mirror_mcheck.Mcheck

let check = Support.check

let counts_by_class (r : Psan.report) cls = Psan.count r cls

(* Run a thunk under a fresh sanitizer with operation marks provided by the
   thunk itself; returns the report. *)
let sanitized ?(seed = 0) body =
  let sa = Psan.create ~seed () in
  Psan.install sa (fun () -> body ());
  Psan.report sa

(* -- seeded-violation fixtures ---------------------------------------------- *)

(* V1: a "register" that reads its persistent slot on the hot path instead
   of keeping a volatile replica. *)
let test_v1_hot_path_read () =
  let region = Support.fresh_region () in
  let slot = Slot.make ~persist:true region 42 in
  let r =
    sanitized (fun () ->
        Hooks.op_point Hooks.Op_begin;
        check (Slot.load slot = 42) "fixture read";
        Hooks.op_point Hooks.Op_complete)
  in
  check (counts_by_class r Psan.V1 > 0) "V1 raised";
  check (counts_by_class r Psan.V2 = 0) "no collateral V2";
  check (counts_by_class r Psan.V3 = 0) "no collateral V3";
  check (counts_by_class r Psan.V4 = 0) "no collateral V4";
  match Psan.violations r with
  | { Psan.f_class = Psan.V1; f_slot; f_trace; _ } :: _ ->
      check (f_slot = Slot.uid slot) "finding names the slot";
      check (f_trace <> []) "finding carries the slot's event trace"
  | _ -> Alcotest.fail "first finding should be V1"

(* V2: a write linearizes and the operation completes without any
   flush + fence covering it — the NVTraverse bug class. *)
let test_v2_unpersisted_dependence () =
  let region = Support.fresh_region () in
  let slot = Slot.make ~persist:true region 0 in
  let r =
    sanitized (fun () ->
        Hooks.op_point Hooks.Op_begin;
        Slot.store slot 1;
        (* no flush, no fence *)
        Hooks.op_point Hooks.Op_complete)
  in
  check (counts_by_class r Psan.V2 > 0) "V2 raised";
  check (counts_by_class r Psan.V4 = 0) "not misclassified as V4";
  (match Psan.violations r with
  | { Psan.f_class = Psan.V2; f_seq; _ } :: _ ->
      check (f_seq = 1) "finding names the unpersisted version"
  | _ -> Alcotest.fail "first finding should be V2");
  (* the fixed variant — flush + fence before completing — is silent *)
  let region = Support.fresh_region () in
  let slot = Slot.make ~persist:true region 0 in
  let r =
    sanitized (fun () ->
        Hooks.op_point Hooks.Op_begin;
        Slot.store slot 1;
        Slot.flush slot;
        Region.fence region;
        Hooks.op_point Hooks.Op_complete)
  in
  check (Psan.clean r) "persisted variant is clean"

(* V3: a Mirror pair whose persistent replica runs two versions ahead of
   the volatile one — the Lemma 5.4 band broken by skipping the mirror
   step between protocol CASes. *)
let test_v3_replica_band () =
  let region = Support.fresh_region () in
  let r =
    sanitized (fun () ->
        (* values equal the slot's versions, which are the sequence
           numbers announced for this fixture pair *)
        let repp =
          Slot.make_replica ~pair:7001 ~buffered:false ~persist:true region 0
        in
        let bump expected =
          ignore
            (Slot.cas_pred repp
               ~expect:(fun v -> v = expected)
               ~desired:(expected + 1))
        in
        bump 0;
        (* seq_p = 1, seq_v = 0: still inside the band *)
        bump 1
        (* seq_p = 2, seq_v = 0: band broken *))
  in
  check (counts_by_class r Psan.V3 > 0) "V3 raised";
  check (counts_by_class r Psan.V1 = 0) "no collateral V1 (writes only)";
  match Psan.violations r with
  | { Psan.f_class = Psan.V3; f_pair; _ } :: _ ->
      check (f_pair = 7001) "finding names the pair"
  | _ -> Alcotest.fail "first finding should be V3"

(* V4: the flush is committed only by another thread's racing fence — fine
   under the simulator's per-domain drain, broken under hardware's
   per-thread fence semantics. *)
let test_v4_cross_thread_fence () =
  let region = Support.fresh_region () in
  let slot = Slot.make ~persist:true region 0 in
  let tid = ref 0 in
  let r =
    Hooks.with_tid
      (fun () -> !tid)
      (fun () ->
        sanitized (fun () ->
            tid := 0;
            Hooks.op_point Hooks.Op_begin;
            Slot.store slot 1;
            Slot.flush slot;
            (* thread 1's fence drains the shared domain pending set *)
            tid := 1;
            Region.fence region;
            (* thread 0 completes without ever fencing itself *)
            tid := 0;
            Hooks.op_point Hooks.Op_complete))
  in
  check (counts_by_class r Psan.V4 > 0) "V4 raised";
  check (counts_by_class r Psan.V2 = 0) "not misclassified as V2";
  (match Psan.violations r with
  | { Psan.f_class = Psan.V4; f_tid; _ } :: _ ->
      check (f_tid = 0) "charged to the completing thread"
  | _ -> Alcotest.fail "first finding should be V4");
  (* same schedule with the thread fencing for itself is clean *)
  let region = Support.fresh_region () in
  let slot = Slot.make ~persist:true region 0 in
  let r =
    Hooks.with_tid
      (fun () -> !tid)
      (fun () ->
        sanitized (fun () ->
            tid := 0;
            Hooks.op_point Hooks.Op_begin;
            Slot.store slot 1;
            Slot.flush slot;
            Region.fence region;
            Hooks.op_point Hooks.Op_complete))
  in
  check (Psan.clean r) "own-fence variant is clean"

(* -- clean sweep ------------------------------------------------------------- *)

let scenario ~ds ~prim ~elide =
  M.set_scenario ~ds ~prim ~elide ~threads:3 ~ops_per_task:6 ~range:16
    ~updates:60 ()

let test_clean_sweep () =
  List.iter
    (fun ds ->
      List.iter
        (fun prim ->
          List.iter
            (fun elide ->
              for seed = 1 to 2 do
                let r = M.psan_pass (scenario ~ds ~prim ~elide) ~seed in
                if not (Psan.clean r) then
                  Alcotest.failf "%s/%s elide=%b seed=%d: %s"
                    (Mirror_dstruct.Sets.ds_name ds)
                    prim elide seed (Psan.report_to_string r)
              done)
            [ false; true ])
        [ "mirror"; "mirror-nvmm" ])
    Mirror_dstruct.Sets.all_ds

(* -- negative controls -------------------------------------------------------- *)

let test_negative_controls () =
  (* orig-nvmm reads and depends on raw persistent slots: V1 and V2 *)
  let r =
    M.psan_pass (scenario ~ds:Mirror_dstruct.Sets.List_ds ~prim:"orig-nvmm"
        ~elide:false)
      ~seed:1
  in
  check (not (Psan.clean r)) "orig-nvmm is not clean";
  check (counts_by_class r Psan.V1 > 0) "orig-nvmm trips V1";
  check (counts_by_class r Psan.V2 > 0) "orig-nvmm trips V2";
  (* the persist-everything baselines still read slots on the hot path *)
  List.iter
    (fun prim ->
      let r =
        M.psan_pass (scenario ~ds:Mirror_dstruct.Sets.List_ds ~prim
            ~elide:false)
          ~seed:1
      in
      check (counts_by_class r Psan.V1 > 0) (prim ^ " trips V1"))
    [ "izraelevitz"; "nvtraverse" ]

(* -- torture-harness wiring --------------------------------------------------- *)

let torture ~prim ~elide ~psan ~seed =
  let region = Support.fresh_region ~elide () in
  let pack =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Mirror_prim.Prim.by_name region prim)
  in
  Mirror_harness.Durable.torture_schedsim pack ~region
    ~recover:(fun () -> ())
    ?psan ~seed ~threads:3 ~ops_per_task:6 ~range:16
    ~mix:(Mirror_workload.Workload.of_updates 60)
    ~crash_step:max_int ()

let test_torture_psan () =
  let sa = Psan.create ~seed:5 () in
  let res = torture ~prim:"mirror" ~elide:false ~psan:(Some sa) ~seed:5 in
  check (res.Mirror_harness.Durable.violations = []) "durably linearizable";
  (match res.Mirror_harness.Durable.psan with
  | Some r ->
      check (Psan.clean r) "mirror torture run is sanitizer-clean";
      check (r.Psan.events > 0) "events were processed"
  | None -> Alcotest.fail "psan report missing from result");
  let res = torture ~prim:"mirror" ~elide:false ~psan:None ~seed:5 in
  check (res.Mirror_harness.Durable.psan = None) "no report when not asked"

(* W1 equivalence: the warnings of an elide-off run count exactly the
   persists that elision skips, so they must equal the elided stats of the
   same seed with elision on (the schedules are step-identical: elided and
   charged persists yield the same number of times). *)
let test_w1_matches_elision () =
  List.iter
    (fun seed ->
      let sa = Psan.create ~seed () in
      let (_ : Mirror_harness.Durable.result) =
        torture ~prim:"mirror" ~elide:false ~psan:(Some sa) ~seed
      in
      let r = Psan.report sa in
      let s = Stats.get () in
      let f0 = s.Stats.flush_elided and e0 = s.Stats.fence_elided in
      let (_ : Mirror_harness.Durable.result) =
        torture ~prim:"mirror" ~elide:true ~psan:None ~seed
      in
      let elided_flush = s.Stats.flush_elided - f0 in
      let elided_fence = s.Stats.fence_elided - e0 in
      if r.Psan.w1_flush <> elided_flush || r.Psan.w1_fence <> elided_fence
      then
        Alcotest.failf
          "seed %d: W1 (%d flushes, %d fences) <> elided stats (%d, %d)" seed
          r.Psan.w1_flush r.Psan.w1_fence elided_flush elided_fence)
    [ 1; 2; 3; 4; 5 ]

(* -- determinism --------------------------------------------------------------- *)

let test_deterministic () =
  let run () =
    let r =
      M.psan_pass (scenario ~ds:Mirror_dstruct.Sets.List_ds ~prim:"orig-nvmm"
          ~elide:false)
        ~seed:3
    in
    (r.Psan.events, List.map (fun (c, n) -> (c, n)) r.Psan.counts,
     r.Psan.w1_flush, r.Psan.w1_fence, List.length r.Psan.findings)
  in
  check (run () = run ()) "same seed, same report";
  (* the report names the seed so a finding can be replayed *)
  let r =
    M.psan_pass (scenario ~ds:Mirror_dstruct.Sets.List_ds ~prim:"orig-nvmm"
        ~elide:false)
      ~seed:3
  in
  check (r.Psan.seed = 3) "report carries the scheduler seed"

(* -- vocabulary consistency ----------------------------------------------------- *)

let test_prim_names_in_sync () =
  let region = Support.fresh_region () in
  check
    (List.length Mirror_prim.Prim.all_names
    = List.length (Mirror_prim.Prim.all_for region))
    "all_names covers all_for";
  List.iter
    (fun name ->
      let (module P) = Mirror_prim.Prim.by_name region name in
      check (P.name = name) ("by_name round-trips " ^ name))
    Mirror_prim.Prim.all_names;
  List.iter
    (fun ds ->
      check
        (Mirror_dstruct.Sets.ds_of_name (Mirror_dstruct.Sets.ds_name ds)
        = Some ds)
        "ds_of_name round-trips")
    Mirror_dstruct.Sets.all_ds;
  check (Mirror_dstruct.Sets.ds_of_name "nope" = None) "unknown ds rejected"

let suite =
  [
    ( "psan",
      [
        Alcotest.test_case "fixture: V1 hot-path read" `Quick
          test_v1_hot_path_read;
        Alcotest.test_case "fixture: V2 unpersisted dependence" `Quick
          test_v2_unpersisted_dependence;
        Alcotest.test_case "fixture: V3 replica band" `Quick
          test_v3_replica_band;
        Alcotest.test_case "fixture: V4 cross-thread fence" `Quick
          test_v4_cross_thread_fence;
        Alcotest.test_case "clean sweep: Mirror ds x placement x elision"
          `Quick test_clean_sweep;
        Alcotest.test_case "negative controls: baselines trip" `Quick
          test_negative_controls;
        Alcotest.test_case "torture harness wiring" `Quick test_torture_psan;
        Alcotest.test_case "W1 warnings = elision stats" `Quick
          test_w1_matches_elision;
        Alcotest.test_case "deterministic, replayable reports" `Quick
          test_deterministic;
        Alcotest.test_case "name vocabularies in sync" `Quick
          test_prim_names_in_sync;
      ] );
  ]
