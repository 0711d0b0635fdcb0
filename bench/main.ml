(** Benchmark harness regenerating every panel of the paper's Figures 6 and
    7, plus bechamel microbenchmarks of the primitive operations.

    Usage:
      dune exec bench/main.exe                    # quick pass, all panels
      dune exec bench/main.exe -- --full          # paper-scale sweep
      dune exec bench/main.exe -- --panels 6a,6c  # subset
      dune exec bench/main.exe -- --smoke         # seconds-long CI pass
      dune exec bench/main.exe -- --csv out.csv   # also dump machine-readable rows
      dune exec bench/main.exe -- --no-micro      # skip bechamel microbenches

    Output per row: measured Mops/s (domains timeshare one core here) and
    modeled Mops/s (deterministic memory-cost model, ideal scaling) plus the
    per-operation NVMM event counts that drive the model. *)

module F = Mirror_harness.Figures
module R = Mirror_harness.Runner

(* -- figure panels ----------------------------------------------------------- *)

let run_figures cfg panel_filter csv_file =
  let panels =
    F.all_panels cfg
    |> List.filter (fun p ->
           match panel_filter with
           | [] -> true
           | ids -> List.mem p.F.id ids)
  in
  let csv_out =
    Option.map
      (fun f ->
        let oc = open_out f in
        output_string oc (F.csv_header ^ "\n");
        oc)
      csv_file
  in
  let all_rows = ref [] in
  List.iter
    (fun p ->
      Printf.printf "--- panel %s: %s\n%!" p.F.id p.F.descr;
      let rows = F.run_panel cfg p in
      all_rows := !all_rows @ rows;
      List.iter
        (fun r ->
          Format.printf "%a@." F.pp_row r;
          Option.iter
            (fun oc -> output_string oc (F.row_to_csv r ^ "\n"))
            csv_out)
        rows)
    panels;
  Option.iter close_out csv_out;
  !all_rows

(* -- headline-claim summary ---------------------------------------------------- *)

(* ratio of modeled throughput between two algorithms on a panel, averaged
   over the x axis *)
let ratio rows panel_id a b =
  let pts algo =
    List.filter
      (fun r -> r.F.panel.F.id = panel_id && r.F.point.R.algo = algo)
      rows
  in
  let pa = pts a and pb = pts b in
  let pairs =
    List.filter_map
      (fun ra ->
        List.find_opt (fun rb -> rb.F.x = ra.F.x) pb
        |> Option.map (fun rb ->
               ra.F.point.R.modeled_mops /. rb.F.point.R.modeled_mops))
      pa
  in
  match pairs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. pairs /. float_of_int (List.length pairs))

let summarize rows =
  print_newline ();
  print_endline "=== headline shape claims (modeled throughput ratios) ===";
  let claim panel_id a b expectation =
    match ratio rows panel_id a b with
    | None -> ()
    | Some r ->
        Printf.printf "%-4s %-22s / %-22s = %6.2fx   (paper: %s)\n" panel_id
          (a ^ ":" ^ panel_id) b r expectation
  in
  let list_algos a = "list/" ^ a and hash_algos a = "hash/" ^ a in
  let bst a = "bst/" ^ a and skip a = "skiplist/" ^ a in
  claim "6a" (list_algos "mirror") (list_algos "nvtraverse") "2.88x-8.7x";
  claim "6a" (list_algos "nvtraverse") (list_algos "izraelevitz") "5.6x-29x";
  claim "6c" (list_algos "mirror") (list_algos "izraelevitz") ">>1";
  claim "6d" (hash_algos "mirror") (hash_algos "nvtraverse") "~1.8x-2.5x";
  claim "6g" (bst "mirror") (bst "nvtraverse") "1.84x-2.33x";
  claim "6j" (skip "mirror") (skip "nvtraverse") "2.1x-2.65x";
  claim "6m" (hash_algos "mirror") (hash_algos "cmap") "2.85x-3.65x";
  claim "6n" (hash_algos "mirror") (hash_algos "cmap") "1.67x-3.95x";
  (* "persistent data structures created by Mirror can often execute faster
     than original (non-persistent) data structures that execute on the
     slower non-volatile memory" (§1) *)
  claim "6f" (hash_algos "mirror") (hash_algos "orig-nvmm")
    ">1 (persistent Mirror vs non-persistent-on-NVMM)";
  claim "6i" (bst "mirror") (bst "orig-nvmm") ">1";
  claim "7a" (list_algos "mirror-nvmm") (list_algos "izraelevitz") ">1";
  claim "7d" (hash_algos "mirror-nvmm") (hash_algos "nvtraverse")
    "~1 at 20% updates; NVTraverse wins beyond";
  print_newline ()

(* -- ablations -------------------------------------------------------------------- *)

(* 1. Fence-cost sensitivity: where does NVTraverse overtake Mirror when
   both replicas live on NVMM (the paper's §6.3 observation)?  Writes cost
   Mirror two NVMM updates + flush + fence; as the fence gets cheaper the
   double write dominates and NVTraverse wins earlier. *)
let ablation_fence_sensitivity () =
  print_endline
    "=== ablation: fence cost vs Mirror-NVMM / NVTraverse (hash, cached reads, 50% updates)";
  (* a short-traversal structure in the cache regime isolates the
     persistence costs: Mirror-NVMM pays 2 NVMM writes + 1 flush + ~1 fence
     per update, NVTraverse 1 write + ~2 flushes + 2 fences — the cheaper
     the fence, the more Mirror's double write hurts (the §6.3 trade-off) *)
  let base = Mirror_nvm.Latency.default in
  List.iter
    (fun fence_ns ->
      let point algo =
        let region = Mirror_nvm.Region.create ~track_slots:false () in
        let (module S) =
          Option.get (F.make_set ~region Mirror_dstruct.Sets.Hash_ds algo)
        in
        let p =
          Mirror_harness.Runner.run ~seconds:0.1 ~threads:8 ~range:4096
            ~mix:(Mirror_workload.Workload.of_updates 50)
            (module S)
        in
        (* recompute the model under the swept fence cost *)
        Mirror_nvm.Latency.set_config
          { base with Mirror_nvm.Latency.fence_ns; nvm_read_ns = 2 };
        let ns = Mirror_harness.Runner.modeled_ns p.R.per_op in
        Mirror_nvm.Latency.set_config base;
        8. *. 1e3 /. ns
      in
      let m = point F.Mirror_nvmm in
      let n = point F.Nvtraverse in
      Printf.printf
        "fence=%4dns  mirror-nvmm=%8.2f  nvtraverse=%8.2f  ratio=%5.2f\n%!"
        fence_ns m n (m /. n))
    [ 50; 100; 250; 500; 1000 ];
  Mirror_nvm.Latency.set_config base;
  print_newline ()

(* 2. Helping rate: how often does the Figure-4 helping path fire under
   contention on a single variable?  Driven by the deterministic scheduler
   — on a one-core box real domains barely overlap, while logical threads
   preempted at every protocol step contend for real. *)
let ablation_helping_rate () =
  print_endline
    "=== ablation: helping-path rate on one contended patomic (schedsim)";
  List.iter
    (fun threads ->
      let region = Mirror_nvm.Region.create ~track_slots:false () in
      let v = Mirror_core.Patomic.make region 0 in
      Mirror_nvm.Stats.reset_all ();
      let per_thread = 300 in
      let o =
        Mirror_schedsim.Sched.run ~seed:11
          (List.init threads (fun _ () ->
               for _ = 1 to per_thread do
                 ignore (Mirror_core.Patomic.fetch_add v 1)
               done))
      in
      assert o.Mirror_schedsim.Sched.completed;
      let st = Mirror_nvm.Stats.total () in
      let ops = float_of_int (threads * per_thread) in
      Printf.printf
        "threads=%2d  help/op=%6.4f  retry/op=%6.4f  (final=%d, exact)\n%!"
        threads
        (float_of_int st.Mirror_nvm.Stats.help /. ops)
        (float_of_int st.Mirror_nvm.Stats.cas_retry /. ops)
        (Mirror_core.Patomic.load v))
    [ 1; 2; 4; 8 ];
  print_newline ()

(* 3. Replica placement: the DRAM replica's whole contribution, isolated. *)
let ablation_placement () =
  print_endline
    "=== ablation: volatile-replica placement (hash, 8 threads, modeled Mops)";
  Printf.printf "%-8s %12s %12s %12s\n" "updates%" "mirror-dram" "mirror-nvmm"
    "orig-nvmm";
  List.iter
    (fun updates ->
      let point algo =
        let region = Mirror_nvm.Region.create ~track_slots:false () in
        let (module S) =
          Option.get (F.make_set ~region Mirror_dstruct.Sets.Hash_ds algo)
        in
        (Mirror_harness.Runner.run ~seconds:0.1 ~llc_bytes:(1 lsl 20)
           ~threads:8 ~range:65536
           ~mix:(Mirror_workload.Workload.of_updates updates)
           (module S))
          .R.modeled_mops
      in
      Printf.printf "%-8d %12.2f %12.2f %12.2f\n%!" updates
        (point F.Mirror) (point F.Mirror_nvmm) (point F.Orig_nvmm))
    [ 0; 20; 50; 100 ];
  print_newline ()

(* 4. Crash-policy sweep: under increasing eviction probability, more
   in-flight operations survive a crash — all without ever violating
   durable linearizability. *)
let ablation_crash_policy () =
  print_endline
    "=== ablation: crash policy (list/mirror, mid-operation cuts, 20 seeds)";
  List.iter
    (fun p ->
      let policy =
        if p = 0. then Mirror_nvm.Region.Adversarial
        else Mirror_nvm.Region.Eviction p
      in
      let violations = ref 0 and completed = ref 0 and runs = ref 0 in
      for seed = 1 to 20 do
        let region =
          Mirror_nvm.Region.create ~runtime_evict_prob:(p /. 2.) ~seed ()
        in
        let pack =
          Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
            (Mirror_prim.Prim.by_name region "mirror")
        in
        let r =
          Mirror_harness.Durable.torture_schedsim pack ~region
            ~recover:(fun () -> ())
            ~policy ~seed ~threads:3 ~ops_per_task:10 ~range:8
            ~mix:(Mirror_workload.Workload.of_updates 70)
            ~crash_step:200 ()
        in
        incr runs;
        completed := !completed + r.Mirror_harness.Durable.completed_ops;
        violations :=
          !violations + List.length r.Mirror_harness.Durable.violations
      done;
      Printf.printf
        "eviction=%.2f  runs=%d  completed-ops=%d  violations=%d\n%!" p !runs
        !completed !violations)
    [ 0.; 0.25; 0.5; 1.0 ];
  print_newline ()

(* 5. Recovery time vs structure size (§4.3's run-time/recovery trade-off):
   Mirror re-traces every reachable node; Link-Free scans its allocation
   registry.  Also contrasts with the key-skew of a Zipfian workload. *)
let ablation_recovery_time () =
  print_endline "=== ablation: recovery time vs structure size";
  List.iter
    (fun range ->
      (* Mirror hash: recovery = trace all reachable nodes *)
      let region = Mirror_nvm.Region.create () in
      let (module S) =
        Option.get (F.make_set ~region Mirror_dstruct.Sets.Hash_ds F.Mirror)
      in
      let t = S.create ~capacity:range () in
      List.iter
        (fun k -> ignore (S.insert t k k))
        (Mirror_workload.Workload.prefill_keys ~range);
      Mirror_nvm.Region.crash region;
      let t0 = Unix.gettimeofday () in
      S.recover t;
      let mirror_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Mirror_nvm.Region.mark_recovered region;
      (* Link-Free list-per-bucket hash: recovery = registry scan + rebuild *)
      let region2 = Mirror_nvm.Region.create () in
      let module C = struct
        let region = region2
        let track = true
      end in
      let module LF = Mirror_handmade.Link_free.Hash_set (C) in
      let t2 = LF.create ~capacity:range () in
      List.iter
        (fun k -> ignore (LF.insert t2 k k))
        (Mirror_workload.Workload.prefill_keys ~range);
      Mirror_nvm.Region.crash region2;
      let t0 = Unix.gettimeofday () in
      LF.recover t2;
      let lf_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Mirror_nvm.Region.mark_recovered region2;
      Printf.printf "size=%-7d  mirror-trace=%8.1f ms   link-free-scan=%8.1f ms\n%!"
        (range / 2) mirror_ms lf_ms)
    [ 4096; 16384; 65536 ];
  print_newline ()

(* 6. Key skew: YCSB's Zipfian vs the paper's uniform keys. *)
let ablation_zipfian () =
  print_endline
    "=== ablation: key distribution (hash, 8 threads, 20% updates, modeled Mops)";
  List.iter
    (fun (name, dist) ->
      let region = Mirror_nvm.Region.create ~track_slots:false () in
      let (module S) =
        Option.get (F.make_set ~region Mirror_dstruct.Sets.Hash_ds F.Mirror)
      in
      let p =
        Mirror_harness.Runner.run ~seconds:0.1 ~llc_bytes:(1 lsl 20) ~dist
          ~threads:8 ~range:65536
          ~mix:(Mirror_workload.Workload.of_updates 20)
          (module S)
      in
      Printf.printf "%-14s modeled=%8.2f  measured=%6.3f  nvmW/op=%5.2f\n%!"
        name p.R.modeled_mops p.R.mops p.R.per_op.R.nvm_writes)
    [
      ("uniform", Mirror_workload.Workload.Uniform);
      ("zipfian-0.99", Mirror_workload.Workload.Zipfian 0.99);
    ];
  print_newline ()

(* 7. Flush-instruction profiles: the paper reports clwb / clflush /
   clflushopt results identical up to noise for Mirror (a DWCAS right after
   every flush acts as a fence); check the model agrees across platforms. *)
let ablation_platforms () =
  print_endline
    "=== ablation: flush/fence platform profiles (list/mirror, 8 threads, 20% updates)";
  List.iter
    (fun (name, cfg) ->
      Mirror_nvm.Latency.set_config cfg;
      let region = Mirror_nvm.Region.create ~track_slots:false () in
      let (module S) =
        Option.get (F.make_set ~region Mirror_dstruct.Sets.List_ds F.Mirror)
      in
      let p =
        Mirror_harness.Runner.run ~seconds:0.1 ~threads:8 ~range:256
          ~mix:(Mirror_workload.Workload.of_updates 20)
          (module S)
      in
      Printf.printf "%-16s modeled=%8.2f Mops\n%!" name p.R.modeled_mops)
    Mirror_nvm.Latency.profiles;
  Mirror_nvm.Latency.set_config Mirror_nvm.Latency.default;
  print_newline ()

(* 8. Persistent transactions serialize writes (§1/§7): the redo-log
   transactional map against Mirror's lock-free hash under growing write
   concurrency.  The measured column shows the writer-lock convoy that the
   per-op cost model cannot. *)
let ablation_tx_scaling () =
  print_endline
    "=== ablation: serialized transactions vs lock-free Mirror (hash, 50% updates)";
  Printf.printf "%-8s %22s %22s\n" "threads" "txmap meas/model" "mirror meas/model";
  List.iter
    (fun threads ->
      let point pack_of =
        let region = Mirror_nvm.Region.create ~track_slots:false () in
        let (module S : Mirror_dstruct.Sets.SET) = pack_of region in
        Mirror_harness.Runner.run ~seconds:0.15 ~llc_bytes:(1 lsl 20) ~threads
          ~range:4096
          ~mix:(Mirror_workload.Workload.of_updates 50)
          (module S)
      in
      let tx =
        point (fun region ->
            let module C = struct
              let region = region
            end in
            (module Mirror_handmade.Txmap.Hash_set (C) : Mirror_dstruct.Sets.SET))
      in
      let mi =
        point (fun region ->
            Option.get (F.make_set ~region Mirror_dstruct.Sets.Hash_ds F.Mirror))
      in
      Printf.printf "%-8d %10.3f /%9.2f  %10.3f /%9.2f\n%!" threads
        tx.R.mops tx.R.modeled_mops mi.R.mops mi.R.modeled_mops)
    [ 1; 2; 4; 8 ];
  print_newline ()

let run_ablations () =
  ablation_fence_sensitivity ();
  ablation_helping_rate ();
  ablation_placement ();
  ablation_crash_policy ();
  ablation_recovery_time ();
  ablation_zipfian ();
  ablation_platforms ();
  ablation_tx_scaling ()

(* -- extensions: the generality claim, measured ---------------------------------- *)

(* Queue and stack throughput under every strategy: structures outside the
   paper's evaluation, obtained from the same transformation unchanged. *)
let run_extensions () =
  print_endline
    "=== extensions: queue / stack throughput per strategy (4 domains, modeled Mops)";
  let bench_one name (run : (module Mirror_prim.Prim.S) -> int) =
    Printf.printf "%-8s" name;
    List.iter
      (fun prim_name ->
        let region = Mirror_nvm.Region.create ~track_slots:false () in
        let p = Mirror_prim.Prim.by_name region prim_name in
        Mirror_nvm.Stats.reset_all ();
        Mirror_nvm.Latency.set_enabled true;
        let t0 = Unix.gettimeofday () in
        let ops = run p in
        let dt = Unix.gettimeofday () -. t0 in
        Mirror_nvm.Latency.set_enabled false;
        let st = Mirror_nvm.Stats.total () in
        let fops = float_of_int (max 1 ops) in
        let per_op =
          {
            Mirror_harness.Runner.dram_reads =
              float_of_int st.Mirror_nvm.Stats.dram_read /. fops;
            nvm_reads = float_of_int st.Mirror_nvm.Stats.nvm_read /. fops;
            nvm_writes =
              float_of_int
                (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas)
              /. fops;
            flushes = float_of_int st.Mirror_nvm.Stats.flush /. fops;
            fences = float_of_int st.Mirror_nvm.Stats.fence /. fops;
            flushes_elided =
              float_of_int st.Mirror_nvm.Stats.flush_elided /. fops;
            fences_elided =
              float_of_int st.Mirror_nvm.Stats.fence_elided /. fops;
            epoch_advances =
              float_of_int st.Mirror_nvm.Stats.epoch_advance /. fops;
            fences_batched =
              float_of_int st.Mirror_nvm.Stats.fence_batched /. fops;
            writes_deferred =
              float_of_int st.Mirror_nvm.Stats.writes_deferred /. fops;
          }
        in
        ignore dt;
        Printf.printf "  %s=%6.2f" prim_name
          (1e3 /. Mirror_harness.Runner.modeled_ns per_op))
      [ "orig-dram"; "izraelevitz"; "nvtraverse"; "mirror"; "mirror-nvmm" ];
    print_newline ()
  in
  let queue_run (module P : Mirror_prim.Prim.S) =
    let module Q = Mirror_dstruct.Queue.Make (P) in
    let q = Q.create () in
    let per_thread = 4000 in
    let doms =
      Array.init 4 (fun _ ->
          Domain.spawn (fun () ->
              for j = 1 to per_thread do
                if j land 1 = 0 then Q.enqueue q j else ignore (Q.dequeue q)
              done))
    in
    Array.iter Domain.join doms;
    4 * per_thread
  in
  let stack_run (module P : Mirror_prim.Prim.S) =
    let module S = Mirror_dstruct.Stack.Make (P) in
    let s = S.create () in
    let per_thread = 4000 in
    let doms =
      Array.init 4 (fun i ->
          Domain.spawn (fun () ->
              for j = 1 to per_thread do
                if (i + j) land 1 = 0 then S.push s j else ignore (S.pop s)
              done))
    in
    Array.iter Domain.join doms;
    4 * per_thread
  in
  bench_one "queue" queue_run;
  bench_one "stack" stack_run;
  (* the hand-made durable MS queue (Friedman et al., PPoPP'18) against the
     same workload — the paper's related-work comparison point *)
  let region = Mirror_nvm.Region.create ~track_slots:false () in
  let dq = Mirror_handmade.Durable_queue.create region in
  Mirror_nvm.Stats.reset_all ();
  Mirror_nvm.Latency.set_enabled true;
  let per_thread = 4000 in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for j = 1 to per_thread do
              if j land 1 = 0 then Mirror_handmade.Durable_queue.enqueue dq j
              else ignore (Mirror_handmade.Durable_queue.dequeue dq)
            done))
  in
  Array.iter Domain.join doms;
  Mirror_nvm.Latency.set_enabled false;
  let st = Mirror_nvm.Stats.total () in
  let fops = float_of_int (4 * per_thread) in
  let per_op =
    {
      Mirror_harness.Runner.dram_reads =
        float_of_int st.Mirror_nvm.Stats.dram_read /. fops;
      nvm_reads = float_of_int st.Mirror_nvm.Stats.nvm_read /. fops;
      nvm_writes =
        float_of_int (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas)
        /. fops;
      flushes = float_of_int st.Mirror_nvm.Stats.flush /. fops;
      fences = float_of_int st.Mirror_nvm.Stats.fence /. fops;
      flushes_elided = float_of_int st.Mirror_nvm.Stats.flush_elided /. fops;
      fences_elided = float_of_int st.Mirror_nvm.Stats.fence_elided /. fops;
      epoch_advances = float_of_int st.Mirror_nvm.Stats.epoch_advance /. fops;
      fences_batched = float_of_int st.Mirror_nvm.Stats.fence_batched /. fops;
      writes_deferred =
        float_of_int st.Mirror_nvm.Stats.writes_deferred /. fops;
    }
  in
  Printf.printf "%-8s  hand-made-durable=%6.2f (Friedman et al. PPoPP'18)\n"
    "queue" (1e3 /. Mirror_harness.Runner.modeled_ns per_op);
  print_newline ()

(* -- elision panel ---------------------------------------------------------------- *)

(* Flush/fence elision on vs off for every Mirror-transformed structure,
   under the deterministic scheduler (the only place operations genuinely
   interleave on this one-core box, so the helping/retry paths that elision
   targets actually fire).  Charged counts are exact and deterministic;
   elision changes no control flow, so each off/on pair describes the same
   executions. *)
let run_elision () =
  print_endline
    "=== elision panel: flush/fence elision off vs on (schedsim, 4 logical \
     threads, contended)";
  Printf.printf "%-10s %9s %9s | %9s %9s %9s %9s | %8s %8s\n" "structure"
    "fl/op" "fe/op" "fl/op" "fe/op" "elided-fl" "elided-fe" "fl-sav%" "fe-sav%";
  Printf.printf "%-10s %19s | %39s |\n" "" "elision off" "elision on";
  let pts = F.run_elision_panel () in
  List.iter
    (fun ds ->
      let find elide =
        List.find (fun p -> p.F.e_ds = ds && p.F.e_elide = elide) pts
      in
      let off = find false and on = find true in
      let sav a b = if a > 0. then 100. *. (a -. b) /. a else 0. in
      Printf.printf
        "%-10s %9.3f %9.3f | %9.3f %9.3f %9.3f %9.3f | %7.1f%% %7.1f%%\n%!" ds
        off.F.e_flushes off.F.e_fences on.F.e_flushes on.F.e_fences
        on.F.e_flushes_elided on.F.e_fences_elided
        (sav off.F.e_flushes on.F.e_flushes)
        (sav off.F.e_fences on.F.e_fences))
    F.elision_structures;
  print_newline ();
  pts

(* -- buffered panel ---------------------------------------------------------------- *)

(* Epoch-batched persistence vs strict Mirror, under the deterministic
   scheduler: the same contended workload per (structure, threads) cell,
   run strict and then buffered at several epoch lengths.  The open epoch
   is drained before counters are read, so every deferred persist is
   charged to its run.  See Figures.run_buffered_panel. *)
let run_buffered () =
  print_endline
    "=== buffered panel: epoch-batched persistence vs strict Mirror \
     (schedsim, contended)";
  Printf.printf "%-8s %7s %9s %7s | %9s %9s %9s | %8s %8s %9s\n" "structure"
    "threads" "epoch" "ops" "strict-fe" "buf-fe" "reduce" "adv/op" "batch-fe"
    "defer/op";
  let pts = F.run_buffered_panel () in
  List.iter
    (fun p ->
      Printf.printf
        "%-8s %7d %9d %7d | %9.4f %9.4f %8.1fx | %8.4f %8.4f %9.3f\n%!"
        p.F.b_ds p.F.b_threads p.F.b_epoch_len p.F.b_ops p.F.b_strict_fences
        p.F.b_fences p.F.b_fence_reduction p.F.b_epoch_advances
        p.F.b_fences_batched p.F.b_writes_deferred)
    pts;
  print_newline ();
  pts

(* "epoch256" -> Some 256 under prefix "epoch"; shared by the budget-row
   parsers below *)
let prefixed prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    int_of_string_opt (String.sub s n (String.length s - n))
  else None

(* Buffered-persistence budgets: rows of the form
   buffered,epochN,ds,threadsT,max_fences_per_op,min_fence_reduction in
   bench/budgets.csv gate the buffered panel at epoch length N: the charged
   fences per op must stay under the ceiling AND the strict/buffered fence
   ratio must clear the floor.  This is the headline claim of the buffered
   discipline (>= 5x fewer fences at epoch length 256), enforced on every
   `make bench-smoke`. *)
let check_buffered_budgets (pts : F.buffered_point list) budget_file =
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln -> (
          match String.split_on_char ',' (String.trim ln) with
          | [ "buffered"; ep; ds; thr; max_fe; min_red ] -> (
              match
                ( prefixed "epoch" ep,
                  prefixed "threads" thr,
                  float_of_string_opt max_fe,
                  float_of_string_opt min_red )
              with
              | Some e, Some t, Some fe, Some red ->
                  go ((e, ds, t, fe, red) :: acc)
              | _ -> go acc)
          | _ -> go acc)
    in
    go []
  in
  let failures = ref 0 in
  List.iter
    (fun (epoch_len, ds, threads, max_fe, min_red) ->
      match
        List.find_opt
          (fun p ->
            p.F.b_ds = ds && p.F.b_threads = threads
            && p.F.b_epoch_len = epoch_len)
          pts
      with
      | None -> ()
      | Some p ->
          let bad_fe = p.F.b_fences > max_fe in
          let bad_red = p.F.b_fence_reduction < min_red in
          if bad_fe || bad_red then begin
            incr failures;
            Printf.eprintf
              "BUDGET EXCEEDED buffered %s epoch=%d threads=%d fences/op \
               %.4f (max %.4f) reduction %.1fx (min %.1fx)\n"
              ds epoch_len threads p.F.b_fences max_fe p.F.b_fence_reduction
              min_red
          end
          else
            Printf.printf
              "budget ok       buffered %s epoch=%d threads=%d fences/op \
               %.4f <= %.4f  reduction %.1fx >= %.1fx\n"
              ds epoch_len threads p.F.b_fences max_fe p.F.b_fence_reduction
              min_red)
    budgets;
  !failures = 0

(* -- line panel ---------------------------------------------------------------- *)

(* Cache-line flush coalescing: the insert-only line panel at every
   slots-per-line setting (or just [1; n] when --slots-per-line pins one).
   Each structure's slots=1 row is its own baseline, so the reduction
   column is self-contained.  See Figures.run_line_panel. *)
let run_line slots_pin =
  print_endline
    "=== line panel: cache-line flush coalescing (schedsim, insert-only, \
     disjoint key stripes)";
  Printf.printf "%-10s %6s %7s | %9s %12s %9s | %9s %9s\n" "structure" "slots"
    "ops" "fl/op" "coalesced/op" "fe/op" "base-fl" "reduce";
  let slots =
    match slots_pin with
    | None -> F.line_slots
    | Some n -> List.sort_uniq compare [ 1; n ]
  in
  let pts = F.run_line_panel ~slots () in
  List.iter
    (fun p ->
      Printf.printf "%-10s %6d %7d | %9.4f %12.4f %9.4f | %9.4f %8.2fx\n%!"
        p.F.lp_ds p.F.lp_slots p.F.lp_ops p.F.lp_flushes p.F.lp_coalesced
        p.F.lp_fences p.F.lp_baseline_flushes p.F.lp_reduction)
    pts;
  print_newline ();
  pts

(* Line-coalescing budgets: rows of the form line,slotsN,ds,min_reduction
   in bench/budgets.csv gate the line panel at N slots per line: the
   slots=1 / slots=N charged-flush ratio must clear the floor.  This is
   the headline claim of the line map (multi-field inserts coalesce to
   one flush), enforced on every `make bench-smoke`.  When running under
   GitHub Actions ($GITHUB_STEP_SUMMARY set) the per-row budget-vs-
   measured deltas are also appended to the job summary as a markdown
   table. *)
let check_line_budgets (pts : F.line_point list) budget_file =
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln -> (
          match String.split_on_char ',' (String.trim ln) with
          | [ "line"; sl; ds; min_red ] -> (
              match (prefixed "slots" sl, float_of_string_opt min_red) with
              | Some s, Some red -> go ((s, ds, red) :: acc)
              | _ -> go acc)
          | _ -> go acc)
    in
    go []
  in
  let failures = ref 0 in
  let summary = ref [] in
  List.iter
    (fun (slots, ds, min_red) ->
      match
        List.find_opt
          (fun p -> p.F.lp_ds = ds && p.F.lp_slots = slots)
          pts
      with
      | None -> ()
      | Some p ->
          summary := (ds, slots, p.F.lp_reduction, min_red) :: !summary;
          if p.F.lp_reduction < min_red then begin
            incr failures;
            Printf.eprintf
              "BUDGET EXCEEDED line %s slots=%d flush reduction %.2fx < \
               %.2fx (%.4f -> %.4f fl/op)\n"
              ds slots p.F.lp_reduction min_red p.F.lp_baseline_flushes
              p.F.lp_flushes
          end
          else
            Printf.printf
              "budget ok       line %s slots=%d flush reduction %.2fx >= \
               %.2fx (%.4f -> %.4f fl/op)\n"
              ds slots p.F.lp_reduction min_red p.F.lp_baseline_flushes
              p.F.lp_flushes)
    budgets;
  (match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | Some path when !summary <> [] ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc "### Line-coalescing budgets\n\n";
      output_string oc
        "| structure | slots/line | measured reduction | budget floor | \
         delta |\n|---|---|---|---|---|\n";
      List.iter
        (fun (ds, slots, measured, floor) ->
          Printf.fprintf oc "| %s | %d | %.2fx | %.2fx | %+.2f |\n" ds slots
            measured floor (measured -. floor))
        (List.rev !summary);
      output_string oc "\n";
      close_out oc
  | _ -> ());
  !failures = 0

(* -- recovery panel ---------------------------------------------------------------- *)

(* Parallel heap recovery: wall clock with real domains (honest but flat on
   a one-core box) next to the modeled critical-path latency from a
   deterministic-scheduler run (machine-independent; what the speedup
   budget gates).  See Figures.run_recovery_panel. *)
let run_recovery smoke =
  print_endline
    "=== recovery panel: parallel heap recovery (wall ms, modeled critical \
     path)";
  let live_points = if smoke then [ 2_000; 20_000 ] else [ 10_000; 100_000 ] in
  let pts = F.run_recovery_panel ~live_points () in
  Printf.printf "%-8s %9s %8s %10s %10s %8s %9s %8s %8s\n" "shape" "live"
    "domains" "wall-ms" "model-ms" "speedup" "marked" "swept" "steals";
  List.iter
    (fun p ->
      let base =
        List.find
          (fun q ->
            q.F.rp_shape = p.F.rp_shape
            && q.F.rp_live = p.F.rp_live
            && q.F.rp_domains = 1)
          pts
      in
      let speedup =
        if p.F.rp_model_ms > 0. then base.F.rp_model_ms /. p.F.rp_model_ms
        else 0.
      in
      Printf.printf "%-8s %9d %8d %10.2f %10.2f %7.2fx %9d %8d %8d\n%!"
        p.F.rp_shape p.F.rp_live p.F.rp_domains p.F.rp_wall_ms p.F.rp_model_ms
        speedup p.F.rp_marked p.F.rp_swept p.F.rp_steals)
    pts;
  print_newline ();
  pts

(* -- alloc panel ---------------------------------------------------------------- *)

(* Sharded arenas vs the old global-lock allocator on an alloc/free-heavy
   schedsim workload.  The Mops column is the deterministic Amdahl model
   (persist costs serial under the lock, parallel when sharded); the
   speedup column at N threads is what the alloc budgets gate.  See
   Figures.run_alloc_panel. *)
let run_alloc () =
  print_endline
    "=== alloc panel: sharded arenas vs global-lock allocator (schedsim, \
     modeled Mops)";
  let pts = F.run_alloc_panel () in
  Printf.printf "%-8s %8s %8s %10s %9s %7s %8s %7s %7s %7s\n" "policy"
    "threads" "ops" "mops" "wall-ms" "carves" "rfrees" "drains" "fl/op"
    "fe/op";
  List.iter
    (fun p ->
      Printf.printf "%-8s %8d %8d %10.2f %9.2f %7d %8d %7d %7.3f %7.3f%s\n%!"
        p.F.ap_policy p.F.ap_threads p.F.ap_ops p.F.ap_mops p.F.ap_wall_ms
        p.F.ap_carves p.F.ap_remote_frees p.F.ap_drains p.F.ap_flushes
        p.F.ap_fences
        (if p.F.ap_policy = "sharded" then
           match
             List.find_opt
               (fun q ->
                 q.F.ap_policy = "lock" && q.F.ap_threads = p.F.ap_threads)
               pts
           with
           | Some l when l.F.ap_mops > 0. ->
               Printf.sprintf "   (%.2fx vs lock)" (p.F.ap_mops /. l.F.ap_mops)
           | _ -> ""
         else ""))
    pts;
  print_newline ();
  pts

(* Alloc-scaling budgets: rows of the form alloc,threadsN,min_speedup,0 in
   bench/budgets.csv gate the modeled sharded/lock throughput ratio at N
   logical threads. *)
let check_alloc_budgets (pts : F.alloc_point list) budget_file =
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln -> (
          match String.split_on_char ',' (String.trim ln) with
          | [ "alloc"; thr; min_speedup; _ ]
            when String.length thr > 7 && String.sub thr 0 7 = "threads" -> (
              match
                ( int_of_string_opt (String.sub thr 7 (String.length thr - 7)),
                  float_of_string_opt min_speedup )
              with
              | Some t, Some m -> go ((t, m) :: acc)
              | _ -> go acc)
          | _ -> go acc)
    in
    go []
  in
  let at policy threads =
    List.find_opt
      (fun p -> p.F.ap_policy = policy && p.F.ap_threads = threads)
      pts
  in
  let failures = ref 0 in
  List.iter
    (fun (threads, min_speedup) ->
      match (at "lock" threads, at "sharded" threads) with
      | Some l, Some s when l.F.ap_mops > 0. ->
          let speedup = s.F.ap_mops /. l.F.ap_mops in
          if speedup < min_speedup then begin
            incr failures;
            Printf.eprintf
              "BUDGET EXCEEDED alloc threads=%d sharded/lock modeled speedup \
               %.2fx < %.2fx\n"
              threads speedup min_speedup
          end
          else
            Printf.printf
              "budget ok       alloc threads=%d sharded/lock modeled speedup \
               %.2fx >= %.2fx\n"
              threads speedup min_speedup
      | _ -> ())
    budgets;
  !failures = 0

(* -- scaling panel ---------------------------------------------------------------- *)

(* The 8/16-thread scaling tier: the elision panel's contended drivers at
   every point of the extended thread axis, Amdahl-priced with the NUMA
   remote-line knob on.  The speedup column is each structure's modeled
   throughput over its own 1-thread row; wall-ms is the honest timeshared
   schedsim wall clock (not a parallelism claim).  See
   Figures.run_scaling_panel. *)
let run_scaling () =
  print_endline
    "=== scaling panel: contended structures at 1/2/4/8/16 threads \
     (schedsim, modeled Mops)";
  (* depth knobs for the nightly deep run; the defaults are what the
     committed budget floors were measured at.  A malformed or
     non-positive value raises, naming the variable. *)
  let env_pos name default = Mirror_nvm.Latency.env_int ~min:1 name default in
  let ops_per_task = env_pos "MIRROR_SCALING_OPS" 40 in
  let seeds = env_pos "MIRROR_SCALING_SEEDS" 4 in
  let pts = F.run_scaling_panel ~ops_per_task ~seeds () in
  Printf.printf "%-8s %8s %8s %10s %9s %10s %9s\n" "ds" "threads" "ops" "mops"
    "speedup" "remote/op" "wall-ms";
  List.iter
    (fun p ->
      Printf.printf "%-8s %8d %8d %10.3f %8.2fx %10.4f %9.2f\n%!" p.F.sp_ds
        p.F.sp_threads p.F.sp_ops p.F.sp_mops p.F.sp_speedup p.F.sp_remote
        p.F.sp_wall_ms)
    pts;
  print_newline ();
  pts

(* Scaling budgets: rows of the form scaling,threadsN,ds,min_speedup in
   bench/budgets.csv gate the scaling panel at N threads: the structure's
   modeled speedup over its own 1-thread row must clear the floor.  This
   is the headline claim of the 8/16-thread tier (lock-free structures
   keep scaling past 4 domains), enforced on every `make bench-smoke`.
   When running under GitHub Actions ($GITHUB_STEP_SUMMARY set) the
   per-row budget-vs-measured deltas are also appended to the job summary
   as a markdown table. *)
let check_scaling_budgets (pts : F.scaling_point list) budget_file =
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln -> (
          match String.split_on_char ',' (String.trim ln) with
          | [ "scaling"; thr; ds; min_speedup ] -> (
              match (prefixed "threads" thr, float_of_string_opt min_speedup)
              with
              | Some t, Some m -> go ((t, ds, m) :: acc)
              | _ -> go acc)
          | _ -> go acc)
    in
    go []
  in
  let failures = ref 0 in
  let summary = ref [] in
  List.iter
    (fun (threads, ds, min_speedup) ->
      match
        List.find_opt
          (fun p -> p.F.sp_ds = ds && p.F.sp_threads = threads)
          pts
      with
      | None -> ()
      | Some p ->
          summary := (ds, threads, p.F.sp_speedup, min_speedup) :: !summary;
          if p.F.sp_speedup < min_speedup then begin
            incr failures;
            Printf.eprintf
              "BUDGET EXCEEDED scaling %s threads=%d modeled speedup %.2fx < \
               %.2fx (%.3f Mops)\n"
              ds threads p.F.sp_speedup min_speedup p.F.sp_mops
          end
          else
            Printf.printf
              "budget ok       scaling %s threads=%d modeled speedup %.2fx \
               >= %.2fx (%.3f Mops)\n"
              ds threads p.F.sp_speedup min_speedup p.F.sp_mops)
    budgets;
  (match Sys.getenv_opt "GITHUB_STEP_SUMMARY" with
  | Some path when !summary <> [] ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc "### Scaling budgets\n\n";
      output_string oc
        "| structure | threads | measured speedup | budget floor | delta \
         |\n|---|---|---|---|---|\n";
      List.iter
        (fun (ds, threads, measured, floor) ->
          Printf.fprintf oc "| %s | %d | %.2fx | %.2fx | %+.2f |\n" ds threads
            measured floor (measured -. floor))
        (List.rev !summary);
      output_string oc "\n";
      close_out oc
  | _ -> ());
  !failures = 0

(* Recovery-speedup budgets: rows of the form recovery,domainsN,min_speedup,0
   in bench/budgets.csv gate the modeled speedup at N workers against the
   sequential path, at each shape's largest live point. *)
let check_recovery_budgets (pts : F.recovery_point list) budget_file =
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln -> (
          match String.split_on_char ',' (String.trim ln) with
          | [ "recovery"; dom; min_speedup; _ ]
            when String.length dom > 7
                 && String.sub dom 0 7 = "domains" -> (
              match
                ( int_of_string_opt
                    (String.sub dom 7 (String.length dom - 7)),
                  float_of_string_opt min_speedup )
              with
              | Some d, Some m -> go ((d, m) :: acc)
              | _ -> go acc)
          | _ -> go acc)
    in
    go []
  in
  let failures = ref 0 in
  let shapes = List.sort_uniq compare (List.map (fun p -> p.F.rp_shape) pts) in
  List.iter
    (fun shape ->
      let of_shape = List.filter (fun p -> p.F.rp_shape = shape) pts in
      let live =
        List.fold_left (fun a p -> max a p.F.rp_live) 0 of_shape
      in
      let at d =
        List.find_opt
          (fun p -> p.F.rp_live = live && p.F.rp_domains = d)
          of_shape
      in
      List.iter
        (fun (d, min_speedup) ->
          match (at 1, at d) with
          | Some base, Some p when p.F.rp_model_ms > 0. ->
              let speedup = base.F.rp_model_ms /. p.F.rp_model_ms in
              if speedup < min_speedup then begin
                incr failures;
                Printf.eprintf
                  "BUDGET EXCEEDED recovery %s live=%d domains=%d modeled \
                   speedup %.2fx < %.2fx\n"
                  shape live d speedup min_speedup
              end
              else
                Printf.printf
                  "budget ok       recovery %s live=%d domains=%d modeled \
                   speedup %.2fx >= %.2fx\n"
                  shape live d speedup min_speedup
          | _ -> ())
        budgets)
    shapes;
  !failures = 0

(* -- flush/fence budgets ----------------------------------------------------------- *)

(* bench/budgets.csv commits a per-(structure, algorithm) ceiling on charged
   flushes/fences per operation for the Mirror algorithms; `make bench-smoke`
   fails when a smoke run exceeds it, so flush-count regressions are caught
   without waiting for the full sweep. *)
let check_budgets (rows : F.row list) budget_file =
  let parse_line ln =
    match String.split_on_char ',' (String.trim ln) with
    | [ ds; algo; max_fl; max_fe ] -> (
        try Some (ds, algo, float_of_string max_fl, float_of_string max_fe)
        with Failure _ -> None)
    | _ -> None
  in
  let budgets =
    let ic = open_in budget_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file ->
          close_in ic;
          List.rev acc
      | ln when String.length ln = 0 || ln.[0] = '#' -> go acc
      | ln -> go (match parse_line ln with Some b -> b :: acc | None -> acc)
    in
    go []
  in
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (ds, algo, max_fl, max_fe) ->
      let full_name = ds ^ "/" ^ algo in
      let pts =
        List.filter
          (fun r ->
            Mirror_dstruct.Sets.ds_name r.F.panel.F.ds = ds
            && r.F.point.R.algo = full_name)
          rows
      in
      match pts with
      | [] -> () (* structure not in this run's panel subset *)
      | _ ->
          incr checked;
          let worst f =
            List.fold_left (fun acc r -> Float.max acc (f r.F.point.R.per_op)) 0. pts
          in
          let fl = worst (fun p -> p.R.flushes)
          and fe = worst (fun p -> p.R.fences) in
          if fl > max_fl || fe > max_fe then begin
            incr failures;
            Printf.eprintf
              "BUDGET EXCEEDED %-16s flushes/op %.3f (max %.3f)  fences/op \
               %.3f (max %.3f)\n"
              full_name fl max_fl fe max_fe
          end
          else
            Printf.printf
              "budget ok       %-16s flushes/op %.3f <= %.3f  fences/op %.3f \
               <= %.3f\n"
              full_name fl max_fl fe max_fe)
    budgets;
  if !checked = 0 then
    Printf.eprintf "budget: no benchmark rows matched %s\n" budget_file;
  !failures = 0 && !checked > 0

(* -- bechamel microbenchmarks --------------------------------------------------- *)

let micro_tests () =
  let open Bechamel in
  let region = Mirror_nvm.Region.create ~track_slots:false () in
  let prim_tests name =
    let (module P : Mirror_prim.Prim.S) = Mirror_prim.Prim.by_name region name in
    let v = P.make 0 in
    let counter = P.make 0 in
    [
      Test.make ~name:(name ^ "/load") (Staged.stage (fun () -> P.load v));
      Test.make ~name:(name ^ "/load-traversal")
        (Staged.stage (fun () -> P.load_t v));
      Test.make ~name:(name ^ "/store") (Staged.stage (fun () -> P.store v 1));
      Test.make ~name:(name ^ "/fetch_add")
        (Staged.stage (fun () -> ignore (P.fetch_add counter 1)));
    ]
  in
  let ebr = Mirror_core.Ebr.create () in
  let ebr_tests =
    [
      Bechamel.Test.make ~name:"ebr/enter-exit"
        (Bechamel.Staged.stage (fun () ->
             Mirror_core.Ebr.enter ebr;
             Mirror_core.Ebr.exit ebr));
    ]
  in
  Test.make_grouped ~name:"prims"
    (List.concat_map prim_tests
       [ "orig-dram"; "orig-nvmm"; "izraelevitz"; "nvtraverse"; "mirror"; "mirror-nvmm" ]
    @ ebr_tests)

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "=== microbenchmarks (per-op wall time, latency model on) ===";
  Mirror_nvm.Latency.set_enabled true;
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let ols_result = Hashtbl.find results name in
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> Printf.printf "%-40s %10.1f ns/op\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare names);
  Mirror_nvm.Latency.set_enabled false;
  print_newline ()

(* -- command line ----------------------------------------------------------------- *)

let main full smoke panels csv no_micro no_ablation seconds budget
    slots_per_line =
  (* flag vocabulary check first: unknown slots-per-line is a usage error
     (exit 2, same convention as an unknown structure name), not a failed
     run *)
  (match slots_per_line with
  | Some n when not (List.mem n F.line_slots) ->
      Printf.eprintf "mirror-bench: unknown slots-per-line %d; valid: %s\n" n
        (String.concat ", " (List.map string_of_int F.line_slots));
      exit 2
  | _ -> ());
  let cfg =
    if full then F.full
    else if smoke then
      {
        F.quick with
        F.seconds = 0.05;
        threads_axis = [ 1; 2 ];
        list_sizes = [ 256 ];
        big_sizes = [ 4096 ];
        updates_axis = [ 0; 50 ];
        big_range = 4096;
        huge_range = 8192;
      }
    else F.quick
  in
  let cfg = match seconds with Some s -> { cfg with F.seconds = s } | None -> cfg in
  let panel_filter =
    List.concat_map (String.split_on_char ',') panels
    |> List.filter (fun s -> s <> "")
  in
  Printf.printf
    "mirror-bench: %s mode, %.2fs/point, latency model: read=%dns write=%dns \
     flush=%dns fence=%dns\n%!"
    (if full then "full" else if smoke then "smoke" else "quick")
    cfg.F.seconds
    (Mirror_nvm.Latency.get_config ()).Mirror_nvm.Latency.nvm_read_ns
    (Mirror_nvm.Latency.get_config ()).Mirror_nvm.Latency.nvm_write_ns
    (Mirror_nvm.Latency.get_config ()).Mirror_nvm.Latency.flush_ns
    (Mirror_nvm.Latency.get_config ()).Mirror_nvm.Latency.fence_ns;
  let rows = run_figures cfg panel_filter csv in
  summarize rows;
  let elision_pts = run_elision () in
  Option.iter
    (fun file ->
      let efile = Filename.remove_extension file ^ "_elision.csv" in
      let oc = open_out efile in
      output_string oc (F.elision_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.elision_point_to_csv p ^ "\n"))
        elision_pts;
      close_out oc;
      Printf.printf "elision rows written to %s\n%!" efile)
    csv;
  let buffered_pts = run_buffered () in
  Option.iter
    (fun file ->
      let bfile = Filename.remove_extension file ^ "_buffered.csv" in
      let oc = open_out bfile in
      output_string oc (F.buffered_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.buffered_point_to_csv p ^ "\n"))
        buffered_pts;
      close_out oc;
      Printf.printf "buffered rows written to %s\n%!" bfile)
    csv;
  let line_pts = run_line slots_per_line in
  Option.iter
    (fun file ->
      let lfile = Filename.remove_extension file ^ "_line.csv" in
      let oc = open_out lfile in
      output_string oc (F.line_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.line_point_to_csv p ^ "\n"))
        line_pts;
      close_out oc;
      Printf.printf "line rows written to %s\n%!" lfile)
    csv;
  let recovery_pts = run_recovery smoke in
  Option.iter
    (fun file ->
      let rfile = Filename.remove_extension file ^ "_recovery.csv" in
      let oc = open_out rfile in
      output_string oc (F.recovery_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.recovery_point_to_csv p ^ "\n"))
        recovery_pts;
      close_out oc;
      Printf.printf "recovery rows written to %s\n%!" rfile)
    csv;
  let alloc_pts = run_alloc () in
  Option.iter
    (fun file ->
      let afile = Filename.remove_extension file ^ "_alloc.csv" in
      let oc = open_out afile in
      output_string oc (F.alloc_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.alloc_point_to_csv p ^ "\n"))
        alloc_pts;
      close_out oc;
      Printf.printf "alloc rows written to %s\n%!" afile)
    csv;
  let scaling_pts = run_scaling () in
  Option.iter
    (fun file ->
      let sfile = Filename.remove_extension file ^ "_scaling.csv" in
      let oc = open_out sfile in
      output_string oc (F.scaling_csv_header ^ "\n");
      List.iter
        (fun p -> output_string oc (F.scaling_point_to_csv p ^ "\n"))
        scaling_pts;
      close_out oc;
      Printf.printf "scaling rows written to %s\n%!" sfile)
    csv;
  if not no_ablation then begin
    run_ablations ();
    run_extensions ()
  end;
  if not no_micro then run_micro ();
  let budgets_ok =
    match budget with None -> true | Some file -> check_budgets rows file
  in
  let recovery_ok =
    match budget with
    | None -> true
    | Some file -> check_recovery_budgets recovery_pts file
  in
  let alloc_ok =
    match budget with
    | None -> true
    | Some file -> check_alloc_budgets alloc_pts file
  in
  let buffered_ok =
    match budget with
    | None -> true
    | Some file -> check_buffered_budgets buffered_pts file
  in
  let line_ok =
    match budget with
    | None -> true
    | Some file -> check_line_budgets line_pts file
  in
  let scaling_ok =
    match budget with
    | None -> true
    | Some file -> check_scaling_budgets scaling_pts file
  in
  print_endline "done.";
  if
    not
      (budgets_ok && recovery_ok && alloc_ok && buffered_ok && line_ok
     && scaling_ok)
  then exit 1

open Cmdliner

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale sweep (slow).")

let smoke =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny CI-speed pass.")

let panels =
  Arg.(
    value & opt_all string []
    & info [ "panels"; "p" ] ~docv:"IDS" ~doc:"Comma-separated panel ids (e.g. 6a,7c).")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Write machine-readable rows to $(docv).")

let no_micro =
  Arg.(value & flag & info [ "no-micro" ] ~doc:"Skip bechamel microbenchmarks.")

let no_ablation =
  Arg.(value & flag & info [ "no-ablation" ] ~doc:"Skip the ablation studies.")

let seconds =
  Arg.(
    value
    & opt (some float) None
    & info [ "seconds" ] ~docv:"S" ~doc:"Wall-clock seconds per experiment point.")

let budget =
  Arg.(
    value
    & opt (some file) None
    & info [ "budget" ] ~docv:"FILE"
        ~doc:
          "Check measured flushes/fences per op against the ceilings in \
           $(docv) (CSV: ds,algo,max_flushes_per_op,max_fences_per_op); exit \
           1 on any regression.")

let slots_per_line =
  Arg.(
    value
    & opt (some int) None
    & info [ "slots-per-line" ] ~docv:"N"
        ~doc:
          "Pin the line panel to $(docv) slots per cache line (plus the \
           slots=1 baseline).  $(docv) must be one of the panel's sweep \
           values; anything else exits 2 listing them.")

let cmd =
  let doc = "Regenerate the evaluation figures of the Mirror paper (PLDI'21)." in
  Cmd.v
    (Cmd.info "mirror-bench" ~doc)
    Term.(
      const main $ full $ smoke $ panels $ csv $ no_micro $ no_ablation
      $ seconds $ budget $ slots_per_line)

let () = exit (Cmd.eval cmd)
