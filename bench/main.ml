(** Benchmark harness regenerating every panel of the paper's Figures 6 and
    7.  Per-operation timings of the primitives live in perfbench's ladder.

    Usage:
      dune exec bench/main.exe                    # quick pass, all panels
      dune exec bench/main.exe -- --full          # paper-scale sweep
      dune exec bench/main.exe -- --panels 6a,6c  # figure-panel subset
      dune exec bench/main.exe -- --smoke         # seconds-long CI pass
      dune exec bench/main.exe -- --csv out.csv   # also dump machine-readable rows

    Output per row: measured Mops/s (domains timeshare the host's cores) and
    modeled Mops/s (deterministic memory-cost model, ideal scaling) plus the
    per-operation NVMM event counts that drive the model.  The side panels
    (elision, buffered, line, recovery, alloc, scaling) follow, each one
    table; [--csv FILE] writes the figure rows to FILE and each side panel
    to <FILE base>_<panel>.csv, and [--budget] gates them all. *)

module F = Mirror_harness.Figures
module R = Mirror_harness.Runner
module P = Mirror_harness.Panel

(* -- figure panels ----------------------------------------------------------- *)

let run_figures cfg panel_filter =
  F.all_panels cfg
  |> List.filter (fun p ->
         match panel_filter with [] -> true | ids -> List.mem p.F.id ids)
  |> List.concat_map (fun p ->
         Printf.printf "--- panel %s: %s\n%!" p.F.id p.F.descr;
         F.run_panel cfg p)

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
   — real domains overlap only as much as the host's cores allow, while
   logical threads preempted at every protocol step contend for real. *)
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

(* 3. Crash-policy sweep: under increasing eviction probability, more
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

(* 4. Recovery time vs structure size (§4.3's run-time/recovery trade-off):
   Mirror re-traces every reachable node; Link-Free scans its allocation
   registry.  Also contrasts with the key-skew of a Zipfian workload. *)
let ablation_recovery_time () =
  print_endline "=== ablation: recovery time vs structure size";
  (* crash [region], then time [recover] inside one recovery session *)
  let timed_recovery region recover =
    Mirror_nvm.Region.crash region;
    let ms = ref 0. in
    Mirror_nvm.Region.recovery_session region (fun () ->
        let t0 = Mirror_clock.now_ns () in
        recover ();
        ms := Mirror_clock.seconds_since t0 *. 1e3);
    !ms
  in
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
      let mirror_ms = timed_recovery region (fun () -> S.recover t) in
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
      let lf_ms = timed_recovery region2 (fun () -> LF.recover t2) in
      Printf.printf "size=%-7d  mirror-trace=%8.1f ms   link-free-scan=%8.1f ms\n%!"
        (range / 2) mirror_ms lf_ms)
    [ 4096; 16384; 65536 ];
  print_newline ()

(* 5. Key skew: YCSB's Zipfian vs the paper's uniform keys. *)
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

(* 6. Flush-instruction profiles: the paper reports clwb / clflush /
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

(* 7. Persistent transactions serialize writes (§1/§7): the redo-log
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
        let ops = run p in
        Mirror_nvm.Latency.set_enabled false;
        let per_op = R.per_op_of_stats (Mirror_nvm.Stats.total ()) ~ops in
        Printf.printf "  %s=%6.2f" prim_name
          (1e3 /. R.modeled_ns per_op))
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
  let per_op =
    R.per_op_of_stats (Mirror_nvm.Stats.total ()) ~ops:(4 * per_thread)
  in
  Printf.printf "%-8s  hand-made-durable=%6.2f (Friedman et al. PPoPP'18)\n"
    "queue" (1e3 /. R.modeled_ns per_op);
  print_newline ()

(* -- side panels and budgets ------------------------------------------------- *)

(* Every side panel, in print order.  Each is deterministic (schedsim)
   apart from its wall_ms columns; see the producers in Figures. *)
let side_panels smoke slots_pin =
  [
    (fun () -> F.run_elision_panel ());
    (fun () -> F.run_buffered_panel ());
    (fun () ->
      (* --slots-per-line pins the sweep to [1; n] *)
      let slots =
        match slots_pin with
        | None -> F.line_slots
        | Some n -> List.sort_uniq compare [ 1; n ]
      in
      F.run_line_panel ~slots ());
    (fun () ->
      let live_points =
        if smoke then [ 2_000; 20_000 ] else [ 10_000; 100_000 ]
      in
      F.run_recovery_panel ~live_points ());
    (fun () -> F.run_alloc_panel ());
    (fun () ->
      (* depth knobs for the nightly deep run; the defaults are what the
         committed budget floors were measured at.  A malformed or
         non-positive value raises, naming the variable. *)
      let env_pos name default = Mirror_nvm.Latency.env_int ~min:1 name default in
      F.run_scaling_panel
        ~ops_per_task:(env_pos "MIRROR_SCALING_OPS" 40)
        ~seeds:(env_pos "MIRROR_SCALING_SEEDS" 4)
        ());
  ]

(* The figures panel goes to FILE itself, every other panel next to it as
   <FILE base>_<panel>.csv. *)
let csv_path file (p : P.t) =
  if p.name = "figures" then file
  else Filename.remove_extension file ^ "_" ^ p.name ^ ".csv"

(* Verdicts on stdout (failures on stderr) and, under GitHub Actions, in
   the job summary.  True when every budget holds. *)
let report_budgets verdicts =
  let lines = List.map P.verdict_to_string verdicts in
  List.iter2
    (fun v line ->
      if v.P.failed = 0 then print_endline line else prerr_endline line)
    verdicts lines;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path
        (fun oc ->
          output_string oc "### Budgets\n\n```\n";
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          output_string oc "```\n\n"))
    (Sys.getenv_opt "GITHUB_STEP_SUMMARY");
  List.for_all (fun v -> v.P.failed = 0) verdicts

(* -- command line ----------------------------------------------------------------- *)

let main full smoke panels csv no_ablation seconds budget
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
  (* a malformed budget file fails before anything runs *)
  let budgets =
    try
      Option.map
        (fun file ->
          P.parse_budgets ~file
            (In_channel.with_open_text file In_channel.input_all))
        budget
    with Failure msg ->
      prerr_endline ("mirror-bench: " ^ msg);
      exit 1
  in
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
  let rows = run_figures cfg panel_filter in
  summarize rows;
  let tables =
    List.map
      (fun run ->
        let p = run () in
        P.print p;
        Option.iter
          (fun file ->
            let path = csv_path file p in
            P.write_csv p path;
            Printf.printf "%s rows written to %s\n%!" p.name path)
          csv;
        p)
      ((fun () -> F.figures_panel rows) :: side_panels smoke slots_per_line)
  in
  if not no_ablation then begin
    run_ablations ();
    run_extensions ()
  end;
  let budgets_ok =
    match budgets with
    | None -> true
    | Some budgets -> (
        match P.check budgets tables with
        | verdicts -> report_budgets verdicts
        | exception Failure msg ->
            prerr_endline ("mirror-bench: " ^ msg);
            false)
  in
  print_endline "done.";
  if not budgets_ok then exit 1

open Cmdliner

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale sweep (slow).")

let smoke =
  Arg.(value & flag & info [ "smoke" ] ~doc:"Tiny CI-speed pass.")

let panels =
  Arg.(
    value & opt_all string []
    & info [ "panels"; "p" ] ~docv:"IDS"
        ~doc:
          "Comma-separated figure-panel ids (e.g. 6a,7c); the side panels \
           always run.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:
          "Write the figure rows to $(docv) and each side panel to \
           <$(docv) base>_<panel>.csv.")

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
          "Gate every panel against the budget rows in $(docv), one per line: \
           panel,key=v;key=v,metric,<=|>=,threshold (e.g. \
           figures,ds=list;algo=list/mirror,flushes_per_op,<=,0.65).  A row \
           applies to every panel row whose key cells match and compares the \
           unrounded metric.  Exit 1 when any matched row is past its \
           threshold, or when a row is malformed, names an unknown panel or \
           column, or matches no row.")

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
      const main $ full $ smoke $ panels $ csv $ no_ablation
      $ seconds $ budget $ slots_per_line)

let () = exit (Cmd.eval cmd)
