(** Descriptors for every panel of Figures 6 and 7 of the paper, and the
    machinery to regenerate them.  See DESIGN.md §4 for the panel-by-panel
    index and EXPERIMENTS.md for paper-vs-measured notes. *)

open Mirror_dstruct

type algo =
  | Orig_dram
  | Orig_nvmm
  | Izraelevitz
  | Nvtraverse
  | Mirror
  | Mirror_nvmm
  | Soft
  | Link_free
  | Cmap

let algo_name = function
  | Orig_dram -> "orig-dram"
  | Orig_nvmm -> "orig-nvmm"
  | Izraelevitz -> "izraelevitz"
  | Nvtraverse -> "nvtraverse"
  | Mirror -> "mirror"
  | Mirror_nvmm -> "mirror-nvmm"
  | Soft -> "soft"
  | Link_free -> "link-free"
  | Cmap -> "cmap"

(** Build the set implementation for one (structure, algorithm) pair over a
    fresh region.  [None] when the combination does not exist (SOFT and
    Link-Free are set-only designs evaluated as list and hash; Cmap is a
    hash map). *)
let make_set ~(region : Mirror_nvm.Region.t) (ds : Sets.ds) (a : algo) :
    Sets.pack option =
  let module C = struct
    let region = region
    let track = false
  end in
  let prim name = Mirror_prim.Prim.by_name region name in
  match a with
  | Orig_dram -> Some (Sets.make ds (prim "orig-dram"))
  | Orig_nvmm -> Some (Sets.make ds (prim "orig-nvmm"))
  | Izraelevitz -> Some (Sets.make ds (prim "izraelevitz"))
  | Nvtraverse -> Some (Sets.make ds (prim "nvtraverse"))
  | Mirror -> Some (Sets.make ds (prim "mirror"))
  | Mirror_nvmm -> Some (Sets.make ds (prim "mirror-nvmm"))
  | Soft -> (
      match ds with
      | Sets.List_ds -> Some (module Mirror_handmade.Soft.List_set (C))
      | Sets.Hash_ds -> Some (module Mirror_handmade.Soft.Hash_set (C))
      | _ -> None)
  | Link_free -> (
      match ds with
      | Sets.List_ds -> Some (module Mirror_handmade.Link_free.List_set (C))
      | Sets.Hash_ds -> Some (module Mirror_handmade.Link_free.Hash_set (C))
      | _ -> None)
  | Cmap -> (
      match ds with
      | Sets.Hash_ds -> Some (module Mirror_handmade.Cmap.Hash_set (C))
      | _ -> None)

type axis = Threads | Size | Updates

type panel = {
  id : string;
  descr : string;
  ds : Sets.ds;
  axis : axis;
  threads : int;  (** fixed thread count when axis <> Threads *)
  range : int;  (** fixed key range when axis <> Size *)
  updates : int;  (** fixed update %% when axis <> Updates *)
  algos : algo list;
}

type config = {
  seconds : float;
  threads_axis : int list;
  list_sizes : int list;  (** key ranges for the list size axis *)
  big_sizes : int list;  (** key ranges for hash/BST/skiplist size axes *)
  updates_axis : int list;
  list_range : int;
  big_range : int;
  huge_range : int;  (** the 32M-node panel 6o, scaled *)
  llc_bytes : int;
      (** modeled last-level cache for the two-regime read-cost model,
          scaled with the structure sizes (the paper's machine has 25 MB) *)
}

let quick =
  {
    seconds = 0.2;
    threads_axis = [ 1; 2; 4; 8; 16 ];
    list_sizes = [ 256; 1024; 4096 ];
    big_sizes = [ 4096; 32768; 131072 ];
    updates_axis = [ 0; 20; 50; 100 ];
    list_range = 256;
    big_range = 65536;
    huge_range = 262144;
    llc_bytes = 1 lsl 20;
  }

let full =
  {
    seconds = 1.0;
    threads_axis = [ 1; 2; 4; 8; 16 ];
    list_sizes = [ 256; 512; 1024; 4096; 16384 ];
    big_sizes = [ 4096; 16384; 65536; 262144; 1048576 ];
    updates_axis = [ 0; 10; 20; 50; 80; 100 ];
    list_range = 256;
    big_range = 262144;
    huge_range = 1048576;
    llc_bytes = 4 lsl 20;
  }

let general = [ Orig_dram; Orig_nvmm; Izraelevitz; Nvtraverse; Mirror ]
let set_algos = general @ [ Soft; Link_free ]

(** Figure 6: Mirror's volatile replica on DRAM. *)
let figure6 cfg =
  let p id descr ds axis ?(threads = 8) ?(range = cfg.big_range)
      ?(updates = 20) algos =
    { id; descr; ds; axis; threads; range; updates; algos }
  in
  [
    p "6a" "Linked-List, threads, 128 nodes, 80% lookups" Sets.List_ds Threads
      ~range:cfg.list_range set_algos;
    p "6b" "Linked-List, sizes, 8 threads, 80% lookups" Sets.List_ds Size
      ~range:cfg.list_range set_algos;
    p "6c" "Linked-List, update %, 8 threads, 128 nodes" Sets.List_ds Updates
      ~range:cfg.list_range set_algos;
    p "6d" "Hash-Table, threads, 80% lookups" Sets.Hash_ds Threads set_algos;
    p "6e" "Hash-Table, sizes, 8 threads, 80% lookups" Sets.Hash_ds Size
      set_algos;
    p "6f" "Hash-Table, update %, 8 threads" Sets.Hash_ds Updates set_algos;
    p "6g" "BST, threads, 80% lookups" Sets.Bst_ds Threads general;
    p "6h" "BST, sizes, 8 threads, 80% lookups" Sets.Bst_ds Size general;
    p "6i" "BST, update %, 8 threads" Sets.Bst_ds Updates general;
    p "6j" "Skip-List, threads, 80% lookups" Sets.Skiplist_ds Threads general;
    p "6k" "Skip-List, sizes, 8 threads, 80% lookups" Sets.Skiplist_ds Size
      general;
    p "6l" "Skip-List, update %, 8 threads" Sets.Skiplist_ds Updates general;
    p "6m" "Hash-Table vs Cmap, threads, 80% lookups / 20% writes"
      Sets.Hash_ds Threads [ Mirror; Cmap ];
    p "6n" "Hash-Table vs Cmap, update %, 8 threads" Sets.Hash_ds Updates
      [ Mirror; Cmap ];
    p "6o" "Hash-Table (32M-scale), update %, 8 threads" Sets.Hash_ds Updates
      ~range:cfg.huge_range
      [ Mirror; Nvtraverse; Soft; Link_free ];
  ]

(** Figure 7: both Mirror replicas on NVMM — same panels a–l with the
    Mirror-NVMM placement. *)
let figure7 cfg =
  figure6 cfg
  |> List.filter (fun p -> p.id <= "6l")
  |> List.map (fun p ->
         {
           p with
           id = "7" ^ String.sub p.id 1 (String.length p.id - 1);
           descr = p.descr ^ " [both replicas on NVMM]";
           algos =
             List.map (fun a -> if a = Mirror then Mirror_nvmm else a) p.algos;
         })

let all_panels cfg = figure6 cfg @ figure7 cfg

type row = { panel : panel; x : int; point : Runner.point }

(** Run one panel; returns a row per (x-value, algorithm). *)
let run_panel ?(progress = fun (_ : string) -> ()) (cfg : config) (panel : panel)
    : row list =
  let xs =
    match panel.axis with
    | Threads -> cfg.threads_axis
    | Size -> (
        match panel.ds with
        | Sets.List_ds -> cfg.list_sizes
        | _ -> cfg.big_sizes)
    | Updates -> cfg.updates_axis
  in
  List.concat_map
    (fun x ->
      let threads = match panel.axis with Threads -> x | _ -> panel.threads in
      let range = match panel.axis with Size -> x | _ -> panel.range in
      let updates =
        match panel.axis with Updates -> x | _ -> panel.updates
      in
      let mix = Mirror_workload.Workload.of_updates updates in
      List.filter_map
        (fun algo ->
          (* Elision is Mirror's optimization layer: the baselines keep the
             exact charged costs of the paper's transformations. *)
          let elide = match algo with Mirror | Mirror_nvmm -> true | _ -> false in
          let region = Mirror_nvm.Region.create ~track_slots:false ~elide () in
          match make_set ~region panel.ds algo with
          | None -> None
          | Some (module S) ->
              progress
                (Printf.sprintf "panel %s x=%d algo=%s" panel.id x
                   (algo_name algo));
              let point =
                Runner.run ~seconds:cfg.seconds ~llc_bytes:cfg.llc_bytes
                  ~threads ~range ~mix
                  (module S)
              in
              Some { panel; x; point })
        panel.algos)
    xs

let cols = String.split_on_char ','

(* Schema v2: the trailing epoch-clock columns joined with the buffered
   discipline; they are 0 for every strict algorithm. *)
let figures_panel rows =
  Panel.make "figures"
    (cols
       "panel,ds,algo,x,threads,mops,modeled_mops,nvm_reads_per_op,nvm_writes_per_op,flushes_per_op,fences_per_op,flushes_elided_per_op,fences_elided_per_op,epoch_advances_per_op,fences_batched_per_op,writes_deferred_per_op")
    (List.map
       (fun r ->
         let p = r.point in
         let o = p.Runner.per_op in
         Panel.
           [
             Str r.panel.id;
             Str (Sets.ds_name r.panel.ds);
             Str p.Runner.algo;
             Int r.x;
             Int p.Runner.threads;
             Float (p.Runner.mops, 4);
             Float (p.Runner.modeled_mops, 3);
             Float (o.Runner.nvm_reads, 2);
             Float (o.Runner.nvm_writes, 3);
             Float (o.Runner.flushes, 3);
             Float (o.Runner.fences, 3);
             Float (o.Runner.flushes_elided, 3);
             Float (o.Runner.fences_elided, 3);
             Float (o.Runner.epoch_advances, 4);
             Float (o.Runner.fences_batched, 4);
             Float (o.Runner.writes_deferred, 3);
           ])
       rows)

(* -- side panels: seeded schedsim runs ------------------------------------- *)

(* [seeds] deterministic-scheduler runs of the fibers [setup seed] builds
   over its region, summed: returns the run's stats and its wall clock in
   ms.  Setup cost is excluded (stats reset after [setup]); the open epoch
   is drained before counters are read, so a buffered run's deferred tail
   is charged to it ({!Mirror_nvm.Region.quiesce} is a no-op otherwise). *)
let sched_runs ~who ~seeds setup =
  let acc = Mirror_nvm.Stats.zero () and wall = ref 0. in
  for seed = 1 to seeds do
    let region, tasks = setup seed in
    Mirror_nvm.Stats.reset_all ();
    let t0 = Mirror_clock.now_ns () in
    let o = Mirror_schedsim.Sched.run ~seed tasks in
    wall := !wall +. (Mirror_clock.seconds_since t0 *. 1e3);
    if not o.Mirror_schedsim.Sched.completed then
      failwith (who ^ ": schedsim run did not complete");
    Mirror_nvm.Region.quiesce region;
    Mirror_nvm.Stats.add ~into:acc (Mirror_nvm.Stats.total ())
  done;
  (acc, !wall)

(* The run's charged NVMM events priced at the configured latencies (plus
   [remote_ns] per NUMA remote-line access). *)
let persist_ns ?(remote_ns = 0) (st : Mirror_nvm.Stats.t) =
  let cfg = Mirror_nvm.Latency.get_config () in
  float_of_int
    ((st.Mirror_nvm.Stats.flush * cfg.Mirror_nvm.Latency.flush_ns)
    + (st.Mirror_nvm.Stats.fence * cfg.Mirror_nvm.Latency.fence_ns)
    + (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas)
      * cfg.Mirror_nvm.Latency.nvm_write_ns
    + (st.Mirror_nvm.Stats.nvm_read * cfg.Mirror_nvm.Latency.nvm_read_ns)
    + (st.Mirror_nvm.Stats.nvm_remote * remote_ns))

(* -- elision panel: flush/fence elision on vs off ------------------------- *)

let elision_structures =
  [ "list"; "hash"; "bst"; "skiplist"; "queue"; "stack"; "pqueue"; "counter" ]

(* The contended schedsim drivers shared by the elision, buffered and
   scaling panels: the same workload shapes (70%-update small-range sets,
   mixed queue/stack/pqueue traffic, a bare fetch-add counter) over the
   [prim] strategy, parameterised by fiber count.  Returns the fiber
   thunks for one run. *)
let contended_tasks ?(prim = "mirror") ds ~threads ~ops_per_task region seed =
  let module W = Mirror_workload.Workload in
  let module Rng = Mirror_workload.Rng in
  let set_driver ds =
    let (module S : Sets.SET) =
      Sets.make ds (Mirror_prim.Prim.by_name region prim)
    in
    let range = 8 in
    let t = S.create ~capacity:range () in
    List.iter (fun k -> ignore (S.insert t k k)) (W.prefill_keys ~range);
    List.init threads (fun i () ->
        let rng = Rng.split ~seed i in
        for _ = 1 to ops_per_task do
          match W.gen rng (W.of_updates 70) ~range with
          | W.Lookup k -> ignore (S.contains t k)
          | W.Insert (k, v) -> ignore (S.insert t k v)
          | W.Remove k -> ignore (S.remove t k)
        done)
  in
  let queue_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region prim
    in
    let module Q = Mirror_dstruct.Queue.Make (P) in
    let q = Q.create () in
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if j land 1 = 0 then Q.enqueue q ((i * 1000) + j)
          else ignore (Q.dequeue q)
        done)
  in
  let stack_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region prim
    in
    let module St = Mirror_dstruct.Stack.Make (P) in
    let s = St.create () in
    List.init threads (fun i () ->
        for j = 1 to ops_per_task do
          if (i + j) land 1 = 0 then St.push s ((i * 1000) + j)
          else ignore (St.pop s)
        done)
  in
  let pqueue_driver () =
    let (module P : Mirror_prim.Prim.S) =
      Mirror_prim.Prim.by_name region prim
    in
    let module Pq = Mirror_dstruct.Priority_queue.Make (P) in
    let pq = Pq.create () in
    List.init threads (fun i () ->
        let rng = Rng.split ~seed i in
        for _ = 1 to ops_per_task do
          if Rng.int rng 2 = 0 then ignore (Pq.insert pq (Rng.int rng 16) 0)
          else ignore (Pq.delete_min pq)
        done)
  in
  let counter_driver () =
    let v = Mirror_core.Patomic.make region 0 in
    List.init threads (fun _ () ->
        for _ = 1 to ops_per_task do
          ignore (Mirror_core.Patomic.fetch_add v 1)
        done)
  in
  match ds with
  | "list" -> set_driver Sets.List_ds
  | "hash" -> set_driver Sets.Hash_ds
  | "bst" -> set_driver Sets.Bst_ds
  | "skiplist" -> set_driver Sets.Skiplist_ds
  | "queue" -> queue_driver ()
  | "stack" -> stack_driver ()
  | "pqueue" -> pqueue_driver ()
  | "counter" -> counter_driver ()
  | s -> invalid_arg ("contended_tasks: unknown structure " ^ s)

let run_elision_panel ?(threads = 4) ?(ops_per_task = 40) ?(seeds = 8) () =
  let row name elide =
    let acc, _ =
      sched_runs ~who:"run_elision_panel" ~seeds (fun seed ->
          let region = Mirror_nvm.Region.create ~track_slots:false ~elide () in
          (region, contended_tasks name ~threads ~ops_per_task region seed))
    in
    let ops = seeds * threads * ops_per_task in
    let fops = float_of_int (max 1 ops) in
    let per_op n = Panel.Float (float_of_int n /. fops, 4) in
    Panel.
      [
        Str name;
        Bool elide;
        Int ops;
        per_op acc.Mirror_nvm.Stats.flush;
        per_op acc.Mirror_nvm.Stats.fence;
        per_op acc.Mirror_nvm.Stats.flush_elided;
        per_op acc.Mirror_nvm.Stats.fence_elided;
        per_op acc.Mirror_nvm.Stats.help;
      ]
  in
  Panel.make "elision"
    (cols
       "ds,elide,ops,flushes_per_op,fences_per_op,flushes_elided_per_op,fences_elided_per_op,helps_per_op")
    (List.concat_map
       (fun name -> [ row name false; row name true ])
       elision_structures)

(* -- buffered panel: epoch-batched persistence vs strict Mirror ------------ *)

let buffered_structures = [ "list"; "hash"; "queue"; "stack" ]

let run_buffered_panel ?(threads_points = [ 1; 2; 4; 8; 16 ])
    ?(epoch_lens = [ 1; 16; 256 ]) ?(ops_per_task = 40) ?(seeds = 4) () =
  let measure name ~prim ~threads ~epoch_len =
    let acc, _ =
      sched_runs ~who:"run_buffered_panel" ~seeds (fun seed ->
          let region =
            Mirror_nvm.Region.create ~track_slots:false ~epoch_len ()
          in
          ( region,
            contended_tasks ~prim name ~threads ~ops_per_task region seed ))
    in
    (max 1 (seeds * threads * ops_per_task), acc)
  in
  let rows =
    List.concat_map
      (fun name ->
        List.concat_map
          (fun threads ->
            let sops, strict =
              measure name ~prim:"mirror" ~threads ~epoch_len:1
            in
            let strict_fences =
              float_of_int strict.Mirror_nvm.Stats.fence /. float_of_int sops
            in
            List.map
              (fun epoch_len ->
                let bops, buf =
                  measure name ~prim:"buffered" ~threads ~epoch_len
                in
                let fops = float_of_int bops in
                let fences = float_of_int buf.Mirror_nvm.Stats.fence /. fops in
                let per_op n = Panel.Float (float_of_int n /. fops, 4) in
                Panel.
                  [
                    Str name;
                    Int threads;
                    Int epoch_len;
                    Int bops;
                    Float (strict_fences, 4);
                    Float (fences, 4);
                    Float
                      ( (if fences > 0. then strict_fences /. fences
                         else Float.infinity),
                        2 );
                    per_op buf.Mirror_nvm.Stats.flush;
                    per_op buf.Mirror_nvm.Stats.epoch_advance;
                    per_op buf.Mirror_nvm.Stats.fence_batched;
                    per_op buf.Mirror_nvm.Stats.writes_deferred;
                  ])
              epoch_lens)
          threads_points)
      buffered_structures
  in
  Panel.make "buffered"
    (cols
       "ds,threads,epoch_len,ops,strict_fences_per_op,fences_per_op,fence_reduction,flushes_per_op,epoch_advances_per_op,fences_batched_per_op,writes_deferred_per_op")
    rows

(* -- recovery panel ---------------------------------------------------------------- *)

let model_ms_of (r : Mirror_nvmheap.Heap.recovery_stats) =
  let cfg = Mirror_nvm.Latency.get_config () in
  let critical arr = Array.fold_left max 0 arr in
  (* mark: one NVMM pointer-word read per traced node; sweep: one header
     read per parsed block *)
  float_of_int
    (cfg.Mirror_nvm.Latency.nvm_read_ns
    * (critical r.Mirror_nvmheap.Heap.r_worker_marked
      + critical r.Mirror_nvmheap.Heap.r_worker_parsed))
  /. 1e6

let run_recovery_panel ?(shapes = [ Mirror_nvmheap.Shapes.Forest ])
    ?(live_points = [ 10_000; 100_000 ]) ?(domain_points = [ 1; 2; 4 ]) () =
  if not (List.mem 1 domain_points) then
    invalid_arg "run_recovery_panel: domain_points must include 1";
  let module H = Mirror_nvmheap.Heap in
  let module Sh = Mirror_nvmheap.Shapes in
  let rows =
    List.concat_map
      (fun shape ->
        List.concat_map
          (fun live ->
            let garbage_ratio = 0.5 in
            let region = Mirror_nvm.Region.create ~track_slots:false () in
            let heap =
              H.create ~words:(Sh.words_needed ~live ~garbage_ratio) region
            in
            let built =
              Sh.build ~shape ~garbage_ratio ~durable:false ~seed:42 ~live heap
            in
            (* each row carries its 1-worker baseline's model_ms *)
            let measured =
              List.map
                (fun domains ->
                  (* wall clock with real domains *)
                  let t0 = Mirror_clock.now_ns () in
                  H.recover ~domains heap ~trace:built.Sh.trace;
                  let wall_ms = Mirror_clock.seconds_since t0 *. 1e3 in
                  let wall_stats = Option.get (H.last_recovery heap) in
                  (* deterministic work split under the cooperative scheduler *)
                  let runner tasks =
                    ignore (Mirror_schedsim.Sched.run ~seed:1 tasks)
                  in
                  H.recover ~domains ~runner heap ~trace:built.Sh.trace;
                  let sim_stats = Option.get (H.last_recovery heap) in
                  let model_ms = model_ms_of sim_stats in
                  ( model_ms,
                    fun base_ms ->
                      Panel.
                        [
                          Str (Sh.shape_name shape);
                          Int live;
                          Int (List.length built.Sh.garbage);
                          Int domains;
                          Float (wall_ms, 3);
                          Float (model_ms, 3);
                          Int wall_stats.H.r_marked;
                          Int wall_stats.H.r_swept;
                          Int sim_stats.H.r_steals;
                          Float
                            ( (if model_ms > 0. then base_ms /. model_ms
                               else 0.),
                              3 );
                        ] ))
                domain_points
            in
            let base_ms =
              fst (List.assoc 1 (List.combine domain_points measured))
            in
            List.map (fun (_, row) -> row base_ms) measured)
          live_points)
      shapes
  in
  Panel.make "recovery"
    (cols "shape,live,garbage,domains,wall_ms,model_ms,marked,swept,steals,speedup")
    rows

(* -- alloc panel -------------------------------------------------------------------- *)

let alloc_policy_name = function
  | Mirror_nvmheap.Heap.Sharded -> "sharded"
  | Mirror_nvmheap.Heap.Global_lock -> "lock"

let run_alloc_panel ?(threads_points = [ 1; 2; 4; 8; 16 ])
    ?(ops_per_task = 400) ?(seeds = 4) ?(base_op_ns = 20) () =
  let module H = Mirror_nvmheap.Heap in
  let module Rng = Mirror_workload.Rng in
  let run_one policy threads =
    let acc, wall =
      sched_runs ~who:"run_alloc_panel" ~seeds (fun seed ->
          let region = Mirror_nvm.Region.create ~track_slots:false () in
          let heap =
            H.create ~words:((threads * ops_per_task * 12) + 1024) ~policy
              region
          in
          (* per-fiber pools of live payloads; fiber i frees from fiber
             i+1's pool, so under Sharded every free is a cross-arena
             remote free *)
          let pools = Array.init threads (fun _ -> ref []) in
          ( region,
            List.init threads (fun i () ->
                let rng = Rng.split ~seed i in
                let mine = pools.(i) and theirs = pools.((i + 1) mod threads) in
                for _ = 1 to ops_per_task do
                  match !theirs with
                  | p :: rest when Rng.int rng 10 < 4 ->
                      theirs := rest;
                      H.free heap p
                  | _ ->
                      (* bind before the push: alloc yields, and the
                         neighbour pops from [mine] concurrently *)
                      let p = H.alloc heap (1 + Rng.int rng 8) in
                      mine := p :: !mine
                done) ))
    in
    let ops = seeds * threads * ops_per_task in
    let fops = float_of_int (max 1 ops) in
    let serial, parallel =
      match policy with
      | H.Global_lock -> (persist_ns acc, 0.)
      | H.Sharded -> (0., persist_ns acc)
    in
    let elapsed_ns =
      serial
      +. ((parallel +. (float_of_int base_op_ns *. fops))
         /. float_of_int threads)
    in
    let mops = fops /. elapsed_ns *. 1e3 in
    let per_op n = Panel.Float (float_of_int n /. fops, 4) in
    ( mops,
      fun lock_mops ->
        Panel.
          [
            Str (alloc_policy_name policy);
            Int threads;
            Int ops;
            Float (mops, 3);
            Float (wall, 3);
            Int acc.Mirror_nvm.Stats.alloc_carve;
            Int acc.Mirror_nvm.Stats.alloc_remote_free;
            Int acc.Mirror_nvm.Stats.alloc_remote_drain;
            per_op acc.Mirror_nvm.Stats.flush;
            per_op acc.Mirror_nvm.Stats.fence;
            Float (mops /. lock_mops, 3);
          ] )
  in
  let rows =
    List.concat_map
      (fun threads ->
        let ((lock_mops, _) as lock) = run_one H.Global_lock threads in
        List.map
          (fun (_, row) -> row lock_mops)
          [ lock; run_one H.Sharded threads ])
      threads_points
  in
  Panel.make "alloc"
    (cols
       "policy,threads,ops,modeled_mops,wall_ms,carves,remote_frees,drains,flushes_per_op,fences_per_op,speedup_vs_lock")
    rows

(* -- line panel: cache-line coalescing of flushes --------------------------- *)

let line_slots = [ 1; 4; 8 ]
let line_structures = [ "list"; "bst"; "skiplist" ]

let run_line_panel ?(slots = line_slots) ?(threads = 2) ?(ops_per_task = 200)
    ?(seeds = 4) () =
  let ds_of = function
    | "list" -> Sets.List_ds
    | "bst" -> Sets.Bst_ds
    | "skiplist" -> Sets.Skiplist_ds
    | s -> invalid_arg ("run_line_panel: unknown structure " ^ s)
  in
  (* bulk load over disjoint per-fiber stripes: fiber [i] owns keys
     [i * ops_per_task ..< (i+1) * ops_per_task] and inserts them in
     ascending order, so every insert allocates AND its predecessor is
     (almost always) the fiber's previous insert — the chained-placement
     pattern [make_near] targets, where the fresh field lands on the
     still-open line of the node the CE will flush anyway.  Shuffled keys
     would scatter predecessors onto long-full lines and measure line
     fragmentation instead of the placement API; the seed still varies
     the scheduler interleaving across fibers.  The default fiber count
     is deliberately low: every fiber timeshares the one simulated core,
     so any fiber's fence drains the whole pending set and closes the
     other fibers' coalescing windows mid-insert — an artifact of the
     shared persist path that per-core hardware would not have, and one
     that scales with the fiber count, not with the placement quality
     this panel gates. *)
  let measure name slots_per_line =
    let ds = ds_of name in
    let acc, _ =
      sched_runs ~who:"run_line_panel" ~seeds (fun _seed ->
          let region =
            Mirror_nvm.Region.create ~track_slots:false ~slots_per_line ()
          in
          let (module S : Sets.SET) =
            Sets.make ds (Mirror_prim.Prim.by_name region "mirror")
          in
          let range = threads * ops_per_task in
          let t = S.create ~capacity:range () in
          ( region,
            List.init threads (fun i () ->
                for j = 0 to ops_per_task - 1 do
                  let k = (i * ops_per_task) + j in
                  ignore (S.insert t k k)
                done) ))
    in
    (max 1 (seeds * threads * ops_per_task), acc)
  in
  let rows =
    List.concat_map
      (fun name ->
        let bops, base = measure name 1 in
        let baseline =
          float_of_int base.Mirror_nvm.Stats.flush /. float_of_int bops
        in
        List.map
          (fun slots ->
            let ops, st =
              if slots = 1 then (bops, base) else measure name slots
            in
            let fops = float_of_int ops in
            let per_op n = float_of_int n /. fops in
            let flushes = per_op st.Mirror_nvm.Stats.flush in
            Panel.
              [
                Str name;
                Int slots;
                Int ops;
                Float (flushes, 4);
                Float (per_op st.Mirror_nvm.Stats.flush_coalesced, 4);
                Float (per_op st.Mirror_nvm.Stats.fence, 4);
                Float (baseline, 4);
                Float
                  ( (if flushes > 0. then baseline /. flushes
                     else Float.infinity),
                    2 );
              ])
          slots)
      line_structures
  in
  Panel.make "line"
    (cols
       "ds,slots_per_line,ops,flushes_per_op,coalesced_per_op,fences_per_op,baseline_flushes_per_op,flush_reduction")
    rows

(* -- scaling panel: modeled speedup at 1..16 logical threads ---------------- *)

let scaling_structures = [ "list"; "hash"; "queue"; "counter" ]

let run_scaling_panel ?(structures = scaling_structures)
    ?(threads_points = [ 1; 2; 4; 8; 16 ]) ?(ops_per_task = 40) ?(seeds = 4)
    ?(base_op_ns = 40) ?(numa_remote_ns = 150) () =
  let saved_remote = Mirror_nvm.Latency.numa_remote_ns () in
  Mirror_nvm.Latency.set_numa_remote_ns numa_remote_ns;
  Fun.protect
    ~finally:(fun () -> Mirror_nvm.Latency.set_numa_remote_ns saved_remote)
  @@ fun () ->
  let run_one ds threads =
    let acc, wall =
      sched_runs ~who:"run_scaling_panel" ~seeds (fun seed ->
          let region = Mirror_nvm.Region.create ~track_slots:false () in
          (region, contended_tasks ds ~threads ~ops_per_task region seed))
    in
    let ops = seeds * threads * ops_per_task in
    let fops = float_of_int (max 1 ops) in
    (* lock-free structures: all priced work is parallel; the serial term
       of the Amdahl split is empty *)
    let elapsed_ns =
      (persist_ns ~remote_ns:numa_remote_ns acc
      +. (float_of_int base_op_ns *. fops))
      /. float_of_int threads
    in
    let mops = fops /. elapsed_ns *. 1e3 in
    ( mops,
      fun base_mops ->
        Panel.
          [
            Str ds;
            Int threads;
            Int ops;
            Float (mops, 3);
            Float (mops /. base_mops, 3);
            Float (float_of_int acc.Mirror_nvm.Stats.nvm_remote /. fops, 4);
            Float (wall, 3);
          ] )
  in
  let rows =
    List.concat_map
      (fun ds ->
        (* the 1-thread baseline is always measured (and reused when the
           axis includes it), so every row carries a well-defined speedup *)
        let ((base_mops, _) as base) = run_one ds 1 in
        List.map
          (fun threads ->
            snd (if threads = 1 then base else run_one ds threads) base_mops)
          threads_points)
      structures
  in
  Panel.make "scaling"
    (cols "ds,threads,ops,modeled_mops,speedup,remote_per_op,wall_ms")
    rows
