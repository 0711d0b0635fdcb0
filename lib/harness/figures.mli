(** Descriptors and machinery for every panel of the paper's Figures 6
    and 7.  See DESIGN.md §4 for the panel-by-panel index and
    EXPERIMENTS.md for paper-vs-measured notes. *)

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

val algo_name : algo -> string

val make_set :
  region:Mirror_nvm.Region.t ->
  Mirror_dstruct.Sets.ds ->
  algo ->
  Mirror_dstruct.Sets.pack option
(** [None] when the combination does not exist (SOFT/Link-Free are
    list+hash designs; Cmap is a hash map). *)

type axis = Threads | Size | Updates

type panel = {
  id : string;
  descr : string;
  ds : Mirror_dstruct.Sets.ds;
  axis : axis;
  threads : int;
  range : int;
  updates : int;
  algos : algo list;
}

type config = {
  seconds : float;
  threads_axis : int list;
  list_sizes : int list;
  big_sizes : int list;
  updates_axis : int list;
  list_range : int;
  big_range : int;
  huge_range : int;
  llc_bytes : int;
}

val quick : config
val full : config

val figure6 : config -> panel list
val figure7 : config -> panel list
val all_panels : config -> panel list


type row = { panel : panel; x : int; point : Runner.point }

val run_panel : ?progress:(string -> unit) -> config -> panel -> row list

val figures_panel : row list -> Panel.t
(** The figure rows as the ["figures"] panel, one row per (panel, x,
    algorithm).  Columns: [panel,ds,algo,x,threads,mops,modeled_mops,]
    [nvm_reads_per_op,nvm_writes_per_op,flushes_per_op,fences_per_op,]
    [flushes_elided_per_op,fences_elided_per_op,epoch_advances_per_op,]
    [fences_batched_per_op,writes_deferred_per_op]; the trailing
    epoch-clock columns are 0 for every strict algorithm.
    bench/budgets.csv commits per-(structure, algorithm) ceilings on
    [flushes_per_op] and [fences_per_op]. *)

(** {1 Side panels}

    Each side panel runs under the deterministic scheduler (schedsim), so
    its charged counts are exact and reproducible on any machine; only the
    [wall_ms] columns are measured.  Each returns a {!Panel.t} named after
    the panel. *)

val elision_structures : string list
(** ["list"; "hash"; "bst"; "skiplist"; "queue"; "stack"; "pqueue";
    "counter"]: the four set structures of the paper's evaluation, the
    queue, stack and priority queue of the generality claim, and the bare
    primitive as a contended counter (one flush + one fence per update). *)

val run_elision_panel :
  ?threads:int -> ?ops_per_task:int -> ?seeds:int -> unit -> Panel.t
(** Flush/fence elision off vs on for each Mirror-transformed structure,
    contended fibers preempted at every protocol step (so the helping and
    retry paths that elision targets fire).  Elision changes no control
    flow, so the off/on rows of a structure describe the same executions
    and [charged_off = charged_on + elided_on] holds per event kind.
    Two rows (elide off, elide on) per structure, in
    {!elision_structures} order.  Columns:
    [ds,elide,ops,flushes_per_op,fences_per_op,flushes_elided_per_op,]
    [fences_elided_per_op,helps_per_op]; [ops] sums over seeds. *)

val buffered_structures : string list
(** ["list"; "hash"; "queue"; "stack"]. *)

val run_buffered_panel :
  ?threads_points:int list ->
  ?epoch_lens:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  unit ->
  Panel.t
(** Epoch-batched persistence against strict Mirror: the same contended
    workload per (structure, threads) cell, run under strict Mirror and
    under the buffered discipline at several epoch lengths.  The open
    epoch is drained before counters are read, so the deferred tail is
    charged to its run.  One row per (structure, threads, epoch length),
    structures in {!buffered_structures} order (defaults: 1/2/4/8/16
    threads, epoch lengths 1/16/256, 40 ops per fiber, 4 seeds).
    Columns: [ds,threads,epoch_len,ops,strict_fences_per_op,]
    [fences_per_op,fence_reduction,flushes_per_op,epoch_advances_per_op,]
    [fences_batched_per_op,writes_deferred_per_op], where
    [fence_reduction] is strict over buffered fences per op.
    bench/budgets.csv commits ceilings on [fences_per_op] and floors on
    [fence_reduction] at epoch length 256. *)

val line_slots : int list
(** [[1; 4; 8]] — the sweep, and the exact vocabulary the
    [--slots-per-line] flags of bench/main.exe and bin/mcheck.exe
    accept (both exit 2 listing it on anything else). *)

val line_structures : string list
(** ["list"; "bst"; "skiplist"] — the multi-field-insert structures. *)

val run_line_panel :
  ?slots:int list ->
  ?threads:int ->
  ?ops_per_task:int ->
  ?seeds:int ->
  unit ->
  Panel.t
(** Cache-line coalescing of flushes: insert-only Mirror workloads over
    disjoint per-fiber key stripes (so every operation takes the
    allocating path) at several slots per simulated cache line.  At
    slots=1 — every region's default — each repp write-back is a separate
    charged flush; wider lines let [make_near] placement carve fresh
    fields from the destination's line so the per-line dirty map
    coalesces them into one charged flush.  One row per (structure,
    slots-per-line) in {!line_structures} x [slots] order (defaults: the
    {!line_slots} sweep, 2 fibers, 200 inserts per fiber, 4 seeds — the
    fiber count is deliberately low because every fiber timeshares one
    simulated core, so each fence drains the whole pending set and
    fragments the other fibers' coalescing windows).  Columns:
    [ds,slots_per_line,ops,flushes_per_op,coalesced_per_op,fences_per_op,]
    [baseline_flushes_per_op,flush_reduction]; each structure's slots=1
    measurement is always taken and is the baseline of all its rows.
    bench/budgets.csv commits floors on [flush_reduction] at 8 slots per
    line. *)

val run_recovery_panel :
  ?shapes:Mirror_nvmheap.Shapes.shape list ->
  ?live_points:int list ->
  ?domain_points:int list ->
  unit ->
  Panel.t
(** Parallel heap-recovery latency over shape x live-object count x
    worker count (defaults: forest shape, 10k and 100k live objects,
    1/2/4 workers; [domain_points] must include 1).  Columns:
    [shape,live,garbage,domains,wall_ms,model_ms,marked,swept,steals,]
    [speedup].  [wall_ms] is {!Mirror_nvmheap.Heap.recover} with real
    [Domain.spawn] workers, so it depends on the cores the host grants.
    [model_ms] is machine-independent: the same worker closures run under
    the deterministic scheduler, each worker's node/header tallies are
    priced at the configured NVMM read latency, and the phase cost is the
    maximum worker's — the critical path on one core per worker.
    [speedup] is the 1-worker [model_ms] over this row's; bench/budgets.csv
    commits floors on it. *)

val alloc_policy_name : Mirror_nvmheap.Heap.policy -> string

val run_alloc_panel :
  ?threads_points:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  ?base_op_ns:int ->
  unit ->
  Panel.t
(** Allocator throughput on an alloc/free-heavy workload: the sharded
    per-thread arenas against the old global-lock allocator.  Each fiber
    allocates into its own pool and frees from its neighbour's, so the
    sharded remote-free path fires.  Two rows (lock, sharded) per thread
    count, in [threads_points] order (default 1/2/4/8/16 logical threads,
    400 ops per fiber, 4 seeds, [base_op_ns] = 20 of volatile bookkeeping
    per operation).  Columns: [policy,threads,ops,modeled_mops,wall_ms,]
    [carves,remote_frees,drains,flushes_per_op,fences_per_op,]
    [speedup_vs_lock].  [modeled_mops] is a deterministic model: the
    run's charged NVMM persist events priced at the configured latencies,
    all serial under [Global_lock] (every persist holds the allocator
    lock), divided across threads under [Sharded].  [speedup_vs_lock] is
    the row's [modeled_mops] over the lock row at the same thread count;
    bench/budgets.csv commits floors on it. *)

val scaling_structures : string list
(** ["list"; "hash"; "queue"; "counter"] — two set shapes plus the two
    contention extremes (mixed queue traffic, a single hot word). *)

val run_scaling_panel :
  ?structures:string list ->
  ?threads_points:int list ->
  ?ops_per_task:int ->
  ?seeds:int ->
  ?base_op_ns:int ->
  ?numa_remote_ns:int ->
  unit ->
  Panel.t
(** The 8/16-thread scaling tier: the elision panel's contended drivers at
    every point of the extended thread axis, with deterministic
    Amdahl-priced throughput.  The structures are lock-free, so the
    priced persist cost divides across threads; contention shows up as
    per-op charged-count inflation (retries, helping) and as NUMA
    remote-line traffic — the panel runs with the remote-line knob on
    ([numa_remote_ns], restored afterwards), which adds pricing but no
    control flow.  One row per (structure, thread count), structures
    outer, in [threads_points] order (default 1/2/4/8/16 logical threads,
    40 ops per fiber, 4 seeds, [base_op_ns] = 40, [numa_remote_ns] =
    150).  Columns: [ds,threads,ops,modeled_mops,speedup,remote_per_op,]
    [wall_ms]; [speedup] is over the structure's 1-thread row, which is
    always measured, and [wall_ms] is the schedsim wall clock (every
    fiber shares one OS thread — simulation cost, not parallel speedup).
    bench/budgets.csv commits per-structure floors on [speedup] at 8 and
    16 threads. *)
