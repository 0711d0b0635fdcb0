(** Throughput measurement harness.

    Each experiment point spawns [threads] domains running the given op mix
    against one shared structure for a fixed wall-clock duration, with NVMM
    latency injection enabled, and reports:

    - measured throughput (Mops/s) — when there are more domains than
      cores the domains timeshare, so absolute numbers are low, but the
      *ratios* between algorithms are driven by the injected per-op costs
      and follow the paper's;
    - per-operation event counts (NVMM reads/writes, flushes, fences);
    - modeled throughput: the deterministic cost model
      [threads / (per-op modeled latency)], i.e. the throughput an ideal
      [threads]-core machine with the configured memory timings would get —
      this is the number whose *shape* reproduces the paper's figures. *)

open Mirror_nvm
open Mirror_dstruct

type per_op = {
  dram_reads : float;
  nvm_reads : float;
  nvm_writes : float;
  flushes : float;
  fences : float;
  flushes_elided : float;  (** skipped by the elision layer: zero cost *)
  fences_elided : float;
  epoch_advances : float;  (** buffered epoch commits *)
  fences_batched : float;  (** fences paid by epoch advances (subset of
                               [fences]) *)
  writes_deferred : float;  (** persists recorded into the epoch clock *)
}

type point = {
  algo : string;
  threads : int;
  ops : int;
  seconds : float;
  mops : float;  (** measured wall clock *)
  modeled_mops : float;  (** cost-model, ideal scaling *)
  per_op : per_op;
}

(* Baseline per-op CPU cost (ns) added to the memory model: key comparison,
   branching, allocation.  Roughly an op on a warm volatile structure. *)
let base_op_ns = 40.

(* Memory-resident access latencies (the cache-miss case).  The hit case
   costs [hit_ns].  Per experiment, reads are a miss with probability
   [p_miss = max 0 (1 - llc/working_set)] — the two-regime cache model:
   the paper's 128-node lists are cache-resident (persistence cost is all
   flush/fence), its 8M-node structures are memory-resident (NVMM reads
   cost 3x DRAM reads). *)
let dram_miss_ns = 100.
let hit_ns = 2.
let bytes_per_key = 64. (* 128-byte cache-aligned node per 2 keys of range *)

let scaled_config ~llc_bytes ~range =
  let base = Latency.default in
  if llc_bytes <= 0 then base
  else begin
    let ws = bytes_per_key *. float_of_int range in
    let p_miss = Float.max 0. (1. -. (float_of_int llc_bytes /. ws)) in
    let mix miss hit = int_of_float ((p_miss *. miss) +. ((1. -. p_miss) *. hit)) in
    {
      base with
      Latency.nvm_read_ns = mix (float_of_int base.Latency.nvm_read_ns) hit_ns;
      dram_read_ns = mix dram_miss_ns hit_ns;
    }
  end

let modeled_ns (p : per_op) =
  let c = Latency.get_config () in
  base_op_ns
  +. (p.dram_reads *. float_of_int (max 2 c.Latency.dram_read_ns))
  +. (p.nvm_reads *. float_of_int c.Latency.nvm_read_ns)
  +. (p.nvm_writes *. float_of_int c.Latency.nvm_write_ns)
  +. (p.flushes *. float_of_int c.Latency.flush_ns)
  +. (p.fences *. float_of_int c.Latency.fence_ns)

let per_op_of_stats (st : Stats.t) ~ops =
  let fops = float_of_int (max 1 ops) in
  let per n = float_of_int n /. fops in
  {
    dram_reads = per st.Stats.dram_read;
    nvm_reads = per st.Stats.nvm_read;
    nvm_writes = per (st.Stats.nvm_write + st.Stats.nvm_cas);
    flushes = per st.Stats.flush;
    fences = per st.Stats.fence;
    flushes_elided = per st.Stats.flush_elided;
    fences_elided = per st.Stats.fence_elided;
    epoch_advances = per st.Stats.epoch_advance;
    fences_batched = per st.Stats.fence_batched;
    writes_deferred = per st.Stats.writes_deferred;
  }

let run ?(seconds = 0.3) ?(seed = 42) ?(llc_bytes = 0)
    ?(dist = Mirror_workload.Workload.Uniform) ~threads ~range ~mix
    (module S : Sets.SET) : point =
  Latency.set_enabled false;
  if llc_bytes > 0 then Latency.set_config (scaled_config ~llc_bytes ~range);
  let t = S.create ~capacity:range () in
  List.iter
    (fun k -> ignore (S.insert t k k))
    (Mirror_workload.Workload.prefill_keys ~range);
  Stats.reset_all ();
  Latency.set_enabled true;
  let stop = Atomic.make false in
  let go = Atomic.make false in
  let ready = Atomic.make 0 in
  let counts = Array.make threads 0 in
  let body i () =
    let rng = Mirror_workload.Rng.split ~seed i in
    ignore (Atomic.fetch_and_add ready 1);
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let n = ref 0 in
    while not (Atomic.get stop) do
      (match Mirror_workload.Workload.gen ~dist rng mix ~range with
      | Mirror_workload.Workload.Lookup k -> ignore (S.contains t k)
      | Insert (k, v) -> ignore (S.insert t k v)
      | Remove k -> ignore (S.remove t k));
      incr n
    done;
    counts.(i) <- !n
  in
  let doms = Array.init threads (fun i -> Domain.spawn (body i)) in
  (* start barrier: domain spawn time stays out of the measurement *)
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  let t0 = Mirror_clock.now_ns () in
  Atomic.set go true;
  Unix.sleepf seconds;
  Atomic.set stop true;
  Array.iter Domain.join doms;
  let wall = Mirror_clock.seconds_since t0 in
  Latency.set_enabled false;
  let ops = Array.fold_left ( + ) 0 counts in
  let per_op = per_op_of_stats (Stats.total ()) ~ops in
  let result =
    {
      algo = S.name;
      threads;
      ops;
      seconds = wall;
      mops = float_of_int ops /. 1e6 /. wall;
      modeled_mops = float_of_int threads *. 1e3 /. modeled_ns per_op;
      per_op;
    }
  in
  if llc_bytes > 0 then Latency.set_config Latency.default;
  result

let pp_point ppf p =
  Format.fprintf ppf
    "%-22s t=%-2d ops=%-9d mops=%-8.3f model=%-8.2f nvmR/op=%-6.1f \
     nvmW/op=%-5.2f fl/op=%-5.2f fe/op=%-5.2f elided(fl/op=%-5.2f \
     fe/op=%-5.2f)"
    p.algo p.threads p.ops p.mops p.modeled_mops p.per_op.nvm_reads
    p.per_op.nvm_writes p.per_op.flushes p.per_op.fences
    p.per_op.flushes_elided p.per_op.fences_elided;
  if p.per_op.writes_deferred > 0. || p.per_op.epoch_advances > 0. then
    Format.fprintf ppf " buf(adv/op=%-5.3f defer/op=%-5.2f)"
      p.per_op.epoch_advances p.per_op.writes_deferred
