(* The Mirror benchmark: four workloads through the public [Sets.SET] API.

     bench.exe --workload NAME --seed N --trace 0|1 [--out DIR]

   An untraced run ([--trace 0]) is one repetition of the workload — fresh
   region and structure, set-up, the measured phase, the oracle, crash and
   recovery — and reports its end-to-end metrics; [run.py] repeats it in
   fresh processes for the run's seconds and reports the medians.  A traced
   run ([--trace 1]) alternates untraced and traced repetitions of the same
   ops, keeps spans in memory, writes them to DIR, times the layer ladder,
   and reports the per-layer metrics.  The last line of standard output is
   one JSON object. *)

open Mirror_nvm
open Mirror_dstruct
module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng
module Runner = Mirror_harness.Runner

(* -- workloads ----------------------------------------------------------- *)

type spec = {
  name : string;
  prim : string;
  range : int;  (** key range; half of it is loaded at set-up *)
  mix : W.mix;
  epoch_len : int;
  track_slots : bool;
}

let specs =
  [
    {
      name = "kv-read";
      prim = "mirror";
      range = 1 lsl 18;
      mix = W.ycsb_b;
      epoch_len = 1;
      track_slots = false;
    };
    {
      name = "kv-update";
      prim = "mirror";
      range = 1 lsl 17;
      mix = W.ycsb_a;
      epoch_len = 1;
      track_slots = false;
    };
    {
      name = "kv-buffered";
      prim = "buffered";
      range = 1 lsl 17;
      mix = W.ycsb_a;
      epoch_len = 256;
      track_slots = false;
    };
    {
      name = "recover";
      prim = "mirror";
      range = 1 lsl 18;
      mix = W.ycsb_a;
      epoch_len = 1;
      track_slots = true;
    };
  ]

(* Ops per repetition: 2^20 latency samples, 10,485 beyond the p99. *)
let ops_per_rep = 1 lsl 20

(* Crash/recover cycles per repetition; [recovery_s] is their median. *)
let recoveries = 5

(* Ops per repetition in a traced run: enough for a p99 with thousands of
   samples beyond it, small enough that the span file stays ~15 MB. *)
let traced_ops = 1 lsl 18

(* -- pinned configuration -------------------------------------------------- *)

(* What every number depends on, fixed here so that the environment
   (a stray [MIRROR_*_NS]) cannot move the wall clock or the cost model. *)
let pin () =
  Latency.set_enabled false;
  Latency.set_config Latency.default;
  Latency.set_numa_remote_ns 0

let initial_hooks =
  (!Hooks.yield_ref, !Hooks.persist_ref, !Hooks.access_ref, !Hooks.op_ref,
   !Hooks.recovery_ref)

let assert_no_sinks () =
  let y, p, a, o, r = initial_hooks in
  if
    !Hooks.access_on || !Hooks.in_recovery
    || !Hooks.tid_ref != Hooks.default_tid
    || !Hooks.yield_ref != y || !Hooks.persist_ref != p
    || !Hooks.access_ref != a || !Hooks.op_ref != o
    || !Hooks.recovery_ref != r
  then failwith "a hook sink (psan, mcheck, DPOR or scheduler) is installed"

let echo_config spec seed =
  let c = Latency.get_config () in
  Printf.printf
    "config: workload=%s seed=%d prim=%s range=%d ops/rep=%d domains=1 \
     epoch_len=%d track_slots=%b mix=%d/%d/%d\n"
    spec.name seed spec.prim spec.range ops_per_rep spec.epoch_len
    spec.track_slots spec.mix.W.lookup_pct spec.mix.W.insert_pct
    spec.mix.W.remove_pct;
  Printf.printf
    "config: latency injection=%b nvm_read=%d nvm_write=%d flush=%d fence=%d \
     dram_read=%d numa_remote=%d elide=false slots_per_line=1\n"
    (Latency.is_enabled ()) c.Latency.nvm_read_ns c.nvm_write_ns c.flush_ns
    c.fence_ns c.dram_read_ns (Latency.numa_remote_ns ());
  Printf.printf "config: ocaml=%s nproc=%d word_bytes=%d\n%!" Sys.ocaml_version
    (Domain.recommended_domain_count ())
    (Sys.word_size / 8)

(* -- inputs ---------------------------------------------------------------- *)

type inputs = { prefill : int array; stream : Stream.t; gen_s : float }

let make_inputs spec seed =
  let t0 = Clock.now () in
  let prefill = Stream.prefill (Rng.split ~seed 0) ~range:spec.range in
  let stream =
    Stream.generate (Rng.split ~seed 1) spec.mix ~keys:spec.range ops_per_rep
  in
  { prefill; stream; gen_s = Clock.seconds_since t0 }

(* -- statistics ------------------------------------------------------------ *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(** Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* -- one repetition -------------------------------------------------------- *)

type restart = {
  crash_s : float;  (** the simulator's crash, outside the downtime *)
  begin_s : float;
  recover_s : float;
  mark_s : float;
  recovery_s : float;  (** begin_recovery through mark_recovered *)
}

type rep = {
  setup_s : float;
  mem_bytes_per_key : float;
  ops : int;
  elapsed_s : float;
  lat : int array;  (** per-op ns *)
  stats : Stats.t;  (** summed over the measured phase *)
  major_collections : int;
  oracle_s : float;
  restart : restart;  (** medians over [recoveries] cycles *)
  failed : int;
  attempted : int;
  traced : Trace.ops option;
}

let per_op st ops : Runner.per_op =
  let f x = float_of_int x /. float_of_int (max 1 ops) in
  {
    Runner.dram_reads = f st.Stats.dram_read;
    nvm_reads = f st.nvm_read;
    nvm_writes = f (st.nvm_write + st.nvm_cas);
    flushes = f st.flush;
    fences = f st.fence;
    flushes_elided = f st.flush_elided;
    fences_elided = f st.fence_elided;
    epoch_advances = f st.epoch_advance;
    fences_batched = f st.fence_batched;
    writes_deferred = f st.writes_deferred;
  }

(* After a full major collection, [quick_stat]'s live words are exact (and
   [stat]'s heap walk costs about a second on these heaps). *)
let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words

(* The measured loop: a monotonic-clock pair around each [Sets] call, the
   latency and the result into preallocated arrays. *)
let run_ops (type s) (module S : Sets.SET with type t = s) (t : s)
    (st : Stream.t) n lat res =
  for i = 0 to n - 1 do
    let k = Array.unsafe_get st.key i in
    let t0 = Clock.now () in
    let ok =
      match Bytes.unsafe_get st.kind i with
      | 'l' -> S.contains t k
      | 'i' -> S.insert t k (Array.unsafe_get st.value i)
      | _ -> S.remove t k
    in
    let t1 = Clock.now () in
    Array.unsafe_set lat i (t1 - t0);
    Stream.set_result res i ok
  done

(* The same loop with an op span per call: start, end, and the calling
   domain's [Stats] and minor-heap deltas. *)
let run_ops_traced (type s) (module S : Sets.SET with type t = s) (t : s)
    (st : Stream.t) n lat res (sp : Trace.ops) =
  let before = Array.make Trace.nc 0 in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get st.key i in
    Trace.snap (Stats.get ()) before 0;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    let ok =
      match Bytes.unsafe_get st.kind i with
      | 'l' -> S.contains t k
      | 'i' -> S.insert t k (Array.unsafe_get st.value i)
      | _ -> S.remove t k
    in
    let t1 = Clock.now () in
    let w1 = Gc.minor_words () in
    let off = i * Trace.nc in
    Trace.snap (Stats.get ()) sp.counts off;
    for j = 0 to Trace.nc - 1 do
      sp.counts.(off + j) <- sp.counts.(off + j) - before.(j)
    done;
    sp.start.(i) <- t0;
    sp.stop.(i) <- t1;
    Float.Array.set sp.minor i (w1 -. w0);
    Array.unsafe_set lat i (t1 - t0);
    Stream.set_result res i ok
  done

let run_rep spec inputs ~ops ~trace =
  assert_no_sinks ();
  let live0 = live_words () in
  let t_setup = Clock.now () in
  let region =
    Region.create ~track_slots:spec.track_slots ~epoch_len:spec.epoch_len ()
  in
  let (module S : Sets.SET) =
    Sets.make Sets.Hash_ds (Mirror_prim.Prim.by_name region spec.prim)
  in
  let t = S.create ~capacity:spec.range () in
  Array.iter
    (fun k -> if not (S.insert t k k) then failwith "prefill insert refused")
    inputs.prefill;
  Region.quiesce region;
  let setup_s = Trace.record trace "setup" t_setup (Clock.now ()) in
  let mem_bytes_per_key =
    float_of_int ((live_words () - live0) * (Sys.word_size / 8))
    /. float_of_int (Array.length inputs.prefill)
  in
  let lat = Array.make ops 0 and res = Stream.results ops in
  let phase_id = Trace.fresh_id () in
  let traced =
    Option.map
      (fun tr ->
        let sp = Trace.ops ~parent:phase_id inputs.stream.Stream.kind ops in
        tr.Trace.op_spans <- Some sp;
        sp)
      trace
  in
  Stats.reset_all ();
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let (), elapsed_s =
    Trace.phase trace ~id:phase_id "measure" (fun () ->
        match traced with
        | None -> run_ops (module S) t inputs.stream ops lat res
        | Some sp -> run_ops_traced (module S) t inputs.stream ops lat res sp)
  in
  let stats = Stats.total () in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - maj0 in
  let model = Stream.model inputs.prefill in
  let bad_ops, oracle_s =
    Trace.phase trace "oracle" (fun () ->
        Stream.replay model inputs.stream res ops)
  in
  (* restart, [recoveries] times: a crash at an op boundary (after a
     quiesce, so that every acknowledged op is durable under the buffered
     discipline too), then the downtime from opening the recovery session
     to re-opening the region; the model then holds the acknowledged set *)
  let cycle () =
    Region.quiesce region;
    let (), crash_s =
      Trace.phase trace "region.crash" (fun () ->
          Region.crash ~policy:Region.Adversarial region)
    in
    (* every cycle meets the collector in the same state, at the start of
       a major cycle: recovery's [Atomic.set]s of the volatile replicas go
       through the write barrier, whose cost depends on how far the current
       cycle has marked *)
    Gc.major ();
    let recovery_id = Trace.fresh_id () in
    let t_rec = Clock.now () in
    let _, begin_s =
      Trace.phase trace ~parent:recovery_id "region.begin_recovery" (fun () ->
          Region.begin_recovery region)
    in
    let (), recover_s =
      Trace.phase trace ~parent:recovery_id "sets.recover" (fun () ->
          Hooks.with_recovery (fun () -> S.recover t))
    in
    let (), mark_s =
      Trace.phase trace ~parent:recovery_id "region.mark_recovered" (fun () ->
          Region.mark_recovered region)
    in
    let recovery_s =
      Trace.record trace ~id:recovery_id "recovery" t_rec (Clock.now ())
    in
    { crash_s; begin_s; recover_s; mark_s; recovery_s }
  in
  let cycles = List.init recoveries (fun _ -> cycle ()) in
  Printf.printf "recovery cycles (s):";
  List.iter (fun c -> Printf.printf " %.4f" c.recovery_s) cycles;
  print_newline ();
  let med f = median_f (List.map f cycles) in
  let restart =
    {
      crash_s = med (fun c -> c.crash_s);
      begin_s = med (fun c -> c.begin_s);
      recover_s = med (fun c -> c.recover_s);
      mark_s = med (fun c -> c.mark_s);
      recovery_s = med (fun c -> c.recovery_s);
    }
  in
  Region.quiesce region;
  let bad_keys = Stream.diff model (S.to_list t) in
  if bad_ops + bad_keys > 0 then
    Printf.eprintf
      "FAILED: %s: %d op results disagree with the oracle, %d keys lost or \
       spurious after recovery\n%!"
      spec.name bad_ops bad_keys;
  {
    setup_s;
    mem_bytes_per_key;
    ops;
    elapsed_s;
    lat;
    stats;
    major_collections;
    oracle_s;
    restart;
    failed = bad_ops + bad_keys;
    attempted = ops + Hashtbl.length model;
    traced;
  }

let throughput r = float_of_int r.ops /. r.elapsed_s

(* -- output ---------------------------------------------------------------- *)

let json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let print_table metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-30s %16.6g %s\n" name v unit)
    metrics

let e2e_of_rep r =
  let s = sorted_copy r.lat in
  [
    ("throughput_ops_s", "ops/s", throughput r);
    ("latency_p50_us", "us", float_of_int (pct s 0.50) /. 1e3);
    ("latency_p99_us", "us", float_of_int (pct s 0.99) /. 1e3);
    ("setup_s", "s", r.setup_s);
    ("recovery_s", "s", r.restart.recovery_s);
    ("mem_bytes_per_key", "B", r.mem_bytes_per_key);
    ("modeled_ns_per_op", "ns", Runner.modeled_ns (per_op r.stats r.ops));
  ]

(* One repetition in a fresh process: [run.py] starts one process per
   repetition and reports the median over them, so that every
   repetition builds its structure in the same, empty heap.  Repetitions
   inside one process did not: the second and later structures land in a
   heap holding the previous ones' freed blocks, and their recovery traversal
   ran 0.07 s in one repetition and 0.10–0.12 s in the next. *)
let untraced spec seed =
  let inputs = make_inputs spec seed in
  let r = run_rep spec inputs ~ops:ops_per_rep ~trace:None in
  let metrics = e2e_of_rep r in
  Printf.printf "ops=%d samples/latency=%d recoveries=%d gen_s=%.3f\n" r.ops
    r.ops recoveries inputs.gen_s;
  Printf.printf "failed_op_frac=%.6g (%d of %d checks)\n"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  print_endline "end-to-end (this repetition):";
  print_table metrics;
  (r.failed = 0, r.attempted, r.failed, metrics)

(* -- traced run ------------------------------------------------------------ *)

let traced spec seed out =
  let inputs = make_inputs spec seed in
  let ops = traced_ops in
  let warm = run_rep spec inputs ~ops ~trace:None in
  (* untraced and traced repetitions alternate; the spans kept are the
     last traced repetition's *)
  let pair () =
    let plain = run_rep spec inputs ~ops ~trace:None in
    let tr = Trace.create () in
    (plain, run_rep spec inputs ~ops ~trace:(Some tr), tr)
  in
  let plain1, r1, _ = pair () in
  let plain, r, tr = pair () in
  let overhead_frac =
    1.
    -. (throughput r1 +. throughput r)
       /. (throughput plain1 +. throughput plain)
  in
  let ladder = Ladder.run () in
  let rung name = List.assoc name ladder in
  let sp = Option.get r.traced and fops = float_of_int r.ops in
  let st = r.stats in
  let per x = float_of_int x /. fops in
  (* latencies of the op spans that satisfy [keep] *)
  let latencies keep =
    let l = ref [] in
    Array.iteri
      (fun i t0 -> if keep i then l := (sp.stop.(i) - t0) :: !l)
      sp.start;
    sorted_copy (Array.of_list !l)
  in
  let kind c i = Bytes.get sp.kind i = c in
  let lookups = latencies (kind 'l')
  and inserts = latencies (kind 'i')
  and removes = latencies (kind 'r')
  and updates = latencies (fun i -> not (kind 'l' i))
  and advance_ops =
    latencies (fun i -> sp.counts.((i * Trace.nc) + Trace.epoch_advance_col) > 0)
  in
  let mean_ns = plain.elapsed_s *. 1e9 /. float_of_int plain.ops in
  let layer_ns =
    (per st.Stats.dram_read *. rung "patomic.load_ns")
    +. (per st.nvm_read *. rung "slot.load_ns")
    +. (per st.nvm_write *. rung "slot.store_ns")
    +. (per st.nvm_cas *. rung "slot.cas_pred_ns")
    +. (per st.flush *. rung "slot.flush_ns")
    +. (per st.fence *. rung "region.fence_ns")
    +. (per st.writes_deferred *. rung "region.record_deferred_ns")
  in
  let ns a p = float_of_int (pct a p) in
  let metrics =
    [
      ("sets.lookup_p50_ns", "ns", ns lookups 0.50);
      ("sets.insert_p50_ns", "ns", ns inserts 0.50);
      ("sets.remove_p50_ns", "ns", ns removes 0.50);
      ("sets.update_p99_ns", "ns", ns updates 0.99);
      ( "gc.minor_words_per_op",
        "words/op",
        Float.Array.fold_left ( +. ) 0. sp.minor /. fops );
      ( "gc.major_collections_per_mop",
        "1/Mop",
        float_of_int r.major_collections *. 1e6 /. fops );
      ("stats.dram_read_per_op", "1/op", per st.dram_read);
      ("stats.nvm_read_per_op", "1/op", per st.nvm_read);
      ("stats.nvm_write_per_op", "1/op", per (st.nvm_write + st.nvm_cas));
      ("stats.flush_per_op", "1/op", per st.flush);
      ("stats.fence_per_op", "1/op", per st.fence);
      ("stats.flush_elided_per_op", "1/op", per st.flush_elided);
      ("stats.writes_deferred_per_op", "1/op", per st.writes_deferred);
      ("stats.epoch_advance_per_op", "1/op", per st.epoch_advance);
      ("stats.fence_batched_per_op", "1/op", per st.fence_batched);
      ("stats.help_per_op", "1/op", per st.help);
      ("stats.cas_retry_per_op", "1/op", per st.cas_retry);
      ("region.advance_op_us", "us", ns advance_ops 0.50 /. 1e3);
      ( "region.records_per_advance",
        "records",
        if st.epoch_advance = 0 then 0.
        else float_of_int st.writes_deferred /. float_of_int st.epoch_advance );
      ("region.crash_s", "s", r.restart.crash_s);
      ("region.begin_recovery_s", "s", r.restart.begin_s);
      ("sets.recover_s", "s", r.restart.recover_s);
      ("region.mark_recovered_s", "s", r.restart.mark_s);
      ("ladder.residual_ns", "ns", mean_ns -. layer_ns);
      ("harness.oracle_s", "s", r.oracle_s);
      ( "workload.gen_ns_per_op",
        "ns",
        inputs.gen_s *. 1e9 /. float_of_int ops_per_rep );
      ("trace.overhead_frac", "fraction", overhead_frac);
    ]
    @ List.map
        (fun (name, v) ->
          let unit =
            if String.ends_with ~suffix:"_us" name then "us"
            else if String.ends_with ~suffix:"_words" name then "words"
            else "ns"
          in
          (name, unit, v))
        ladder
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let path = Filename.concat out (Printf.sprintf "spans-%s-seed%d.csv" spec.name seed) in
  Trace.write tr path;
  Printf.printf "traced run: %d op spans written to %s\n" r.ops path;
  print_endline "per-layer:";
  print_table metrics;
  let reps = [ warm; plain1; r1; plain; r ] in
  let failed = List.fold_left (fun a x -> a + x.failed) 0 reps in
  let attempted = List.fold_left (fun a x -> a + x.attempted) 0 reps in
  (failed = 0, attempted, failed, metrics)

(* -- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 in
  let trace = ref 0 and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for every generated input");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced run");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun s -> s.name) specs));
        exit 2
  in
  pin ();
  echo_config spec !seed;
  let correct, attempted, failed, metrics =
    if !trace = 0 then untraced spec !seed else traced spec !seed !out
  in
  json ~correct ~attempted ~failed metrics;
  if not correct then exit 1
