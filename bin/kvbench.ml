(* kvbench: a pmemkv-bench / db_bench style driver for the key-value
   engines, as used by the paper for the Cmap comparison (§6.2.7).

     dune exec bin/kvbench.exe -- --engine mirror --num 65536 --threads 4
     dune exec bin/kvbench.exe -- --engine cmap \
         --benchmarks fillrandom,readrandom,readwrite,deleterandom

   Output format follows db_bench: one line per benchmark with mean
   micros/op, p50/p99/p999 per-op latency and ops/sec, plus the per-op
   NVMM event counts of this repository. *)

open Mirror_dstruct
module W = Mirror_workload.Workload
module Rng = Mirror_workload.Rng

type engine = { name : string; pack : Sets.pack }

let make_engine name =
  let region = Mirror_nvm.Region.create ~track_slots:false () in
  let pack =
    match name with
    | "cmap" ->
        let module C = struct
          let region = region
        end in
        (module Mirror_handmade.Cmap.Hash_set (C) : Sets.SET)
    | "soft" ->
        let module C = struct
          let region = region
          let track = false
        end in
        (module Mirror_handmade.Soft.Hash_set (C) : Sets.SET)
    | other -> Sets.make Sets.Hash_ds (Mirror_prim.Prim.by_name region other)
  in
  { name; pack }

(* one timed phase: [threads] domains each performing [per_thread] ops,
   with per-op latency sampled per domain (monotonic clock around each op,
   merged and sorted once at the end for the percentile columns) *)
let phase ~threads ~per_thread ~(op : Rng.t -> int -> unit) =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let lat = Array.init threads (fun _ -> Array.make per_thread 0.) in
  let body i () =
    let rng = Rng.split ~seed:4242 i in
    let mine = lat.(i) in
    ignore (Atomic.fetch_and_add ready 1);
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    for j = 1 to per_thread do
      let t0 = Mirror_clock.now_ns () in
      op rng ((i * per_thread) + j);
      mine.(j - 1) <- Mirror_clock.seconds_since t0
    done
  in
  let doms = Array.init threads (fun i -> Domain.spawn (body i)) in
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  Mirror_nvm.Stats.reset_all ();
  let t0 = Mirror_clock.now_ns () in
  Atomic.set go true;
  Array.iter Domain.join doms;
  let dt = Mirror_clock.seconds_since t0 in
  let all = Array.concat (Array.to_list lat) in
  Array.sort compare all;
  (dt, threads * per_thread, all)

(* [p] is in per-mille so the tail column can ask for p999 *)
let permille sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (n * p / 1000))

let report name dt ops lat =
  let st = Mirror_nvm.Stats.total () in
  let fops = float_of_int (max 1 ops) in
  Printf.printf
    "%-14s : %10.3f micros/op; p50=%8.3f p99=%8.3f p999=%8.3f; %10.0f \
     ops/sec;  nvmR/op=%.2f nvmW/op=%.2f fl/op=%.2f fe/op=%.2f\n%!"
    name
    (dt *. 1e6 /. fops)
    (permille lat 500 *. 1e6)
    (permille lat 990 *. 1e6)
    (permille lat 999 *. 1e6)
    (fops /. dt)
    (float_of_int st.Mirror_nvm.Stats.nvm_read /. fops)
    (float_of_int (st.Mirror_nvm.Stats.nvm_write + st.Mirror_nvm.Stats.nvm_cas) /. fops)
    (float_of_int st.Mirror_nvm.Stats.flush /. fops)
    (float_of_int st.Mirror_nvm.Stats.fence /. fops)

let main engine_name num threads benchmarks latency =
  Mirror_nvm.Latency.set_enabled latency;
  let e = make_engine engine_name in
  let (module S) = e.pack in
  let t = S.create ~capacity:num () in
  Printf.printf "engine=%s num=%d threads=%d value=8B key=8B\n%!" e.name num
    threads;
  let per_thread = max 1 (num / threads) in
  let run_one = function
    | "fillseq" ->
        let dt, ops, lat =
          phase ~threads ~per_thread ~op:(fun _rng seq ->
              ignore (S.insert t (seq mod num) seq))
        in
        report "fillseq" dt ops lat
    | "fillrandom" ->
        let dt, ops, lat =
          phase ~threads ~per_thread ~op:(fun rng seq ->
              ignore (S.insert t (Rng.int rng num) seq))
        in
        report "fillrandom" dt ops lat
    | "readrandom" ->
        let dt, ops, lat =
          phase ~threads ~per_thread ~op:(fun rng _ ->
              ignore (S.contains t (Rng.int rng num)))
        in
        report "readrandom" dt ops lat
    | "readwrite" ->
        (* 80% reads / 20% writes, the 6m workload *)
        let dt, ops, lat =
          phase ~threads ~per_thread ~op:(fun rng seq ->
              let k = Rng.int rng num in
              if Rng.int rng 100 < 80 then ignore (S.contains t k)
              else if Rng.bool rng then ignore (S.insert t k seq)
              else ignore (S.remove t k))
        in
        report "readwrite" dt ops lat
    | "deleterandom" ->
        let dt, ops, lat =
          phase ~threads ~per_thread ~op:(fun rng _ ->
              ignore (S.remove t (Rng.int rng num)))
        in
        report "deleterandom" dt ops lat
    | other -> Printf.printf "%-14s : unknown benchmark, skipped\n" other
  in
  List.iter run_one benchmarks;
  Mirror_nvm.Latency.set_enabled false;
  0

open Cmdliner

let engine =
  Arg.(
    value & opt string "mirror"
    & info [ "engine" ] ~docv:"E"
        ~doc:"Engine: mirror, mirror-nvmm, cmap, soft, link-free, ...")

let num =
  Arg.(value & opt int 65536 & info [ "num" ] ~docv:"N" ~doc:"Key-space size.")

let threads =
  Arg.(value & opt int 4 & info [ "threads" ] ~docv:"T" ~doc:"Worker domains.")

let benchmarks =
  Arg.(
    value
    & opt (list string) [ "fillrandom"; "readrandom"; "readwrite"; "deleterandom" ]
    & info [ "benchmarks" ] ~docv:"LIST" ~doc:"Benchmarks to run, in order.")

let latency =
  Arg.(value & flag & info [ "latency" ] ~doc:"Enable NVMM latency injection.")

let cmd =
  Cmd.v
    (Cmd.info "kvbench" ~doc:"db_bench-style driver for the KV engines.")
    Term.(const main $ engine $ num $ threads $ benchmarks $ latency)

let () = exit (Cmd.eval' cmd)
