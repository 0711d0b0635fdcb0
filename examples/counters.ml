(* Durable event counters with patomic's fetch_add — the raw primitive API,
   without a data structure on top.  Several logical threads bump per-shard
   counters; the power fails mid-run; after recovery every counter holds
   exactly the increments that completed (plus possibly in-flight ones),
   never a torn or stale value.

     dune exec examples/counters.exe

   This also shows what Mirror does NOT give you: each patomic variable is
   individually durable and linearizable, but multi-variable invariants
   (e.g. bank-transfer atomicity) still need a transaction layer on top. *)

open Mirror_core

let shards = 4
let bumps_per_thread = 25
let threads = 3

let () =
  let region = Mirror_nvm.Region.create () in
  let counters = Array.init shards (fun _ -> Patomic.make region 0) in
  (* completed increments per shard, recorded only after fetch_add returns *)
  let completed = Array.make shards 0 in

  let worker wid () =
    let rng = Mirror_workload.Rng.split ~seed:99 wid in
    for _ = 1 to bumps_per_thread do
      let s = Mirror_workload.Rng.int rng shards in
      ignore (Patomic.fetch_add counters.(s) 1);
      completed.(s) <- completed.(s) + 1
    done
  in

  (* run under the deterministic scheduler and cut the power mid-run *)
  let outcome =
    Mirror_schedsim.Sched.run ~seed:7 ~max_steps:900
      (List.init threads (fun i -> worker i))
  in
  Printf.printf "crash after %d steps (completed all work: %b)\n"
    outcome.Mirror_schedsim.Sched.steps outcome.Mirror_schedsim.Sched.completed;

  Mirror_nvm.Region.crash region;
  Mirror_nvm.Region.recovery_session region (fun () ->
      Array.iter Patomic.recover counters);

  let total_completed = Array.fold_left ( + ) 0 completed in
  let total_recovered =
    Array.fold_left (fun acc c -> acc + Patomic.load c) 0 counters
  in
  Array.iteri
    (fun i c ->
      let v = Patomic.load c in
      Printf.printf "shard %d: recovered %3d (completed %3d)\n" i v completed.(i);
      (* every completed increment survived; at most the in-flight ones on
         this shard may have landed on top *)
      assert (v >= completed.(i));
      assert (v <= completed.(i) + threads))
    counters;
  Printf.printf "total: recovered %d >= completed %d (diff = in-flight)\n"
    total_recovered total_completed;
  assert (total_recovered >= total_completed);
  assert (total_recovered <= total_completed + threads);
  print_endline "counters OK"
