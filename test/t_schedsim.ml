(** Tests of the deterministic interleaving scheduler. *)

module Sched = Mirror_schedsim.Sched

let check = Support.check

(* a task that records its own steps into a shared trace *)
let tracer trace id steps () =
  for i = 1 to steps do
    trace := (id, i) :: !trace;
    Mirror_nvm.Hooks.yield ()
  done

let test_runs_to_completion () =
  let trace = ref [] in
  let o = Sched.run ~seed:1 [ tracer trace 'a' 3; tracer trace 'b' 3 ] in
  check o.Sched.completed "completed";
  check (List.length !trace = 6) "all steps executed"

let test_deterministic_by_seed () =
  let run seed =
    let trace = ref [] in
    ignore (Sched.run ~seed [ tracer trace 'a' 5; tracer trace 'b' 5 ]);
    !trace
  in
  check (run 7 = run 7) "same seed, same schedule";
  let distinct =
    List.exists (fun s -> run s <> run 1) [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  check distinct "different seeds explore different schedules"

let test_interleaving_happens () =
  (* under some seed, task a and b steps interleave *)
  let interleaved seed =
    let trace = ref [] in
    ignore (Sched.run ~seed [ tracer trace 'a' 5; tracer trace 'b' 5 ]);
    let order = List.rev_map fst !trace in
    let rec changes = function
      | x :: (y :: _ as rest) -> (if x <> y then 1 else 0) + changes rest
      | _ -> 0
    in
    changes order > 1
  in
  check
    (List.exists interleaved [ 1; 2; 3; 4; 5 ])
    "some seed interleaves the tasks"

let test_crash_cut () =
  let trace = ref [] in
  let o =
    Sched.run ~seed:1 ~max_steps:4 [ tracer trace 'a' 100; tracer trace 'b' 100 ]
  in
  check (not o.Sched.completed) "cut reported";
  check (o.Sched.steps = 4) "stopped at the step budget";
  check (List.length !trace <= 5) "work actually stopped"

let test_yield_outside_scheduler_is_noop () =
  Mirror_nvm.Hooks.yield ();
  check true "yield without a scheduler does not raise"

let test_exhaustive_explores_all () =
  (* 2 tasks x 1 yield each: schedules = interleavings of (a1 a2) (b1 b2)
     where each task is [work; yield; work-end]; just check the counts are
     sane and every schedule satisfies the invariant *)
  let seen = Hashtbl.create 16 in
  let explored, exhausted =
    Sched.explore_exhaustive ~limit:1000 (fun () ->
        let trace = ref [] in
        let tasks = [ tracer trace 'a' 2; tracer trace 'b' 2 ] in
        ( tasks,
          fun () ->
            let order = List.rev !trace in
            Hashtbl.replace seen order ();
            (* per-task order must be preserved in every schedule *)
            let proj id =
              List.filter (fun (x, _) -> x = id) order |> List.map snd
            in
            check (proj 'a' = [ 1; 2 ]) "task a ordered";
            check (proj 'b' = [ 1; 2 ]) "task b ordered" ))
  in
  check exhausted "tree exhausted";
  check (explored >= Hashtbl.length seen) "explored covers seen";
  check (Hashtbl.length seen > 1) "more than one distinct schedule"

let test_exhaustive_limit () =
  let explored, exhausted =
    Sched.explore_exhaustive ~limit:3 (fun () ->
        let trace = ref [] in
        ([ tracer trace 'a' 4; tracer trace 'b' 4 ], fun () -> ()))
  in
  check (explored = 3) "limit respected";
  check (not exhausted) "not exhausted under the limit"

let test_pct_runs_all () =
  let trace = ref [] in
  let o =
    Sched.run_pct ~seed:3 ~depth:3
      [ tracer trace 'a' 5; tracer trace 'b' 5; tracer trace 'c' 5 ]
  in
  check o.Sched.completed "pct completes";
  check (List.length !trace = 15) "all steps executed";
  (* per-task order preserved *)
  List.iter
    (fun id ->
      let proj = List.filter (fun (x, _) -> x = id) (List.rev !trace) in
      check (List.map snd proj = [ 1; 2; 3; 4; 5 ]) "task order preserved")
    [ 'a'; 'b'; 'c' ]

let test_pct_preempts () =
  (* with change points, some seed must interleave the tasks *)
  let interleaved seed =
    let trace = ref [] in
    ignore (Sched.run_pct ~seed ~depth:4 ~expected_steps:20
              [ tracer trace 'a' 8; tracer trace 'b' 8 ]);
    let order = List.rev_map fst !trace in
    let rec changes = function
      | x :: (y :: _ as rest) -> (if x <> y then 1 else 0) + changes rest
      | _ -> 0
    in
    changes order >= 1
  in
  check (List.exists interleaved [ 1; 2; 3; 4; 5; 6; 7; 8 ]) "pct preempts"

let test_pct_patomic_linearizable () =
  (* PCT-driven register check, complementing the uniform-random one *)
  for seed = 1 to 60 do
    let region = Support.fresh_region () in
    let v = Mirror_core.Patomic.make region 0 in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let worker wid () =
      for i = 1 to 5 do
        let exp = Mirror_core.Patomic.load v in
        let des = (wid * 100) + i in
        let inv = Atomic.fetch_and_add clock 1 in
        let ok = Mirror_core.Patomic.cas v ~expected:exp ~desired:des in
        let resp = Atomic.fetch_and_add clock 1 in
        log :=
          {
            Mirror_harness.Linearize.op =
              Mirror_harness.Linearize.Register_spec.Cas (exp, des);
            res = Some (Mirror_harness.Linearize.Register_spec.RBool ok);
            inv;
            resp;
          }
          :: !log
      done
    in
    let o = Sched.run_pct ~seed ~depth:4 [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "completed";
    check
      (Mirror_harness.Linearize.check
         (module Mirror_harness.Linearize.Register_spec)
         ~init:0
         ~final_ok:(fun _ -> true)
         (Array.of_list (List.rev !log)))
      (Printf.sprintf "pct seed %d linearizable" seed);
    check (Mirror_core.Patomic.lemma54_ok v) "lemma 5.4 at quiescence"
  done

(* -- strict replay --------------------------------------------------------- *)

let test_replay_strict () =
  let mk trace = [ tracer trace 'a' 3; tracer trace 'b' 3 ] in
  let picks =
    let trace = ref [] in
    snd (Sched.run_recorded ~seed:5 (mk trace))
  in
  check (Array.length picks > 0) "picks recorded";
  let short = Array.sub picks 0 (Array.length picks / 2) in
  (* default: thread-0 fallback silently completes a truncated schedule *)
  let trace = ref [] in
  let o = Sched.run_replay ~picks:short (mk trace) in
  check o.Sched.completed "lenient replay completes past the prefix";
  (* strict: the first decision past the prefix fails loudly *)
  let trace = ref [] in
  check
    (try
       ignore (Sched.run_replay ~strict:true ~picks:short (mk trace));
       false
     with Sched.Replay_exhausted d -> d = Array.length short)
    "strict replay raises at the first decision past the prefix";
  (* the full recording replays strictly to completion *)
  let trace = ref [] in
  let o = Sched.run_replay ~strict:true ~picks (mk trace) in
  check o.Sched.completed "full strict replay completes"

let test_replay_strict_out_of_range () =
  let mk trace = [ tracer trace 'a' 2; tracer trace 'b' 2 ] in
  let bogus = [| 99; 0; 0; 0; 0; 0; 0; 0 |] in
  let trace = ref [] in
  let o = Sched.run_replay ~picks:bogus (mk trace) in
  check o.Sched.completed "lenient replay clamps an out-of-range choice";
  let trace = ref [] in
  check
    (try
       ignore (Sched.run_replay ~strict:true ~picks:bogus (mk trace));
       false
     with Sched.Replay_exhausted d -> d = 0)
    "strict replay rejects an out-of-range choice"

(* -- PCT satellites -------------------------------------------------------- *)

let switch_count trace =
  let order = List.rev_map fst trace in
  let rec changes = function
    | x :: (y :: _ as rest) -> (if x <> y then 1 else 0) + changes rest
    | _ -> 0
  in
  changes order

let test_pct_deterministic () =
  let run seed =
    let trace = ref [] in
    ignore
      (Sched.run_pct ~seed ~depth:4
         [ tracer trace 'a' 6; tracer trace 'b' 6 ]);
    !trace
  in
  check (run 11 = run 11) "same seed, same PCT schedule";
  check
    (List.exists (fun s -> run s <> run 11) [ 12; 13; 14; 15 ])
    "different seeds explore different PCT schedules"

let test_pct_depth_bounds_switches () =
  (* depth d allows d - 1 priority-change points: at depth 1 priorities are
     static, so each of the three tasks runs as one contiguous block —
     exactly two context switches, on every seed.  Higher depth must beat
     that bound on some seed. *)
  let switches ~depth seed =
    let trace = ref [] in
    ignore
      (Sched.run_pct ~seed ~depth ~expected_steps:30
         [ tracer trace 'a' 6; tracer trace 'b' 6; tracer trace 'c' 6 ]);
    switch_count !trace
  in
  let seeds = List.init 20 (fun i -> i + 1) in
  List.iter
    (fun s -> check (switches ~depth:1 s = 2) "depth 1: contiguous blocks")
    seeds;
  check
    (List.exists (fun s -> switches ~depth:6 s > 2) seeds)
    "higher depth introduces preemptions"

let test_pct_beats_random_on_block_bug () =
  (* the planted bug needs thread a to run its whole 12-step critical
     section with b still pending: a single ~2^-12 block for uniform random
     choice, but PCT priority blocks produce it whenever a outranks b.  At
     an equal budget of 25 seeds, PCT must find it and random must not
     (deterministic: the schedules are fixed functions of the seeds). *)
  let bug_hit run_fn seed =
    let trace = ref [] in
    ignore (run_fn seed [ tracer trace 'a' 12; tracer trace 'b' 4 ]);
    let order = List.rev_map fst !trace in
    (* a block of >= 12 consecutive a-steps with a b-step still to come *)
    let rec scan run = function
      | [] -> false
      | 'a' :: rest -> scan (run + 1) rest
      | _ :: rest -> run >= 12 || scan 0 rest
    in
    scan 0 order
  in
  let seeds = List.init 25 (fun i -> i + 1) in
  let pct seed tasks = Sched.run_pct ~seed ~depth:2 ~expected_steps:16 tasks in
  let rnd seed tasks = Sched.run ~seed tasks in
  check (List.exists (bug_hit pct) seeds) "PCT finds the block bug";
  check
    (not (List.exists (bug_hit rnd) seeds))
    "uniform random misses it at the same seed budget"

(* PCT's exact order, pinned: three tasks of seven steps each, the id of the
   stepping task logged at every step.  Any change to its priority
   permutation, change points or tie-breaking, or to the runnable-list
   order the engine hands it, changes these strings. *)
let test_pct_schedule_pinned () =
  let schedule seed =
    let log = Buffer.create 21 in
    let task id () =
      for _ = 1 to 6 do
        Buffer.add_string log (string_of_int id);
        Mirror_nvm.Hooks.yield ()
      done;
      Buffer.add_string log (string_of_int id)
    in
    let o =
      Sched.run_pct ~seed ~depth:3 ~expected_steps:20 [ task 0; task 1; task 2 ]
    in
    check (o.Sched.completed && o.Sched.steps = 21) "pct runs every step";
    Buffer.contents log
  in
  List.iteri
    (fun i expected ->
      let seed = i + 1 in
      Alcotest.(check string)
        (Printf.sprintf "pct schedule, seed %d" seed)
        expected (schedule seed))
    [
      "222000000011222211111";
      "222222211111110000000";
      "222222211111110000000";
      "222222200000001111111";
      "222222211101111000000";
    ]

(* -- sleep-set DPOR -------------------------------------------------------- *)

module Slot = Mirror_nvm.Slot

let test_dpor_conflict_free_collapses () =
  (* writers on disjoint slots commute, so the whole interleaving space is
     one Mazurkiewicz trace: DPOR must run exactly one schedule where plain
     enumeration walks the full tree *)
  let factory () =
    let r = Support.fresh_region () in
    let a = Slot.make ~persist:true r 0 in
    let b = Slot.make ~persist:true r 0 in
    ( [
        (fun () ->
          Slot.store a 1;
          Slot.store a 2);
        (fun () ->
          Slot.store b 1;
          Slot.store b 2);
      ],
      fun () ->
        check (Slot.load a = 2 && Slot.load b = 2) "final state invariant" )
  in
  let explored, exhausted = Sched.explore_exhaustive ~limit:10_000 factory in
  let rep = Sched.explore_dpor ~limit:10_000 factory in
  check exhausted "exhaustive enumeration finished";
  check rep.Sched.dpor_exhausted "dpor finished";
  check (rep.Sched.dpor_schedules = 1) "a single representative schedule";
  check (rep.Sched.dpor_pruned = 0) "nothing to prune without conflicts";
  check (explored > rep.Sched.dpor_schedules) "strict subset of the tree"

let test_dpor_conflicting_covers_both_orders () =
  (* same-slot writers do not commute: both orders must be explored and
     both final values observed *)
  let finals = Hashtbl.create 4 in
  let factory () =
    let r = Support.fresh_region () in
    let s = Slot.make ~persist:true r 0 in
    ( [ (fun () -> Slot.store s 1); (fun () -> Slot.store s 2) ],
      fun () -> Hashtbl.replace finals (Slot.load s) () )
  in
  let rep = Sched.explore_dpor ~limit:1_000 factory in
  check rep.Sched.dpor_exhausted "dpor finished";
  check (rep.Sched.dpor_schedules >= 2) "both orders explored";
  check
    (Hashtbl.mem finals 1 && Hashtbl.mem finals 2)
    "both final values observed"

let test_dpor_schedules_replay_strictly () =
  (* every complete schedule's picks must replay strictly over a fresh
     instance — the token contract litmus crash replays rely on *)
  let factory () =
    let r = Support.fresh_region () in
    let s = Slot.make ~persist:true r 0 in
    ( [
        (fun () ->
          Slot.store s 1;
          Slot.flush s);
        (fun () -> Slot.store s 2);
      ],
      fun () -> () )
  in
  let replayed = ref 0 in
  let rep =
    Sched.explore_dpor
      ~on_schedule:(fun ~picks ->
        let tasks, _ = factory () in
        let o = Sched.run_replay ~strict:true ~picks tasks in
        check o.Sched.completed "strict replay of a DPOR schedule completes";
        incr replayed;
        true)
      factory
  in
  check rep.Sched.dpor_exhausted "dpor finished";
  check (!replayed = rep.Sched.dpor_schedules) "one callback per schedule"

let test_dpor_limit_reports_unexhausted () =
  let factory () =
    let r = Support.fresh_region () in
    let s = Slot.make ~persist:true r 0 in
    ( List.init 3 (fun i ->
          fun () ->
           Slot.store s i;
           Slot.store s (i + 10)),
      fun () -> () )
  in
  let rep = Sched.explore_dpor ~limit:2 factory in
  check (not rep.Sched.dpor_exhausted) "limit reported as not exhausted";
  check (rep.Sched.dpor_schedules + rep.Sched.dpor_pruned <= 2)
    "limit respected"

let test_exception_propagates () =
  let boom () = failwith "boom" in
  check
    (try
       ignore (Sched.run ~seed:1 [ boom ]);
       false
     with Failure _ -> true)
    "task exceptions surface"

let suite =
  [
    ( "schedsim",
      [
        Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
        Alcotest.test_case "deterministic by seed" `Quick
          test_deterministic_by_seed;
        Alcotest.test_case "interleaving happens" `Quick
          test_interleaving_happens;
        Alcotest.test_case "crash cut" `Quick test_crash_cut;
        Alcotest.test_case "yield outside scheduler" `Quick
          test_yield_outside_scheduler_is_noop;
        Alcotest.test_case "exhaustive explores" `Quick
          test_exhaustive_explores_all;
        Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
        Alcotest.test_case "exception propagates" `Quick
          test_exception_propagates;
        Alcotest.test_case "pct runs all" `Quick test_pct_runs_all;
        Alcotest.test_case "pct preempts" `Quick test_pct_preempts;
        Alcotest.test_case "pct patomic linearizable" `Quick
          test_pct_patomic_linearizable;
        Alcotest.test_case "strict replay" `Quick test_replay_strict;
        Alcotest.test_case "strict replay out of range" `Quick
          test_replay_strict_out_of_range;
        Alcotest.test_case "pct deterministic" `Quick test_pct_deterministic;
        Alcotest.test_case "pct depth bounds switches" `Quick
          test_pct_depth_bounds_switches;
        Alcotest.test_case "pct beats random on block bug" `Quick
          test_pct_beats_random_on_block_bug;
        Alcotest.test_case "pct schedule pinned" `Quick
          test_pct_schedule_pinned;
        Alcotest.test_case "dpor conflict-free collapses" `Quick
          test_dpor_conflict_free_collapses;
        Alcotest.test_case "dpor covers conflicting orders" `Quick
          test_dpor_conflicting_covers_both_orders;
        Alcotest.test_case "dpor schedules replay strictly" `Quick
          test_dpor_schedules_replay_strictly;
        Alcotest.test_case "dpor limit honest" `Quick
          test_dpor_limit_reports_unexhausted;
      ] );
  ]
