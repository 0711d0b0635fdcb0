(** Tests of the Mirror primitive itself: sequential semantics, the paper's
    lemmas as executable invariants under deterministic interleavings, the
    Figure 3 helping scenario, crash/recovery, and linearizability of the
    load/CAS implementation against an atomic-register specification
    (Lemma 5.2). *)

open Mirror_core
module Sched = Mirror_schedsim.Sched
module Region = Mirror_nvm.Region

let check = Support.check

let test_sequential_semantics () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 5 in
  check (Patomic.load v = 5) "initial load";
  check (Patomic.cas v ~expected:5 ~desired:10) "cas 5->10";
  check (not (Patomic.cas v ~expected:5 ~desired:11)) "stale cas fails";
  check (Patomic.load v = 10) "cas visible";
  Patomic.store v 7;
  check (Patomic.load v = 7) "store visible";
  check (Patomic.fetch_add v 3 = 7) "faa returns old";
  check (Patomic.load v = 10) "faa applied";
  check (Patomic.seq_v v = Patomic.seq_p v) "replicas in sync when quiesced"

let test_compare_exchange_witness () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 5 in
  let ok, wit = Patomic.compare_exchange v ~expected:9 ~desired:0 in
  check (not ok) "wrong expected fails";
  check (wit = 5) "witness is the current value";
  let ok, wit = Patomic.compare_exchange v ~expected:5 ~desired:6 in
  check ok "right expected succeeds";
  check (wit = 5) "witness echoes expected on success"

let test_durability_after_each_op () =
  (* every completed write is persistent the moment it returns *)
  let r = Support.fresh_region () in
  let v = Patomic.make r 0 in
  for i = 1 to 20 do
    Patomic.store v i;
    check (Patomic.persisted_value v = Some i)
      (Printf.sprintf "store %d persisted at response" i)
  done;
  ignore r

let test_crash_recover_quiesced () =
  let r = Support.fresh_region () in
  let v = Patomic.make r 0 in
  Patomic.store v 41;
  Patomic.store v 42;
  Region.crash r;
  Patomic.recover v;
  Region.mark_recovered r;
  check (Patomic.load v = 42) "last completed store survives";
  check (Patomic.cas v ~expected:42 ~desired:43) "usable after recovery"

let test_unrecovered_access_detected () =
  let r = Support.fresh_region () in
  let a = Patomic.make r 1 in
  let b = Patomic.make r 2 in
  Region.crash r;
  Patomic.recover a;
  Region.mark_recovered r;
  check (Patomic.load a = 1) "recovered variable readable";
  check
    (try
       ignore (Patomic.load b);
       false
     with Invalid_argument _ -> true)
    "untraced variable access is a detected bug"

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* A crash leaves a stale [repv] on every variable of a tracked region;
   only [recover] clears it, so a variable recovery never reached is
   still refused — by [load] and by [cas] — once the region is back up,
   and the one it reached is not. *)
let test_stale_after_mark_recovered () =
  List.iter
    (fun placement ->
      let r = Support.fresh_region () in
      let a = Patomic.make ~placement r 1 and b = Patomic.make ~placement r 2 in
      Patomic.store b 3;
      Region.crash r;
      check (Patomic.seq_v b < 0) "the crash marks repv stale";
      Patomic.recover a;
      Region.mark_recovered r;
      check (raises (fun () -> ignore (Patomic.load b))) "load refused";
      check
        (raises (fun () -> ignore (Patomic.cas b ~expected:3 ~desired:4)))
        "cas refused";
      check (Patomic.peek_p b = 3) "the refused cas wrote nothing";
      check (Patomic.load a = 1 && Patomic.cas a ~expected:1 ~desired:5)
        "the recovered variable is live";
      Patomic.recover b;
      check (Patomic.load b = 3 && Patomic.seq_v b = Patomic.seq_p b)
        "a late recover installs the persisted entry")
    [ Patomic.Dram; Patomic.Nvmm ]

(* An untracked region invalidates nothing at a crash: the process-wide
   down count alone refuses its variables while it is down.  Another
   region's variables meanwhile load and CAS as usual, and recovery
   stores nothing into a variable whose [repv] already holds the
   persisted entry. *)
let test_down_region_refused () =
  let down = Support.fresh_region ~track:false () in
  let up = Support.fresh_region () in
  let v = Patomic.make down 1 and w = Patomic.make up 10 in
  check (Patomic.cas v ~expected:1 ~desired:2) "cas before the crash";
  let before = Patomic.entry_v v in
  Region.crash down;
  check (raises (fun () -> ignore (Patomic.load v))) "load on a down region";
  check
    (raises (fun () -> ignore (Patomic.cas v ~expected:2 ~desired:3)))
    "cas on a down region";
  check (Patomic.load w = 10) "the other region loads";
  check (Patomic.cas w ~expected:10 ~desired:11) "the other region CASes";
  check (Patomic.load w = 11) "and sees its write";
  Patomic.recover v;
  check (Patomic.entry_v v == before) "recovery stored nothing";
  Region.mark_recovered down;
  check (Patomic.load v = 2) "readable once recovered";
  check (Patomic.cas v ~expected:2 ~desired:3) "writable once recovered"

(* A refused write charges nothing: [store] and [fetch_add] on a variable
   recovery did not reach raise before reading the volatile replica, as a
   refused [load] does. *)
let test_refused_write_charges_nothing () =
  let r = Support.fresh_region () in
  let a = Patomic.make r 1 in
  let b = Patomic.make r 2 in
  Region.crash r;
  Patomic.recover a;
  Region.mark_recovered r;
  let refused name f =
    let s = Mirror_nvm.Stats.get () in
    Mirror_nvm.Stats.clear s;
    check
      (try
         f ();
         false
       with Invalid_argument _ -> true)
      (name ^ " on an unrecovered variable is refused");
    Alcotest.(check int) (name ^ ": no DRAM read charged") 0
      s.Mirror_nvm.Stats.dram_read;
    Alcotest.(check int) (name ^ ": no NVM read charged") 0
      s.Mirror_nvm.Stats.nvm_read
  in
  refused "store" (fun () -> Patomic.store b 3);
  refused "fetch_add" (fun () -> ignore (Patomic.fetch_add b 1))

(* -- the Figure 3 scenario -------------------------------------------------- *)

(* p1 writes 10, p2 writes 5 again.  Without sequence numbers p1's stale
   volatile write could resurrect 10 after p2's 5.  We explore EVERY
   interleaving of the two writers and check that once both complete the
   replicas agree (and a third observer never sees a value that was already
   overwritten at its read point — covered by the register check below). *)
let test_figure3_no_resurrection () =
  let explored, exhausted =
    Sched.explore_exhaustive ~limit:200_000 ~max_steps:10_000 (fun () ->
        let r = Support.fresh_region () in
        let v = Patomic.make r 5 in
        (* p1 writes 10; p2 tries to write 5 back on top of the 10 *)
        let t1 () = ignore (Patomic.cas v ~expected:5 ~desired:10) in
        let t2 () = ignore (Patomic.cas v ~expected:10 ~desired:5) in
        ( [ t1; t2 ],
          fun () ->
            check (Patomic.lemma54_ok v) "lemma 5.4 at quiescence";
            check (Patomic.peek_v v == Patomic.peek_p v)
              "replicas hold the same value at quiescence";
            check
              (Patomic.seq_v v = Patomic.seq_p v)
              "sequence numbers match at quiescence" ))
  in
  check (explored > 10) "explored many schedules";
  check exhausted "explored all schedules"

(* -- Lemma 5.2: register linearizability ------------------------------------ *)

type rec_ev = {
  op : Mirror_harness.Linearize.Register_spec.op;
  res : Mirror_harness.Linearize.Register_spec.res option;
  inv : int;
  resp : int;
}

let register_history_ok ~init events =
  let evs =
    List.map
      (fun e ->
        { Mirror_harness.Linearize.op = e.op; res = e.res; inv = e.inv; resp = e.resp })
      events
    |> Array.of_list
  in
  Mirror_harness.Linearize.check
    (module Mirror_harness.Linearize.Register_spec)
    ~init ~final_ok:(fun _ -> true) evs

let test_register_linearizable_random () =
  (* random schedules; unique CAS values so the witness structure is rigid *)
  for seed = 1 to 120 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 0 in
    let clock = Atomic.make 0 in
    let log = ref [] in
    let record op res inv resp = log := { op; res = Some res; inv; resp } :: !log in
    let worker wid () =
      let rng = Mirror_workload.Rng.split ~seed wid in
      for i = 1 to 6 do
        let inv = Atomic.fetch_and_add clock 1 in
        if Mirror_workload.Rng.int rng 3 = 0 then begin
          let got = Patomic.load v in
          let resp = Atomic.fetch_and_add clock 1 in
          record Mirror_harness.Linearize.Register_spec.Load
            (Mirror_harness.Linearize.Register_spec.RInt got) inv resp
        end
        else begin
          let exp = Patomic.load v in
          let des = (wid * 1000) + i in
          let inv2 = Atomic.fetch_and_add clock 1 in
          let ok = Patomic.cas v ~expected:exp ~desired:des in
          let resp = Atomic.fetch_and_add clock 1 in
          ignore inv;
          record (Mirror_harness.Linearize.Register_spec.Cas (exp, des))
            (Mirror_harness.Linearize.Register_spec.RBool ok) inv2 resp
        end
      done
    in
    let o = Sched.run ~seed [ worker 1; worker 2; worker 3 ] in
    check o.Sched.completed "run completed";
    if not (register_history_ok ~init:0 (List.rev !log)) then
      Alcotest.failf "seed %d: patomic history not linearizable" seed
  done

let test_register_linearizable_exhaustive () =
  (* tiny fully-exhaustive configuration: 2 CASers + 1 loader *)
  let explored, _ =
    Sched.explore_exhaustive ~limit:150_000 ~max_steps:10_000 (fun () ->
        let r = Support.fresh_region () in
        let v = Patomic.make r 0 in
        let clock = Atomic.make 0 in
        let log = ref [] in
        let cas_task des () =
          let inv = Atomic.fetch_and_add clock 1 in
          let ok = Patomic.cas v ~expected:0 ~desired:des in
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            {
              op = Mirror_harness.Linearize.Register_spec.Cas (0, des);
              res = Some (Mirror_harness.Linearize.Register_spec.RBool ok);
              inv;
              resp;
            }
            :: !log
        in
        let load_task () =
          let inv = Atomic.fetch_and_add clock 1 in
          let got = Patomic.load v in
          let resp = Atomic.fetch_and_add clock 1 in
          log :=
            {
              op = Mirror_harness.Linearize.Register_spec.Load;
              res = Some (Mirror_harness.Linearize.Register_spec.RInt got);
              inv;
              resp;
            }
            :: !log
        in
        ( [ cas_task 1; cas_task 2; load_task ],
          fun () ->
            check
              (register_history_ok ~init:0 (List.rev !log))
              "exhaustive schedule linearizable" ))
  in
  check (explored > 50) "many schedules explored"

(* -- durability invariant under interleavings ------------------------------- *)

let test_durability_invariant_under_schedules () =
  for seed = 1 to 60 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 0 in
    let writer wid () =
      for i = 1 to 5 do
        let cur = Patomic.load v in
        ignore (Patomic.cas v ~expected:cur ~desired:((wid * 100) + i));
        (* the volatile replica must never be ahead of the persisted state *)
        check (Patomic.durability_invariant_ok v) "repv <= persisted"
      done
    in
    let o = Sched.run ~seed [ writer 1; writer 2; writer 3 ] in
    check o.Sched.completed "completed";
    check (Patomic.lemma54_ok v) "lemma 5.4 holds at quiescence"
  done

(* -- crash mid-operation ----------------------------------------------------- *)

let test_crash_mid_cas () =
  (* cut a CAS at every possible protocol step; after recovery the value is
     either the old or the new one, and if the CAS completed it must be the
     new one *)
  for cut = 1 to 40 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 5 in
    let completed = ref false in
    let task () =
      ignore (Patomic.cas v ~expected:5 ~desired:9);
      completed := true
    in
    ignore (Sched.run ~seed:1 ~max_steps:cut [ task ]);
    Region.crash r;
    Patomic.recover v;
    Region.mark_recovered r;
    let got = Patomic.load v in
    if !completed then check (got = 9) "completed cas survives the crash"
    else check (got = 5 || got = 9) "cut cas is atomic: old or new value"
  done

let test_helping_completes_stalled_write () =
  (* force the exact Figure 3 help: writer A is cut right after its
     persistent DWCAS (repp ahead of repv); a later reader-writer B must
     observe the protocol still linearizable and finish A's write *)
  let found_stalled = ref false in
  for cut = 1 to 40 do
    let r = Support.fresh_region () in
    let v = Patomic.make r 5 in
    ignore
      (Sched.run ~seed:1 ~max_steps:cut
         [ (fun () -> ignore (Patomic.cas v ~expected:5 ~desired:10)) ]);
    if Patomic.seq_p v = Patomic.seq_v v + 1 then begin
      found_stalled := true;
      (* no crash: another thread simply comes along and operates *)
      check (Patomic.cas v ~expected:10 ~desired:11) "helper sees A's value";
      check (Patomic.seq_v v = Patomic.seq_p v) "replicas resynced";
      check (Patomic.load v = 11) "helper's own write applied"
    end
  done;
  check !found_stalled "some cut point leaves repp one ahead (helping path)"

(* -- exhaustive durable verification ------------------------------------------ *)

(* For two concurrent CASes, EVERY schedule x EVERY crash point is verified
   durably linearizable: completed operations are mandatory events, cut
   ones optional, and the recovered value must be explained by some
   real-time-respecting linearization.  This is a (bounded) model-checking
   result for the protocol, not a sampled test. *)
let test_exhaustive_durable_register () =
  let total = ref 0 in
  for cut = 1 to 30 do
    let explored, _ =
      Sched.explore_exhaustive ~limit:20_000 ~max_steps:cut (fun () ->
          let r = Support.fresh_region () in
          let v = Patomic.make r 0 in
          let clock = Atomic.make 0 in
          let evs = Array.make 2 None in
          let cas_task i ~expected ~desired () =
            let inv = Atomic.fetch_and_add clock 1 in
            evs.(i) <- Some (expected, desired, inv, max_int, None);
            let ok = Patomic.cas v ~expected ~desired in
            let resp = Atomic.fetch_and_add clock 1 in
            evs.(i) <- Some (expected, desired, inv, resp, Some ok)
          in
          ( [ cas_task 0 ~expected:0 ~desired:1; cas_task 1 ~expected:1 ~desired:2 ],
            fun () ->
              incr total;
              Region.crash r;
              Patomic.recover v;
              Region.mark_recovered r;
              let recovered = Patomic.load v in
              let events =
                Array.to_list evs
                |> List.filter_map
                     (Option.map (fun (exp, des, inv, resp, ok) ->
                          {
                            Mirror_harness.Linearize.op =
                              Mirror_harness.Linearize.Register_spec.Cas
                                (exp, des);
                            res =
                              Option.map
                                (fun b ->
                                  Mirror_harness.Linearize.Register_spec.RBool b)
                                ok;
                            inv;
                            resp;
                          }))
              in
              Support.check
                (Mirror_harness.Linearize.check
                   (module Mirror_harness.Linearize.Register_spec)
                   ~init:0
                   ~final_ok:(fun s -> s = recovered)
                   (Array.of_list events))
                (Printf.sprintf
                   "cut %d: recovered value %d justified by the history" cut
                   recovered) ))
    in
    ignore explored
  done;
  Support.check (!total > 500) "verified hundreds of (schedule, crash) pairs"

(* -- qcheck properties -------------------------------------------------------- *)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"patomic: random op sequences keep invariants"
    ~count:200
    QCheck.(list (pair (int_bound 2) (int_bound 50)))
    (fun ops ->
      let r = Support.fresh_region () in
      let v = Patomic.make r 0 in
      List.iter
        (fun (kind, x) ->
          match kind with
          | 0 -> Patomic.store v x
          | 1 -> ignore (Patomic.fetch_add v x)
          | _ ->
              let cur = Patomic.load v in
              ignore (Patomic.cas v ~expected:cur ~desired:x))
        ops;
      Patomic.lemma54_ok v
      && Patomic.durability_invariant_ok v
      && Patomic.peek_v v = Patomic.peek_p v
      && Patomic.persisted_value v = Some (Patomic.load v))

let prop_crash_recover_idempotent =
  QCheck.Test.make ~name:"patomic: recover after quiesced crash restores last value"
    ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (init, writes) ->
      let r = Support.fresh_region () in
      let v = Patomic.make r init in
      List.iter (fun x -> Patomic.store v x) writes;
      let expect = match List.rev writes with [] -> init | x :: _ -> x in
      Region.crash r;
      Patomic.recover v;
      Region.mark_recovered r;
      Patomic.load v = expect)

(* -- layout and field-0 atomicity ------------------------------------------ *)

(* A strict variable is its block (3 words), its slot (7), the slot's
   media block (2) and the shared entry (4). *)
let test_layout () =
  let r = Support.fresh_region ~track:false () in
  let v = Patomic.make r 0 in
  let w = Support.own_words v r in
  check (w <= 16) (Printf.sprintf "strict variable: %d words, at most 16" w);
  let s = Mirror_nvm.Slot.make ~persist:true r 0 in
  let w = Support.own_words s r in
  check (w <= 13) (Printf.sprintf "slot: %d words, at most 13" w)

(* Fails without allocating on the success path. *)
let check_cas ok = if not ok then Alcotest.fail "an uncontended CAS failed"

(* Minor words per call of [f i], averaged over [n] calls after one warm-up
   call. *)
let words_per_call n f =
  f 0;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* One block per write: a successful strict CAS allocates its entry (4
   words) plus the write-back thunk the flush records (5 words; the
   pending set stores it in an array cell) — no cell, no closure, no
   verdict tuple. *)
let test_cas_alloc () =
  let r = Support.fresh_region ~track:false () in
  let v = Patomic.make r 0 in
  let w =
    words_per_call 100_000 (fun i ->
        check_cas (Patomic.cas v ~expected:i ~desired:(i + 1)))
  in
  check (w <= 9.0)
    (Printf.sprintf "strict Patomic.cas: %.2f minor words, at most 9" w);
  let s = Mirror_nvm.Slot.make ~persist:true r 0 in
  let w =
    words_per_call 100_000 (fun i ->
        check_cas (Mirror_nvm.Slot.cas s ~expected:i ~desired:(i + 1)))
  in
  check (w <= 4.0) (Printf.sprintf "Slot.cas: %.2f minor words, at most 4" w)

(* A strict make on an untracked region allocates the variable's four
   blocks and nothing else: no crash-reset or invalidation closure is
   built for a region that never crashes. *)
let test_make_alloc () =
  let r = Support.fresh_region ~track:false () in
  let w = words_per_call 10_000 (fun i -> ignore (Patomic.make r i)) in
  check (w <= 16.0)
    (Printf.sprintf "strict Patomic.make: %.2f minor words, at most 16" w)

(* Making a variable from a shared birth allocates the record, the slot
   and its media block, and not the birth entry. *)
let test_make_born_alloc () =
  let r = Support.fresh_region ~track:false () in
  let b = Mirror_nvm.Slot.birth 0 in
  let w = words_per_call 10_000 (fun _ -> ignore (Patomic.make_born r b)) in
  check (w <= 12.0)
    (Printf.sprintf "Patomic.make_born: %.2f minor words, at most 12" w)

(* Two variables made from one birth start on one entry, physically.  A
   CAS on one installs a fresh entry there and leaves the other on the
   birth at seq 0; an adversarial crash and recovery restore both, the
   untouched one to the birth itself. *)
let test_shared_birth () =
  let r = Support.fresh_region () in
  let b = Mirror_nvm.Slot.birth 5 in
  let x = Patomic.make_born r b and y = Patomic.make_born r b in
  let birth = Patomic.entry_v x in
  let invariants what =
    List.iter
      (fun v ->
        check (Patomic.lemma54_ok v) ("lemma 5.4 " ^ what);
        check (Patomic.durability_invariant_ok v) ("durability " ^ what))
      [ x; y ]
  in
  let on_birth what v =
    check
      (Patomic.entry_v v == birth && Patomic.entry_p v == birth)
      ("both replicas on the shared birth " ^ what)
  in
  on_birth "at birth (x)" x;
  on_birth "at birth (y)" y;
  invariants "at birth";
  check (Patomic.cas x ~expected:5 ~desired:6) "cas on x";
  check (Patomic.seq_v x = 1 && Patomic.load x = 6) "x moved to seq 1";
  check (Patomic.seq_v y = 0 && Patomic.load y = 5) "y still at seq 0";
  on_birth "after the cas on x" y;
  check (birth.Mirror_nvm.Slot.ver = 0 && birth.v = 5) "the birth unchanged";
  invariants "after the cas";
  Region.crash ~policy:Region.Adversarial r;
  Patomic.recover x;
  Patomic.recover y;
  Region.mark_recovered r;
  check (Patomic.load x = 6) "x's completed cas survives";
  check (Patomic.load y = 5 && Patomic.seq_v y = 0) "y restored at seq 0";
  on_birth "after recovery" y;
  invariants "after recovery";
  check (Patomic.cas y ~expected:5 ~desired:7) "y usable after recovery";
  check (Patomic.load x = 6 && Patomic.load y = 7) "the writes stay apart";
  invariants "after a cas on y"

(* A crash over a never-persisted variable loses its persistent replica;
   the variable still reports its discipline, and recovering it is a
   detected bug. *)
let test_lost_replica_discipline () =
  List.iter
    (fun discipline ->
      let r = Support.fresh_region () in
      let v = Patomic.make ~persist:false ~discipline r 1 in
      check (Patomic.discipline v = discipline) "discipline at birth";
      Region.crash r;
      check
        (Patomic.discipline v = discipline)
        "a lost variable keeps its discipline";
      check
        (try
           Patomic.recover v;
           false
         with Invalid_argument _ -> true)
        "recovering a lost variable is a detected bug")
    [ Patomic.Strict; Patomic.Buffered ]

(* Two real domains race on the in-record atomic fields: [repv] through
   [fetch_add], a slot's [current] through a CAS retry loop.  Every
   increment must land exactly once. *)
let test_two_domain_atomicity () =
  let n = 20_000 in
  let r = Support.fresh_region () in
  let v = Patomic.make r 0 in
  let s = Mirror_nvm.Slot.make ~persist:true r 0 in
  let rec bump_slot () =
    let x = Mirror_nvm.Slot.load s in
    if not (Mirror_nvm.Slot.cas s ~expected:x ~desired:(x + 1)) then
      bump_slot ()
  in
  let body () =
    for _ = 1 to n do
      ignore (Patomic.fetch_add v 1);
      bump_slot ()
    done
  in
  let d = Domain.spawn body in
  body ();
  Domain.join d;
  Alcotest.(check int) "fetch_add count exact" (2 * n) (Patomic.load v);
  Alcotest.(check int) "slot cas count exact" (2 * n)
    (Mirror_nvm.Slot.peek s);
  check (Patomic.lemma54_ok v) "lemma 5.4 holds";
  check (Patomic.durability_invariant_ok v) "durability invariant holds"

let suite =
  [
    ( "patomic",
      [
        Alcotest.test_case "sequential semantics" `Quick
          test_sequential_semantics;
        Alcotest.test_case "compare_exchange witness" `Quick
          test_compare_exchange_witness;
        Alcotest.test_case "durability after each op" `Quick
          test_durability_after_each_op;
        Alcotest.test_case "crash + recover (quiesced)" `Quick
          test_crash_recover_quiesced;
        Alcotest.test_case "unrecovered access detected" `Quick
          test_unrecovered_access_detected;
        Alcotest.test_case "refused write charges nothing" `Quick
          test_refused_write_charges_nothing;
        Alcotest.test_case "figure 3: no resurrection" `Quick
          test_figure3_no_resurrection;
        Alcotest.test_case "register linearizability (random)" `Quick
          test_register_linearizable_random;
        Alcotest.test_case "register linearizability (exhaustive)" `Quick
          test_register_linearizable_exhaustive;
        Alcotest.test_case "durability invariant under schedules" `Quick
          test_durability_invariant_under_schedules;
        Alcotest.test_case "crash mid-CAS" `Quick test_crash_mid_cas;
        Alcotest.test_case "helping completes stalled write" `Quick
          test_helping_completes_stalled_write;
        Alcotest.test_case "exhaustive durable register" `Quick
          test_exhaustive_durable_register;
        Alcotest.test_case "layout: variable and slot words" `Quick
          test_layout;
        Alcotest.test_case "cas: minor words per call" `Quick test_cas_alloc;
        Alcotest.test_case "make: minor words per call" `Quick test_make_alloc;
        Alcotest.test_case "lost replica keeps its discipline" `Quick
          test_lost_replica_discipline;
        Alcotest.test_case "field-0 atomics across two domains" `Quick
          test_two_domain_atomicity;
        QCheck_alcotest.to_alcotest prop_random_ops_keep_invariants;
        QCheck_alcotest.to_alcotest prop_crash_recover_idempotent;
        Alcotest.test_case "make_born: minor words per call" `Quick
          test_make_born_alloc;
        Alcotest.test_case "two variables from one birth" `Quick
          test_shared_birth;
        Alcotest.test_case "stale after mark_recovered" `Quick
          test_stale_after_mark_recovered;
        Alcotest.test_case "down region refused, others live" `Quick
          test_down_region_refused;
      ] );
  ]
