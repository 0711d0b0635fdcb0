(** A domain's first touch of a region registers its per-domain record
    under the region mutex and refuses a region that is down, so a first
    touch racing [Region.crash] either is drained by the crash or raises:
    no orphan record survives to apply stale write-backs after
    recovery. *)

let check = Support.check

module R = Mirror_nvm.Region
module S = Mirror_nvm.Slot

(* A first touch of a down region must raise instead of silently
   registering an orphan record (whose stale thunks a post-recovery
   fence would apply).  The main domain has never touched this fresh
   region, so its fence is a first touch. *)
let test_down_first_touch_rejected () =
  let region = R.create ~track_slots:false () in
  R.crash region;
  check
    (try
       R.add_pending region (fun () -> ());
       false
     with Invalid_argument _ -> true)
    "first-touch add_pending on a down region raises";
  check
    (try
       R.fence region;
       false
     with Invalid_argument _ -> true)
    "first-touch fence on a down region raises";
  ignore (R.begin_recovery region);
  R.mark_recovered region;
  (* after recovery the region registers and fences normally *)
  R.fence region;
  check (not (R.is_down region)) "region back up"

(* 16 real domains race their first touch of a region against [crash]:
   every domain either completes its store/flush/fence round or observes
   the crash and raises — and afterwards the region recovers and works.
   Registration publishes under the region mutex (which [crash] holds for
   its whole drain), so no interleaving can leak an orphan record or
   apply a stale thunk after recovery; this test is the regression net
   for that window at 16-way concurrency. *)
let test_crash_races_registration () =
  for round = 1 to 4 do
    let region = R.create ~track_slots:true () in
    let started = Atomic.make 0 in
    let doms =
      List.init 16 (fun i ->
          Domain.spawn (fun () ->
              Atomic.incr started;
              while Atomic.get started <= 16 do
                Domain.cpu_relax ()
              done;
              try
                let s = S.make ~persist:true region i in
                S.store s (i + 1);
                S.flush s;
                R.fence region;
                true
              with Invalid_argument _ -> false))
    in
    (* release the herd and crash into the middle of it *)
    while Atomic.get started < 16 do
      Domain.cpu_relax ()
    done;
    Atomic.incr started;
    if round land 1 = 0 then Domain.cpu_relax ();
    R.crash region;
    let outcomes = List.map Domain.join doms in
    check (List.length outcomes = 16) "all domains returned";
    ignore (R.begin_recovery region);
    R.mark_recovered region;
    (* the recovered region serves fresh domains again *)
    let d =
      Domain.spawn (fun () ->
          let s = S.make ~persist:true region 99 in
          S.store s 100;
          S.flush s;
          R.fence region;
          S.persisted_value s = Some 100)
    in
    check (Domain.join d) (Printf.sprintf "round %d: recovery round-trip" round)
  done

let suite =
  [
    ( "registration",
      [
        Alcotest.test_case "down first touch rejected" `Quick
          test_down_first_touch_rejected;
        Alcotest.test_case "crash races registration (16 domains)" `Slow
          test_crash_races_registration;
      ] );
  ]
