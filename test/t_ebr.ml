(** Tests of the ssmem-style epoch-based reclamation scheme. *)

open Mirror_core

let check = Support.check

let test_epoch_advances_when_quiescent () =
  let e = Ebr.create ~scan_threshold:1 () in
  let e0 = Ebr.epoch e in
  Ebr.enter e;
  Ebr.exit e;
  Ebr.enter e;
  Ebr.exit e;
  check (Ebr.epoch e > e0) "epoch advanced"

let test_retired_freed_after_grace () =
  let e = Ebr.create ~scan_threshold:1 () in
  let freed = ref false in
  Ebr.enter e;
  Ebr.retire e (fun () -> freed := true);
  Ebr.exit e;
  check (not !freed) "not freed immediately";
  (* several quiescent operations advance epochs and trigger scans *)
  for _ = 1 to 6 do
    Ebr.enter e;
    Ebr.exit e
  done;
  Ebr.drain e;
  check !freed "freed after grace period"

let test_active_thread_blocks_advance () =
  let e = Ebr.create ~scan_threshold:1 () in
  (* a stalled domain pinned in an old epoch must block reclamation *)
  let pinned_entered = Atomic.make false in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Ebr.enter e;
        Atomic.set pinned_entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Ebr.exit e)
  in
  while not (Atomic.get pinned_entered) do
    Domain.cpu_relax ()
  done;
  let freed = ref false in
  Ebr.retire e (fun () -> freed := true);
  let e0 = Ebr.epoch e in
  for _ = 1 to 5 do
    Ebr.enter e;
    Ebr.exit e
  done;
  (* the pinned thread entered at e0; the epoch can advance at most once
     past its announcement, so two full grace periods are impossible *)
  check (Ebr.epoch e <= e0 + 1) "pinned thread caps epoch advance";
  check (not !freed) "no reclamation under a pinned thread";
  Atomic.set release true;
  Domain.join d;
  for _ = 1 to 6 do
    Ebr.enter e;
    Ebr.exit e
  done;
  Ebr.drain e;
  check !freed "reclaimed once the pinned thread left"

let test_drain () =
  let e = Ebr.create () in
  let n = ref 0 in
  for _ = 1 to 10 do
    Ebr.retire e (fun () -> incr n)
  done;
  check (Ebr.limbo_size e = 10) "limbo holds retirees";
  Ebr.drain e;
  check (!n = 10) "drain frees everything";
  check (Ebr.limbo_size e = 0) "limbo empty"

(* The per-domain handle cache: two tables alternated (and nested) on one
   domain, then touched from a second domain.  Each retire must land in its
   own table's limbo.  The high threshold keeps [enter] from scanning, so
   the limbo counts are exact. *)
let test_two_tables_limbo () =
  let a = Ebr.create ~scan_threshold:1_000 () in
  let b = Ebr.create ~scan_threshold:1_000 () in
  for i = 1 to 10 do
    Ebr.enter a;
    Ebr.retire a ignore;
    Ebr.enter b;
    Ebr.retire b ignore;
    Ebr.retire b ignore;
    Ebr.exit b;
    Ebr.exit a;
    check
      (Ebr.limbo_size a = i && Ebr.limbo_size b = 2 * i)
      (Printf.sprintf "round %d: limbo a=%d b=%d" i (Ebr.limbo_size a)
         (Ebr.limbo_size b))
  done;
  let d =
    Domain.spawn (fun () ->
        Ebr.enter b;
        Ebr.retire b ignore;
        Ebr.exit b;
        Ebr.enter a;
        Ebr.retire a ignore;
        Ebr.retire a ignore;
        Ebr.exit a;
        Ebr.retire b ignore)
  in
  Domain.join d;
  check (Ebr.limbo_size a = 12) "second domain: a's retires in a";
  check (Ebr.limbo_size b = 22) "second domain: b's retires in b"

(* A domain pinned in table [a] (which touched [b] while pinned, so its
   cache moved away from [a]'s handle) blocks [a]'s epoch and not [b]'s. *)
let test_pin_is_per_table () =
  let a = Ebr.create ~scan_threshold:1_000 () in
  let b = Ebr.create ~scan_threshold:1_000 () in
  let pinned = Atomic.make false in
  let release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Ebr.enter a;
        Ebr.enter b;
        Ebr.exit b;
        Atomic.set pinned true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Ebr.exit a)
  in
  while not (Atomic.get pinned) do
    Domain.cpu_relax ()
  done;
  let a0 = Ebr.epoch a and b0 = Ebr.epoch b in
  for _ = 1 to 5 do
    Ebr.enter a;
    Ebr.exit a;
    Ebr.try_advance a;
    Ebr.enter b;
    Ebr.exit b;
    Ebr.try_advance b
  done;
  check (Ebr.epoch a <= a0 + 1) "a pin in a caps a's epoch";
  check (Ebr.epoch b = b0 + 5) "b's epoch advances past a pin in a";
  Atomic.set release true;
  Domain.join d;
  for _ = 1 to 3 do
    Ebr.try_advance a
  done;
  check (Ebr.epoch a > a0 + 1) "a advances once the pin is gone"

let suite =
  [
    ( "ebr",
      [
        Alcotest.test_case "epoch advances" `Quick
          test_epoch_advances_when_quiescent;
        Alcotest.test_case "freed after grace" `Quick
          test_retired_freed_after_grace;
        Alcotest.test_case "pinned thread blocks" `Quick
          test_active_thread_blocks_advance;
        Alcotest.test_case "drain" `Quick test_drain;
        Alcotest.test_case "two tables: own limbo" `Quick
          test_two_tables_limbo;
        Alcotest.test_case "two tables: pin is per table" `Quick
          test_pin_is_per_table;
      ] );
  ]
