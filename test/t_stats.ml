(** Unit tests of the statistics and latency-configuration plumbing. *)

open Mirror_nvm

let check = Support.check

let test_add_clear () =
  let a = Stats.zero () in
  let b = Stats.zero () in
  b.Stats.nvm_read <- 3;
  b.Stats.flush <- 2;
  Stats.add ~into:a b;
  Stats.add ~into:a b;
  check (a.Stats.nvm_read = 6 && a.Stats.flush = 4) "add accumulates";
  Stats.clear a;
  check (a.Stats.nvm_read = 0 && a.Stats.flush = 0) "clear zeroes"

let test_total_and_reset () =
  Stats.reset_all ();
  let s = Stats.get () in
  s.Stats.fence <- s.Stats.fence + 5;
  check ((Stats.total ()).Stats.fence >= 5) "total sees this domain";
  Stats.reset_all ();
  check ((Stats.total ()).Stats.fence = 0) "reset_all clears registry"

let test_domains_isolated () =
  Stats.reset_all ();
  let d =
    Domain.spawn (fun () ->
        let s = Stats.get () in
        s.Stats.nvm_write <- 7)
  in
  Domain.join d;
  let local = Stats.get () in
  check (local.Stats.nvm_write = 0) "local counters untouched";
  check ((Stats.total ()).Stats.nvm_write = 7) "total includes the other domain";
  Stats.reset_all ()

let test_registry_recycled () =
  Stats.reset_all ();
  let before = Stats.registry_size () in
  for _ = 1 to 64 do
    let d = Domain.spawn (fun () -> (Stats.get ()).Stats.alloc <- 1) in
    Domain.join d
  done;
  (* joined domains retire their record into the drained accumulator and
     recycle it — the registry must not grow with dead domains *)
  check
    (Stats.registry_size () <= before + 1)
    "registry bounded by live domains";
  check ((Stats.total ()).Stats.alloc = 64) "drained counters survive";
  Stats.reset_all ();
  check ((Stats.total ()).Stats.alloc = 0) "reset clears drained too"

let test_pp () =
  let s = Stats.zero () in
  s.Stats.nvm_read <- 1;
  let str = Format.asprintf "%a" Stats.pp s in
  check (String.length str > 10) "pp renders";
  check (Support.contains str "nvm") "pp mentions nvm"

let test_latency_config_roundtrip () =
  let saved = Latency.get_config () in
  let cfg = { saved with Latency.nvm_read_ns = 123 } in
  Latency.set_config cfg;
  check ((Latency.get_config ()).Latency.nvm_read_ns = 123) "set/get roundtrip";
  Latency.set_config saved

let test_latency_profiles () =
  check (List.length Latency.profiles = 4) "four platform profiles";
  check
    ((Latency.profile "x86-clwb").Latency.flush_ns
    = (Latency.profile "x86-clflushopt").Latency.flush_ns)
    "clwb and clflushopt alike";
  check
    ((Latency.profile "x86-clflush").Latency.flush_ns
    > (Latency.profile "x86-clwb").Latency.flush_ns)
    "clflush costlier";
  check
    (try
       ignore (Latency.profile "sparc");
       false
     with Invalid_argument _ -> true)
    "unknown profile rejected"

let test_disabled_injection_free () =
  Latency.set_enabled false;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 100_000 do
    Stats.bill_nvm_read ~home:Stats.local
  done;
  check (Unix.gettimeofday () -. t0 < 0.3) "disabled injection is cheap";
  Stats.reset_all ()

(* Every billing function, the NVMM ones billing memory homed on [home]:
   (name, is an NVMM kind, the bill, a setter of the counter it moves). *)
let bills home =
  let open Stats in
  [
    ("dram_read", false, bill_dram_read, fun s n -> s.dram_read <- n);
    ("dram_write", false, bill_dram_write, fun s n -> s.dram_write <- n);
    ("dram_cas", false, bill_dram_cas, fun s n -> s.dram_cas <- n);
    ("nvm_read", true, (fun () -> bill_nvm_read ~home), fun s n -> s.nvm_read <- n);
    ( "nvm_write",
      true,
      (fun () -> bill_nvm_write ~home),
      fun s n -> s.nvm_write <- n );
    ("nvm_cas", true, (fun () -> bill_nvm_cas ~home), fun s n -> s.nvm_cas <- n);
    ("flush", true, (fun () -> bill_flush ~home), fun s n -> s.flush <- n);
    ("fence", false, bill_fence, fun s n -> s.fence <- n);
  ]

(* Bill once from a cleared registry; the calling domain's record must
   equal [expected]. *)
let bill_once (name, _, bill, _) expected =
  Stats.reset_all ();
  bill ();
  if Stats.get () <> expected then
    Alcotest.failf "%s: moved %a, expected %a" name Stats.pp (Stats.get ())
      Stats.pp expected

let test_bill_own_counter () =
  Latency.set_enabled false;
  Latency.set_numa_remote_ns 0;
  check (not (Latency.active ())) "no injection, no surcharge";
  (* a home other than the billing thread: with the surcharge at 0 it
     changes nothing *)
  List.iter
    (fun ((_, _, _, set) as b) ->
      let expected = Stats.zero () in
      set expected 1;
      bill_once b expected)
    (bills (Hooks.tid () + 1));
  Stats.reset_all ()

let test_bill_surcharge () =
  Latency.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Latency.set_numa_remote_ns 0;
      Stats.reset_all ())
    (fun () ->
      Latency.set_numa_remote_ns 40;
      check (Latency.active ()) "the surcharge takes the slow path";
      let here = Hooks.tid () in
      List.iter
        (fun home ->
          List.iter
            (fun ((_, nvmm, _, set) as b) ->
              let expected = Stats.zero () in
              set expected 1;
              if nvmm && home <> here && home <> Stats.local then
                expected.Stats.nvm_remote <- 1;
              bill_once b expected)
            (bills home))
        [ here + 1; here; Stats.local ])

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "add/clear" `Quick test_add_clear;
        Alcotest.test_case "total/reset" `Quick test_total_and_reset;
        Alcotest.test_case "domain isolation" `Quick test_domains_isolated;
        Alcotest.test_case "registry recycled" `Quick test_registry_recycled;
        Alcotest.test_case "pp" `Quick test_pp;
        Alcotest.test_case "latency config roundtrip" `Quick
          test_latency_config_roundtrip;
        Alcotest.test_case "latency profiles" `Quick test_latency_profiles;
        Alcotest.test_case "disabled injection free" `Quick
          test_disabled_injection_free;
        Alcotest.test_case "a bill moves its own counter" `Quick
          test_bill_own_counter;
        Alcotest.test_case "a bill of remote NVMM pays the surcharge" `Quick
          test_bill_surcharge;
      ] );
  ]
