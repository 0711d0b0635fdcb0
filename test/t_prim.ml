(** Per-strategy cost profiles: each persistence strategy has an exact
    flush/fence/NVMM-access signature per operation.  These tests pin the
    signatures down so the cost model driving every benchmark figure cannot
    silently drift. *)

let check = Support.check

let profile prim_name (f : (module Mirror_prim.Prim.S) -> unit) =
  let region = Support.fresh_region ~track:false () in
  let p = Support.prim region prim_name in
  let module P = (val p) in
  (* warm up domain-local stats and any lazy setup *)
  ignore (P.load (P.make 0));
  Mirror_nvm.Stats.reset_all ();
  f p;
  Mirror_nvm.Stats.total ()

let expect st ~flush ~fence msg =
  let open Mirror_nvm.Stats in
  if st.flush <> flush || st.fence <> fence then
    Alcotest.failf "%s: flush=%d fence=%d (expected %d/%d)" msg st.flush
      st.fence flush fence

(* loads *)

let test_load_costs () =
  let load_of name =
    profile name (fun (module P) ->
        let v = P.make 0 in
        Mirror_nvm.Stats.reset_all ();
        ignore (P.load v))
  in
  expect (load_of "orig-dram") ~flush:0 ~fence:0 "orig-dram load";
  expect (load_of "orig-nvmm") ~flush:0 ~fence:0 "orig-nvmm load";
  expect (load_of "izraelevitz") ~flush:1 ~fence:1 "izraelevitz load";
  expect (load_of "nvtraverse") ~flush:1 ~fence:1 "nvtraverse critical load";
  expect (load_of "mirror") ~flush:0 ~fence:0 "mirror load";
  expect (load_of "mirror-nvmm") ~flush:0 ~fence:0 "mirror-nvmm load"

let test_traversal_load_costs () =
  let load_t_of name =
    profile name (fun (module P) ->
        let v = P.make 0 in
        Mirror_nvm.Stats.reset_all ();
        ignore (P.load_t v))
  in
  (* the whole point of NVTraverse: traversal loads persist nothing *)
  expect (load_t_of "nvtraverse") ~flush:0 ~fence:0 "nvtraverse traversal load";
  (* while Izraelevitz cannot make the distinction *)
  expect (load_t_of "izraelevitz") ~flush:1 ~fence:1 "izraelevitz traversal load";
  expect (load_t_of "mirror") ~flush:0 ~fence:0 "mirror traversal load"

(* where do reads go? *)

let test_read_locations () =
  let reads_of name =
    let st =
      profile name (fun (module P) ->
          let v = P.make 0 in
          Mirror_nvm.Stats.reset_all ();
          ignore (P.load_t v))
    in
    (st.Mirror_nvm.Stats.dram_read, st.Mirror_nvm.Stats.nvm_read)
  in
  check (reads_of "orig-dram" = (1, 0)) "orig-dram reads DRAM";
  check (reads_of "orig-nvmm" = (0, 1)) "orig-nvmm reads NVMM";
  check (reads_of "mirror" = (1, 0)) "mirror reads its DRAM replica";
  check (reads_of "mirror-nvmm" = (0, 1)) "mirror-nvmm reads its NVMM replica";
  check (reads_of "nvtraverse" = (0, 1)) "nvtraverse reads NVMM"

(* successful CAS *)

let test_cas_costs () =
  let cas_of name =
    profile name (fun (module P) ->
        let v = P.make 0 in
        Mirror_nvm.Stats.reset_all ();
        check (P.cas v ~expected:0 ~desired:1) "cas succeeds")
  in
  expect (cas_of "orig-dram") ~flush:0 ~fence:0 "orig-dram cas";
  expect (cas_of "orig-nvmm") ~flush:0 ~fence:0 "orig-nvmm cas (not durable!)";
  (* izraelevitz: fence; cas; flush; fence *)
  expect (cas_of "izraelevitz") ~flush:1 ~fence:2 "izraelevitz cas";
  (* nvtraverse: fence; cas; flush; fence *)
  expect (cas_of "nvtraverse") ~flush:1 ~fence:2 "nvtraverse cas";
  (* mirror: DWCAS repp; flush; fence; DWCAS repv — exactly one of each *)
  expect (cas_of "mirror") ~flush:1 ~fence:1 "mirror cas";
  expect (cas_of "mirror-nvmm") ~flush:1 ~fence:1 "mirror-nvmm cas"

(* mirror's uncontended write = 1 NVMM CAS + 1 DRAM CAS, no NVMM read of
   the volatile replica *)
let test_mirror_write_traffic () =
  let st =
    profile "mirror" (fun (module P) ->
        let v = P.make 0 in
        Mirror_nvm.Stats.reset_all ();
        check (P.cas v ~expected:0 ~desired:1) "cas")
  in
  let open Mirror_nvm.Stats in
  check (st.nvm_cas = 1) "one persistent DWCAS";
  check (st.dram_cas = 1) "one volatile DWCAS";
  check (st.nvm_read = 1) "one repp read in the protocol";
  check (st.help = 0) "no helping uncontended";
  check (st.cas_retry = 0) "no retry uncontended"

(* failed CAS must not persist anything new under mirror *)
let test_mirror_failed_cas () =
  let st =
    profile "mirror" (fun (module P) ->
        let v = P.make 0 in
        Mirror_nvm.Stats.reset_all ();
        check (not (P.cas v ~expected:99 ~desired:1)) "cas fails")
  in
  check (st.Mirror_nvm.Stats.nvm_cas = 0) "failed cas writes nothing";
  check (st.Mirror_nvm.Stats.flush = 0) "failed cas flushes nothing"

(* fetch_add counts *)
let test_faa () =
  List.iter
    (fun name ->
      let region = Support.fresh_region ~track:false () in
      let module P = (val Support.prim region name) in
      let v = P.make 10 in
      check (P.fetch_add v 5 = 10) (name ^ " faa returns old");
      check (P.fetch_add v (-3) = 15) (name ^ " faa accumulates");
      check (P.load v = 12) (name ^ " final value"))
    Support.all_prim_names

(* store durability at response, for every durable strategy *)
let test_store_durable_at_response () =
  List.iter
    (fun name ->
      let region = Support.fresh_region () in
      let module P = (val Support.prim region name) in
      let v = P.make 0 in
      P.store v 7;
      Mirror_nvm.Region.crash region;
      P.recover v;
      Mirror_nvm.Region.mark_recovered region;
      check (P.load_recovery v = 7) (name ^ ": completed store survives"))
    [ "izraelevitz"; "nvtraverse"; "mirror"; "mirror-nvmm" ]

(* allocation: a persisted field's birth copy (one NVMM write + one
   write-back) is billed alike under every persistent strategy, and not
   at all by the originals, which persist nothing *)
let test_birth_copy_costs () =
  let birth_of name =
    profile name (fun (module P) -> ignore (P.make 0))
  in
  List.iter
    (fun (name, copies) ->
      let st = birth_of name in
      if
        st.Mirror_nvm.Stats.nvm_write <> copies
        || st.Mirror_nvm.Stats.flush <> copies
      then
        Alcotest.failf "%s birth: nvm_write=%d flush=%d (expected %d/%d)" name
          st.Mirror_nvm.Stats.nvm_write st.Mirror_nvm.Stats.flush copies copies)
    [
      ("orig-dram", 0); ("orig-nvmm", 0); ("izraelevitz", 1); ("nvtraverse", 1);
      ("mirror", 1); ("mirror-nvmm", 1);
    ]

let suite =
  [
    ( "prim-costs",
      [
        Alcotest.test_case "load costs" `Quick test_load_costs;
        Alcotest.test_case "traversal load costs" `Quick
          test_traversal_load_costs;
        Alcotest.test_case "read locations" `Quick test_read_locations;
        Alcotest.test_case "cas costs" `Quick test_cas_costs;
        Alcotest.test_case "mirror write traffic" `Quick
          test_mirror_write_traffic;
        Alcotest.test_case "mirror failed cas" `Quick test_mirror_failed_cas;
        Alcotest.test_case "fetch_add" `Quick test_faa;
        Alcotest.test_case "store durable at response" `Quick
          test_store_durable_at_response;
        Alcotest.test_case "birth copy costs" `Quick test_birth_copy_costs;
      ] );
  ]
