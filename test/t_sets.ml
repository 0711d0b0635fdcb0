(** Correctness batteries for every data structure under every persistence
    strategy, plus quiesced crash-recovery checks for the durable ones. *)

open Mirror_dstruct

let check = Support.check

(* every (ds, prim) combination gets the full battery *)
let battery_cases =
  List.concat_map
    (fun ds ->
      List.concat_map
        (fun prim_name ->
          let name = Sets.ds_name ds ^ "/" ^ prim_name in
          let make () =
            let region = Support.fresh_region () in
            Sets.make ds (Support.prim region prim_name)
          in
          (* run domain stress only for one representative prim per ds to
             keep the suite fast; sched stress runs everywhere *)
          if prim_name = "mirror" then Support.battery_with_domains name make
          else Support.battery name make)
        Support.all_prim_names)
    Support.all_ds

(* -- quiesced crash + recovery: contents must be exactly preserved --------- *)

let crash_roundtrip ds prim_name () =
  let region = Support.fresh_region () in
  let (module S) = Sets.make ds (Support.prim region prim_name) in
  let t = S.create ~capacity:64 () in
  let rng = Mirror_workload.Rng.create 5 in
  let model = Hashtbl.create 97 in
  for i = 1 to 500 do
    let k = Mirror_workload.Rng.int rng 48 in
    if Mirror_workload.Rng.bool rng then begin
      if S.insert t k i then Hashtbl.replace model k i
    end
    else if S.remove t k then Hashtbl.remove model k
  done;
  Mirror_nvm.Region.crash region;
  S.recover t;
  Mirror_nvm.Region.mark_recovered region;
  let keys = List.map fst (S.to_list t) in
  let model_keys =
    Hashtbl.fold (fun k _ a -> k :: a) model [] |> List.sort compare
  in
  Alcotest.(check (list int))
    ("contents preserved across crash: " ^ Sets.ds_name ds)
    model_keys keys;
  (* and the structure must remain fully operational *)
  check (S.insert t 1000 1) "insert after recovery";
  check (S.contains t 1000) "contains after recovery";
  check (S.remove t 1000) "remove after recovery"

let crash_cases =
  List.concat_map
    (fun ds ->
      List.map
        (fun prim_name ->
          Alcotest.test_case
            (Printf.sprintf "crash roundtrip %s/%s" (Sets.ds_name ds) prim_name)
            `Quick
            (crash_roundtrip ds prim_name))
        (* the durable general transformations *)
        [ "mirror"; "mirror-nvmm"; "izraelevitz"; "nvtraverse" ])
    Support.all_ds

(* -- repeated crash/recover cycles ------------------------------------------ *)

let test_repeated_crashes () =
  let region = Support.fresh_region () in
  let (module S) = Sets.make Sets.List_ds (Support.prim region "mirror") in
  let t = S.create () in
  for round = 1 to 5 do
    check (S.insert t round round) "insert this round";
    Mirror_nvm.Region.crash region;
    S.recover t;
    Mirror_nvm.Region.mark_recovered region;
    for k = 1 to round do
      check (S.contains t k) (Printf.sprintf "round %d: key %d alive" round k)
    done
  done;
  check (Mirror_nvm.Region.crash_count region = 5) "five crashes simulated"

(* -- value fidelity across recovery ------------------------------------------ *)

let test_values_survive () =
  let region = Support.fresh_region () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "mirror") in
  let t = S.create ~capacity:32 () in
  for k = 0 to 19 do
    ignore (S.insert t k (k * 7))
  done;
  Mirror_nvm.Region.crash region;
  S.recover t;
  Mirror_nvm.Region.mark_recovered region;
  for k = 0 to 19 do
    check (S.find_opt t k = Some (k * 7)) "value intact after recovery"
  done

(* -- NVTraverse persists strictly less than Izraelevitz ----------------------- *)

let test_transform_cost_ordering () =
  let count prim_name =
    let region = Support.fresh_region ~track:false () in
    let (module S) = Sets.make Sets.List_ds (Support.prim region prim_name) in
    let t = S.create () in
    for k = 0 to 63 do
      ignore (S.insert t k k)
    done;
    Mirror_nvm.Stats.reset_all ();
    for k = 0 to 63 do
      ignore (S.contains t k)
    done;
    let st = Mirror_nvm.Stats.total () in
    (st.Mirror_nvm.Stats.flush, st.Mirror_nvm.Stats.fence, st.Mirror_nvm.Stats.nvm_read)
  in
  let fl_iz, fe_iz, _ = count "izraelevitz" in
  let fl_nv, fe_nv, _ = count "nvtraverse" in
  let fl_mi, fe_mi, nr_mi = count "mirror" in
  check (fl_nv < fl_iz) "NVTraverse flushes less than Izraelevitz on reads";
  check (fe_nv < fe_iz) "NVTraverse fences less than Izraelevitz on reads";
  check (fl_mi = 0 && fe_mi = 0) "Mirror persists nothing on reads";
  check (nr_mi = 0) "Mirror reads never touch NVMM"

(* -- Mirror lookups and recovery allocate nothing; a key costs 20 words --- *)

(* Minor words per [contains] and per [find_opt] on a table with every even
   key of [0, range) present, measured after a warm-up pass (which
   registers the domain's reclamation handle).  [find_opt]'s own result,
   a [Some] box of 2 words on each hit, is the caller's and is not
   counted.  What remains is the periodic epoch scan, amortized. *)
let test_lookup_alloc ds () =
  let range = 256 and rounds = 20 in
  let region = Support.fresh_region ~track:false () in
  let (module S) = Sets.make ds (Support.prim region "mirror") in
  let t = S.create ~capacity:range () in
  for k = 0 to (range / 2) - 1 do
    ignore (S.insert t (2 * k) k)
  done;
  let per_call pass =
    ignore (pass ());
    let w0 = Gc.minor_words () in
    let boxes = ref 0 in
    for _ = 1 to rounds do
      boxes := !boxes + pass ()
    done;
    (Gc.minor_words () -. w0 -. float_of_int (2 * !boxes))
    /. float_of_int (rounds * range)
  in
  let contains () =
    for k = 0 to range - 1 do
      ignore (S.contains t k)
    done;
    0
  in
  let find_opt () =
    let hits = ref 0 in
    for k = 0 to range - 1 do
      if S.find_opt t k <> None then incr hits
    done;
    !hits
  in
  let w = per_call contains in
  check (w < 1.0) (Printf.sprintf "contains: %.2f words per call, under 1" w);
  let w = per_call find_opt in
  check (w < 1.0) (Printf.sprintf "find_opt: %.2f words per call, under 1" w)

(* Heap words one Mirror hash-table insert adds: the node (4), its [next]
   variable (10: record 3, slot 5, media 2; a [next] born [Nil] starts on
   the table's shared birth, one born on a successor owns its 4-word
   birth) and the predecessor field's new entry (4).  The predecessor's
   old entry dies — a shared [Nil] birth or a private one — so 18 words
   either way; the birth sharing shows per bucket ("hash create").  The
   first insert registers the domain's reclamation handle and is left
   out. *)
let test_hash_key_words () =
  let n = 1024 in
  let region = Support.fresh_region ~track:false () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "mirror") in
  let t = S.create ~capacity:n () in
  ignore (S.insert t 0 0);
  let w0 = Support.own_words t region in
  for k = 1 to n do
    ignore (S.insert t k k)
  done;
  let w = float_of_int (Support.own_words t region - w0) /. float_of_int n in
  check (w <= 18.0) (Printf.sprintf "%.2f words per key, at most 18" w)

(* Heap words one Mirror hash-table bucket costs: its head variable,
   which starts on the table's one [Nil] birth and so owns no birth entry
   (10 words: record 3, slot 5, media 2), and its array cell.  The table
   record, the shared birth and the reclamation domain are amortized over
   the buckets; the slots' shared place belongs to the region: 11.02
   words measured (13.02 with 7-word slots). *)
let test_hash_bucket_words () =
  let n = 1024 in
  let region = Support.fresh_region ~track:false () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "mirror") in
  let t = S.create ~capacity:n () in
  let w = float_of_int (Support.own_words t region) /. float_of_int n in
  check (w <= 11.1) (Printf.sprintf "%.2f words per bucket, at most 11.1" w)

(* Minor words one Mirror hash-table [recover] allocates per bucket, on a
   table holding as many keys as buckets: the tracing walk is a top-level
   function and each variable's restore reinstalls its persisted entry, so
   nothing is allocated. *)
let test_hash_recover_alloc () =
  let n = 1024 in
  let region = Support.fresh_region ~track:false () in
  let (module S) = Sets.make Sets.Hash_ds (Support.prim region "mirror") in
  let t = S.create ~capacity:n () in
  for k = 0 to n - 1 do
    ignore (S.insert t k k)
  done;
  Mirror_nvm.Region.crash region;
  let w0 = Gc.minor_words () in
  S.recover t;
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  Mirror_nvm.Region.mark_recovered region;
  check (List.length (S.to_list t) = n) "every key recovered";
  check (w < 1.0) (Printf.sprintf "%.2f words per bucket, under 1" w)

let suite =
  [
    ("sets", battery_cases);
    ( "sets-crash",
      crash_cases
      @ [
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "values survive" `Quick test_values_survive;
          Alcotest.test_case "transform cost ordering" `Quick
            test_transform_cost_ordering;
        ] );
    ( "sets-alloc",
      [
        Alcotest.test_case "hash lookups: under 1 word per call" `Quick
          (test_lookup_alloc Sets.Hash_ds);
        Alcotest.test_case "list lookups: under 1 word per call" `Quick
          (test_lookup_alloc Sets.List_ds);
        Alcotest.test_case "hash insert: words per key" `Quick
          test_hash_key_words;
        Alcotest.test_case "hash recover: under 1 word per bucket" `Quick
          test_hash_recover_alloc;
        Alcotest.test_case "hash create: words per bucket" `Quick
          test_hash_bucket_words;
      ] );
  ]
