(** The scaling tier.

    Two jobs.  First, golden pins: the {1,2,4}-thread panel cells are
    fully deterministic (schedsim fibers, fixed seeds), so their CSV
    rows are committed verbatim below and any substrate change that
    moves a single charged count — the hot-path rework in Stats /
    Region / Hooks explicitly must not — fails here with a diff.
    Wall-clock columns are excluded from the pins (the projection drops
    [wall_ms]).  Second, 8/16-thread floors: the scaling panel
    must show the sharded allocator's modeled speedup strictly
    improving 4 -> 8 -> 16, and the per-structure scaling speedups must
    clear the floors committed in bench/budgets.csv.

    Regenerating the pins after an intentional cost-model change:

    {v
    MIRROR_PIN_OUT=/tmp/pins dune exec test/main.exe -- test scaling
    v}

    then paste /tmp/pins over the [pinned] literal. *)

module F = Mirror_harness.Figures
module Panel = Mirror_harness.Panel

let check = Support.check

(* Deterministic projections of the panel rows: the CSV cells minus the
   wall-clock column (and the derived speedup_vs_lock, which joined the
   alloc panel after these pins were taken). *)
let project tag (p : Panel.t) =
  let keep =
    List.filter (fun c -> c <> "wall_ms" && c <> "speedup_vs_lock") p.header
  in
  List.map
    (fun r ->
      String.concat ","
        (tag :: List.map (fun c -> Panel.render (Panel.get p r c)) keep))
    p.rows

let elision_rows ~threads () =
  F.run_elision_panel ~threads ~ops_per_task:10 ~seeds:2 ()
  |> project (Printf.sprintf "elision%d" threads)

let buffered_rows () =
  F.run_buffered_panel ~threads_points:[ 1; 2; 4 ] ~epoch_lens:[ 16 ]
    ~ops_per_task:10 ~seeds:2 ()
  |> project "buffered"

let line_rows () =
  F.run_line_panel ~slots:[ 4 ] ~threads:2 ~ops_per_task:40 ~seeds:2 ()
  |> project "line"

let alloc_rows () =
  F.run_alloc_panel ~threads_points:[ 1; 2; 4 ] ~ops_per_task:40 ~seeds:2 ()
  |> project "alloc"

let current_rows () =
  elision_rows ~threads:1 ()
  @ elision_rows ~threads:2 ()
  @ elision_rows ~threads:4 ()
  @ buffered_rows () @ line_rows () @ alloc_rows ()

(* Golden rows, captured on the pre-rework substrate.  Bit-identical by
   construction: every cell runs under the deterministic cooperative
   scheduler with fixed seeds, and no wall-clock column survives the
   projection. *)
let pinned =
  [
    "elision1,list,false,20,0.3000,0.2500,0.0000,0.0000,0.0000";
    "elision1,list,true,20,0.3000,0.2500,0.0000,0.0000,0.0000";
    "elision1,hash,false,20,0.3000,0.2500,0.0000,0.0000,0.0000";
    "elision1,hash,true,20,0.3000,0.2500,0.0000,0.0000,0.0000";
    "elision1,bst,false,20,0.4500,0.3500,0.0000,0.0000,0.0000";
    "elision1,bst,true,20,0.4500,0.3500,0.0000,0.0000,0.0000";
    "elision1,skiplist,false,20,0.4000,0.3000,0.0000,0.0000,0.0000";
    "elision1,skiplist,true,20,0.4000,0.3000,0.0000,0.0000,0.0000";
    "elision1,queue,false,20,1.9000,1.4000,0.0000,0.0000,0.0000";
    "elision1,queue,true,20,1.9000,1.4000,0.0000,0.0000,0.0000";
    "elision1,stack,false,20,0.9000,0.9000,0.0000,0.0000,0.0000";
    "elision1,stack,true,20,0.9000,0.9000,0.0000,0.0000,0.0000";
    "elision1,pqueue,false,20,2.0000,1.2500,0.0000,0.0000,0.0000";
    "elision1,pqueue,true,20,2.0000,1.2500,0.0000,0.0000,0.0000";
    "elision1,counter,false,20,1.0000,1.0000,0.0000,0.0000,0.0000";
    "elision1,counter,true,20,1.0000,1.0000,0.0000,0.0000,0.0000";
    "elision2,list,false,40,0.4000,0.3250,0.0000,0.0000,0.0250";
    "elision2,list,true,40,0.3500,0.2750,0.0500,0.0500,0.0250";
    "elision2,hash,false,40,0.3500,0.2750,0.0000,0.0000,0.0250";
    "elision2,hash,true,40,0.3250,0.2500,0.0250,0.0250,0.0250";
    "elision2,bst,false,40,0.4500,0.3500,0.0000,0.0000,0.0000";
    "elision2,bst,true,40,0.4500,0.3500,0.0000,0.0000,0.0000";
    "elision2,skiplist,false,40,0.5000,0.3500,0.0000,0.0000,0.0000";
    "elision2,skiplist,true,40,0.5000,0.3500,0.0000,0.0000,0.0000";
    "elision2,queue,false,40,2.1750,1.6750,0.0000,0.0000,0.1750";
    "elision2,queue,true,40,1.9000,1.4000,0.2750,0.2750,0.1750";
    "elision2,stack,false,40,1.5000,1.5000,0.0000,0.0000,0.2250";
    "elision2,stack,true,40,0.9500,0.9500,0.5500,0.5500,0.2250";
    "elision2,pqueue,false,40,3.0000,2.0500,0.0000,0.0000,0.0750";
    "elision2,pqueue,true,40,2.8500,1.9000,0.1500,0.1500,0.0750";
    "elision2,counter,false,40,1.6000,1.6000,0.0000,0.0000,0.3000";
    "elision2,counter,true,40,1.0000,1.0000,0.6000,0.6000,0.3000";
    "elision4,list,false,80,0.2250,0.1750,0.0000,0.0000,0.0125";
    "elision4,list,true,80,0.1875,0.1375,0.0375,0.0375,0.0125";
    "elision4,hash,false,80,0.3000,0.2250,0.0000,0.0000,0.0375";
    "elision4,hash,true,80,0.2000,0.1250,0.1000,0.1000,0.0375";
    "elision4,bst,false,80,0.3625,0.2625,0.0000,0.0000,0.0500";
    "elision4,bst,true,80,0.2875,0.1875,0.0750,0.0750,0.0500";
    "elision4,skiplist,false,80,0.3250,0.2000,0.0000,0.0000,0.0125";
    "elision4,skiplist,true,80,0.3000,0.1750,0.0250,0.0250,0.0125";
    "elision4,queue,false,80,2.8875,2.3875,0.0000,0.0000,0.5500";
    "elision4,queue,true,80,1.9000,1.4000,0.9875,0.9875,0.5500";
    "elision4,stack,false,80,2.1500,2.1500,0.0000,0.0000,0.6875";
    "elision4,stack,true,80,0.9500,0.9500,1.2000,1.2000,0.6875";
    "elision4,pqueue,false,80,2.1375,1.5250,0.0000,0.0000,0.1000";
    "elision4,pqueue,true,80,1.9000,1.2875,0.2375,0.2375,0.1000";
    "elision4,counter,false,80,2.3375,2.3375,0.0000,0.0000,0.6625";
    "elision4,counter,true,80,1.0000,1.0000,1.3375,1.3375,0.6625";
    "buffered,list,1,16,20,0.2500,0.1000,2.50,0.4500,0.1000,0.1000,0.2500";
    "buffered,list,2,16,40,0.3250,0.0500,6.50,0.3500,0.0500,0.0500,0.3000";
    "buffered,list,4,16,80,0.1750,0.0250,7.00,0.2000,0.0250,0.0250,0.1750";
    "buffered,hash,1,16,20,0.2500,0.1000,2.50,0.6000,0.1000,0.1000,0.2500";
    "buffered,hash,2,16,40,0.2750,0.0500,5.50,0.4250,0.0500,0.0500,0.3000";
    "buffered,hash,4,16,80,0.2250,0.0375,6.00,0.2250,0.0375,0.0375,0.2125";
    "buffered,queue,1,16,20,1.4000,0.1000,14.00,1.2000,0.1000,0.1000,1.4000";
    "buffered,queue,2,16,40,1.6750,0.1500,11.17,1.2500,0.1500,0.1500,1.6500";
    "buffered,queue,4,16,80,2.3875,0.1375,17.36,1.3125,0.1375,0.1375,2.1000";
    "buffered,stack,1,16,20,0.9000,0.1000,9.00,0.1000,0.1000,0.1000,0.9000";
    "buffered,stack,2,16,40,1.5000,0.1000,15.00,0.1000,0.1000,0.1000,1.2750";
    "buffered,stack,4,16,80,2.1500,0.1250,17.20,0.1250,0.1250,0.1250,1.8250";
    "line,list,4,160,1.3687,0.6937,1.0250,2.0625,1.51";
    "line,bst,4,160,1.7000,1.4312,1.0312,3.1313,1.84";
    "line,skiplist,4,160,2.6812,1.2437,1.9625,3.9250,1.46";
    "alloc,lock,1,80,4.923,7,0,0,0.5000,0.4125";
    "alloc,sharded,1,80,4.923,7,0,0,0.5000,0.4125";
    "alloc,lock,2,160,3.094,19,0,0,0.8250,0.7250";
    "alloc,sharded,2,160,7.689,15,58,11,0.6375,0.5500";
    "alloc,lock,4,320,3.196,34,0,0,0.8063,0.7156";
    "alloc,sharded,4,320,15.320,32,118,18,0.6406,0.5531";
  ]

let test_pins () =
  let rows = current_rows () in
  match Sys.getenv_opt "MIRROR_PIN_OUT" with
  | Some path ->
      let oc = open_out path in
      List.iter (fun r -> output_string oc (r ^ "\n")) rows;
      close_out oc;
      Printf.printf "wrote %d pin rows to %s\n%!" (List.length rows) path
  | None ->
      check
        (List.length rows = List.length pinned)
        (Printf.sprintf "pin row count: got %d, pinned %d" (List.length rows)
           (List.length pinned));
      List.iteri
        (fun i (got, want) ->
          check (String.equal got want)
            (Printf.sprintf "pin row %d: got %s, pinned %s" i got want))
        (List.combine rows pinned)

(* -- 8/16-thread floors ---------------------------------------------------- *)

(* The scaling panel's modeled speedups at the new axis points.  The
   low-contention structures must keep improving past 4 threads and
   clear the same floors bench/budgets.csv commits; the panel itself is
   deterministic, so these are exact, not flaky. *)
(* The cell [col] of the one panel row whose cells match [keys]. *)
let cell (p : Panel.t) keys col =
  match Panel.select p keys with
  | [ r ] -> Panel.to_float (Panel.get p r col)
  | _ ->
      Alcotest.failf "no single %s row at %s" p.name
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) keys))

let dump_pins (p : Panel.t) =
  match Sys.getenv_opt "MIRROR_PIN_OUT" with
  | Some path -> Panel.write_csv p (path ^ "." ^ p.name)
  | None -> ()

let test_scaling_floors () =
  let p = F.run_scaling_panel () in
  dump_pins p;
  let sp ds th =
    cell p [ ("ds", ds); ("threads", string_of_int th) ] "speedup"
  in
  List.iter
    (fun ds ->
      check (sp ds 8 > sp ds 4) (ds ^ ": speedup improves 4->8");
      check (sp ds 16 > sp ds 8) (ds ^ ": speedup improves 8->16"))
    [ "list"; "hash" ];
  (* the same floors bench/budgets.csv commits (measured 5.5/8.1 for the
     list and 6.7/12.7 for the hash at 8/16 threads; see CHANGES.md) *)
  check (sp "list" 8 >= 4.0) "list floor @8";
  check (sp "list" 16 >= 6.0) "list floor @16";
  check (sp "hash" 8 >= 5.0) "hash floor @8";
  check (sp "hash" 16 >= 9.0) "hash floor @16"

(* The sharded allocator's modeled speedup over the global-lock baseline
   must improve strictly 4 -> 8 -> 16 and clear the committed floors. *)
let test_alloc_floors () =
  let p = F.run_alloc_panel () in
  dump_pins p;
  let speedup th =
    cell p
      [ ("policy", "sharded"); ("threads", string_of_int th) ]
      "speedup_vs_lock"
  in
  check (speedup 8 > speedup 4) "alloc speedup improves 4->8";
  check (speedup 16 > speedup 8) "alloc speedup improves 8->16";
  check (speedup 8 >= 2.5) "alloc >= 2.5x @8";
  check (speedup 16 >= 3.0) "alloc >= 3.0x @16"

let suite =
  [
    ( "scaling",
      [
        Alcotest.test_case "pins 1/2/4" `Slow test_pins;
        Alcotest.test_case "scaling floors 8/16" `Slow test_scaling_floors;
        Alcotest.test_case "alloc floors 8/16" `Slow test_alloc_floors;
      ] );
  ]
