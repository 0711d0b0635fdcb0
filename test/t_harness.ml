(** Smoke and consistency tests of the benchmark harness itself. *)

open Mirror_harness

let check = Support.check

let test_runner_smoke () =
  let region = Support.fresh_region ~track:false () in
  let (module S) =
    Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
      (Support.prim region "mirror")
  in
  let p =
    Runner.run ~seconds:0.05 ~threads:2 ~range:32
      ~mix:Mirror_workload.Workload.read80
      (module S)
  in
  check (p.Runner.ops > 0) "ops executed";
  check (p.Runner.mops > 0.) "throughput positive";
  check (p.Runner.modeled_mops > 0.) "model positive";
  check (p.Runner.algo = "list/mirror") "algo name"

let test_modeled_ordering () =
  (* the cost model must reproduce the paper's headline ordering on a
     read-heavy list workload: Mirror > NVTraverse > Izraelevitz *)
  let point prim_name =
    let region = Support.fresh_region ~track:false () in
    let (module S) =
      Mirror_dstruct.Sets.make Mirror_dstruct.Sets.List_ds
        (Support.prim region prim_name)
    in
    Runner.run ~seconds:0.05 ~threads:2 ~range:128
      ~mix:Mirror_workload.Workload.read80
      (module S)
  in
  let m = point "mirror" in
  let n = point "nvtraverse" in
  let i = point "izraelevitz" in
  check
    (m.Runner.modeled_mops > n.Runner.modeled_mops)
    "mirror beats nvtraverse (model)";
  check
    (n.Runner.modeled_mops > i.Runner.modeled_mops)
    "nvtraverse beats izraelevitz (model)"

let test_make_set_combinations () =
  let region = Support.fresh_region ~track:false () in
  List.iter
    (fun ds ->
      List.iter
        (fun algo ->
          match Figures.make_set ~region ds algo with
          | Some (module S) ->
              let t = S.create ~capacity:16 () in
              check (S.insert t 1 1) "fresh set usable"
          | None -> (
              (* only set-only/hash-only designs may be missing *)
              match algo with
              | Figures.Soft | Figures.Link_free | Figures.Cmap -> ()
              | _ -> Alcotest.fail "general transformation missing"))
        [
          Figures.Orig_dram;
          Figures.Orig_nvmm;
          Figures.Izraelevitz;
          Figures.Nvtraverse;
          Figures.Mirror;
          Figures.Mirror_nvmm;
          Figures.Soft;
          Figures.Link_free;
          Figures.Cmap;
        ])
    Support.all_ds

let test_panel_inventory () =
  let cfg = Figures.quick in
  let panels = Figures.all_panels cfg in
  check (List.length panels = 15 + 12) "15 figure-6 + 12 figure-7 panels";
  List.iter
    (fun p ->
      check (p.Figures.algos <> []) "panel has algorithms";
      check (String.length p.Figures.id >= 2) "panel id")
    panels;
  (* figure 7 panels must use the NVMM placement of Mirror *)
  List.iter
    (fun p ->
      if String.get p.Figures.id 0 = '7' then begin
        check
          (not (List.mem Figures.Mirror p.Figures.algos))
          "no DRAM-placed mirror in figure 7";
        check
          (List.mem Figures.Mirror_nvmm p.Figures.algos)
          "mirror-nvmm present in figure 7"
      end)
    panels

let test_run_tiny_panel () =
  let cfg =
    {
      Figures.quick with
      Figures.seconds = 0.03;
      threads_axis = [ 1; 2 ];
      list_range = 32;
    }
  in
  let panel = List.hd (Figures.figure6 cfg) in
  let rows = Figures.run_panel cfg panel in
  check (List.length rows = 2 * List.length panel.Figures.algos)
    "one row per (x, algo)";
  List.iter
    (fun r -> check (r.Figures.point.Runner.ops > 0) "row has ops")
    rows

(* -- Panel: rendering, budget grammar, checker ------------------------------- *)

let mini =
  Panel.make "mini" [ "ds"; "n"; "on"; "fl"; "ratio" ]
    Panel.
      [
        [ Str "list"; Int 3; Bool true; Float (1.0, 4); Float (2.5, 2) ];
        [
          Str "hash"; Int 10; Bool false; Float (0.50004, 4); Float (0.125, 3);
        ];
      ]

let test_panel_csv () =
  let rows = List.map Panel.csv_row mini.Panel.rows in
  check
    (rows = [ "list,3,true,1.0000,2.50"; "hash,10,false,0.5000,0.125" ])
    (String.concat " | " rows);
  let file = Filename.temp_file "panel" ".csv" in
  Panel.write_csv mini file;
  let lines = In_channel.with_open_text file In_channel.input_all in
  Sys.remove file;
  check
    (lines
    = "ds,n,on,fl,ratio\nlist,3,true,1.0000,2.50\n\
       hash,10,false,0.5000,0.125\n")
    "write_csv: header then rows";
  check
    (match Panel.get mini (List.hd mini.Panel.rows) "nope" with
    | _ -> false
    | exception Invalid_argument msg ->
        Support.contains msg "nope" && Support.contains msg "mini")
    "get names the missing column and the panel"

let budgets text = Panel.parse_budgets ~file:"b.csv" text

let verdict text =
  match Panel.check (budgets text) [ mini ] with
  | [ v ] -> v
  | _ -> Alcotest.fail "one verdict per budget row"

let fails_at loc f =
  match f () with
  | _ -> false
  | exception Failure msg -> Support.contains msg loc

let test_budget_boundaries () =
  let holds text = (verdict text).Panel.failed = 0 in
  check (holds "mini,ds=list,fl,<=,1.0") "<= holds at the exact boundary";
  check (holds "mini,ds=list,fl,>=,1.0") ">= holds at the exact boundary";
  check (not (holds "mini,ds=list,fl,<=,0.99")) "<= fails past it";
  check (not (holds "mini,ds=list,fl,>=,1.01")) ">= fails past it";
  (* the unrounded value is compared: 0.50004 prints as 0.5000 *)
  check (not (holds "mini,ds=hash,fl,<=,0.5")) "unrounded value compared";
  (* a row applies to every row it matches: the worst one decides *)
  let v = verdict "mini,on=true;ds=list,n,<=,3" in
  check (v.Panel.matched = 1 && v.Panel.failed = 0) "keys conjoin";
  let wide =
    Panel.make "mini" [ "k"; "v" ]
      Panel.[ [ Str "a"; Int 1 ]; [ Str "a"; Int 5 ] ]
  in
  match Panel.check (budgets "mini,k=a,v,<=,4") [ wide ] with
  | [ v ] ->
      check (v.Panel.matched = 2 && v.Panel.failed = 1) "worst point fails";
      check (v.Panel.worst = Panel.Int 5) "worst cell reported"
  | _ -> Alcotest.fail "one verdict"

let test_budget_malformed () =
  List.iter
    (fun (text, loc) ->
      check (fails_at loc (fun () -> budgets text)) ("malformed: " ^ text))
    [
      ("# comment\n\nmini,ds=list,fl,<,1", "b.csv:3:");
      ("mini,ds=list,fl,<=", "b.csv:1:");
      ("mini,dslist,fl,<=,1", "b.csv:1:");
      ("mini,,fl,<=,1", "b.csv:1:");
      ("mini,ds=list,fl,<=,x", "b.csv:1:");
      ("recovery,domains2,1.5,0", "b.csv:1:");
    ];
  check (List.length (budgets "# only\n\n  \n") = 0) "comments and blanks skip"

let test_budget_unmatched () =
  List.iter
    (fun (text, what) ->
      check
        (fails_at "b.csv:2:" (fun () -> verdict ("# c\n" ^ text)))
        ("fails with its line: " ^ what))
    [
      ("mini,ds=tree,fl,<=,1", "matches no row");
      ("nope,ds=list,fl,<=,1", "unknown panel");
      ("mini,shape=list,fl,<=,1", "unknown key column");
      ("mini,ds=list,flushes,<=,1", "unknown metric column");
      ("mini,n=3,ds,<=,1", "non-numeric metric");
    ]

(* The seven panel schemas: the CSV header is the contract with every
   consumer of the bench CSVs, so it is pinned verbatim. *)
let panel_headers () =
  [
    Figures.figures_panel [];
    Figures.run_elision_panel ~threads:1 ~ops_per_task:1 ~seeds:1 ();
    Figures.run_buffered_panel ~threads_points:[ 1 ] ~epoch_lens:[ 1 ]
      ~ops_per_task:1 ~seeds:1 ();
    Figures.run_line_panel ~slots:[ 1 ] ~ops_per_task:1 ~seeds:1 ();
    Figures.run_recovery_panel ~live_points:[ 64 ] ~domain_points:[ 1 ] ();
    Figures.run_alloc_panel ~threads_points:[ 1 ] ~ops_per_task:1 ~seeds:1 ();
    Figures.run_scaling_panel ~structures:[ "counter" ] ~threads_points:[ 1 ]
      ~ops_per_task:1 ~seeds:1 ();
  ]
  |> List.map (fun p -> (p.Panel.name, String.concat "," p.Panel.header))

let pinned_headers =
  [
    ( "figures",
      "panel,ds,algo,x,threads,mops,modeled_mops,nvm_reads_per_op,nvm_writes_per_op,flushes_per_op,fences_per_op,flushes_elided_per_op,fences_elided_per_op,epoch_advances_per_op,fences_batched_per_op,writes_deferred_per_op"
    );
    ( "elision",
      "ds,elide,ops,flushes_per_op,fences_per_op,flushes_elided_per_op,fences_elided_per_op,helps_per_op"
    );
    ( "buffered",
      "ds,threads,epoch_len,ops,strict_fences_per_op,fences_per_op,fence_reduction,flushes_per_op,epoch_advances_per_op,fences_batched_per_op,writes_deferred_per_op"
    );
    ( "line",
      "ds,slots_per_line,ops,flushes_per_op,coalesced_per_op,fences_per_op,baseline_flushes_per_op,flush_reduction"
    );
    ( "recovery",
      "shape,live,garbage,domains,wall_ms,model_ms,marked,swept,steals,speedup"
    );
    ( "alloc",
      "policy,threads,ops,modeled_mops,wall_ms,carves,remote_frees,drains,flushes_per_op,fences_per_op,speedup_vs_lock"
    );
    ("scaling", "ds,threads,ops,modeled_mops,speedup,remote_per_op,wall_ms");
  ]

let test_panel_headers () =
  List.iter2
    (fun (name, got) (pname, want) ->
      check (name = pname) ("panel order: " ^ name);
      check (got = want) (Printf.sprintf "%s header: %s" name got))
    (panel_headers ()) pinned_headers

(* The committed budget file parses, and every row names one of the seven
   panels and columns of its pinned header.  [dune runtest] runs from
   test/ with the declared dep beside the binary, [dune exec] from the
   workspace root. *)
let test_committed_budgets () =
  let file =
    List.find Sys.file_exists
      [
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bench/budgets.csv";
        "bench/budgets.csv";
      ]
  in
  let bs =
    Panel.parse_budgets ~file (In_channel.with_open_text file In_channel.input_all)
  in
  check (List.length bs = 35) (Printf.sprintf "%d budget rows" (List.length bs));
  List.iter
    (fun b ->
      match List.assoc_opt b.Panel.panel pinned_headers with
      | None -> Alcotest.failf "%s: unknown panel %s" b.Panel.loc b.Panel.panel
      | Some header ->
          let cols = String.split_on_char ',' header in
          List.iter
            (fun c ->
              if not (List.mem c cols) then
                Alcotest.failf "%s: %s has no column %s" b.Panel.loc
                  b.Panel.panel c)
            (b.Panel.metric :: List.map fst b.Panel.keys))
    bs

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "panel csv precision" `Quick test_panel_csv;
        Alcotest.test_case "budget boundaries" `Quick test_budget_boundaries;
        Alcotest.test_case "budget malformed rows" `Quick test_budget_malformed;
        Alcotest.test_case "budget unmatched rows" `Quick test_budget_unmatched;
        Alcotest.test_case "panel headers pinned" `Quick test_panel_headers;
        Alcotest.test_case "committed budgets parse" `Quick
          test_committed_budgets;
        Alcotest.test_case "runner smoke" `Quick test_runner_smoke;
        Alcotest.test_case "modeled ordering" `Quick test_modeled_ordering;
        Alcotest.test_case "make_set combinations" `Quick
          test_make_set_combinations;
        Alcotest.test_case "panel inventory" `Quick test_panel_inventory;
        Alcotest.test_case "run tiny panel" `Slow test_run_tiny_panel;
      ] );
  ]
