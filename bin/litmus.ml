(* litmus: run the persistency litmus suite to exhaustion under sleep-set
   DPOR.

     dune exec bin/litmus.exe --                  # default tier
     dune exec bin/litmus.exe -- --deep           # plus the 3-thread sweep
     dune exec bin/litmus.exe -- --list           # names + expectations
     dune exec bin/litmus.exe -- --only sb-mirror
     dune exec bin/litmus.exe -- --csv out.csv    # per-test table for CI

   Exit codes: 0 all tests ok (negative controls included: a control that
   fails to reach its forbidden outcome is a failure), 1 some test failed,
   2 usage error (unknown test name). *)

module L = Mirror_litmus.Litmus
module Suite = Mirror_litmus.Suite

let list_tests ts =
  List.iter
    (fun (t : L.t) ->
      Format.printf "%-28s %s%s%s@." t.L.name t.L.descr
        (if t.L.expect_forbidden then " [negative control]" else "")
        (if t.L.deep then " [deep]" else ""))
    ts

let csv_out : out_channel option ref = ref None

let csv_line (r : L.result) =
  match !csv_out with
  | None -> ()
  | Some oc ->
      Printf.fprintf oc "%s,%d,%d,%b,%d,%b,%s\n" r.L.r_name r.L.r_schedules
        r.L.r_pruned r.L.r_exhausted r.L.r_points r.L.r_ok
        (String.concat " " (List.map L.obs_to_string r.L.r_forbidden_hits))

let () =
  let deep = ref false and list = ref false in
  let only = ref [] and csv = ref "" in
  let limit = ref 50_000 in
  let usage = "litmus [--deep] [--list] [--only NAME]* [--csv FILE]" in
  Arg.parse
    [
      ("--deep", Arg.Set deep, " include the 3-thread sweep tier");
      ("--list", Arg.Set list, " list tests and exit");
      ("--only", Arg.String (fun s -> only := s :: !only), "NAME run one test (repeatable)");
      ("--csv", Arg.Set_string csv, "FILE write a per-test CSV table");
      ("--limit", Arg.Set_int limit, "N cap DPOR executions per test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let tests =
    if !only <> [] then
      List.rev_map
        (fun name ->
          match Suite.find name with
          | Some t -> t
          | None ->
              Format.eprintf "unknown litmus test %S; valid tests:@." name;
              List.iter (Format.eprintf "  %s@.") (Suite.names (Suite.all @ Suite.deep));
              exit 2)
        !only
    else Suite.all @ if !deep then Suite.deep else []
  in
  if !list then begin
    list_tests tests;
    exit 0
  end;
  if !csv <> "" then begin
    let oc = open_out !csv in
    output_string oc "test,schedules,pruned,exhausted,crash_replays,ok,forbidden_hits\n";
    csv_out := Some oc
  end;
  let t0 = Mirror_clock.now_ns () in
  let failed = ref 0 in
  List.iter
    (fun t ->
      let r = L.run ~limit:!limit t in
      Format.printf "%a@." L.pp_result r;
      csv_line r;
      if not r.L.r_ok then incr failed)
    tests;
  (match !csv_out with Some oc -> close_out oc | None -> ());
  Format.printf "%d/%d litmus tests ok (%.1fs)@."
    (List.length tests - !failed)
    (List.length tests)
    (Mirror_clock.seconds_since t0);
  exit (if !failed > 0 then 1 else 0)
