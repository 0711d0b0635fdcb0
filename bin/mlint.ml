(* mlint: the static persistency-discipline gate.

     dune exec bin/mlint.exe -- --root . --baseline mlint_baseline.csv \
       --csv _artifacts/mlint.csv

   Walks every .ml under lib/, bin/ and examples/ through the
   Mirror_slint.Slint rules (L1-L7 errors, W2 warning; see --list-rules)
   and exits non-zero on any error-tier finding that is neither
   pragma-suppressed in the source nor covered by the committed baseline.
   Policy knobs:

   - the baseline is (file, rule, count) rows; findings beyond a row's
     count are "new" and fail the gate.  Baseline rows under lib/dstruct
     are themselves an error: the paper's structures must carry reasoned
     [@mlint.allow] pragmas, not anonymous debt;
   - --strict (the nightly tier) also fails on warning-tier findings and
     on stale baseline rows (count higher than what the tree produces);
   - --csv writes per-rule counters (active / suppressed / baselined /
     new) for CI to archive next to psan_lint.csv. *)

module S = Mirror_slint.Slint

let audited_dirs = [ "lib"; "bin"; "examples" ]

let rec ml_files root rel =
  let dir = Filename.concat root rel in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel' = if rel = "" then name else rel ^ "/" ^ name in
         if Sys.is_directory (Filename.concat root rel') then
           if name = "_build" || String.length name > 0 && name.[0] = '.' then
             []
           else ml_files root rel'
         else if Filename.check_suffix name ".ml" then [ rel' ]
         else [])

(* -- baseline --------------------------------------------------------------- *)

let load_baseline path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         match String.split_on_char ',' line with
         | [ file; rule; count ]
           when file <> "file" && file <> "" && line.[0] <> '#' -> (
             match (S.rule_of_id rule, int_of_string_opt count) with
             | Some r, Some n -> rows := ((file, r), n) :: !rows
             | _ ->
                 Printf.eprintf "mlint: bad baseline row: %s\n" line;
                 exit 2)
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !rows
  end

(* -- reporting -------------------------------------------------------------- *)

let print_finding ?(label = "error") (f : S.finding) =
  Printf.printf "%s:%d:%d: %s [%s] %s\n" f.S.f_file f.S.f_line f.S.f_col label
    (S.rule_id f.S.f_rule) f.S.f_msg;
  Printf.printf "    offending: %s\n    %s\n" f.S.f_expr (S.suppression_hint f)

let main root baseline_path csv strict list_rules =
  if list_rules then begin
    List.iter print_endline (S.list_rules ());
    0
  end
  else begin
    let t0 = Mirror_clock.now_ns () in
    let files =
      List.concat_map
        (fun d ->
          if Sys.file_exists (Filename.concat root d) then ml_files root d
          else [])
        audited_dirs
    in
    let findings =
      List.concat_map (fun rel -> S.analyze_path ~root ~rel) files
    in
    let baseline = load_baseline baseline_path in
    (* split the error tier against the baseline, oldest lines first *)
    let counts = Hashtbl.create 64 in
    let classify f =
      let key = (f.S.f_file, f.S.f_rule) in
      let seen =
        match Hashtbl.find_opt counts key with Some n -> n | None -> 0
      in
      Hashtbl.replace counts key (seen + 1);
      let allowed =
        match List.assoc_opt key baseline with Some n -> n | None -> 0
      in
      if seen < allowed then `Baselined else `New
    in
    let suppressed, live =
      List.partition (fun f -> f.S.f_suppressed <> None) findings
    in
    let warnings, errors =
      List.partition (fun f -> S.tier f.S.f_rule = S.Warning) live
    in
    let baselined, fresh =
      List.partition (fun f -> classify f = `Baselined) errors
    in
    List.iter (print_finding ~label:"error") fresh;
    List.iter (print_finding ~label:"warning") warnings;
    (* stale baseline rows: debt that has been paid off should be deleted *)
    let stale =
      List.filter
        (fun ((file, rule), allowed) ->
          let have =
            match Hashtbl.find_opt counts (file, rule) with
            | Some n -> n
            | None -> 0
          in
          have < allowed)
        baseline
    in
    List.iter
      (fun ((file, rule), allowed) ->
        Printf.printf
          "%s: stale baseline row: %s allows %d but the tree produces fewer \
           -- shrink or delete it\n"
          file (S.rule_id rule) allowed)
      stale;
    (* baseline debt may not hide in the paper's structures *)
    let dstruct_debt =
      List.filter (fun ((file, _), _) -> String.length file >= 12
                                         && String.sub file 0 12 = "lib/dstruct/")
        baseline
    in
    List.iter
      (fun ((file, rule), n) ->
        Printf.printf
          "%s: baseline entry (%s x%d) not allowed under lib/dstruct: use a \
           reasoned [@mlint.allow] pragma instead\n"
          file (S.rule_id rule) n)
      dstruct_debt;
    (* per-rule counters *)
    let per_rule r =
      let count l = List.length (List.filter (fun f -> f.S.f_rule = r) l) in
      (count fresh, count suppressed, count baselined, count warnings)
    in
    (match csv with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc "rule,tier,new,suppressed,baselined,warnings\n";
        List.iter
          (fun r ->
            let n, s, b, w = per_rule r in
            Printf.fprintf oc "%s,%s,%d,%d,%d,%d\n" (S.rule_id r)
              (S.tier_name (S.tier r)) n s b w)
          S.all_rules;
        close_out oc);
    let dt = Mirror_clock.seconds_since t0 *. 1000. in
    Printf.printf
      "mlint: %d files, %d new error(s), %d baselined, %d suppressed by \
       pragma, %d warning(s) in %.0f ms\n"
      (List.length files) (List.length fresh) (List.length baselined)
      (List.length suppressed) (List.length warnings) dt;
    let failed =
      fresh <> [] || dstruct_debt <> []
      || (strict && (warnings <> [] || stale <> []))
    in
    if failed then 1 else 0
  end

open Cmdliner

let root =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:"Repository root; lib/, bin/ and examples/ beneath it are walked.")

let baseline =
  Arg.(
    value
    & opt string "mlint_baseline.csv"
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Committed (file,rule,count) rows of accepted findings; anything \
           beyond them fails the gate.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Write per-rule counters (new/suppressed/baselined/warnings).")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Warnings-as-errors (W2 included) and fail on stale baseline rows \
           -- the nightly tier.")

let list_rules =
  Arg.(
    value & flag
    & info [ "list-rules" ]
        ~doc:"Print the rule vocabulary (id, tier, one-line doc) and exit.")

let cmd =
  Cmd.v
    (Cmd.info "mlint"
       ~doc:
         "Static persistency-discipline analyzer: enforces the Mirror \
          source conventions (substrate encapsulation, traversal/critical \
          phase split, decision-path persists, CAS handling, replay \
          determinism, recovery honesty) over every code path at compile \
          time.")
    Term.(const main $ root $ baseline $ csv $ strict $ list_rules)

let () = exit (Cmd.eval' cmd)
