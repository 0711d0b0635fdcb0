(* mcheck: crash-point model checker for durable linearizability.

     dune exec bin/mcheck.exe -- --structure skiplist --prim mirror --seeds 3
     dune exec bin/mcheck.exe -- --structure list --prim orig-nvmm --expect-violation
     dune exec bin/mcheck.exe -- --structure list --prim orig-nvmm --replay "1:4:0,2,1"
     dune exec bin/mcheck.exe -- --structure hash --prim mirror --psan
     dune exec bin/mcheck.exe -- --structure list --prim mirror --crash-in-recovery
     dune exec bin/mcheck.exe -- --crash-in-recovery --trust-partial-recovery --expect-violation

   Exit status: 0 when the verdict matches expectations (no violation, or a
   violation under --expect-violation), 1 otherwise — so CI can wire the
   negative control in as a must-fail job.  Unknown --structure / --prim
   names exit 2 with the valid set printed; --list-structures prints both
   vocabularies and exits 0. *)

module M = Mirror_mcheck.Mcheck

(* the set structures, plus the queue (its own scenario: set arithmetic
   over unique values instead of the Wing–Gong set checker) *)
let structure_names =
  List.map Mirror_dstruct.Sets.ds_name Mirror_dstruct.Sets.all_ds @ [ "queue" ]

let slots_vocab = Mirror_harness.Figures.line_slots

let list_vocab () =
  Format.printf "structures: %s@." (String.concat " " structure_names);
  Format.printf "prims: %s@." (String.concat " " Mirror_prim.Prim.all_names);
  Format.printf "slots-per-line: %s@."
    (String.concat " " (List.map string_of_int slots_vocab));
  Format.printf "pickers: %s@." (String.concat " " M.pickers)

let main list_structures structure prim picker seed seeds budget threads ops
    range updates elide epoch_len slots_per_line strict_validate deep psan
    expect_violation replay crash_in_recovery rec_budget trust_partial
    replay_recovery =
  if list_structures then begin
    list_vocab ();
    exit 0
  end;
  if not (List.mem structure structure_names) then begin
    Format.eprintf "unknown structure %S; valid: %s@." structure
      (String.concat " " structure_names);
    exit 2
  end;
  if not (List.mem prim Mirror_prim.Prim.all_names) then begin
    Format.eprintf "unknown prim %S; valid: %s@." prim
      (String.concat " " Mirror_prim.Prim.all_names);
    exit 2
  end;
  if not (List.mem slots_per_line slots_vocab) then begin
    Format.eprintf "unknown slots-per-line %d; valid: %s@." slots_per_line
      (String.concat " " (List.map string_of_int slots_vocab));
    exit 2
  end;
  if not (List.mem picker M.pickers) then begin
    Format.eprintf "unknown picker %S; valid: %s@." picker
      (String.concat " " M.pickers);
    exit 2
  end;
  let scenario =
    match Mirror_dstruct.Sets.ds_of_name structure with
    | Some ds ->
        M.set_scenario ~ds ~prim ~elide ~epoch_len ~slots_per_line
          ~strict_validate ~threads ~ops_per_task:ops ~range ~updates ()
    | None ->
        M.queue_scenario ~prim ~epoch_len ~slots_per_line ~strict_validate
          ~threads ~ops_per_task:ops ()
  in
  let found = ref false in
  (* the one print-and-collect path: a verdict line, then its violations,
     which count toward the exit status *)
  let emit line violations =
    Format.printf "%s@." line;
    List.iter
      (fun v -> Format.printf "  %a@." Mirror_harness.Durable.pp_violation v)
      violations;
    if violations <> [] then found := true
  in
  let verdict vs = if vs = [] then "no violation" else "VIOLATION" in
  (* sanitizer pass before any crash enumeration: one crash-free reference
     run per seed, with discipline violations flagged online *)
  if psan && replay = None then
    for s = seed to seed + seeds - 1 do
      let r = M.psan_pass ~buffered:(prim = "buffered") scenario ~seed:s in
      Format.printf "psan %s/%s seed=%d: %a@." structure prim s
        Mirror_psan.Psan.pp_report r;
      if not (Mirror_psan.Psan.clean r) then found := true
    done;
  (match (replay, replay_recovery) with
  | Some s, _ ->
      let seed, picks, crash_at = M.cx_of_string s in
      let vs = M.replay scenario ~seed ~picks ~crash_at in
      emit
        (Printf.sprintf "replay %s/%s seed=%d crash=%d (%d picks): %s"
           structure prim seed crash_at (Array.length picks) (verdict vs))
        vs
  | None, Some s ->
      let seed, picks, crash_at, rec_at = M.rcx_of_string s in
      let vs, note =
        M.replay_recovery ~trust_partial scenario ~seed ~picks ~crash_at
          ~rec_at
      in
      emit
        (Printf.sprintf
           "replay-recovery %s/%s seed=%d crash=%d rec=%d (%d picks): %s%s"
           structure prim seed crash_at rec_at (Array.length picks)
           (verdict vs)
           (if note = "" then "" else " [" ^ note ^ "]"))
        vs
  | None, None ->
      let cx_violations = function
        | None -> []
        | Some cx -> cx.M.cx_violations
      in
      for s = seed to seed + seeds - 1 do
        let report, vs =
          if crash_in_recovery then
            let r =
              M.check_recovery ~deep ~budget ~rec_budget ~trust_partial
                scenario ~seed:s
            in
            ( Format.asprintf "%a" M.pp_recovery_report r,
              match r.M.rr_counterexample with
              | None -> []
              | Some rcx -> rcx.M.rcx_violations )
          else if picker = "dpor" then
            let r = M.check_dpor ~deep ~budget scenario ~seed:s in
            ( Format.asprintf "%a" M.pp_dpor_report r,
              cx_violations r.M.dr_counterexample )
          else
            let r = M.check ~deep ~budget scenario ~seed:s in
            ( Format.asprintf "%a" M.pp_report r,
              cx_violations r.M.counterexample )
        in
        emit (Printf.sprintf "%s/%s seed=%d: %s" structure prim s report) vs
      done);
  if !found = expect_violation then 0
  else begin
    if expect_violation then
      Format.printf "expected a violation but every crash point validated@.";
    1
  end

open Cmdliner

let list_structures =
  Arg.(
    value & flag
    & info [ "list-structures" ]
        ~doc:"Print the valid structure and prim names and exit.")

let structure =
  Arg.(
    value
    & opt string "list"
    & info [ "structure" ] ~docv:"DS"
        ~doc:"Data structure: list, hash, bst, skiplist or queue.")

let prim =
  Arg.(
    value
    & opt string "mirror"
    & info [ "prim"; "discipline" ] ~docv:"P"
        ~doc:
          "Persistence strategy / discipline (see mirror_cli list); \
           \"buffered\" switches validation to buffered durable \
           linearizability against the region's durable cut.")

let picker =
  Arg.(
    value
    & opt string "random"
    & info [ "picker" ] ~docv:"P"
        ~doc:
          "Schedule picker: \"random\" records one random schedule per seed; \
           \"dpor\" explores the seed's whole reduced interleaving space \
           with sleep-set dynamic partial-order reduction, crash-checking \
           every complete schedule (see --list-structures for the \
           vocabulary).  Unknown names exit 2.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"First seed.")

let seeds =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds (schedules) to check.")

let budget =
  Arg.(
    value & opt int max_int
    & info [ "budget" ] ~docv:"B"
        ~doc:
          "Max crash points replayed per seed; beyond it points are \
           subsampled at an even stride.")

let threads =
  Arg.(value & opt int 3 & info [ "threads" ] ~docv:"T" ~doc:"Logical threads.")

let ops =
  Arg.(
    value & opt int 6 & info [ "ops" ] ~docv:"O" ~doc:"Operations per thread.")

let range =
  Arg.(value & opt int 16 & info [ "range" ] ~docv:"R" ~doc:"Key range.")

let updates =
  Arg.(
    value & opt int 60 & info [ "updates" ] ~docv:"U" ~doc:"Update percent.")

let elide =
  Arg.(
    value & flag
    & info [ "elide" ]
        ~doc:
          "Enable flush/fence elision, adding elided boundaries (and the \
           write after each) to the crash-point set.")

let epoch_len =
  Arg.(
    value & opt int 1
    & info [ "epoch-len" ] ~docv:"N"
        ~doc:
          "Deferred persists per buffered epoch (only meaningful with \
           --discipline buffered); at the default 1 every deferred persist \
           advances the epoch synchronously.")

let slots_per_line =
  Arg.(
    value & opt int 1
    & info [ "slots-per-line" ] ~docv:"N"
        ~doc:
          "Slots per simulated cache line (default 1, the slot-granular \
           model).  Wider lines make crash enumeration line-atomic and \
           probe coalesced-flush crash points.  $(docv) must be one of the \
           line panel's sweep values; anything else exits 2 listing them.")

let strict_validate =
  Arg.(
    value & flag
    & info [ "strict-validate" ]
        ~doc:
          "Validate a buffered execution with the strict (unbuffered) \
           durable-linearizability checker: the negative control — with \
           --epoch-len > 1 it must flag the dropped deferred tail (pair \
           with --expect-violation).")

let deep =
  Arg.(
    value & flag
    & info [ "deep" ] ~doc:"Also crash before every plain NVMM write.")

let psan =
  Arg.(
    value & flag
    & info [ "psan" ]
        ~doc:
          "Run the persistency sanitizer over one crash-free reference run \
           per seed before crash enumeration; sanitizer violations count \
           toward the verdict.")

let expect_violation =
  Arg.(
    value & flag
    & info [ "expect-violation" ]
        ~doc:
          "Invert the exit status: succeed only if a counterexample is \
           found (negative controls).")

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"CX"
        ~doc:
          "Replay one counterexample (\"seed:crash_at:p0,p1,...\" as \
           printed on failure) instead of checking.")

let crash_in_recovery =
  Arg.(
    value & flag
    & info [ "crash-in-recovery" ]
        ~doc:
          "Check recovery itself as a crash surface: at each crash point, \
           kill recovery before each of its recovery points, power-fail \
           again, re-run recovery from scratch and validate.")

let rec_budget =
  Arg.(
    value & opt int max_int
    & info [ "rec-budget" ] ~docv:"B"
        ~doc:
          "Max recovery kill points per crash point (subsampled at an even \
           stride beyond it).")

let trust_partial =
  Arg.(
    value & flag
    & info [ "trust-partial-recovery" ]
        ~doc:
          "Negative control for --crash-in-recovery: accept the killed, \
           half-finished recovery instead of restarting it.  Must produce \
           violations (pair with --expect-violation).")

let replay_recovery =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay-recovery" ] ~docv:"RCX"
        ~doc:
          "Replay one crash-in-recovery counterexample \
           (\"seed:crash_at:rec_at:p0,p1,...\") instead of checking.")

let cmd =
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Enumerate every persist-relevant crash point of a recorded \
          schedule and check durable linearizability at each.")
    Term.(
      const main $ list_structures $ structure $ prim $ picker $ seed $ seeds
      $ budget
      $ threads $ ops $ range $ updates $ elide $ epoch_len $ slots_per_line
      $ strict_validate $ deep $ psan $ expect_violation $ replay
      $ crash_in_recovery $ rec_budget $ trust_partial $ replay_recovery)

let () = exit (Cmd.eval' cmd)
