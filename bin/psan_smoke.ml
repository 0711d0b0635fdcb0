(* psan-smoke: CI gate for the persistency sanitizer.

     dune exec bin/psan_smoke.exe -- --csv psan_lint.csv

   Five checks, any failure exits 1:

   1. clean sweep — every Mirror structure under both replica placements,
      elision off and on, across several seeded schedules, must produce
      zero sanitizer violations;
   2. negative controls — the non-Mirror baselines must trip the expected
      violation classes (orig-nvmm: V1 and V2; izraelevitz / nvtraverse:
      V1), each with a replayable seed, proving the sanitizer detects what
      it claims to detect;
   3. buffered discipline — every structure under the buffered discipline
      must be clean under the buffered rule set, and the negative control:
      the strict rule set over the same buffered execution must flag the
      deferred tail as V2 while the buffered rule set stays silent;
   4. overhead — the sanitized reference run of a smoke workload must stay
      within --max-overhead (default 3x) of the unsanitized run: the
      median of 5 timed sanitized passes against the median of 5 baseline
      passes, timed in alternating pairs;
   5. W1 lint — the per-configuration redundant-persist counters are
      written to --csv (uploaded by CI next to the bench CSV artifact) so
      elision budgets can be tracked over time. *)

module M = Mirror_mcheck.Mcheck
module Psan = Mirror_psan.Psan
module Sets = Mirror_dstruct.Sets

let scenario ~ds ~prim ~elide ~threads ~ops =
  M.set_scenario ~ds ~prim ~elide ~threads ~ops_per_task:ops ~range:32
    ~updates:60 ()

let failures = ref 0

let fail fmt =
  Format.kasprintf
    (fun msg ->
      incr failures;
      Format.printf "FAIL: %s@." msg)
    fmt

(* -- 1. clean sweep -------------------------------------------------------- *)

type row = {
  r_ds : string;
  r_prim : string;
  r_elide : bool;
  r_seed : int;
  r_events : int;
  r_w1_flush : int;
  r_w1_fence : int;
}

let clean_sweep ~seeds =
  let rows = ref [] in
  List.iter
    (fun ds ->
      List.iter
        (fun prim ->
          List.iter
            (fun elide ->
              for seed = 1 to seeds do
                let r =
                  M.psan_pass
                    (scenario ~ds ~prim ~elide ~threads:3 ~ops:10)
                    ~seed
                in
                rows :=
                  {
                    r_ds = Sets.ds_name ds;
                    r_prim = prim;
                    r_elide = elide;
                    r_seed = seed;
                    r_events = r.Psan.events;
                    r_w1_flush = r.Psan.w1_flush;
                    r_w1_fence = r.Psan.w1_fence;
                  }
                  :: !rows;
                if not (Psan.clean r) then
                  fail "%s/%s elide=%b seed=%d:@ %s" (Sets.ds_name ds) prim
                    elide seed (Psan.report_to_string r)
              done)
            [ false; true ])
        [ "mirror"; "mirror-nvmm" ])
    Sets.all_ds;
  Format.printf "clean sweep: %d sanitized runs, %d failure(s)@."
    (List.length !rows) !failures;
  List.rev !rows

(* -- 2. negative controls -------------------------------------------------- *)

let negative_controls () =
  let control prim expected =
    let seed = 1 in
    let r =
      M.psan_pass
        (scenario ~ds:Sets.List_ds ~prim ~elide:false ~threads:3 ~ops:10)
        ~seed
    in
    let missing =
      List.filter (fun cls -> Psan.count r cls = 0) expected
    in
    if Psan.clean r then
      fail "negative control %s produced no violations" prim
    else if missing <> [] then
      fail "negative control %s: expected %s, report:@ %s" prim
        (String.concat ", " (List.map Psan.class_name missing))
        (Psan.report_to_string r)
    else
      Format.printf "negative control %s: %s (replay: seed %d)@." prim
        (String.concat ", "
           (List.map
              (fun cls ->
                Printf.sprintf "%s x%d" (Psan.class_name cls)
                  (Psan.count r cls))
              expected))
        r.Psan.seed
  in
  control "orig-nvmm" [ Psan.V1; Psan.V2 ];
  control "izraelevitz" [ Psan.V1 ];
  control "nvtraverse" [ Psan.V1 ]

(* -- 3. buffered discipline -------------------------------------------------- *)

(* Epoch length 8 so real deferral happens (at the default 1 every deferred
   persist advances synchronously and the run degenerates to strict). *)
let buffered_scenario ~ds ~threads ~ops =
  M.set_scenario ~ds ~prim:"buffered" ~epoch_len:8 ~threads ~ops_per_task:ops
    ~range:32 ~updates:60 ()

let buffered_checks ~seeds =
  let rows = ref [] in
  (* clean sweep: the buffered rule set credits epoch-deferred persists,
     so buffered executions must sanitize clean for every structure *)
  List.iter
    (fun ds ->
      for seed = 1 to seeds do
        let r =
          M.psan_pass ~buffered:true
            (buffered_scenario ~ds ~threads:3 ~ops:10)
            ~seed
        in
        rows :=
          {
            r_ds = Sets.ds_name ds;
            r_prim = "buffered";
            r_elide = false;
            r_seed = seed;
            r_events = r.Psan.events;
            r_w1_flush = r.Psan.w1_flush;
            r_w1_fence = r.Psan.w1_fence;
          }
          :: !rows;
        if not (Psan.clean r) then
          fail "buffered %s seed=%d:@ %s" (Sets.ds_name ds) seed
            (Psan.report_to_string r)
      done)
    Sets.all_ds;
  (* negative control: the strict rule set over the same buffered
     execution sees the deferred writes as never-persisted dependences
     (V2); the buffered rule set must stay silent on the identical run *)
  let sc = buffered_scenario ~ds:Sets.List_ds ~threads:3 ~ops:10 in
  let strict = M.psan_pass ~buffered:false sc ~seed:1 in
  if Psan.count strict Psan.V2 = 0 then
    fail
      "buffered negative control: strict rule set over a buffered \
       execution produced no V2, report:@ %s"
      (Psan.report_to_string strict)
  else begin
    let buf = M.psan_pass ~buffered:true sc ~seed:1 in
    if not (Psan.clean buf) then
      fail
        "buffered rule set not silent on the negative-control execution:@ %s"
        (Psan.report_to_string buf)
    else
      Format.printf
        "buffered negative control: strict rules flag %s x%d on the \
         deferred tail, buffered rules silent (replay: seed 1)@."
        (Psan.class_name Psan.V2)
        (Psan.count strict Psan.V2)
  end;
  List.rev !rows

(* -- 3. overhead ------------------------------------------------------------ *)

let time f =
  let t0 = Mirror_clock.now_ns () in
  f ();
  Mirror_clock.seconds_since t0

(* Timed baseline/sanitized pairs (odd, so each median is one pass): one
   pass of each is ~0.05 s, too short to time once under load. *)
let overhead_pairs = 5

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

let overhead_check ~max_overhead =
  let sc = scenario ~ds:Sets.Skiplist_ds ~prim:"mirror" ~elide:false
      ~threads:4 ~ops:300
  in
  let baseline () =
    for seed = 1 to 3 do
      let inst = sc ~seed in
      ignore (Mirror_schedsim.Sched.run_recorded ~seed inst.M.tasks)
    done
  in
  let sanitized () =
    for seed = 1 to 3 do
      ignore (M.psan_pass sc ~seed)
    done
  in
  (* warm up allocators and code paths before timing; then time pairs,
     alternating which side runs first, and compare the medians of each
     side's passes: a burst of load on the machine lands in one or two
     passes, not in the verdict *)
  baseline ();
  let pairs =
    List.init overhead_pairs (fun i ->
        let base, san =
          if i land 1 = 0 then
            let b = time baseline in
            (b, time sanitized)
          else
            let s = time sanitized in
            (time baseline, s)
        in
        Format.printf "overhead pair %d: baseline %.3fs, sanitized %.3fs@."
          (i + 1) base san;
        (base, san))
  in
  let base = max (median (List.map fst pairs)) 1e-4 in
  let san = median (List.map snd pairs) in
  let factor = san /. base in
  Format.printf
    "overhead: median baseline %.3fs, median sanitized %.3fs over %d pairs, \
     factor %.2fx (budget %.1fx)@."
    base san overhead_pairs factor max_overhead;
  if factor > max_overhead then
    fail "sanitizer overhead %.2fx exceeds the %.1fx budget" factor
      max_overhead

(* -- 4. W1 lint CSV ---------------------------------------------------------- *)

let write_csv path rows =
  let oc = open_out path in
  output_string oc "ds,prim,elide,seed,events,w1_flush,w1_fence\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%s,%s,%b,%d,%d,%d,%d\n" r.r_ds r.r_prim r.r_elide
        r.r_seed r.r_events r.r_w1_flush r.r_w1_fence)
    rows;
  close_out oc;
  Format.printf "W1 lint counters: %s (%d rows)@." path (List.length rows)

(* -- driver ------------------------------------------------------------------ *)

let main csv seeds max_overhead =
  let rows = clean_sweep ~seeds in
  negative_controls ();
  let buffered_rows = buffered_checks ~seeds in
  overhead_check ~max_overhead;
  write_csv csv (rows @ buffered_rows);
  if !failures = 0 then begin
    Format.printf "psan-smoke: all checks passed@.";
    0
  end
  else begin
    Format.printf "psan-smoke: %d failure(s)@." !failures;
    1
  end

open Cmdliner

let csv =
  Arg.(
    value
    & opt string "psan_lint.csv"
    & info [ "csv" ] ~docv:"FILE" ~doc:"Where to write the W1 lint counters.")

let seeds =
  Arg.(
    value & opt int 3
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Seeded schedules per (structure, placement, elision) cell.")

let max_overhead =
  Arg.(
    value & opt float 3.0
    & info [ "max-overhead" ] ~docv:"X"
        ~doc:"Maximum allowed sanitized/unsanitized wall-clock ratio.")

let cmd =
  Cmd.v
    (Cmd.info "psan_smoke"
       ~doc:
         "Persistency-sanitizer CI gate: clean sweep over the Mirror \
          structures, negative controls over the baselines, overhead \
          budget, and the W1 redundant-persist lint CSV.")
    Term.(const main $ csv $ seeds $ max_overhead)

let () = exit (Cmd.eval' cmd)
