(** Crash-point model checking for durable linearizability.  See the
    interface for the overall shape; the mechanics worth knowing:

    - {b Recording.}  The reference run executes under
      {!Mirror_schedsim.Sched.run_recorded} inside the one persist-event
      log ({!with_event_log}); the hook fires {e before} each event's
      effect, so event [i] of the log is exactly the boundary "instruction
      [i] is about to persist something".

    - {b Crashing.}  To crash just before event [i], the one counter
      ({!die_before}) raises {!Mirror_schedsim.Sched.Killed} inside
      whichever fiber is executing when it reaches [i] (killing that
      operation mid-instruction) and flips a flag polled by the scheduler's
      [stop] parameter, which discontinues every other live fiber — a
      whole-system power failure at an exact instruction boundary, not a
      step count.  The same counter kills recovery before its [i]-th
      recovery point.

    - {b Sweeping.}  Every checker walks its crash points with one
      first-failing-point scan ({!first_failing}); the DPOR checker and the
      litmus runner share one DPOR crash sweep ({!dpor_crash_sweep}).

    - {b Determinism.}  A scenario builds everything fresh per run (region,
      structure, workload RNGs) from the seed alone, so replaying the
      recorded pick sequence reproduces the reference run event for event;
      the crash therefore lands at the same program point every time.

    - {b Shrinking.}  Replay pads exhausted pick traces with choice 0, so
      any prefix of a failing trace is still a complete schedule; we keep
      the shortest probed prefix that still fails.  Crash indices need no
      shrinking: points are checked in ascending order, so the first hit is
      already minimal. *)

module Sched = Mirror_schedsim.Sched
module Hooks = Mirror_nvm.Hooks

type instance = {
  tasks : (unit -> unit) list;
  region : Mirror_nvm.Region.t;
  crash_recover : unit -> unit;
  validate : unit -> Mirror_harness.Durable.violation list;
}

type scenario = seed:int -> instance

(* -- the event log and the crash counter ------------------------------------ *)

(* The one persist-event log: [f] runs under a logging persist hook and gets
   [take], which returns the events announced since the previous [take]
   (or since the log opened) and empties the log. *)
let with_event_log f =
  let evs = ref [] in
  let take () =
    let events = Array.of_list (List.rev !evs) in
    evs := [];
    events
  in
  Hooks.with_persist (fun ev -> evs := ev :: !evs) (fun () -> f take)

(* The one "die before event [at]" counter: the hook lets events
   [0 .. at-1] through, raises [exn] just before event [at] and is inert
   afterwards.  [seen] counts the events let through; with [at = max_int]
   it never fires and only counts. *)
type counter = { mutable seen : int; mutable fired : bool }

let die_before ~at exn =
  let c = { seen = 0; fired = false } in
  let hook _ =
    if not c.fired then
      if c.seen = at then begin
        c.fired <- true;
        raise exn
      end
      else c.seen <- c.seen + 1
  in
  (c, hook)

(* -- recording -------------------------------------------------------------- *)

type trace = {
  events : Hooks.persist_event array;
  picks : int array;
  completed : bool;
}

let record (scenario : scenario) ~seed : trace =
  let inst = scenario ~seed in
  with_event_log (fun take ->
      let outcome, picks = Sched.run_recorded ~seed inst.tasks in
      { events = take (); picks; completed = outcome.Sched.completed })

(* -- crash-point enumeration ------------------------------------------------- *)

let crash_points ?(deep = false) (events : Hooks.persist_event array) :
    int list =
  let pts = ref [] in
  (* true while an elided flush/fence has not yet been "covered" by a real
     fence: the elision claims the skipped persist was redundant, so the
     very next write is the first point where that claim could be wrong *)
  let elided_open = ref false in
  Array.iteri
    (fun i ev ->
      let take =
        match (ev : Hooks.persist_event) with
        | Flush | Dwcas -> true
        | Fence ->
            elided_open := false;
            true
        | Epoch_bump ->
            (* the buffered advance fires this between its batch fence and
               the durable-epoch bump: crashing here loses a fully fenced
               epoch (bounded staleness must absorb it) — always probed *)
            true
        | Flush_elided | Fence_elided ->
            elided_open := true;
            true
        | Flush_coalesced ->
            (* line granularity: the flush was absorbed by an in-flight
               line write-back.  Always probed — crashing here must lose
               the whole line atomically — and it opens the elision
               window: the coalescing claim (durability rides the pending
               write-back) is first testable at the next plain write *)
            elided_open := true;
            true
        | Write ->
            if deep then true
            else if !elided_open then begin
              elided_open := false;
              true
            end
            else false
      in
      if take then pts := i :: !pts)
    events;
  List.rev (Array.length events :: !pts)

(* The one first-failing-point scan: try [points] in ascending order and
   return the first whose [try_at] reports violations, with its result.
   Callers count their executions inside [try_at]. *)
let first_failing points try_at =
  List.find_map
    (fun p -> match try_at p with [], _ -> None | r -> Some (p, r))
    points

(* -- crashed replay ----------------------------------------------------------- *)

let crash_replay ?strict ~picks ~crash_at tasks =
  (* the fiber announcing event [crash_at] dies before its effect; the
     scheduler's [stop] poll then discontinues every other fiber *)
  let c, hook = die_before ~at:crash_at Sched.Killed in
  let (_ : Sched.outcome) =
    Hooks.with_persist hook (fun () ->
        Sched.run_replay ?strict ~picks ~stop:(fun () -> c.fired) tasks)
  in
  c.fired

(* A fresh instance replayed up to the crash at [crash_at] and left down;
   the caller drives recovery. *)
let run_to_crash ?strict (scenario : scenario) ~seed ~picks ~crash_at =
  let inst = scenario ~seed in
  (inst, crash_replay ?strict ~picks ~crash_at inst.tasks)

let run_crash_at ?strict (scenario : scenario) ~seed ~picks ~crash_at :
    Mirror_harness.Durable.violation list * bool =
  let inst, crashed = run_to_crash ?strict scenario ~seed ~picks ~crash_at in
  inst.crash_recover ();
  (inst.validate (), crashed)

(* -- counterexamples ---------------------------------------------------------- *)

type counterexample = {
  cx_seed : int;
  cx_picks : int array;
  cx_crash_at : int;
  cx_violations : Mirror_harness.Durable.violation list;
}

(* Replay tokens: integer fields, then the comma-separated pick list, all
   ':'-separated. *)
let to_token fields picks =
  String.concat ":"
    (List.map string_of_int fields
    @ [ String.concat "," (Array.to_list (Array.map string_of_int picks)) ])

(* The one token parser: exactly [arity] integer fields before the pick
   list (which may be empty); anything else is rejected with [form] as the
   expected shape. *)
let of_token ~fn ~form ~arity s =
  let fail () =
    invalid_arg (Printf.sprintf "Mcheck.%s: expected %S, got %s" fn form s)
  in
  let int x = match int_of_string_opt x with Some i -> i | None -> fail () in
  match List.rev (String.split_on_char ':' s) with
  | picks :: fields when List.length fields = arity ->
      let fields = Array.of_list (List.rev_map int fields) in
      let picks =
        if picks = "" then [||]
        else Array.of_list (List.map int (String.split_on_char ',' picks))
      in
      (fields, picks)
  | _ -> fail ()

let cx_to_string cx = to_token [ cx.cx_seed; cx.cx_crash_at ] cx.cx_picks

let cx_of_string s =
  let f, picks =
    of_token ~fn:"cx_of_string" ~form:"seed:crash_at:p0,p1,..." ~arity:2 s
  in
  (f.(0), picks, f.(1))

let replay scenario ~seed ~picks ~crash_at =
  fst (run_crash_at scenario ~seed ~picks ~crash_at)

(* -- shrinking ----------------------------------------------------------------- *)

(** Shortest probed prefix of [picks] that still fails at [crash_at]
    (truncation is sound because replay pads with choice 0).  Probes a
    geometric ladder rather than every length: each probe is a full
    execution, and counterexample minimality is a readability feature, not
    a soundness one. *)
let shrink_picks scenario ~seed ~picks ~crash_at ~runs =
  let fails picks =
    incr runs;
    replay scenario ~seed ~picks ~crash_at <> []
  in
  let len = Array.length picks in
  let rec probe = function
    | [] -> picks
    | n :: rest ->
        let candidate = Array.sub picks 0 n in
        if fails candidate then candidate else probe rest
  in
  probe
    (List.sort_uniq compare [ 0; len / 16; len / 8; len / 4; len / 2 ]
    |> List.filter (fun n -> n < len))

(* -- the checker ---------------------------------------------------------------- *)

type report = {
  events_total : int;
  points_total : int;
  points_checked : int;
  runs : int;
  counterexample : counterexample option;
}

let verdict = function
  | None -> "durably linearizable"
  | Some cx ->
      Printf.sprintf "VIOLATION at crash point %d (replay with %s)"
        cx.cx_crash_at (cx_to_string cx)

let pp_report ppf r =
  Format.fprintf ppf
    "%d persist events, %d crash points (%d checked), %d executions: %s" r.events_total
    r.points_total r.points_checked r.runs (verdict r.counterexample)

(* Even-stride subsample of [points] down to [budget] entries, always
   keeping the last one. *)
let subsample points budget =
  let n = List.length points in
  if n <= budget then points
  else begin
    let arr = Array.of_list points in
    List.init (max 1 (budget - 1)) (fun i -> arr.(i * n / budget))
    @ [ arr.(n - 1) ]
  end

let check ?(deep = false) ?(budget = max_int) (scenario : scenario) ~seed :
    report =
  let tr = record scenario ~seed in
  let all_points = crash_points ~deep tr.events in
  let points = subsample all_points budget in
  let runs = ref 1 (* the reference run *) in
  let failing =
    first_failing points (fun crash_at ->
        incr runs;
        run_crash_at scenario ~seed ~picks:tr.picks ~crash_at)
  in
  let counterexample =
    Option.map
      (fun (crash_at, (violations, _)) ->
        let picks =
          shrink_picks scenario ~seed ~picks:tr.picks ~crash_at ~runs
        in
        (* re-derive the violations of the shrunk trace so the report shows
           what the replayable counterexample actually produces *)
        incr runs;
        let cx_violations =
          match run_crash_at scenario ~seed ~picks ~crash_at with
          | [], _ -> violations (* unreachable: shrink keeps failing traces *)
          | vs, _ -> vs
        in
        {
          cx_seed = seed;
          cx_picks = picks;
          cx_crash_at = crash_at;
          cx_violations;
        })
      failing
  in
  {
    events_total = Array.length tr.events;
    points_total = List.length all_points;
    points_checked = List.length points;
    runs = !runs;
    counterexample;
  }

(* -- DPOR-driven checking -------------------------------------------------- *)

(* Schedule pickers the CLI can select; kept in sync with bin/mcheck.ml by
   the test suite, like [Sets.all_ds] / [Prim.all_names]. *)
let pickers = [ "random"; "dpor" ]

(* The event log accumulates across the whole exploration and is emptied
   as each fresh instance is built, so construction / prefill events never
   become crash candidates (as in [record]); crash replays and recoveries
   run inside [on_schedule] after the schedule's log was taken. *)
let dpor_crash_sweep ?limit ?max_steps ~points ~try_at mk =
  let found = ref None in
  let rep =
    with_event_log (fun take ->
        let factory () =
          let instance = mk () in
          ignore (take () : Hooks.persist_event array);
          instance
        in
        let on_schedule ~picks =
          found :=
            Option.map
              (fun (p, r) -> (picks, p, r))
              (first_failing (points (take ())) (try_at ~picks));
          Option.is_none !found
        in
        Sched.explore_dpor ?limit ?max_steps ~on_schedule factory)
  in
  (rep, !found)

type dpor_report = {
  dr_schedules : int;
  dr_pruned : int;
  dr_exhausted : bool;
  dr_points : int;
  dr_runs : int;
  dr_counterexample : counterexample option;
}

let pp_dpor_report ppf r =
  Format.fprintf ppf
    "%d schedules (%d pruned, %s), %d crash points checked, %d executions: %s"
    r.dr_schedules r.dr_pruned
    (if r.dr_exhausted then "exhausted" else "not exhausted")
    r.dr_points r.dr_runs
    (verdict r.dr_counterexample)

(** Crash-point enumeration composed with systematic schedules: every
    schedule the sleep-set DPOR explores gets the full {!check} treatment
    (enumerate its persist events, crash before each point, recover,
    validate).  Where {!check} says "no violation under this one recorded
    schedule", an exhausted [check_dpor] says "no violation exists for this
    scenario" — up to the footprint classifier's conservative conflicts.

    DPOR picks are complete schedules, so crash replays re-execute them
    strictly: a divergence raises instead of padding.  Stops at the first
    violation ([dr_exhausted] is then false: the space was not fully
    swept). *)
let check_dpor ?(deep = false) ?(budget = max_int) ?(limit = 10_000)
    (scenario : scenario) ~seed : dpor_report =
  let points_checked = ref 0 in
  let rep, found =
    dpor_crash_sweep ~limit
      ~points:(fun events -> subsample (crash_points ~deep events) budget)
      ~try_at:(fun ~picks crash_at ->
        incr points_checked;
        run_crash_at ~strict:true scenario ~seed ~picks ~crash_at)
      (fun () -> ((scenario ~seed).tasks, ignore))
  in
  {
    dr_schedules = rep.Sched.dpor_schedules;
    dr_pruned = rep.Sched.dpor_pruned;
    dr_exhausted = rep.Sched.dpor_exhausted;
    dr_points = !points_checked;
    (* one exploration run per schedule, one replay per point *)
    dr_runs = rep.Sched.dpor_schedules + !points_checked;
    dr_counterexample =
      Option.map
        (fun (picks, crash_at, (cx_violations, _)) ->
          {
            cx_seed = seed;
            cx_picks = picks;
            cx_crash_at = crash_at;
            cx_violations;
          })
        found;
  }

(* -- sanitizer pass --------------------------------------------------------------- *)

(** One crash-free reference run of the scenario under the persistency
    sanitizer: instance construction (prefill included) and the whole
    scheduled workload are shadowed.  Violations found here are discipline
    bugs visible without any crash enumeration — run it before {!check} as
    a cheap first line of defense; the report's seed replays the schedule
    that produced each finding. *)
let psan_pass ?(buffered = false) (scenario : scenario) ~seed :
    Mirror_psan.Psan.report =
  let sa = Mirror_psan.Psan.create ~seed ~buffered () in
  Mirror_psan.Psan.install sa (fun () ->
      let inst = scenario ~seed in
      let (_ : Sched.outcome * int array) =
        Sched.run_recorded ~seed inst.tasks
      in
      ());
  Mirror_psan.Psan.report sa

(* -- crash-in-recovery checking ---------------------------------------------- *)

exception Killed_in_recovery

(* Crash a fresh instance at [crash_at], then run its recovery with the
   crash counter set to kill it just before recovery point [rec_at] (every
   {!Hooks.recovery_point}: R_begin, one R_trace per variable restored,
   R_done, plus any heap phase points).  The counter tells whether the kill
   fired and, with [rec_at = max_int], how many points a full recovery
   has. *)
let recover_until scenario ~seed ~picks ~crash_at ~rec_at =
  let inst, _ = run_to_crash scenario ~seed ~picks ~crash_at in
  let c, hook = die_before ~at:rec_at Killed_in_recovery in
  (try Hooks.with_recovery_hook hook inst.crash_recover
   with Killed_in_recovery -> ());
  (inst, c)

let replay_recovery ?(trust_partial = false) scenario ~seed ~picks ~crash_at
    ~rec_at : Mirror_harness.Durable.violation list * string =
  let inst, c = recover_until scenario ~seed ~picks ~crash_at ~rec_at in
  if not c.fired then
    (* recovery had fewer points than [rec_at]; it completed normally *)
    (inst.validate (), "")
  else if trust_partial then begin
    (* negative control: accept the half-finished recovery as if it were
       complete.  Unrecovered variables then surface either as an
       exception from validation (synthesized as a violation) or as
       genuine durable-linearizability violations. *)
    Mirror_nvm.Region.mark_recovered inst.region;
    match inst.validate () with
    | vs -> (vs, if vs = [] then "" else "partial recovery accepted")
    | exception e ->
        ( [ { Mirror_harness.Durable.vkey = -1; observed = false; events = [] } ],
          "validation raised: " ^ Printexc.to_string e )
  end
  else begin
    (* the discipline under test: a second power failure mid-recovery
       (the embedded [Region.crash] discards partially restored volatile
       state), then recovery re-run from scratch.  The persistent epoch
       must flag the interruption. *)
    inst.crash_recover ();
    let vs = inst.validate () in
    if Mirror_nvm.Region.recovery_interrupted inst.region then (vs, "")
    else
      ( { Mirror_harness.Durable.vkey = -2; observed = false; events = [] }
        :: vs,
        "interrupted recovery not detected by the persistent epoch" )
  end

type recovery_counterexample = {
  rcx_seed : int;
  rcx_picks : int array;
  rcx_crash_at : int;
  rcx_rec_at : int;
  rcx_violations : Mirror_harness.Durable.violation list;
  rcx_note : string;
}

let rcx_to_string rcx =
  to_token [ rcx.rcx_seed; rcx.rcx_crash_at; rcx.rcx_rec_at ] rcx.rcx_picks

let rcx_of_string s =
  let f, picks =
    of_token ~fn:"rcx_of_string" ~form:"seed:crash_at:rec_at:p0,p1,..."
      ~arity:3 s
  in
  (f.(0), picks, f.(1), f.(2))

type recovery_report = {
  rr_crash_points : int;  (** crash points examined (after budget) *)
  rr_rec_points : int;  (** (crash, recovery) pairs examined *)
  rr_runs : int;  (** total executions *)
  rr_counterexample : recovery_counterexample option;
}

let pp_recovery_report ppf r =
  Format.fprintf ppf
    "%d crash points x recovery kills = %d pairs, %d executions: %s"
    r.rr_crash_points r.rr_rec_points r.rr_runs
    (match r.rr_counterexample with
    | None -> "recovery is crash-tolerant"
    | Some rcx ->
        Printf.sprintf
          "VIOLATION killing recovery at point %d of crash point %d%s \
           (replay with %s)"
          rcx.rcx_rec_at rcx.rcx_crash_at
          (if rcx.rcx_note = "" then "" else " [" ^ rcx.rcx_note ^ "]")
          (rcx_to_string rcx))

(** The crash-in-recovery checker: for every (subsampled) crash point of
    the reference run, enumerate the recovery points of the recovery that
    crash triggers, and for each one kill recovery there, power-fail
    again, re-run recovery from scratch and validate — recovery itself
    becomes a first-class crash surface.  [rec_budget] subsamples the
    kill points within each crash point.  [trust_partial] is the negative
    control: instead of restarting, the half-finished recovery is
    accepted, which must produce violations (if it does not, the checker
    has no teeth at the chosen points). *)
let check_recovery ?(deep = false) ?(budget = max_int)
    ?(rec_budget = max_int) ?(trust_partial = false) (scenario : scenario)
    ~seed : recovery_report =
  let tr = record scenario ~seed in
  let picks = tr.picks in
  let points = subsample (crash_points ~deep tr.events) budget in
  let runs = ref 1 in
  let pairs = ref 0 in
  let found =
    List.find_map
      (fun crash_at ->
        incr runs;
        (* an uninterrupted recovery's points are the kill-point space *)
        let _, full =
          recover_until scenario ~seed ~picks ~crash_at ~rec_at:max_int
        in
        let kills = subsample (List.init full.seen Fun.id) rec_budget in
        first_failing kills (fun rec_at ->
            incr runs;
            incr pairs;
            replay_recovery ~trust_partial scenario ~seed ~picks ~crash_at
              ~rec_at)
        |> Option.map (fun (rec_at, (vs, note)) ->
               {
                 rcx_seed = seed;
                 rcx_picks = picks;
                 rcx_crash_at = crash_at;
                 rcx_rec_at = rec_at;
                 rcx_violations = vs;
                 rcx_note = note;
               }))
      points
  in
  {
    rr_crash_points = List.length points;
    rr_rec_points = !pairs;
    rr_runs = !runs;
    rr_counterexample = found;
  }

(* -- the standard set-workload scenario ------------------------------------------ *)

let set_scenario ~ds ~prim ?(policy = Mirror_nvm.Region.Adversarial)
    ?(elide = false) ?(epoch_len = 1) ?(slots_per_line = 1)
    ?(strict_validate = false) ~threads ~ops_per_task ~range ~updates () :
    scenario =
 fun ~seed ->
  let buffered = prim = "buffered" in
  let region =
    Mirror_nvm.Region.create ~seed ~elide ~epoch_len ~slots_per_line ()
  in
  let pack =
    Mirror_dstruct.Sets.make ds (Mirror_prim.Prim.by_name region prim)
  in
  let epoch_of =
    if buffered then fun () -> Mirror_nvm.Region.cur_epoch region
    else fun () -> 0
  in
  let cap =
    Mirror_harness.Durable.workload_capture ~epoch_of pack ~seed ~threads
      ~ops_per_task ~range
      ~mix:(Mirror_workload.Workload.of_updates updates)
  in
  (* the prefilled structure is handed over durable: its deferred tail is
     drained before the scheduled (crashable) part of the run begins, so
     only workload epochs are exposed to the crash *)
  if buffered then Mirror_nvm.Region.quiesce region;
  {
    tasks = cap.cap_tasks;
    region;
    crash_recover =
      (fun () ->
        Mirror_nvm.Region.crash ~policy region;
        Mirror_nvm.Region.recovery_session region cap.cap_recover);
    validate =
      (fun () ->
        (* buffered validation demotes completed ops from undurable epochs
           to maybe-lost; [strict_validate] suppresses that — the negative
           control that must flag the dropped tail *)
        let durable_epoch =
          if buffered && not strict_validate then
            Some (Mirror_nvm.Region.durable_epoch region)
          else None
        in
        Mirror_harness.Durable.validate ?durable_epoch
          ~prefilled:Mirror_workload.Workload.is_prefilled ~range
          ~observed:(cap.cap_observed ()) cap.cap_workers);
  }

(* -- the queue scenario ----------------------------------------------------------- *)

(* Durable linearizability for the MS queue by set arithmetic over unique
   values: every enqueued value is distinct, so the recovered queue
   contents plus the dequeue observations determine exactly which
   completed operations survived the crash.  With [de] the durable cut
   (infinite for the strict disciplines), the recovered state must show:

   - no duplicated and no fabricated values;
   - no resurrection: a value returned by a dequeue that completed in a
     durable epoch must not reappear in the queue;
   - no loss: a value enqueued by an op that completed in a durable epoch
     and never durably dequeued must still be present — up to one slack
     removal per dequeue that was in flight when the plug was pulled (a
     cut dequeue may have durably swung the head before dying). *)
let queue_scenario ~prim ?(policy = Mirror_nvm.Region.Adversarial)
    ?(epoch_len = 1) ?(slots_per_line = 1) ?(strict_validate = false)
    ~threads ~ops_per_task () : scenario =
 fun ~seed ->
  let buffered = prim = "buffered" in
  let region =
    Mirror_nvm.Region.create ~seed ~epoch_len ~slots_per_line ()
  in
  let (module P : Mirror_prim.Prim.S) = Mirror_prim.Prim.by_name region prim in
  let module Q = Mirror_dstruct.Queue.Make (P) in
  let q = Q.create () in
  let prefill = List.init (max 2 threads) (fun i -> 900_000 + i) in
  List.iter (Q.enqueue q) prefill;
  if buffered then Mirror_nvm.Region.quiesce region;
  let epoch_of () =
    if buffered then Mirror_nvm.Region.cur_epoch region else 0
  in
  (* per-worker logs; a dequeue's in-flight flag stays set when the crash
     cuts it between invocation and response *)
  let enq_done = Array.make threads [] in
  let deq_done = Array.make threads [] in
  let deq_inflight = Array.make threads false in
  let value ~tid j = (tid * 1000) + j in
  let task tid () =
    for j = 1 to ops_per_task do
      if (tid + j) land 1 = 0 then begin
        let v = value ~tid j in
        Q.enqueue q v;
        enq_done.(tid) <- (v, epoch_of ()) :: enq_done.(tid)
      end
      else begin
        deq_inflight.(tid) <- true;
        let r = Q.dequeue q in
        deq_inflight.(tid) <- false;
        deq_done.(tid) <- (r, epoch_of ()) :: deq_done.(tid)
      end
    done
  in
  {
    tasks = List.init threads (fun tid () -> task tid ());
    region;
    crash_recover =
      (fun () ->
        Mirror_nvm.Region.crash ~policy region;
        Mirror_nvm.Region.recovery_session region (fun () -> Q.recover q));
    validate =
      (fun () ->
        let de =
          if buffered && not strict_validate then
            Mirror_nvm.Region.durable_epoch region
          else max_int
        in
        let recovered = Q.to_list q in
        let violations = ref [] in
        let flag v observed =
          violations :=
            { Mirror_harness.Durable.vkey = v; observed; events = [] }
            :: !violations
        in
        let present = Hashtbl.create 64 in
        List.iter
          (fun v ->
            if Hashtbl.mem present v then flag v true
            else Hashtbl.add present v ();
            let legitimate =
              List.mem v prefill
              ||
              let tid = v / 1000 and j = v mod 1000 in
              tid >= 0 && tid < threads && j >= 1 && j <= ops_per_task
            in
            if not legitimate then flag v true)
          recovered;
        (* A completion epoch is sampled {e after} the op returns, so it
           over-approximates the epochs of the op's writes: epoch <= de
           proves the op's effect is durable, epoch > de proves nothing
           either way (the last write may have landed just before an
           advance committed its epoch).  So: a dequeue with epoch <= de
           forbids resurrection; a dequeue at any epoch excuses absence. *)
        let dequeued = Hashtbl.create 64 in
        Array.iter
          (List.iter (fun (r, epoch) ->
               match r with
               | Some v ->
                   Hashtbl.replace dequeued v ();
                   if epoch <= de && Hashtbl.mem present v then
                     flag v true (* resurrection *)
               | None -> ()))
          deq_done;
        (* durably enqueued, never dequeued, gone anyway: allowed only up
           to the number of in-flight dequeues at the crash *)
        let slack =
          Array.fold_left (fun n f -> if f then n + 1 else n) 0 deq_inflight
        in
        let lost = ref [] in
        let check_enqueued v epoch =
          if
            epoch <= de
            && (not (Hashtbl.mem dequeued v))
            && not (Hashtbl.mem present v)
          then lost := v :: !lost
        in
        List.iter (fun v -> check_enqueued v 0) prefill;
        Array.iter (List.iter (fun (v, epoch) -> check_enqueued v epoch))
          enq_done;
        if List.length !lost > slack then
          List.iter (fun v -> flag v false) !lost;
        !violations);
  }
