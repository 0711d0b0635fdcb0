(** Crash-point model checking for durable linearizability.

    Where the torture harness ({!Mirror_harness.Durable}) samples crash
    points by cutting a run after a random number of scheduler steps, this
    checker {e enumerates} them: it records one reference execution under
    the deterministic scheduler, notes every persist-relevant instruction
    boundary (each clwb, sfence and DWCAS — including elided ones, plus the
    first write shadowed by an elided fence), and then replays the identical
    schedule once per boundary, pulling the plug just before that
    instruction's effect.  Each replay runs recovery and asks the Wing–Gong
    checker for a durable linearization of the cut history; a failure is
    reported as a minimized counterexample replayable from three numbers:
    the workload seed, the scheduler pick trace, and the crash index. *)

type instance = {
  tasks : (unit -> unit) list;  (** the workload, ready to schedule *)
  region : Mirror_nvm.Region.t;
      (** the instance's region: the recovery checker crashes it a second
          time mid-recovery and reads its persistent recovery epoch *)
  crash_recover : unit -> unit;
      (** power failure: apply the crash policy, run the structure's
          recovery procedure (inside a region recovery session, firing
          {!Mirror_nvm.Hooks.recovery_point}s), bring the region back up *)
  validate : unit -> Mirror_harness.Durable.violation list;
      (** durable-linearizability verdict over the recovered state *)
}

type scenario = seed:int -> instance
(** A scenario builds a fresh, fully deterministic instance: two calls with
    the same [seed] must produce runs that behave identically under the same
    scheduler pick sequence.  (Fresh region, fresh structure, fresh
    workers — nothing shared between calls.) *)

type trace = {
  events : Mirror_nvm.Hooks.persist_event array;
      (** persist-relevant events of the reference run, in order *)
  picks : int array;  (** the recorded scheduler choice sequence *)
  completed : bool;
}

val record : scenario -> seed:int -> trace
(** Run the reference (crash-free) execution under a recorded random
    schedule, logging every persist event. *)

val crash_points : ?deep:bool -> Mirror_nvm.Hooks.persist_event array -> int list
(** Indices [i] such that crashing just before event [i] is worth checking:
    every flush / fence / DWCAS boundary (elided or charged), each first
    plain write after an elided flush or fence (the window the elision
    optimisation claims is safe), and — always last — [Array.length events],
    the crash after the run has quiesced.  [deep] additionally includes
    every plain NVMM write.  Ascending. *)

val crash_replay :
  ?strict:bool -> picks:int array -> crash_at:int -> (unit -> unit) list ->
  bool
(** Replay [picks] over [tasks] ({!Mirror_schedsim.Sched.run_replay}) and
    pull the plug just before persist event number [crash_at] takes effect:
    the fiber announcing it dies with {!Mirror_schedsim.Sched.Killed} and
    every other live fiber is cut at the next decision.  Returns whether
    the crash fired ([false]: the run completed first).  Recovery is the
    caller's, and so is strictness: replays of a random schedule are
    non-strict (shrunk traces rely on the pick-0 padding); replays of a
    DPOR schedule ({!check_dpor}, the litmus runner) are strict, since
    those picks are complete schedules and a divergence must fail
    loudly. *)

val run_crash_at :
  ?strict:bool ->
  scenario ->
  seed:int ->
  picks:int array ->
  crash_at:int ->
  Mirror_harness.Durable.violation list * bool
(** Replay the recorded schedule over a fresh instance and crash the whole
    system just before persist event number [crash_at] takes effect (an
    index [>=] the number of events reached means the run completes and the
    crash lands at quiescence).  Runs recovery, then validates.  Returns the
    violations and whether the crash actually cut the run mid-flight.
    [strict] as in {!crash_replay} (default non-strict). *)

type counterexample = {
  cx_seed : int;
  cx_picks : int array;
  cx_crash_at : int;
  cx_violations : Mirror_harness.Durable.violation list;
}

val cx_to_string : counterexample -> string
(** Compact replayable form: ["seed:crash_at:p0,p1,..."]. *)

val cx_of_string : string -> int * int array * int
(** Parse [cx_to_string]'s format back to [(seed, picks, crash_at)].
    @raise Invalid_argument on malformed input. *)

val replay : scenario -> seed:int -> picks:int array -> crash_at:int ->
  Mirror_harness.Durable.violation list
(** Re-run one recorded crash; the counterexample-reproduction entry
    point. *)

type report = {
  events_total : int;  (** persist events in the reference run *)
  points_total : int;  (** enumerable crash points *)
  points_checked : int;  (** after budget subsampling *)
  runs : int;  (** total executions, including shrinking *)
  counterexample : counterexample option;
}

val pp_report : Format.formatter -> report -> unit

val check : ?deep:bool -> ?budget:int -> scenario -> seed:int -> report
(** The model checker: record, enumerate, replay-with-crash at each point in
    ascending order, stop at the first violation and shrink its pick trace
    (truncated traces replay with pick-0 padding, so every shrunk trace is
    still a complete schedule).  [budget] caps the number of crash points
    checked; when exceeded they are subsampled at an even stride (the
    quiescent end-of-run point is always kept) — the report records both
    counts so truncation is visible. *)

(** {1 DPOR-driven checking}

    {!check} enumerates crash points under {e one} recorded random
    schedule; [check_dpor] runs the same enumeration under {e every}
    schedule of the sleep-set DPOR's reduced interleaving space
    ({!Mirror_schedsim.Sched.explore_dpor}).  An exhausted report upgrades
    "no violation found under N seeds" to "no violation exists for this
    scenario" — for scenarios small enough to sweep. *)

val pickers : string list
(** Schedule pickers the CLI accepts (["random"; "dpor"]); kept in sync
    with [bin/mcheck.ml] by the test suite. *)

type dpor_report = {
  dr_schedules : int;  (** complete schedules swept *)
  dr_pruned : int;  (** executions cut by the sleep set *)
  dr_exhausted : bool;  (** reduced space fully swept, no early stop *)
  dr_points : int;  (** crash points checked across all schedules *)
  dr_runs : int;  (** total executions (schedules + crash replays) *)
  dr_counterexample : counterexample option;
}

val pp_dpor_report : Format.formatter -> dpor_report -> unit

val dpor_crash_sweep :
  ?limit:int ->
  ?max_steps:int ->
  points:(Mirror_nvm.Hooks.persist_event array -> int list) ->
  try_at:
    (picks:int array -> int -> Mirror_harness.Durable.violation list * 'r) ->
  (unit -> (unit -> unit) list * (unit -> unit)) ->
  Mirror_schedsim.Sched.dpor_report
  * (int array * int * (Mirror_harness.Durable.violation list * 'r)) option
(** The one DPOR crash sweep, shared by {!check_dpor} and the litmus
    runner: explore the reduced interleaving space of the factory's fresh
    instances ({!Mirror_schedsim.Sched.explore_dpor}, factory contract as
    there), capture each complete schedule's persist-event log during its
    exploration run (construction and prefill events excluded), and call
    [try_at ~picks i] for each crash point [points] selects from that log,
    in order.  The first call that returns violations stops the sweep and
    is returned with its schedule and point; a [try_at] that never reports
    violations sweeps the whole space. *)

val check_dpor :
  ?deep:bool -> ?budget:int -> ?limit:int -> scenario -> seed:int -> dpor_report
(** Crash-point enumeration composed with systematic schedules: each DPOR
    schedule's persist events are captured during the exploration run and
    crash-replayed point by point, strictly ({!dpor_crash_sweep}).
    [budget] subsamples points per schedule; [limit] bounds DPOR
    executions.  Stops at the first violation. *)

(** {1 Crash-in-recovery checking}

    Recovery as a first-class crash surface: a power failure can land
    {e during} recovery from a previous failure.  The checker crashes the
    workload at a persist boundary, starts recovery, kills it just before
    its [rec_at]-th {!Mirror_nvm.Hooks.recovery_point} (R_begin, one
    R_trace per restored variable, R_done, plus the heap's per-root /
    per-segment points), power-fails again and re-runs recovery from
    scratch.  The final state must validate, and the region's persistent
    recovery epoch must have flagged the interruption. *)

type recovery_counterexample = {
  rcx_seed : int;
  rcx_picks : int array;
  rcx_crash_at : int;  (** persist event the workload crash landed before *)
  rcx_rec_at : int;  (** recovery point the recovery kill landed before *)
  rcx_violations : Mirror_harness.Durable.violation list;
      (** [vkey = -1]: validation raised (unrecovered data reached);
          [vkey = -2]: interrupted recovery not detected by the epoch *)
  rcx_note : string;  (** human-readable diagnosis, [""] when untagged *)
}

val rcx_to_string : recovery_counterexample -> string
(** Compact replayable form: ["seed:crash_at:rec_at:p0,p1,..."]. *)

val rcx_of_string : string -> int * int array * int * int
(** Parse back to [(seed, picks, crash_at, rec_at)].
    @raise Invalid_argument on malformed input. *)

val replay_recovery :
  ?trust_partial:bool ->
  scenario ->
  seed:int ->
  picks:int array ->
  crash_at:int ->
  rec_at:int ->
  Mirror_harness.Durable.violation list * string
(** Re-run one recorded crash-in-recovery; the reproduction entry point.
    Returns the violations and the diagnosis note. *)

type recovery_report = {
  rr_crash_points : int;  (** crash points examined (after budget) *)
  rr_rec_points : int;  (** (crash, recovery-kill) pairs examined *)
  rr_runs : int;  (** total executions *)
  rr_counterexample : recovery_counterexample option;
}

val pp_recovery_report : Format.formatter -> recovery_report -> unit

val check_recovery :
  ?deep:bool ->
  ?budget:int ->
  ?rec_budget:int ->
  ?trust_partial:bool ->
  scenario ->
  seed:int ->
  recovery_report
(** Enumerate (crash point x recovery kill point) pairs in ascending
    order and stop at the first violation.  [budget] subsamples crash
    points (as in {!check}); [rec_budget] subsamples kill points within
    each crash point.  [trust_partial] is the negative control: the
    killed recovery is {e accepted} instead of restarted, so unrecovered
    state must surface as violations — proving the checker can see the
    failures the restart discipline prevents. *)

val psan_pass : ?buffered:bool -> scenario -> seed:int -> Mirror_psan.Psan.report
(** One crash-free reference run under the persistency sanitizer
    ({!Mirror_psan.Psan}): instance construction (prefill included) and
    the scheduled workload are shadowed, and discipline violations
    (hot-path persistent reads, unpersisted dependences, replica-band
    breaks, cross-thread persist ordering) are flagged online — no crash
    enumeration needed.  A cheap first pass before {!check}.  [buffered]
    (default off) selects the sanitizer's buffered rule set, which credits
    epoch-deferred persists — required when the scenario's discipline is
    ["buffered"], spurious V2/V4 findings otherwise. *)

val set_scenario :
  ds:Mirror_dstruct.Sets.ds ->
  prim:string ->
  ?policy:Mirror_nvm.Region.crash_policy ->
  ?elide:bool ->
  ?epoch_len:int ->
  ?slots_per_line:int ->
  ?strict_validate:bool ->
  threads:int ->
  ops_per_task:int ->
  range:int ->
  updates:int ->
  unit ->
  scenario
(** The standard scenario over a packed set: mixed workload of
    [threads x ops_per_task] operations on keys [< range] with [updates]%
    updates, persistence strategy [prim] (see {!Mirror_prim.Prim.by_name}),
    crash policy [policy] (default adversarial: only fenced write-backs
    survive), flush/fence elision per [elide] (default off), and
    [slots_per_line] slots per simulated cache line (default 1, i.e. the
    historical slot-granular model; larger values make crash enumeration
    line-atomic and probe {!Mirror_nvm.Hooks.Flush_coalesced} points).

    When [prim] is ["buffered"], the region's epoch clock runs at
    [epoch_len] (default 1) deferred persists per epoch, the prefill is
    quiesced before the crashable part of the run, completed operations are
    stamped with their completion epoch, and validation demotes operations
    from epochs past the persistent durable cut to maybe-lost — buffered
    durable linearizability.  [strict_validate] (default off) keeps the
    strict validator instead: the negative control, which must flag the
    dropped deferred tail whenever [epoch_len > 1]. *)

val queue_scenario :
  prim:string ->
  ?policy:Mirror_nvm.Region.crash_policy ->
  ?epoch_len:int ->
  ?slots_per_line:int ->
  ?strict_validate:bool ->
  threads:int ->
  ops_per_task:int ->
  unit ->
  scenario
(** The MS-queue scenario: [threads] fibers alternating enqueues of
    process-unique values with dequeues over a small durable prefill.
    Validation is set arithmetic over the unique values — no duplicated,
    fabricated or resurrected values, and no value lost whose enqueue
    completed in a durable epoch (up to one slack removal per dequeue cut
    in flight by the crash).  [epoch_len] / [strict_validate] as in
    {!set_scenario}. *)
