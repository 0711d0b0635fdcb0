(** Crash and recovery driver (paper §4.3.3).

    Each data structure built with the Mirror primitives registers a
    *tracing routine*: starting from its persistent roots it visits every
    reachable node and calls {!Patomic.recover} on each field, restoring the
    volatile replica from the persistent one.  [recover] runs all tracers and
    then re-opens the region for normal operation — the paper's requirement
    that recovery completes before any other operation. *)

type t = {
  region : Mirror_nvm.Region.t;
  mutable tracers : (unit -> unit) list;
}

let create region = { region; tracers = [] }
let region t = t.region

(** Register the tracing routine of one data structure living in this
    region.  Tracers run in registration order at recovery. *)
let register_tracer t f = t.tracers <- f :: t.tracers

(** Simulate a full-system crash (see {!Mirror_nvm.Region.crash}). *)
let crash ?policy t = Mirror_nvm.Region.crash ?policy t.region

(** Run recovery: trace all data structures, then resume normal operation.
    The tracers run inside one {!Mirror_nvm.Region.recovery_session}
    (persistent recovery epoch odd until they finish, so a crash {e during}
    recovery is detected by the next attempt; privileged accesses under
    the in-recovery flag).  Recovery is idempotent — tracers rebuild
    volatile state from persistent state alone — so a detected
    interruption needs nothing beyond running again from the start, which
    is exactly what this function does anyway. *)
let recover t =
  Mirror_nvm.Region.recovery_session t.region (fun () ->
      List.iter (fun f -> f ()) (List.rev t.tracers))

(** Convenience: crash then immediately recover. *)
let crash_and_recover ?policy t =
  crash ?policy t;
  recover t
