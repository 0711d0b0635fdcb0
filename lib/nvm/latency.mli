(** Calibrated latency injection for the simulated memory hierarchy.

    Costs are injected as calibrated busy-waits so that measured throughput
    reflects the configured DRAM/NVMM gap.  Defaults follow published Optane
    DC characteristics (reads ~3x DRAM, cheap buffered writes, costly
    flush + fence); everything is overridable via [MIRROR_*_NS] environment
    variables or {!set_config}.  Injection is disabled by default (unit
    tests count events only).  {!Stats} is the only place an access is
    billed: each of its [bill_*] functions bumps one counter and injects
    the matching cost configured here. *)

type config = {
  nvm_read_ns : int;
  nvm_write_ns : int;
  flush_ns : int;
  fence_ns : int;
  dram_read_ns : int;
      (** 0 when the working set is cache-resident; the harness scales this
          per experiment (two-regime cache model, see EXPERIMENTS.md) *)
}

val default : config

val profiles : (string * config) list
(** Flush/fence instruction profiles (§6.1): x86 clwb / clflushopt /
    clflush and ARM DC CVAP + DSB. *)

val profile : string -> config
(** @raise Invalid_argument on unknown profile names. *)

val parse_int : name:string -> min:int -> string -> int
(** Parse the value of configuration variable [name].
    @raise Invalid_argument naming [name] when the value is not an integer
    or is below [min]. *)

val env_int : ?min:int -> string -> int -> int
(** [env_int name fallback]: the environment variable [name] through
    {!parse_int} ([min] defaults to [0]), or [fallback] when it is unset.
    A malformed value raises; it never falls back silently. *)

val get_config : unit -> config
val set_config : config -> unit

val numa_remote_ns : unit -> int
(** The NUMA remote-line surcharge: extra nanoseconds charged to an NVMM
    access whose cache line is homed on a different domain than the
    accessing logical thread.  0 by default (uniform memory — no remote
    accounting at all); settable via [MIRROR_NUMA_REMOTE_NS] or
    {!set_numa_remote_ns}.  See docs/MODEL.md, "NUMA semantics". *)

val set_numa_remote_ns : int -> unit
(** @raise Invalid_argument on negative values. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val active : unit -> bool
(** [is_enabled () || numa_remote_ns () > 0]: whether billing an access
    ({!Stats.bill_nvm_read} and its siblings) does more than bump its
    counter. *)

val spin_ns : int -> unit
(** Busy-wait approximately that many nanoseconds (self-calibrating). *)
