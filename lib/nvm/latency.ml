(** Calibrated latency injection.

    The container has no Optane DIMMs, so we model the DRAM/NVMM gap by
    busy-waiting a configurable number of nanoseconds on each simulated NVMM
    access.  Default costs follow published Optane DC measurements: reads
    ~3x DRAM (the paper's stated ratio), writes absorbed by the ADR write
    buffer but write-backs ([clwb] + [sfence]) costly.

    All costs are configurable through [MIRROR_NVM_READ_NS] etc. or
    programmatically via {!set_config}; injection is disabled entirely during
    unit tests ({!set_enabled} [false]) where only event counts matter. *)

type config = {
  nvm_read_ns : int;  (** extra latency of a load served from NVMM *)
  nvm_write_ns : int;  (** extra latency of a store/CAS on NVMM *)
  flush_ns : int;  (** cost of a [clwb] *)
  fence_ns : int;  (** cost of an [sfence] draining pending write-backs *)
  dram_read_ns : int;
      (** extra latency of a DRAM load; 0 when the working set is
          cache-resident, ~100 when memory-resident.  The harness scales
          this (and [nvm_read_ns]) per experiment from the structure's
          working-set size — the two-regime cache model of EXPERIMENTS.md *)
}

let default =
  {
    nvm_read_ns = 300;
    nvm_write_ns = 100;
    flush_ns = 60;
    fence_ns = 250;
    dram_read_ns = 0;
  }

(** Platform profiles for the flush/fence instruction pairs the paper
    discusses (§6.1): on current Intel platforms [clwb] and [clflushopt]
    behave alike (both invalidate the flushed line), [clflush] adds an
    implicit ordering (modeled as a costlier flush), and ARM's
    [DC CVAP] + full-system [DSB] pair has a heavier fence.  The paper
    reports clwb/clflush/clflushopt results identical up to noise; the
    ablation in [bench/main.exe] checks our model agrees. *)
let profiles =
  [
    ("x86-clwb", default);
    ("x86-clflushopt", default);
    ("x86-clflush", { default with flush_ns = 120 });
    ("arm-dccvap", { default with flush_ns = 80; fence_ns = 400 });
  ]

let profile name =
  match List.assoc_opt name profiles with
  | Some p -> p
  | None -> invalid_arg ("Latency.profile: unknown platform " ^ name)

let parse_int ~name ~min s =
  match int_of_string_opt s with
  | None -> invalid_arg (Printf.sprintf "%s: %S is not an integer" name s)
  | Some i when i < min ->
      invalid_arg (Printf.sprintf "%s: %d is below the minimum %d" name i min)
  | Some i -> i

let env_int ?(min = 0) name fallback =
  match Sys.getenv_opt name with
  | Some s -> parse_int ~name ~min s
  | None -> fallback

let config =
  ref
    {
      nvm_read_ns = env_int "MIRROR_NVM_READ_NS" default.nvm_read_ns;
      nvm_write_ns = env_int "MIRROR_NVM_WRITE_NS" default.nvm_write_ns;
      flush_ns = env_int "MIRROR_FLUSH_NS" default.flush_ns;
      fence_ns = env_int "MIRROR_FENCE_NS" default.fence_ns;
      dram_read_ns = env_int "MIRROR_DRAM_READ_NS" default.dram_read_ns;
    }

let get_config () = !config
let set_config c = config := c

(* NUMA model: the surcharge paid by an NVMM access to a cache line whose
   home domain differs from the accessing logical thread.  Kept outside
   [config] — it is a topology knob, not a device characteristic, and 0
   (uniform memory, the historical model) unless an experiment turns it
   on.  See docs/MODEL.md, "NUMA semantics". *)
let numa_remote = ref (env_int "MIRROR_NUMA_REMOTE_NS" 0)
let numa_remote_ns () = !numa_remote
let enabled = ref false
let is_enabled () = !enabled

(* Whether an access bill has more to do than bump its counter: kept in
   step with the two knobs it is derived from, so the billing fast path
   reads one flag. *)
let charging = ref (!numa_remote > 0)
let active () = !charging
let rederive () = charging := !enabled || !numa_remote > 0

let set_numa_remote_ns ns =
  if ns < 0 then invalid_arg "Latency.set_numa_remote_ns: ns < 0";
  numa_remote := ns;
  rederive ()

let set_enabled b =
  enabled := b;
  rederive ()

(* Calibration: how many iterations of an opaque spin loop per nanosecond.
   Calibrated lazily on first use; good to ~10% which is ample for a model. *)

let spin_iters n =
  let x = ref 0 in
  for i = 1 to n do
    x := !x + (i land 3)
  done;
  ignore (Sys.opaque_identity !x)

(* Calibration cache; domain-safe (OCaml [lazy] is not). *)
let calibration = Atomic.make 0.0
let calibration_mutex = Mutex.create ()

let calibrate () =
  let target = 5_000_000 in
  let t0 = Mirror_clock.now_ns () in
  spin_iters target;
  let ns = float_of_int (Mirror_clock.now_ns () - t0) in
  let ipn = float_of_int target /. ns in
  if ipn <= 0. then 1.0 else ipn

let iters_per_ns () =
  let v = Atomic.get calibration in
  if v > 0. then v
  else begin
    Mutex.lock calibration_mutex;
    let v =
      let v = Atomic.get calibration in
      if v > 0. then v
      else begin
        let c = calibrate () in
        Atomic.set calibration c;
        c
      end
    in
    Mutex.unlock calibration_mutex;
    v
  end

(** Busy-wait approximately [ns] nanoseconds. *)
let spin_ns ns =
  if ns > 0 then
    spin_iters (int_of_float (float_of_int ns *. iters_per_ns ()))
