(** Throughput measurement: spawn domains against one shared structure for
    a fixed duration with latency injection on, and report measured
    throughput, per-operation event counts, and the deterministic cost
    model (modeled Mops = threads / per-op modeled latency — the number
    whose shape reproduces the paper's figures). *)

type per_op = {
  dram_reads : float;
  nvm_reads : float;
  nvm_writes : float;
  flushes : float;
  fences : float;
  flushes_elided : float;  (** skipped by the elision layer: zero cost *)
  fences_elided : float;
  epoch_advances : float;  (** buffered epoch commits *)
  fences_batched : float;  (** fences paid by epoch advances (subset of
                               [fences]) *)
  writes_deferred : float;  (** persists recorded into the epoch clock *)
}

type point = {
  algo : string;
  threads : int;
  ops : int;
  seconds : float;
  mops : float;  (** measured wall clock *)
  modeled_mops : float;  (** cost model, ideal scaling *)
  per_op : per_op;
}

val scaled_config :
  llc_bytes:int -> range:int -> Mirror_nvm.Latency.config
(** Two-regime read costs: miss probability from working-set vs modeled
    LLC. *)

val modeled_ns : per_op -> float

val per_op_of_stats : Mirror_nvm.Stats.t -> ops:int -> per_op
(** Event counts divided by [max 1 ops]; NVMM CASes count as writes. *)

val run :
  ?seconds:float ->
  ?seed:int ->
  ?llc_bytes:int ->
  ?dist:Mirror_workload.Workload.dist ->
  threads:int ->
  range:int ->
  mix:Mirror_workload.Workload.mix ->
  (module Mirror_dstruct.Sets.SET) ->
  point
(** Prefills to half the range (latency off), then measures. [llc_bytes]
    enables the two-regime model ([0] = raw configured costs). *)

val pp_point : Format.formatter -> point -> unit
