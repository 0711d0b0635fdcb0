(** The monotonic clock every wall-clock timing in the libraries reads:
    [CLOCK_MONOTONIC] in nanoseconds through bechamel's [noalloc] stub, so
    a read allocates nothing and resolves what a microsecond clock cannot.
    Timings only: nothing replay-deterministic may read it (mlint L5). *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed origin; never goes back. *)

val seconds_since : int -> float
(** [seconds_since t0]: seconds elapsed since the reading [t0]. *)
