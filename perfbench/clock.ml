(** The monotonic clock every timing in the benchmark reads:
    [CLOCK_MONOTONIC] through bechamel's stub.  The external is [noalloc]
    and returns an unboxed [int64], so a read allocates nothing. *)

let[@inline] now () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9
let seconds_since t0 = seconds_between t0 (now ())

(** Median cost of one back-to-back pair of reads, subtracted from
    single-call timings in the layer ladder. *)
let overhead_ns =
  lazy
    (let n = 100_001 in
     let a = Array.make n 0 in
     for i = 0 to n - 1 do
       let t0 = now () in
       let t1 = now () in
       a.(i) <- t1 - t0
     done;
     Array.sort compare a;
     float_of_int a.(n / 2))
